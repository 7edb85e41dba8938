"""Multi-head self/cross attention and sinusoidal positional encodings.

Both attention blocks take token sets of shape ``[n, D]`` or a batch of
them, ``[B, n, D]``, and run every batch entry and every head through one
fused tape op, ``tensor.attention`` (node kind ``"attention"``): the
projections, the head split, the scaled max-subtracted softmax, the head
merge and the output projection are one node whose backward rule computes
every gradient in numpy. Self-attention hands the op its token set once,
as queries and memory both. Each block returns its output and the call's
per-head weight matrices: ``[heads, nq, nk]`` for an unbatched call,
``[B, heads, nq, nk]`` for a batched one. The weights are a read-only view
(``writeable`` False) of the array the op's backward rule reads, not a
copy, so writing to them raises; copy them to edit. The decoder returns
them with its predictions; the encoders drop them. The encoders call
``self_attention`` only: the ``per_frame_token`` encoder's class query
runs through ``tensor.class_attention`` instead. Queries carry no positional
information of their own; position enters only where a caller adds a
positional encoding to the memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tl
from .tensor import ContractError, ShapeError, Tensor


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for rows x [n, D_in]; the [D_out] bias broadcasts over rows."""
    return tl.add(tl.matmul(x, w), b)


@dataclass
class AttentionParams:
    """Projection matrices for one attention block (all [D, D])."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    head_count: int

    def __post_init__(self):
        d = self.wq.shape[0]
        for name in ("wq", "wk", "wv", "wo"):
            m = getattr(self, name)
            if m.shape != (d, d):
                raise ShapeError(f"{name} must be square [D, D], got {m.shape}")
        if d % self.head_count != 0:
            raise ShapeError(f"width {d} not divisible by {self.head_count} heads")

    @property
    def width(self) -> int:
        return self.wq.shape[0]

    @classmethod
    def init(cls, rng: np.random.Generator, width: int, head_count: int,
             std: float = 0.02) -> "AttentionParams":
        return cls(
            wq=tl.randn(rng, (width, width), std, requires_grad=True),
            wk=tl.randn(rng, (width, width), std, requires_grad=True),
            wv=tl.randn(rng, (width, width), std, requires_grad=True),
            wo=tl.randn(rng, (width, width), std, requires_grad=True),
            head_count=head_count,
        )

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.wq": self.wq, f"{prefix}.wk": self.wk,
                f"{prefix}.wv": self.wv, f"{prefix}.wo": self.wo}


def _attend(queries: Tensor, memory: Tensor | None, params: AttentionParams
            ) -> tuple[Tensor, np.ndarray]:
    out, weights = tl.attention(queries, memory, params.wq, params.wk,
                                params.wv, params.wo, params.head_count)
    view = weights.reshape(queries.shape[:-2] + weights.shape[1:])
    view.flags.writeable = False
    return out, view


def _check_tokens(x: Tensor, what: str, width: int) -> None:
    if x.data.ndim not in (2, 3):
        raise ShapeError(f"{what} must be [n, D] or [B, n, D], got {x.shape}")
    if x.shape[-2] < 1:
        raise ContractError(f"empty {what}")
    if x.shape[-1] != width:
        raise ShapeError(f"{what} width {x.shape[-1]} != params width {width}")


def self_attention(tokens: Tensor, params: AttentionParams
                   ) -> tuple[Tensor, np.ndarray]:
    """Scaled dot-product attention of each token set over itself: the
    output and the weights."""
    _check_tokens(tokens, "self_attention: token set", params.width)
    return _attend(tokens, None, params)


def cross_attention(memory: Tensor, queries: Tensor, params: AttentionParams
                    ) -> tuple[Tensor, np.ndarray]:
    """Queries attend over a separate memory: the output, shaped as the
    queries, and the weights."""
    _check_tokens(memory, "cross_attention: memory", params.width)
    _check_tokens(queries, "cross_attention: query set", params.width)
    if memory.shape[:-2] != queries.shape[:-2]:
        raise ShapeError(f"cross_attention: memory batch {memory.shape[:-2]} "
                         f"!= query batch {queries.shape[:-2]}")
    return _attend(queries, memory, params)


class PositionalEncoding:
    """Fixed sinusoidal position table: sin/cos pairs over geometric periods."""

    def __init__(self, max_len: int, width: int):
        if width % 2 != 0:
            raise ShapeError(f"positional encoding width must be even, got {width}")
        pos = np.arange(max_len, dtype=np.float64)[:, None]
        i = np.arange(0, width, 2, dtype=np.float64)[None, :]
        angle = pos / np.power(10000.0, i / width)
        table = np.zeros((max_len, width))
        table[:, 0::2] = np.sin(angle)
        table[:, 1::2] = np.cos(angle)
        self.table = tl.constant(table)
        self.max_len = max_len
        self.width = width

    def rows(self, n: int) -> Tensor:
        """The first ``n`` table rows [n, D]."""
        if n > self.max_len:
            raise ShapeError(f"positions [0, {n}) exceed table length "
                             f"{self.max_len}")
        return tl.narrow(self.table, 0, 0, n)

    def encode(self, features: Tensor) -> Tensor:
        """Add table rows [0, n) to an [..., n, D] feature block."""
        n, d = features.shape[-2:]
        if d != self.width:
            raise ShapeError(f"feature width {d} != table width {self.width}")
        return tl.add(features, self.rows(n))
