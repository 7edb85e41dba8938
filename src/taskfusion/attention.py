"""Multi-head self/cross attention and sinusoidal positional encodings.

Each attention block is one call of the fused tape op ``tensor.attention``
(node kind ``"attention"``), which owns the whole contract. It checks its
inputs: token sets ``[n, D]`` or a batch of them, ``[B, n, D]``,
non-empty, with equal batch axes and width. Its one node covers every
batch entry and head, from the projections to the output projection, and
its backward rule computes every gradient in numpy. It returns the output
and the per-head weights, ``[heads, nq, nk]`` unbatched or ``[B, heads,
nq, nk]`` batched: a read-only view (``writeable`` False) of the array
the backward rule reads, so copy them to edit. Self-attention hands the
op its token set once, as queries and memory both. The decoder returns
the weights with its predictions; the encoders drop them and call
``self_attention`` only: the ``per_frame_token`` encoder's class query
runs through ``tensor.class_attention`` instead. Queries carry no
positional information of their own; position enters only where a caller
adds a positional encoding to the memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tl
from .tensor import ShapeError, Tensor


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
        if self.head_count < 1:
            raise ShapeError(f"head_count must be >= 1, got {self.head_count}")
        if d % self.head_count != 0:
            raise ShapeError(f"width {d} not divisible by {self.head_count} heads")

    @property
    def width(self) -> int:
        return self.wq.data.shape[0]

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


def self_attention(tokens: Tensor, params: AttentionParams
                   ) -> tuple[Tensor, np.ndarray]:
    """Scaled dot-product attention of each token set over itself: the
    output and the weights."""
    return tl.attention(tokens, None, params.wq, params.wk, params.wv,
                        params.wo, params.head_count)


def cross_attention(memory: Tensor, queries: Tensor, params: AttentionParams
                    ) -> tuple[Tensor, np.ndarray]:
    """Queries attend over a separate memory: the output, shaped as the
    queries, and the weights."""
    return tl.attention(queries, memory, params.wq, params.wk, params.wv,
                        params.wo, params.head_count)


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
