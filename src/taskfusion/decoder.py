"""Task-token decoder: 10 learnable query tokens refined through N layers.

The decoder works on a batch of B clips at once: tokens have shape
[B, 10, D]. Each layer first lets all 10 tokens of a clip exchange
information through self-attention (task fusion), then routes the two
temporal-task tokens through cross-attention over the clip's per-frame
memory and the eight detection tokens through cross-attention over its
keyframe's patch memory. Each of the three sublayers is one post-norm
residual block, ``layer_norm(x + attention(x))``. After the last layer,
three head groups translate the tokens into predictions: one two-layer
MLP for the state change token, one for the keyframe token, and eight
for the detection tokens. Every token keeps its own head weights,
stacked per group, and each group is one ``tensor.mlp`` op (one tape
node) whose matmuls run all of its tokens' MLPs at once, batched over
the token axis.

Token roles are fixed: row 0 predicts whether a state change occurs,
row 1 localizes the change frame, rows 2..9 are detection queries. A
single clip is a batch of one; there is no separate per-clip path.

The contract with the encoders and the callers: an encoder hands over
``ClipFeatures`` for a batch of B clips of T frames: one summary row per
frame ``h_frames [B, T, D]``, one slab tensor ``slabs [B*T, S, D']``
whose row ``b*T + t`` holds the rows clip b's frame t's patch rows are
made from, of any width, and the encoder's function that makes them. A
caller names each clip's keyframe as an int, and the decode gathers the
slabs of those keyframes in one op and makes patch rows of them only.
Every decode returns, with its predictions, the attention weights each
attention block returns, and it keeps no state between decodes.

A pass reads the keyframe first in layer 0's detection block. Everything
before it, the position-encoded per-frame memory and layer 0's self and
temporal blocks, is the pass's prefix and is the same whatever the
keyframe. ``infer`` computes it once and hands it to both of its passes,
so its final pass starts at layer 0's detection block; ``decode``
computes its own. Batched inference shares it the same way, one prefix
per batch.

Every attention block, the decoder's and the encoders', is one call of
the fused op ``tensor.attention``, which checks its inputs, on the
projections and head count an ``AttentionParams`` holds. The one-call
wrappers ``self_attention`` and ``cross_attention`` keep their names, so
a profiler can wrap them where the decoder and the encoders look them up
(``perfbench``'s ``attention.*`` spans do). Each consumer builds the
sinusoidal ``positions`` rows it adds once, at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import tensor as tl
from .tensor import ContractError, ShapeError, Tensor

TOKEN_COUNT = 10
OSCC_TOKEN = 0
PNR_TOKEN = 1
SCOD_TOKENS = slice(2, 10)
SCOD_QUERY_COUNT = 8
SCOD_CLASS_COUNT = 3  # hand, object, no-object

# Task -> (first token, token count) of its head group, in token order.
HEAD_TOKENS = {"oscc": (OSCC_TOKEN, 1), "pnr": (PNR_TOKEN, 1),
               "scod": (SCOD_TOKENS.start, SCOD_QUERY_COUNT)}


@dataclass
class ClipFeatures:
    """Encoder outputs for a batch of B clips.

    ``h_frames`` holds each encoder's summary row of every frame (its class
    row, or the mean of the frame's patches). The patch rows of a frame
    are made only for the keyframes a decode asks for: row ``b*T + t`` of
    ``slabs`` holds the rows [S, D'] clip b's frame t's patch rows are
    computed from, and ``patch_rows`` maps a batch of gathered frame slabs
    [B, S, D'] to their patch rows [B, P, D]. Its slabs may have any width
    D' (the ``per_frame_token`` encoder's are the frames' raw patches).
    None means the slabs already are the patch rows; ``keyframe_patches``
    checks the shape of the patch rows either way.
    """

    h_frames: Tensor  # [B, T, D]
    slabs: Tensor     # [B*T, S, D']
    patches: int
    patch_rows: Callable[[Tensor], Tensor] | None = None

    def __post_init__(self):
        if self.h_frames.data.ndim != 3:
            raise ShapeError(f"h_frames shape {self.h_frames.shape} != "
                             f"(B, T, D)")
        b, t, _ = self.h_frames.shape
        if t < 2 or self.patches < 1:
            raise ShapeError(f"need T >= 2 and P >= 1, got T={t} "
                             f"P={self.patches}")
        if self.slabs.data.ndim != 3 or self.slabs.shape[0] != b * t:
            raise ShapeError(f"slabs {self.slabs.shape} are not "
                             f"({b * t}, S, D')")

    @property
    def batch(self) -> int:
        return self.h_frames.data.shape[0]

    @property
    def frames(self) -> int:
        return self.h_frames.data.shape[1]

    @property
    def width(self) -> int:
        return self.h_frames.data.shape[2]

    def keyframe_patches(self, keyframes: Sequence[int] | np.ndarray
                         ) -> Tensor:
        """Patch rows [B, P, D] of one frame per clip (one int per clip):
        the slabs of those frames, gathered in one op, then
        ``patch_rows``."""
        b, t, _ = self.h_frames.data.shape
        ks = np.asarray(keyframes)
        if ks.shape != (b,) or ks.dtype.kind not in "iu":
            raise ContractError(f"keyframes {keyframes!r} are not one int per "
                                f"clip of a batch of {b}")
        ks = ks.tolist()
        if any(k < 0 or k >= t for k in ks):
            raise ContractError(f"keyframes {ks} outside [0, {t})")
        rows = tl.take0(self.slabs, [i * t + k for i, k in enumerate(ks)])
        if self.patch_rows is not None:
            rows = self.patch_rows(rows)
        want = (b, self.patches, self.width)
        if rows.data.shape != want:
            raise ShapeError(f"keyframe patch rows {rows.shape} != {want}")
        return rows


@dataclass
class DecoderConfig:
    layers: int = 2
    width: int = 64
    heads: int = 4
    frames: int = 16
    patches: int = 16
    mlp_hidden: int = 128
    enabled_tasks: tuple[str, ...] = ("oscc", "pnr", "scod")

    def __post_init__(self):
        for name in ("layers", "width", "heads", "frames", "patches",
                     "mlp_hidden"):
            value = getattr(self, name)
            if value < 1:
                raise ShapeError(f"{name} must be >= 1, got {value}")
        if self.width % self.heads != 0:
            raise ShapeError(f"width {self.width} not divisible by "
                             f"{self.heads} heads")
        if not self.enabled_tasks:
            raise ShapeError("at least one task must be enabled")


@dataclass
class ScodQuery:
    class_logits: Tensor  # [3]: hand, object, no-object
    box: Tensor           # [4]: (cx, cy, w, h), each squashed into (0, 1)


class _Outputs:
    """Per-task outputs; a disabled task's fields raise on access."""

    def _require(self, task: str):
        value = getattr(self, f"_{task}")
        if value is None:
            raise ContractError(f"task {task!r} was disabled for this decode")
        return value


class ClipPrediction(_Outputs):
    """Detached outputs for one clip, as the model's ``predict`` returns
    them."""

    def __init__(self, oscc_logits: Tensor | None, pnr_logits: Tensor | None,
                 scod: list[ScodQuery] | None, keyframe_used: int):
        self._oscc = oscc_logits
        self._pnr = pnr_logits
        self._scod = scod
        self.keyframe_used = keyframe_used

    @property
    def oscc_logits(self) -> Tensor:  # [2]
        return self._require("oscc")

    @property
    def pnr_logits(self) -> Tensor:   # [T]
        return self._require("pnr")

    @property
    def scod(self) -> list[ScodQuery]:
        return self._require("scod")


@dataclass
class LayerAttention:
    """Attention weights of one decoder layer for a batch of B clips."""

    self_attn: np.ndarray      # [B, heads, 10, 10]
    temporal: np.ndarray       # [B, heads, 2, T]
    spatial: np.ndarray        # [B, heads, 8, P]


class TaskPredictions(_Outputs):
    """Decoder outputs for a batch of B clips, on the gradient tape.

    ``keyframes`` [B] holds the frame each clip's spatial memory came
    from; ``attention`` holds the weights of the pass that used them, one
    entry per layer. Its arrays are read-only views of the ones the
    attention ops' backward rules read; copy one before writing to it.
    """

    def __init__(self, oscc_logits: Tensor | None, pnr_logits: Tensor | None,
                 scod: tuple[Tensor, Tensor] | None, keyframes: np.ndarray,
                 attention: list[LayerAttention]):
        self._oscc = oscc_logits
        self._pnr = pnr_logits
        self._scod = scod
        self.keyframes = keyframes
        self.attention = attention

    @property
    def oscc_logits(self) -> Tensor:  # [B, 2]
        return self._require("oscc")

    @property
    def pnr_logits(self) -> Tensor:   # [B, T]
        return self._require("pnr")

    @property
    def scod_logits(self) -> Tensor:  # [B, 8, 3]: hand, object, no-object
        return self._require("scod")[0]

    @property
    def scod_boxes(self) -> Tensor:   # [B, 8, 4]: (cx, cy, w, h) in (0, 1)
        return self._require("scod")[1]

    def outputs(self) -> list[Tensor]:
        """The enabled tasks' output tensors, in task order."""
        return [t for t in (self._oscc, self._pnr, *(self._scod or ()))
                if t is not None]

    def clip(self, b: int) -> ClipPrediction:
        """Detached copy of clip ``b``'s outputs."""
        def row(t: Tensor | None) -> Tensor | None:
            return None if t is None else tl.constant(t.data[b])

        scod = None
        if self._scod is not None:
            logits, boxes = self._scod
            scod = [ScodQuery(class_logits=tl.constant(c), box=tl.constant(x))
                    for c, x in zip(logits.data[b], boxes.data[b])]
        return ClipPrediction(row(self._oscc), row(self._pnr), scod,
                              keyframe_used=int(self.keyframes[b]))


def positions(n: int, width: int) -> Tensor:
    """The sinusoidal position rows [n, width] of Vaswani et al. (arXiv
    1706.03762), a constant: sin/cos pairs over geometric periods. Entry
    (i, j) depends only on i and j, so these are the first n rows for any
    longer n."""
    if width % 2:
        raise ShapeError(f"position rows need an even width, got {width}")
    pos = np.arange(n, dtype=np.float64)[:, None]
    i = np.arange(0, width, 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, i / width)
    table = np.zeros((n, width))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    return tl.constant(table)


@dataclass
class AttentionParams:
    """Projection matrices for one attention block (all [D, D]); the
    attention ops check their shapes and the head count at every call."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    head_count: int

    @classmethod
    def init(cls, rng: np.random.Generator, width: int, head_count: int,
             std: float = 0.02) -> "AttentionParams":
        # drawn in the order wq, wk, wv, wo
        return cls(*(tl.randn(rng, (width, width), std, requires_grad=True)
                     for _ in range(4)), head_count)

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.wq": self.wq, f"{prefix}.wk": self.wk,
                f"{prefix}.wv": self.wv, f"{prefix}.wo": self.wo}


def self_attention(tokens: Tensor, params: AttentionParams
                   ) -> tuple[Tensor, np.ndarray]:
    """Each token set [n, D] or [B, n, D] attends over itself: the output
    and the weights."""
    return tl.attention(tokens, None, params.wq, params.wk, params.wv,
                        params.wo, params.head_count)


def cross_attention(memory: Tensor, queries: Tensor, params: AttentionParams
                    ) -> tuple[Tensor, np.ndarray]:
    """Queries attend over a separate memory: the output, shaped as the
    queries, and the weights."""
    return tl.attention(queries, memory, params.wq, params.wk, params.wv,
                        params.wo, params.head_count)


@dataclass
class _Block:
    """One post-norm residual attention sublayer: ``layer_norm(x +
    attention(x))``, the attention over x itself or over a memory."""

    attn: AttentionParams
    ln_g: Tensor
    ln_b: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, width: int, heads: int):
        return cls(AttentionParams.init(rng, width, heads),
                   tl.ones(width, requires_grad=True),
                   tl.zeros(width, requires_grad=True))

    def __call__(self, x: Tensor, memory: Tensor | None = None
                 ) -> tuple[Tensor, np.ndarray]:
        """The block's output, shaped as x, and its attention weights."""
        a, weights = (self_attention(x, self.attn) if memory is None
                      else cross_attention(memory, x, self.attn))
        return tl.layer_norm(tl.add(x, a), self.ln_g, self.ln_b), weights


# A layer's self, temporal and spatial blocks: (attention, LayerNorm) names.
_BLOCK_NAMES = (("self", "ln_self"), ("cross_t", "ln_t"), ("cross_s", "ln_s"))


@dataclass
class _HeadGroup:
    """Two-layer MLPs for G consecutive tokens, one per token, stacked:
    w1 [G, D, H], b1 [G, H], w2 [G, H, O], b2 [G, O]."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, tokens: int, width: int,
             hidden: int, out: int) -> "_HeadGroup":
        # Draw token by token (w1 then w2), as separate heads would.
        w1, w2 = [], []
        for _ in range(tokens):
            w1.append(rng.standard_normal((width, hidden)) * 0.02)
            w2.append(rng.standard_normal((hidden, out)) * 0.02)
        return cls(w1=tl.tensor(np.stack(w1), requires_grad=True),
                   b1=tl.zeros((tokens, hidden), requires_grad=True),
                   w2=tl.tensor(np.stack(w2), requires_grad=True),
                   b2=tl.zeros((tokens, out), requires_grad=True))

    def forward(self, tokens: Tensor) -> Tensor:
        """[B, G, D] -> [B, G, O], token g through its own MLP."""
        return tl.mlp(tokens, self.w1, self.b1, self.w2, self.b2)

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.w1": self.w1, f"{prefix}.b1": self.b1,
                f"{prefix}.w2": self.w2, f"{prefix}.b2": self.b2}


@dataclass
class _Prefix:
    """What every pass over one batch computes before it reads a keyframe
    (``TaskFusionDecoder._prefix``)."""

    h_t: Tensor                # [B, T, D] per-frame memory plus positions
    z_t: Tensor                # [B, 2, D] layer 0's temporal rows
    f_s: Tensor                # [B, 8, D] layer 0's detection rows
    self_attn: np.ndarray      # layer 0's weights, as in LayerAttention
    temporal: np.ndarray


class TaskFusionDecoder:
    """The decoder stack plus its three prediction head groups."""

    def __init__(self, config: DecoderConfig, rng: np.random.Generator):
        self.config = config
        d, h = config.width, config.heads
        self.tokens = tl.randn(rng, (TOKEN_COUNT, d), std=0.02,
                               requires_grad=True)
        self._frame_positions = positions(config.frames, d)
        self._patch_positions = positions(config.patches, d)
        self.layers = [tuple(_Block.init(rng, d, h) for _ in _BLOCK_NAMES)
                       for _ in range(config.layers)]
        out_width = {"oscc": 2, "pnr": config.frames,
                     "scod": SCOD_CLASS_COUNT + 4}
        self.heads = {task: _HeadGroup.init(rng, count, d, config.mlp_hidden,
                                            out_width[task])
                      for task, (_, count) in HEAD_TOKENS.items()}

    def parameters(self) -> dict[str, Tensor]:
        params: dict[str, Tensor] = {"tokens": self.tokens}
        for k, layer in enumerate(self.layers):
            # A layer's attention weights come before its LayerNorm pairs:
            # the order of a checkpoint's payload.
            for (attn, _), block in zip(_BLOCK_NAMES, layer):
                params.update(block.attn.named(f"layer{k}.{attn}"))
            for (_, ln), block in zip(_BLOCK_NAMES, layer):
                params[f"layer{k}.{ln}.g"] = block.ln_g
                params[f"layer{k}.{ln}.b"] = block.ln_b
        for task, group in self.heads.items():
            params.update(group.named(f"head.{task}"))
        return params

    def decode(self, features: ClipFeatures,
               keyframes: Sequence[int] | np.ndarray) -> TaskPredictions:
        """One pass over a batch, each clip's spatial memory taken from its
        keyframe (one int per clip), through every enabled head group."""
        z, keyframes, attention = self._tokens(features, keyframes)
        return TaskPredictions(*self._heads(z, self.config.enabled_tasks),
                               keyframes, attention)

    def _prefix(self, features: ClipFeatures) -> _Prefix:
        """Every op of a pass that reads no keyframe: the per-frame memory
        h_t [B, T, D] with its position rows added, and layer 0's self
        and temporal blocks."""
        cfg = self.config
        if features.width != cfg.width or features.frames != cfg.frames \
                or features.patches != cfg.patches:
            raise ShapeError(
                f"clip features (frames {features.frames}, patches "
                f"{features.patches}, width {features.width}) do not match "
                f"the decoder's (frames {cfg.frames}, patches {cfg.patches}, "
                f"width {cfg.width})")
        h_t = tl.add(features.h_frames, self._frame_positions)
        z = tl.repeat0(tl.reshape(self.tokens, (1, TOKEN_COUNT, cfg.width)),
                       features.batch)
        return _Prefix(h_t, *self._temporal(self.layers[0], z, h_t))

    @staticmethod
    def _temporal(layer: tuple[_Block, ...], z: Tensor, h_t: Tensor
                  ) -> tuple[Tensor, Tensor, np.ndarray, np.ndarray]:
        """One layer's self block over tokens z [B, 10, D], then its
        temporal block over h_t: the temporal rows [B, 2, D], the detection
        rows [B, 8, D] for the layer's detection block, and the two
        blocks' attention weights."""
        f, w_self = layer[0](z)
        f_t, f_s = tl.narrow(f, 1, 0, 2), tl.narrow(f, 1, 2, SCOD_QUERY_COUNT)
        z_t, w_t = layer[1](f_t, h_t)
        return z_t, f_s, w_self, w_t

    def _tokens(self, features: ClipFeatures,
                keyframes: Sequence[int] | np.ndarray, detection: bool = True,
                prefix: _Prefix | None = None
                ) -> tuple[Tensor, np.ndarray, list[LayerAttention]]:
        """The decoder layers over the per-frame memory h_t [B, T, D] and
        the keyframes' spatial memory h_s [B, P, D], each with its position
        rows added: refined tokens [B, 10, D], the keyframes used and each
        layer's attention weights. ``prefix`` is this batch's ``_prefix``,
        computed here when None. With ``detection`` False the last layer
        leaves out its detection block, which only the detection heads
        read: the tokens are then the two temporal rows [B, 2, D], and the
        attention has no entry for the last layer."""
        p = self._prefix(features) if prefix is None else prefix
        z_t, f_s, w_self, w_t = p.z_t, p.f_s, p.self_attn, p.temporal
        used = np.asarray(keyframes)
        h_s = None
        attention: list[LayerAttention] = []
        for k, layer in enumerate(self.layers):
            if k:
                z_t, f_s, w_self, w_t = self._temporal(layer, z, p.h_t)
            if not detection and k == len(self.layers) - 1:
                return z_t, used, attention
            if h_s is None:  # the first op that reads a keyframe
                h_s = tl.add(features.keyframe_patches(keyframes),
                             self._patch_positions)
            z_s, w_s = layer[2](f_s, h_s)
            z = tl.concat([z_t, z_s], axis=1)
            attention.append(LayerAttention(self_attn=w_self, temporal=w_t,
                                            spatial=w_s))
        return z, used, attention

    def _heads(self, z: Tensor, tasks: Sequence[str]
               ) -> tuple[Tensor | None, Tensor | None,
                          tuple[Tensor, Tensor] | None]:
        """The (oscc, pnr, scod) outputs of the head groups of ``tasks``
        over tokens ``z``; a task left out gives None."""
        b = z.shape[0]
        out = {task: self.heads[task].forward(
                   tl.narrow(z, 1, *HEAD_TOKENS[task])) for task in tasks}
        oscc = pnr = scod = None
        if "oscc" in out:
            oscc = tl.reshape(out["oscc"], (b, 2))
        if "pnr" in out:
            pnr = tl.reshape(out["pnr"], (b, self.config.frames))
        if "scod" in out:
            raw = out["scod"]
            scod = (tl.narrow(raw, 2, 0, SCOD_CLASS_COUNT),
                    tl.sigmoid(tl.narrow(raw, 2, SCOD_CLASS_COUNT, 4)))
        return oscc, pnr, scod

    def infer(self, features: ClipFeatures) -> TaskPredictions:
        """Two-pass inference: a mid-frame provisional pass produces the
        keyframe logits, whose argmax (the first frame on ties) selects the
        spatial memory for the final pass. The provisional pass runs only
        the temporal head groups (state change and keyframe), whose outputs
        are returned: they chose the keyframe; its last layer leaves out
        the detection block. The final pass runs only the detection group;
        the detection outputs and the attention weights come from it, the
        last layer's temporal block included. The two passes share their
        prefix, the ops before the first one that reads a keyframe: the
        position-encoded per-frame memory and layer 0's self and temporal
        blocks run once, and the final pass's layer-0 weights are the
        provisional pass's arrays. So an infer makes 2·3·L − 3 attention
        calls for L layers. Without the keyframe task there are no logits
        to choose by, and the mid-frame pass, through every enabled head
        group, is the only one."""
        enabled = self.config.enabled_tasks
        mid_frame = [features.frames // 2] * features.batch
        if "pnr" not in enabled:
            return self.decode(features, mid_frame)
        prefix = self._prefix(features)
        z, _, _ = self._tokens(features, mid_frame, detection=False,
                               prefix=prefix)
        oscc, pnr, _ = self._heads(z, [t for t in enabled if t != "scod"])
        z, keyframes, attention = self._tokens(
            features, pnr.data.argmax(1), prefix=prefix)
        _, _, scod = self._heads(z, [t for t in enabled if t == "scod"])
        return TaskPredictions(oscc, pnr, scod, keyframes, attention)
