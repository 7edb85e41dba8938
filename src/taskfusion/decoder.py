"""Task-token decoder: 10 learnable query tokens refined through N layers.

The decoder works on a batch of B clips at once: tokens have shape
[B, 10, D]. Each layer first lets all 10 tokens of a clip exchange
information through self-attention (task fusion), then routes the two
temporal-task tokens through cross-attention over the clip's per-frame
memory and the eight detection tokens through cross-attention over its
keyframe's patch memory. Residual additions and layer normalization wrap
every attention sublayer. After the last layer, three head groups
translate the tokens into predictions: one two-layer MLP for the state
change token, one for the keyframe token, and eight stacked MLPs, applied
together by batched matmul, for the detection tokens. Every token keeps
its own head weights.

Token roles are fixed: row 0 predicts whether a state change occurs,
row 1 localizes the change frame, rows 2..9 are detection queries. A
single clip is a batch of one; there is no separate per-clip path.

The contract with the encoders and the callers is plain data: an encoder
hands over ``ClipFeatures`` (one summary row per frame and every patch of
every frame), a caller names each clip's keyframe as an int, and every
decode returns its attention weights with its predictions. The decoder
is the only caller that passes attention a ``cache`` list, one per block
and layer, and it keeps no state between decodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as tl
from .attention import (AttentionParams, PositionalEncoding, cross_attention,
                        self_attention)
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
    row, or the mean of the frame's patches); ``h_total`` keeps every patch
    of every frame.
    """

    h_frames: Tensor     # [B, T, D]
    h_total: Tensor      # [B, T, P, D]
    frames: int
    patches: int

    def __post_init__(self):
        t, p = self.frames, self.patches
        if t < 2 or p < 1:
            raise ShapeError(f"need T >= 2 and P >= 1, got T={t} P={p}")
        if self.h_total.data.ndim != 4 or self.h_total.shape[1:3] != (t, p):
            raise ShapeError(f"h_total shape {self.h_total.shape} != "
                             f"(B, {t}, {p}, D)")
        b, d = self.h_total.shape[0], self.h_total.shape[3]
        if self.h_frames.shape != (b, t, d):
            raise ShapeError(f"h_frames shape {self.h_frames.shape} != "
                             f"({b}, {t}, {d})")

    @classmethod
    def concat(cls, items: Sequence["ClipFeatures"]) -> "ClipFeatures":
        """Join batches in order into one."""
        return cls(h_frames=tl.concat([f.h_frames for f in items], axis=0),
                   h_total=tl.concat([f.h_total for f in items], axis=0),
                   frames=items[0].frames, patches=items[0].patches)

    @property
    def batch(self) -> int:
        return self.h_total.shape[0]

    @property
    def width(self) -> int:
        return self.h_total.shape[3]


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
        if self.layers < 1:
            raise ShapeError("need at least one decoder layer")
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


def build_temporal_memory(features: ClipFeatures,
                          pe: PositionalEncoding) -> Tensor:
    """Per-frame memory h_t [B, T, D]: frame features plus the time
    position table."""
    return pe.encode(features.h_frames, 0)


def select_keyframe(features: ClipFeatures, pe: PositionalEncoding,
                    keyframes: Sequence[int] | np.ndarray
                    ) -> tuple[Tensor, np.ndarray]:
    """Spatial memory h_s [B, P, D] from the patches of each clip's
    keyframe (one int per clip), gathering every clip's slab in one op."""
    b, t, p = features.batch, features.frames, features.patches
    ks = np.asarray(keyframes)
    if ks.shape != (b,) or not np.issubdtype(ks.dtype, np.integer):
        raise ContractError(f"keyframes {keyframes!r} are not one int per "
                            f"clip of a batch of {b}")
    if np.any(ks < 0) or np.any(ks >= t):
        raise ContractError(f"keyframes {ks.tolist()} outside [0, {t})")
    flat = tl.reshape(features.h_total, (b * t, p, features.width))
    h_s = pe.encode(tl.take0(flat, np.arange(b) * t + ks), 0)
    return h_s, ks


@dataclass
class _Layer:
    self_attn: AttentionParams
    cross_temporal: AttentionParams
    cross_spatial: AttentionParams
    ln_self_g: Tensor
    ln_self_b: Tensor
    ln_t_g: Tensor
    ln_t_b: Tensor
    ln_s_g: Tensor
    ln_s_b: Tensor


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
        def per_token(x, w, b):  # [B, G, i] @ [G, i, o] + [G, o]
            y = tl.bmm(tl.permute(x, (1, 0, 2)), w)
            return tl.add(tl.permute(y, (1, 0, 2)), b)

        h = tl.gelu(per_token(tokens, self.w1, self.b1))
        return per_token(h, self.w2, self.b2)

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.w1": self.w1, f"{prefix}.b1": self.b1,
                f"{prefix}.w2": self.w2, f"{prefix}.b2": self.b2}


class TaskFusionDecoder:
    """The decoder stack plus its three prediction head groups."""

    def __init__(self, config: DecoderConfig, rng: np.random.Generator):
        self.config = config
        d, h = config.width, config.heads
        self.tokens = tl.randn(rng, (TOKEN_COUNT, d), std=0.02,
                               requires_grad=True)
        self.pe = PositionalEncoding(
            max(config.frames, config.patches) + 1, d)
        self.layers = [
            _Layer(
                self_attn=AttentionParams.init(rng, d, h),
                cross_temporal=AttentionParams.init(rng, d, h),
                cross_spatial=AttentionParams.init(rng, d, h),
                ln_self_g=tl.ones(d, requires_grad=True),
                ln_self_b=tl.zeros(d, requires_grad=True),
                ln_t_g=tl.ones(d, requires_grad=True),
                ln_t_b=tl.zeros(d, requires_grad=True),
                ln_s_g=tl.ones(d, requires_grad=True),
                ln_s_b=tl.zeros(d, requires_grad=True),
            )
            for _ in range(config.layers)
        ]
        out_width = {"oscc": 2, "pnr": config.frames,
                     "scod": SCOD_CLASS_COUNT + 4}
        self.heads = {task: _HeadGroup.init(rng, count, d, config.mlp_hidden,
                                            out_width[task])
                      for task, (_, count) in HEAD_TOKENS.items()}

    def parameters(self) -> dict[str, Tensor]:
        params: dict[str, Tensor] = {"tokens": self.tokens}
        for k, layer in enumerate(self.layers):
            params.update(layer.self_attn.named(f"layer{k}.self"))
            params.update(layer.cross_temporal.named(f"layer{k}.cross_t"))
            params.update(layer.cross_spatial.named(f"layer{k}.cross_s"))
            params[f"layer{k}.ln_self.g"] = layer.ln_self_g
            params[f"layer{k}.ln_self.b"] = layer.ln_self_b
            params[f"layer{k}.ln_t.g"] = layer.ln_t_g
            params[f"layer{k}.ln_t.b"] = layer.ln_t_b
            params[f"layer{k}.ln_s.g"] = layer.ln_s_g
            params[f"layer{k}.ln_s.b"] = layer.ln_s_b
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

    def _tokens(self, features: ClipFeatures,
                keyframes: Sequence[int] | np.ndarray, detection: bool = True
                ) -> tuple[Tensor, np.ndarray, list[LayerAttention]]:
        """The decoder layers: refined tokens [B, 10, D], the keyframes
        used and each layer's attention weights. With ``detection`` False
        the last layer leaves out its detection block, which only the
        detection heads read: the tokens are then the two temporal rows
        [B, 2, D], and the attention has no entry for the last layer."""
        cfg = self.config
        if features.width != cfg.width or features.frames != cfg.frames \
                or features.patches != cfg.patches:
            raise ShapeError(
                f"clip features (frames {features.frames}, patches "
                f"{features.patches}, width {features.width}) do not match "
                f"the decoder's (frames {cfg.frames}, patches {cfg.patches}, "
                f"width {cfg.width})")
        b, d = features.batch, cfg.width

        h_t = build_temporal_memory(features, self.pe)
        h_s, keyframes = select_keyframe(features, self.pe, keyframes)

        attention: list[LayerAttention] = []
        z = tl.repeat0(tl.reshape(self.tokens, (1, TOKEN_COUNT, d)), b)
        for k, layer in enumerate(self.layers):
            c_self: list[np.ndarray] = []
            c_t: list[np.ndarray] = []
            c_s: list[np.ndarray] = []
            f = tl.layer_norm(
                tl.add(z, self_attention(z, layer.self_attn, c_self)),
                layer.ln_self_g, layer.ln_self_b)
            f_t = tl.narrow(f, 1, 0, 2)
            f_s = tl.narrow(f, 1, 2, SCOD_QUERY_COUNT)
            z_t = tl.layer_norm(
                tl.add(f_t, cross_attention(h_t, f_t, layer.cross_temporal, c_t)),
                layer.ln_t_g, layer.ln_t_b)
            if not detection and k == len(self.layers) - 1:
                return z_t, keyframes, attention
            z_s = tl.layer_norm(
                tl.add(f_s, cross_attention(h_s, f_s, layer.cross_spatial, c_s)),
                layer.ln_s_g, layer.ln_s_b)
            z = tl.concat([z_t, z_s], axis=1)
            attention.append(LayerAttention(self_attn=c_self[0],
                                            temporal=c_t[0],
                                            spatial=c_s[0]))
        return z, keyframes, attention

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
        last layer's temporal block included. Without the keyframe task
        there are no logits to choose by, and the mid-frame pass, through
        every enabled head group, is the only one."""
        enabled = self.config.enabled_tasks
        mid_frame = [features.frames // 2] * features.batch
        if "pnr" not in enabled:
            return self.decode(features, mid_frame)
        z, _, _ = self._tokens(features, mid_frame, detection=False)
        oscc, pnr, _ = self._heads(z, [t for t in enabled if t != "scod"])
        z, keyframes, attention = self._tokens(
            features, np.argmax(pnr.data, axis=1))
        _, _, scod = self._heads(z, [t for t in enabled if t == "scod"])
        return TaskPredictions(oscc, pnr, scod, keyframes, attention)
