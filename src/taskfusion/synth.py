"""Procedural stand-in for an egocentric hand/object interaction dataset.

Each clip is a T-frame raster sequence on a static noisy backdrop: a
hand-colored square drifts over the scene, and on state-change clips it
approaches the object square, makes contact at the change frame, and the
object's color flips from that frame onward. Ground-truth labels (change
flag, change frame, hand/object boxes at the keyframe) fall out of the
script that drew the pixels, so rendered geometry and labels agree
exactly.

Dataset files store only (seed, config, labels); clips regenerate from
the seed on read, and the stored labels double as a corruption check.

Three trainable encoder variants mirror common backbone families:
per-frame tokens (one class token per frame), a single clip-level token
over all patches, and a small convolutional grid whose features pass
through a two-layer transformer-encoder adapter. Each hands the decoder
the same layout: one summary row per frame (the per-frame class rows, or
else the mean of the frame's patches) and every patch of every frame.
The encoders run attention without collecting its weights. An encoder
keeps the compute dtype it was built in (``tensor.precision``; float64
unless a caller such as ``trainer.build_model`` sets another) and
computes its features in it, whatever the caller's dtype.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as tl
from .attention import AttentionParams, PositionalEncoding, linear, self_attention
from .decoder import ClipFeatures
from .losses import ClipLabels, LabelError, LabeledBox
from .seeding import derive_seed
from .tensor import ShapeError, Tensor

BACKGROUND_LEVEL = 0.25
HAND_COLOR = np.array([0.90, 0.70, 0.55])
OBJECT_COLOR_BEFORE = np.array([0.10, 0.80, 0.20])
OBJECT_COLOR_AFTER = np.array([0.90, 0.15, 0.10])
# Minimum per-channel-summed contrast between a labeled box's fill and the
# backdrop at the keyframe; tests/test_synth.py::
# test_labeled_boxes_contrast_with_the_backdrop asserts against this.
BOX_CONTRAST = 0.5

ENCODER_KINDS = ("per_frame_token", "clip_token", "conv_grid")


class DatasetError(Exception):
    pass


class DatasetParseError(DatasetError):
    """Malformed dataset file; message names the offending line."""


class DatasetCorruptionError(DatasetError):
    """Stored labels disagree with regeneration; message names the record."""


@dataclass
class ClipConfig:
    frames: int = 16
    height: int = 32
    width: int = 32
    p_change: float = 0.5
    clip_duration_seconds: float = 8.0
    noise: float = 0.04

    def __post_init__(self):
        if self.frames < 2:
            raise ShapeError("clips need at least 2 frames")
        if not (0.0 <= self.p_change <= 1.0):
            raise ShapeError("p_change must lie in [0, 1]")


@dataclass
class SceneScript:
    """Everything needed to draw a clip and derive its labels."""

    hand_rects: list[tuple[int, int, int, int]]  # per frame: x0, y0, w, h (px)
    object_rect: tuple[int, int, int, int]
    change_frame: int | None
    background: np.ndarray  # [H, W, 3], static


@dataclass
class SynthClip:
    frames: np.ndarray  # [T, H, W, 3] in [0, 1]
    labels: ClipLabels
    seed: int
    config: ClipConfig


def _rect_to_box(rect: tuple[int, int, int, int], w: int, h: int
                 ) -> tuple[float, float, float, float]:
    x0, y0, rw, rh = rect
    return ((x0 + rw / 2) / w, (y0 + rh / 2) / h, rw / w, rh / h)


def box_to_rect(box, width: int, height: int) -> tuple[int, int, int, int]:
    cx, cy, w, h = box
    rw, rh = round(w * width), round(h * height)
    return (round(cx * width - rw / 2), round(cy * height - rh / 2), rw, rh)


def draw_rect(img: np.ndarray, rect: tuple[int, int, int, int],
              color: np.ndarray) -> None:
    """Fill ``rect`` in an [H, W, 3] image, or in every image of a
    [..., H, W, 3] stack."""
    x0, y0, w, h = rect
    img[..., max(y0, 0):y0 + h, max(x0, 0):x0 + w, :] = color


def _rects_clear(a, b, gap: int) -> bool:
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    return (ax + aw + gap <= bx or bx + bw + gap <= ax
            or ay + ah + gap <= by or by + bh + gap <= ay)


def _make_script(rng: np.random.Generator, cfg: ClipConfig) -> SceneScript:
    t, h, w = cfg.frames, cfg.height, cfg.width
    background = BACKGROUND_LEVEL + rng.uniform(-cfg.noise, cfg.noise,
                                                size=(h, w, 3))
    background = np.clip(background, 0.0, 1.0)

    hand_w = hand_h = max(3, round(0.16 * w))
    obj_w = obj_h = max(4, int(rng.integers(round(0.22 * w), round(0.28 * w) + 1)))
    margin = hand_w + 2
    ox = int(rng.integers(margin, w - obj_w - margin + 1))
    oy = int(rng.integers(margin, h - obj_h - margin + 1))
    obj = (ox, oy, obj_w, obj_h)

    change = rng.random() < cfg.p_change
    if change:
        change_frame = int(rng.integers(1, t))
        side = int(rng.integers(0, 4))
        jitter = int(rng.integers(-2, 3))
        gap = 1
        if side == 0:    # left of object
            contact = (ox - gap - hand_w, oy + (obj_h - hand_h) // 2 + jitter)
        elif side == 1:  # right
            contact = (ox + obj_w + gap, oy + (obj_h - hand_h) // 2 + jitter)
        elif side == 2:  # above
            contact = (ox + (obj_w - hand_w) // 2 + jitter, oy - gap - hand_h)
        else:            # below
            contact = (ox + (obj_w - hand_w) // 2 + jitter, oy + obj_h + gap)
        contact = (min(max(contact[0], 0), w - hand_w),
                   min(max(contact[1], 0), h - hand_h))

        # Approach from farther out along the contact normal, speed-capped
        # so the color flip dominates every inter-frame pixel difference.
        away = np.array([contact[0] + hand_w / 2 - (ox + obj_w / 2),
                         contact[1] + hand_h / 2 - (oy + obj_h / 2)])
        away = away / (np.linalg.norm(away) + 1e-12)
        angle = rng.uniform(-0.6, 0.6)
        rot = np.array([[np.cos(angle), -np.sin(angle)],
                        [np.sin(angle), np.cos(angle)]])
        away = rot @ away
        max_speed = 0.07 * w
        dist = min(float(rng.uniform(3.0, 0.55 * w)), max_speed * change_frame)
        # Python floats from here on: the same float64 arithmetic as numpy
        # without its per-scalar overhead in the per-frame loop.
        start_x = contact[0] + float(away[0]) * dist
        start_y = contact[1] + float(away[1]) * dist

        rects = []
        for k in range(t):
            frac = min(k / change_frame, 1.0)
            x0 = round(start_x + (contact[0] - start_x) * frac)
            y0 = round(start_y + (contact[1] - start_y) * frac)
            rects.append((min(max(x0, 0), w - hand_w),
                          min(max(y0, 0), h - hand_h), hand_w, hand_h))
        return SceneScript(hand_rects=rects, object_rect=obj,
                           change_frame=change_frame, background=background)

    # No-change clip: a slow drift that never comes near the object.
    for _ in range(100):
        sx = int(rng.integers(0, w - hand_w + 1))
        sy = int(rng.integers(0, h - hand_h + 1))
        ex = min(max(sx + int(rng.integers(-12, 13)), 0), w - hand_w)
        ey = min(max(sy + int(rng.integers(-12, 13)), 0), h - hand_h)
        rects = []
        for k in range(t):
            frac = k / (t - 1)
            x0 = round(sx + (ex - sx) * frac)
            y0 = round(sy + (ey - sy) * frac)
            rects.append((int(x0), int(y0), hand_w, hand_h))
        if all(_rects_clear(r, obj, gap=2) for r in rects):
            break
    else:
        corner = (0, 0, hand_w, hand_h) if _rects_clear(
            (0, 0, hand_w, hand_h), obj, 2) else (w - hand_w, h - hand_h,
                                                  hand_w, hand_h)
        rects = [corner] * t
    return SceneScript(hand_rects=rects, object_rect=obj, change_frame=None,
                       background=background)


def _render(script: SceneScript, cfg: ClipConfig) -> np.ndarray:
    t = cfg.frames
    frames = np.repeat(script.background[None], t, axis=0)
    change = t if script.change_frame is None else script.change_frame
    draw_rect(frames[:change], script.object_rect, OBJECT_COLOR_BEFORE)
    draw_rect(frames[change:], script.object_rect, OBJECT_COLOR_AFTER)
    for frame, rect in zip(frames, script.hand_rects):
        draw_rect(frame, rect, HAND_COLOR)
    return frames


def _labels_from_script(script: SceneScript, cfg: ClipConfig) -> ClipLabels:
    if script.change_frame is None:
        return ClipLabels(state_change=False)
    w, h = cfg.width, cfg.height
    k = script.change_frame
    return ClipLabels(
        state_change=True,
        pnr_frame=k,
        boxes=[
            LabeledBox(kind="hand", box=_rect_to_box(script.hand_rects[k], w, h)),
            LabeledBox(kind="object", box=_rect_to_box(script.object_rect, w, h)),
        ],
    )


def generate_clip(seed: int, config: ClipConfig | None = None) -> SynthClip:
    """Deterministically render one clip; identical for identical seeds."""
    cfg = config or ClipConfig()
    rng = np.random.Generator(np.random.PCG64(seed))
    script = _make_script(rng, cfg)
    return SynthClip(frames=_render(script, cfg),
                     labels=_labels_from_script(script, cfg),
                     seed=int(seed), config=cfg)


def pixel_change_keyframe(frames: np.ndarray) -> int:
    """Trivial keyframe detector: argmax of summed inter-frame difference."""
    diffs = np.abs(np.diff(frames, axis=0)).sum(axis=(1, 2, 3))
    return int(np.argmax(diffs)) + 1


# ---------------------------------------------------------------------------
# dataset files


@dataclass
class ClipRecord:
    seed: int
    config: ClipConfig
    labels: ClipLabels

    def clip(self) -> SynthClip:
        return generate_clip(self.seed, self.config)


def _labels_to_dict(labels: ClipLabels) -> dict:
    return {
        "state_change": labels.state_change,
        "pnr_frame": labels.pnr_frame,
        "boxes": [{"kind": b.kind, "box": list(b.box)} for b in labels.boxes],
    }


def _labels_from_dict(d: dict) -> ClipLabels:
    return ClipLabels(
        state_change=bool(d["state_change"]),
        pnr_frame=d["pnr_frame"],
        boxes=[LabeledBox(kind=b["kind"], box=tuple(b["box"]))
               for b in d["boxes"]],
    )


def write_dataset(path, count: int, seed_base: int,
                  config: ClipConfig | None = None,
                  header: dict | None = None) -> None:
    """Write `count` seed-regenerable clip records as header + NDJSON."""
    if count < 1:
        raise DatasetError("count must be >= 1")
    cfg = config or ClipConfig()
    head = {"artifact": "taskfusion-0.1.0", "kind": "dataset"}
    if header:
        head.update(header)
    with open(path, "w", encoding="utf-8") as f:
        f.write("# " + json.dumps(head, sort_keys=True) + "\n")
        for i in range(count):
            seed = derive_seed(seed_base, "clip", i)
            clip = generate_clip(seed, cfg)
            record = {"seed": seed, "config": asdict(cfg),
                      "labels": _labels_to_dict(clip.labels)}
            f.write(json.dumps(record, sort_keys=True) + "\n")


def read_dataset(path) -> list[ClipRecord]:
    """Load records, regenerate each clip's labels, and cross-check them."""
    records: list[ClipRecord] = []
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    index = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            continue
        try:
            raw = json.loads(line)
            record = ClipRecord(seed=int(raw["seed"]),
                                config=ClipConfig(**raw["config"]),
                                labels=_labels_from_dict(raw["labels"]))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                LabelError, ShapeError) as e:
            raise DatasetParseError(f"line {lineno}: {e}") from None
        regenerated = generate_clip(record.seed, record.config).labels
        if _labels_to_dict(regenerated) != _labels_to_dict(record.labels):
            raise DatasetCorruptionError(
                f"record {index} (line {lineno}): stored labels do not "
                "match regeneration")
        records.append(record)
        index += 1
    if not records:
        raise DatasetParseError("line 1: file contains no records")
    return records


# ---------------------------------------------------------------------------
# encoders


def patchify(frames: np.ndarray, patch: int) -> np.ndarray:
    """[T, H, W, 3] -> [T*P, patch*patch*3] row-major over (frame, gy, gx)."""
    t, h, w, c = frames.shape
    if h % patch or w % patch:
        raise ShapeError(f"raster {h}x{w} not divisible into {patch}px patches")
    gy, gx = h // patch, w // patch
    x = frames.reshape(t, gy, patch, gx, patch, c)
    x = x.transpose(0, 1, 3, 2, 4, 5)  # [T, gy, gx, patch, patch, c]
    return np.ascontiguousarray(x.reshape(t * gy * gx, patch * patch * c))


class Encoder:
    """Shared surface of the three encoder variants."""

    kind: str

    def __init__(self, width: int, frames: int, image: int, patch: int):
        if image % patch:
            raise ShapeError(f"image {image} not divisible by patch {patch}")
        self.width = width
        self.frames = frames
        self.image = image
        self.patch = patch
        self.grid = image // patch
        self.patches = self.grid * self.grid
        self.patch_dim = patch * patch * 3
        self.pe = PositionalEncoding(max(self.patches, frames) + 1, width)
        self.dtype = tl.compute_dtype()

    def parameters(self) -> dict[str, Tensor]:
        raise NotImplementedError

    def _features(self, frames: np.ndarray) -> tuple[Tensor, Tensor]:
        """[T, H, W, 3] -> (h_frames [1, T, D], h_total [1, T, P, D])."""
        raise NotImplementedError

    def _forward(self, frames: np.ndarray) -> tuple[Tensor, Tensor]:
        if frames.shape[1:3] != (self.image, self.image):
            raise ShapeError(f"clip raster {frames.shape[1:3]} != "
                             f"({self.image}, {self.image})")
        if self.dtype is tl.compute_dtype():
            return self._features(frames)
        with tl.precision(self.dtype):
            return self._features(frames)

    def encode(self, clip: SynthClip) -> ClipFeatures:
        """Features of one clip, as a batch of one."""
        h_frames, h_total = self._forward(clip.frames)
        return ClipFeatures(h_frames=h_frames, h_total=h_total,
                            frames=clip.frames.shape[0], patches=self.patches)

    @tl.no_tape()
    def embed_frame(self, frame: np.ndarray) -> np.ndarray:
        """Single-frame embedding [D], the frame's summary row, computed
        off the tape; used by the policy stage."""
        h_frames, _ = self._forward(frame[None])
        return h_frames.data[0, 0].copy()

    def _spatial_pe_rows(self, t: int) -> Tensor:
        rows = self.pe.rows(0, self.patches).data
        return tl.constant(np.tile(rows, (t, 1)))


class PerFrameTokenEncoder(Encoder):
    """One class token and one attention layer per frame."""

    kind = "per_frame_token"

    def __init__(self, rng, width=64, heads=2, frames=16, image=32, patch=8):
        super().__init__(width, frames, image, patch)
        self.w_patch = tl.randn(rng, (self.patch_dim, width), std=0.02,
                                requires_grad=True)
        self.b_patch = tl.zeros(width, requires_grad=True)
        self.cls = tl.randn(rng, (1, 1, width), std=0.02, requires_grad=True)
        self.attn = AttentionParams.init(rng, width, heads)

    def parameters(self) -> dict[str, Tensor]:
        params = {"w_patch": self.w_patch, "b_patch": self.b_patch,
                  "cls": self.cls}
        params.update(self.attn.named("attn"))
        return params

    def _features(self, frames: np.ndarray) -> tuple[Tensor, Tensor]:
        t = frames.shape[0]
        p = self.patches
        tok = linear(tl.constant(patchify(frames, self.patch)),
                     self.w_patch, self.b_patch)
        tok = tl.add(tok, self._spatial_pe_rows(t))
        tok = tl.reshape(tok, (t, p, self.width))
        cls = tl.repeat0(self.cls, t)
        x = tl.concat([cls, tok], axis=1)  # [t, P+1, D]
        out = tl.add(x, self_attention(x, self.attn))
        h_frames = tl.reshape(tl.narrow(out, 1, 0, 1), (1, t, self.width))
        h_total = tl.reshape(tl.narrow(out, 1, 1, p), (1, t, p, self.width))
        return h_frames, h_total


class ClipTokenEncoder(Encoder):
    """A single class token attends over every patch of every frame; its
    own output row is not used, and each frame's summary row is the mean
    of its patches."""

    kind = "clip_token"

    def __init__(self, rng, width=64, heads=2, frames=16, image=32, patch=8):
        super().__init__(width, frames, image, patch)
        self.w_patch = tl.randn(rng, (self.patch_dim, width), std=0.02,
                                requires_grad=True)
        self.b_patch = tl.zeros(width, requires_grad=True)
        self.cls = tl.randn(rng, (1, width), std=0.02, requires_grad=True)
        self.attn = AttentionParams.init(rng, width, heads)

    def parameters(self) -> dict[str, Tensor]:
        params = {"w_patch": self.w_patch, "b_patch": self.b_patch,
                  "cls": self.cls}
        params.update(self.attn.named("attn"))
        return params

    def _pe_spacetime(self, t: int) -> Tensor:
        space = np.tile(self.pe.rows(0, self.patches).data, (t, 1))
        time = np.repeat(self.pe.rows(0, t).data, self.patches, axis=0)
        return tl.constant(space + time)

    def _features(self, frames: np.ndarray) -> tuple[Tensor, Tensor]:
        t = frames.shape[0]
        tok = linear(tl.constant(patchify(frames, self.patch)),
                     self.w_patch, self.b_patch)
        tok = tl.add(tok, self._pe_spacetime(t))
        x = tl.concat([self.cls, tok], axis=0)  # [1 + t*P, D]
        out = tl.add(x, self_attention(x, self.attn))
        h_total = tl.reshape(tl.narrow(out, 0, 1, t * self.patches),
                             (1, t, self.patches, self.width))
        return tl.mean_axis(h_total, axis=2), h_total


class ConvGridEncoder(Encoder):
    """Two non-overlapping conv layers feeding a 2-layer attention adapter."""

    kind = "conv_grid"

    def __init__(self, rng, width=64, heads=2, frames=16, image=32, patch=8,
                 conv_channels=32):
        super().__init__(width, frames, image, patch)
        # stage 1: k4 s4 over pixels; stage 2: k2 s2 over the stage-1 grid.
        self.grid1 = image // 4
        if self.grid1 % 2:
            raise ShapeError(f"image {image} incompatible with the 4x then 2x "
                             "downsampling stack")
        if self.grid1 // 2 != self.grid:
            raise ShapeError("conv grid must match the patch grid")
        self.c1 = conv_channels
        self.w1 = tl.randn(rng, (4 * 4 * 3, self.c1), std=0.05,
                           requires_grad=True)
        self.b1 = tl.zeros(self.c1, requires_grad=True)
        self.w2 = tl.randn(rng, (2 * 2 * self.c1, width), std=0.05,
                           requires_grad=True)
        self.b2 = tl.zeros(width, requires_grad=True)
        self.adapter = []
        for i in range(2):
            self.adapter.append({
                "attn": AttentionParams.init(rng, width, heads),
                "ffn_w1": tl.randn(rng, (width, width), std=0.05,
                                   requires_grad=True),
                "ffn_b1": tl.zeros(width, requires_grad=True),
                "ffn_w2": tl.randn(rng, (width, width), std=0.05,
                                   requires_grad=True),
                "ffn_b2": tl.zeros(width, requires_grad=True),
            })

    def parameters(self) -> dict[str, Tensor]:
        params = {"conv1.w": self.w1, "conv1.b": self.b1,
                  "conv2.w": self.w2, "conv2.b": self.b2}
        for i, lay in enumerate(self.adapter):
            params.update(lay["attn"].named(f"adapter{i}.attn"))
            for key in ("ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2"):
                params[f"adapter{i}.{key}"] = lay[key]
        return params

    def _pool_indices(self, t: int) -> np.ndarray:
        # For each 2x2 output cell, the four stage-1 rows it gathers.
        g1, g = self.grid1, self.grid
        idx = []
        for frame in range(t):
            base = frame * g1 * g1
            for i in range(g):
                for j in range(g):
                    r0, c0 = 2 * i, 2 * j
                    idx.extend([base + r0 * g1 + c0, base + r0 * g1 + c0 + 1,
                                base + (r0 + 1) * g1 + c0,
                                base + (r0 + 1) * g1 + c0 + 1])
        return np.asarray(idx, dtype=np.intp)

    def _features(self, frames: np.ndarray) -> tuple[Tensor, Tensor]:
        t = frames.shape[0]
        cells = tl.constant(patchify(frames, 4))  # [t*g1*g1, 48]
        x = tl.gelu(linear(cells, self.w1, self.b1))
        x = tl.take0(x, self._pool_indices(t))
        x = tl.reshape(x, (t * self.patches, 4 * self.c1))
        x = tl.gelu(linear(x, self.w2, self.b2))
        x = tl.add(x, self._spatial_pe_rows(t))
        x = tl.reshape(x, (t, self.patches, self.width))
        for lay in self.adapter:
            x = tl.add(x, self_attention(x, lay["attn"]))
            flat = tl.reshape(x, (t * self.patches, self.width))
            ff = linear(tl.gelu(linear(flat, lay["ffn_w1"], lay["ffn_b1"])),
                        lay["ffn_w2"], lay["ffn_b2"])
            x = tl.add(x, tl.reshape(ff, (t, self.patches, self.width)))
        h_total = tl.reshape(x, (1, t, self.patches, self.width))
        return tl.mean_axis(h_total, axis=2), h_total


def build_encoder(kind: str, rng: np.random.Generator, width: int = 64,
                  heads: int = 2, frames: int = 16, image: int = 32,
                  patch: int = 8) -> Encoder:
    if kind == "per_frame_token":
        return PerFrameTokenEncoder(rng, width, heads, frames, image, patch)
    if kind == "clip_token":
        return ClipTokenEncoder(rng, width, heads, frames, image, patch)
    if kind == "conv_grid":
        return ConvGridEncoder(rng, width, heads, frames, image, patch)
    raise ShapeError(f"unknown encoder kind {kind!r}; expected one of "
                     f"{ENCODER_KINDS}")
