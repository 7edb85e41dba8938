"""Procedural stand-in for an egocentric hand/object interaction dataset.

Each clip is a T-frame raster sequence on a static noisy backdrop: a
hand-colored square drifts over the scene, and on state-change clips it
approaches the object square, makes contact at the change frame, and the
object's color flips from that frame onward. Ground-truth labels (change
flag, change frame, hand/object boxes at the keyframe) fall out of the
script that drew the pixels, so rendered geometry and labels agree
exactly.

Dataset files store only (seed, config, labels). The stored labels
double as a corruption check: reading a file scripts each record's scene
from its seed and compares, and writing one scripts it too; neither
renders a frame. A no-change script rejects a candidate drift whose
first or last frame clashes with the object before it builds the path.
Reading parses each distinct config text once, so a config that differs
only in a value's type (16.0 for 16) is still refused on its own line. A
record keeps its scene script, the hand's position in each frame, the
object and the change frame as small integers, so each
``ClipRecord.clip()`` redraws only the backdrop (the seed's first draw)
and renders. Frames are rendered in the compute dtype
(``tensor.precision``); every pixel is a copy of a backdrop or colour
value, so float32 frames are exactly the float64 frames cast.

Three trainable encoder variants mirror common backbone families:
per-frame tokens (one class token per frame), a single clip-level token
over all patches, and a small convolutional grid whose features pass
through a two-layer transformer-encoder adapter. ``Encoder.encode`` takes
a batch of clips, the whole batch of a training step or one clip of a
prediction, and hands the decoder ``ClipFeatures``: one summary row per
frame (the per-frame class rows, or else the mean of the frame's
patches), and one slab tensor [B*T, S, D'] whose row ``b*T + t`` holds
the rows clip b's frame t's patch rows are made from, which the decoder
turns into patch rows only for the keyframe each decode names. The
per-frame-token encoder computes only what is read: it makes every
frame's class row of the batch in one ``tensor.class_attention`` op
straight from the frames' raw patches [B*T, P, F], which it hands over
as its slabs, and embeds the tokens of a frame and runs its attention
over them only for a keyframe. The other two need every patch row for
their patch mean, encode clip by clip, and join the clips' patch rows
[T, P, D] into their slabs in one concat. Their position rows and
pooling indices are built once, for the encoder's frame count; a clip
may have fewer frames (``embed_frame`` encodes one), not more. The
encoders share the decoder's ``AttentionParams``, ``self_attention`` and
``positions``, and drop the attention weights. An encoder keeps
the compute dtype it was built in (``tensor.precision``; float64 unless a
caller such as ``trainer.build_model`` sets another) and computes its
features and keyframe patch rows in it, whatever the caller's dtype; the
raw patches are gathered from the frames in one copy into that dtype.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Sequence

import numpy as np

from . import __version__
from . import tensor as tl
from .decoder import AttentionParams, ClipFeatures, positions, self_attention
from .losses import ClipLabels, LabelError, LabeledBox
from .seeding import derive_seeds
from .tensor import ContractError, ShapeError, Tensor

BACKGROUND_LEVEL = 0.25
HAND_COLOR = np.array([0.90, 0.70, 0.55])
OBJECT_COLOR_BEFORE = np.array([0.10, 0.80, 0.20])
OBJECT_COLOR_AFTER = np.array([0.90, 0.15, 0.10])
# Minimum per-channel-summed contrast between a labeled box's fill and the
# backdrop at the keyframe; tests/test_synth.py::
# test_labeled_boxes_contrast_with_the_backdrop asserts against this.
BOX_CONTRAST = 0.5

ARTIFACT_VERSION = f"taskfusion-{__version__}"  # every file header's tag
ENCODER_KINDS = ("per_frame_token", "clip_token", "conv_grid")
CONV_CHANNELS = 32  # the conv_grid encoder's stage-1 channels


class DatasetError(Exception):
    pass


class DatasetParseError(DatasetError):
    """Malformed dataset file; message names the offending line."""


class DatasetCorruptionError(DatasetError):
    """Stored labels disagree with regeneration; message names the record."""


def _scene_sizes(width: int) -> tuple[int, int, int]:
    """The hand's side, and the bounds of the object's side before its
    4 px floor, that the scene script draws on a ``width``-px raster."""
    return max(3, round(0.16 * width)), round(0.22 * width), round(0.28 * width)


def _min_raster_side(width: int) -> int:
    """The smallest side on which the scene script can place its largest
    object with a hand-plus-2-px margin on both sides."""
    hand, _, obj_hi = _scene_sizes(width)
    return max(4, obj_hi) + 2 * (hand + 2)


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
        need = _min_raster_side(self.width)
        if min(self.height, self.width) < need:
            raise ShapeError(f"height and width must be at least {need} px "
                             f"for the scene script, got {self.height}x"
                             f"{self.width}")
        if not (0.0 <= self.p_change <= 1.0):
            raise ShapeError("p_change must lie in [0, 1]")
        if not self.clip_duration_seconds > 0:
            raise ShapeError(f"clip_duration_seconds must be > 0, got "
                             f"{self.clip_duration_seconds}")
        if not self.noise >= 0:
            raise ShapeError(f"noise must be >= 0, got {self.noise}")
        for name in ("clip_duration_seconds", "noise"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ShapeError(f"{name} must be finite, got {value}")


@dataclass
class SceneScript:
    """Everything of a clip but its backdrop: where the hand is in each
    frame, the object and the change frame, as small integers, and the
    labels they give."""

    hand_xy: np.ndarray  # [T, 2] int16: per frame the hand's x0, y0 (px)
    hand_side: int       # the hand is a square, inside the raster
    object_rect: tuple[int, int, int, int]
    change_frame: int | None
    labels: ClipLabels


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


def norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-D float64 vector, bit for bit: its own
    formula, the square root of ``v.dot(v)``, without its wrapper."""
    return math.sqrt(v.dot(v))


def draw_rect(img: np.ndarray, rect: tuple[int, int, int, int],
              color: np.ndarray) -> None:
    """Fill ``rect`` in an [H, W, 3] image, or in every image of a
    [..., H, W, 3] stack."""
    x0, y0, w, h = rect
    img[..., max(y0, 0):y0 + h, max(x0, 0):x0 + w, :] = color


def _rects_clear(a, b, gap: int):
    """Whether rects a and b are at least ``gap`` px apart; a's corner may
    be arrays, giving one answer per position."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    return ((ax + aw + gap <= bx) | (bx + bw + gap <= ax)
            | (ay + ah + gap <= by) | (by + bh + gap <= ay))


def backdrop(rng: np.random.Generator, height: int, width: int,
             noise: float) -> np.ndarray:
    """The static noisy backdrop [H, W, 3]: a seed's first draw, for clips
    and for the BC env's scenes."""
    draws = rng.uniform(-noise, noise, size=(height, width, 3))
    return np.clip(BACKGROUND_LEVEL + draws, 0.0, 1.0)


def _make_script(rng: np.random.Generator, cfg: ClipConfig) -> SceneScript:
    """Script the scene from the draws that follow the backdrop's."""
    t, h, w = cfg.frames, cfg.height, cfg.width
    hand_w, obj_lo, obj_hi = _scene_sizes(w)
    hand_h = hand_w
    obj_w = obj_h = max(4, int(rng.integers(obj_lo, obj_hi + 1)))
    margin = hand_w + 2
    ox = int(rng.integers(margin, w - obj_w - margin + 1))
    oy = int(rng.integers(margin, h - obj_h - margin + 1))
    obj = (ox, oy, obj_w, obj_h)
    steps = np.arange(t)

    def hand_path(start, end, frac) -> np.ndarray:
        xy = np.round(start + (end - start) * frac[:, None])
        return np.minimum(np.maximum(xy, 0),
                          (w - hand_w, h - hand_h)).astype(np.int16)

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
        contact = np.array([min(max(contact[0], 0), w - hand_w),
                            min(max(contact[1], 0), h - hand_h)])

        # Approach from farther out along the contact normal, speed-capped
        # so the color flip dominates every inter-frame pixel difference.
        away = contact + (hand_w / 2, hand_h / 2) - (ox + obj_w / 2,
                                                     oy + obj_h / 2)
        away = away / (norm(away) + 1e-12)
        angle = rng.uniform(-0.6, 0.6)
        cos, sin = np.cos(angle), np.sin(angle)
        rot = np.array([[cos, -sin], [sin, cos]])
        away = rot @ away
        max_speed = 0.07 * w
        dist = min(float(rng.uniform(3.0, 0.55 * w)), max_speed * change_frame)
        xy = hand_path(contact + away * dist, contact,
                       np.minimum(steps / change_frame, 1.0))
        hand = (*xy[change_frame].tolist(), hand_w, hand_h)
        return SceneScript(xy, hand_w, obj, change_frame, ClipLabels(
            state_change=True, pnr_frame=change_frame, boxes=[
                LabeledBox(kind="hand", box=_rect_to_box(hand, w, h)),
                LabeledBox(kind="object", box=_rect_to_box(obj, w, h))]))

    # No-change clip: a slow drift that never comes near the object. A
    # clash at its first or last frame, (sx, sy) or (ex, ey), skips the path.
    for _ in range(100):
        sx = int(rng.integers(0, w - hand_w + 1))
        sy = int(rng.integers(0, h - hand_h + 1))
        ex = min(max(sx + int(rng.integers(-12, 13)), 0), w - hand_w)
        ey = min(max(sy + int(rng.integers(-12, 13)), 0), h - hand_h)
        if not (_rects_clear((sx, sy, hand_w, hand_h), obj, 2)
                and _rects_clear((ex, ey, hand_w, hand_h), obj, 2)):
            continue
        xy = hand_path(np.array([sx, sy]), np.array([ex, ey]),
                       steps / (t - 1))
        if np.all(_rects_clear((*xy.T, hand_w, hand_h), obj, gap=2)):
            break
    else:
        corner = (0, 0) if _rects_clear((0, 0, hand_w, hand_h), obj, 2) else (
            w - hand_w, h - hand_h)
        xy = np.tile(np.array(corner, dtype=np.int16), (t, 1))
    return SceneScript(xy, hand_w, obj, None, ClipLabels(state_change=False))


def _script_for(seed: int, cfg: ClipConfig) -> SceneScript:
    """The scene script of ``seed``, without drawing its backdrop: the
    generator skips the backdrop's one 64-bit draw per value."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rng.bit_generator.advance(cfg.height * cfg.width * 3)
    return _make_script(rng, cfg)


def _render(background: np.ndarray, script: SceneScript,
            cfg: ClipConfig) -> np.ndarray:
    """The frames [T, H, W, 3] in the compute dtype. Each pixel is a copy
    of a backdrop or a colour value, so they equal the float64 frames
    cast."""
    t = cfg.frames
    frames = np.empty((t, *background.shape), dtype=tl.compute_dtype())
    frames[...] = background.astype(frames.dtype)
    change = t if script.change_frame is None else script.change_frame
    draw_rect(frames[:change], script.object_rect, OBJECT_COLOR_BEFORE)
    draw_rect(frames[change:], script.object_rect, OBJECT_COLOR_AFTER)
    # every frame's hand square in one indexed write
    side = np.arange(script.hand_side)
    x, y = script.hand_xy.T
    frames[np.arange(t)[:, None, None], (y[:, None] + side)[:, :, None],
           (x[:, None] + side)[:, None, :]] = HAND_COLOR
    return frames


def generate_clip(seed: int, config: ClipConfig | None = None) -> SynthClip:
    """Deterministically render one clip; identical for identical seeds."""
    cfg = config or ClipConfig()
    rng = np.random.Generator(np.random.PCG64(seed))
    background = backdrop(rng, cfg.height, cfg.width, cfg.noise)
    script = _make_script(rng, cfg)
    return SynthClip(frames=_render(background, script, cfg),
                     labels=script.labels, seed=int(seed), config=cfg)


# ---------------------------------------------------------------------------
# dataset files


@dataclass
class ClipRecord:
    """A clip as a dataset stores it. The record keeps its scene script:
    ``read_dataset`` hands over the one it checked the labels with, and a
    record built directly scripts its scene on its first ``clip()``. So
    each ``clip()`` redraws only the backdrop and renders. It also keeps
    its seeded generator and that generator's state right after seeding,
    and each ``clip()`` restores the state before drawing the backdrop:
    the same draws as seeding anew, at a fifth of the cost."""

    seed: int
    config: ClipConfig
    labels: ClipLabels
    script: SceneScript | None = field(default=None, compare=False,
                                       repr=False)
    _seeded: tuple[np.random.Generator, dict] | None = field(
        default=None, init=False, compare=False, repr=False)

    def clip(self) -> SynthClip:
        """The same clip ``generate_clip(seed, config)`` makes."""
        if self.script is None:
            self.script = _script_for(self.seed, self.config)
        if self._seeded is None:
            rng = np.random.Generator(np.random.PCG64(self.seed))
            self._seeded = rng, rng.bit_generator.state
        rng, state = self._seeded
        rng.bit_generator.state = state
        cfg = self.config
        background = backdrop(rng, cfg.height, cfg.width, cfg.noise)
        return SynthClip(frames=_render(background, self.script, cfg),
                         labels=self.script.labels, seed=int(self.seed),
                         config=cfg)


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


_encode = json.JSONEncoder(sort_keys=True).encode


def write_dataset(path, count: int, seed_base: int,
                  config: ClipConfig | None = None,
                  header: dict | None = None) -> None:
    """Write `count` seed-regenerable clip records as header + NDJSON."""
    if count < 1:
        raise DatasetError("count must be >= 1")
    cfg = config or ClipConfig()
    head = {"artifact": ARTIFACT_VERSION, "kind": "dataset"}
    if header:
        head.update(header)
    raw_config = asdict(cfg)
    with open(path, "w", encoding="utf-8") as f:
        f.write("# " + _encode(head) + "\n")
        for seed in derive_seeds(seed_base, count, "clip"):
            record = {"seed": seed, "config": raw_config,
                      "labels": _labels_to_dict(_script_for(seed, cfg).labels)}
            f.write(_encode(record) + "\n")


def config_from_json(config_cls, config, what: str):
    """The dataclass ``config_cls`` a file's JSON ``config`` object gives;
    a TypeError unless the object gives each field its JSON type (an int
    for an int field, an int or a float for a float one). ``what`` names
    the config."""
    if not isinstance(config, dict):
        raise TypeError(f"{what} must be an object")
    for f in fields(config_cls):
        allowed = (int,) if f.type == "int" else (int, float)
        if type(config.get(f.name, f.default)) not in allowed:
            raise TypeError(f"{what} {f.name} must be {f.type}")
    return config_cls(**config)


def check_seeds(seeds) -> None:
    """Refuse a file record's ``seeds`` unless a nonempty list of
    non-negative ints."""
    if not (isinstance(seeds, list) and seeds):
        raise TypeError("seeds must be a nonempty list")
    for seed in seeds:
        if type(seed) is not int or seed < 0:
            raise TypeError(f"seed {seed!r} is not a non-negative int")


def read_dataset(path) -> list[ClipRecord]:
    """Load records, regenerate each clip's labels, and cross-check them."""
    records: list[ClipRecord] = []
    configs: dict[str, ClipConfig] = {}  # by JSON text: 16 is not 16.0
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
            key = _encode(raw["config"])
            if key not in configs:
                configs[key] = config_from_json(ClipConfig, raw["config"],
                                                "config")
            config = configs[key]
            check_seeds([raw["seed"]])
            record = ClipRecord(seed=raw["seed"], config=config,
                                labels=_labels_from_dict(raw["labels"]))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                LabelError, ShapeError) as e:
            raise DatasetParseError(f"line {lineno}: {e}") from None
        record.script = _script_for(record.seed, record.config)
        if record.script.labels != record.labels:
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


def patch_constant(clips: Sequence[np.ndarray], patch: int) -> Tensor:
    """Frame stacks [T, H, W, 3] of B clips -> one constant [B*T, P,
    patch*patch*3] of each frame's patches, row-major over (gy, gx), made
    straight in the compute dtype."""
    t, h, w, c = clips[0].shape
    if h % patch or w % patch:
        raise ShapeError(f"raster {h}x{w} not divisible into {patch}px patches")
    gy, gx = h // patch, w // patch
    # One [B, T, gy, gx, patch, patch, 3] array, gathered by the constructor
    # in one pass: a plain copy when the frames are in the compute dtype,
    # as ``train`` renders them, and a cast otherwise.
    raw = tl.constant([frames.reshape(t, gy, patch, gx, patch, c).transpose(
        0, 1, 3, 2, 4, 5) for frames in clips])
    return tl.reshape(raw, (len(clips) * t, gy * gx, patch * patch * c))


class Encoder:
    """Shared surface of the three encoder variants."""

    kind: str

    def __init__(self, width: int, heads: int, frames: int, image: int,
                 patch: int):
        for name, value in dict(width=width, heads=heads, frames=frames,
                                image=image, patch=patch).items():
            if value < 1:
                raise ShapeError(f"{name} must be >= 1, got {value}")
        if width % heads:
            raise ShapeError(f"width {width} not divisible by {heads} heads")
        if image % patch:
            raise ShapeError(f"image {image} not divisible by patch {patch}")
        self.width = width
        self.frames = frames
        self.image = image
        self.patch = patch
        self.grid = image // patch
        self.patches = self.grid * self.grid
        self.patch_dim = patch * patch * 3
        self.dtype = tl.compute_dtype()

    def parameters(self) -> dict[str, Tensor]:
        raise NotImplementedError

    def _features(self, clips: list[np.ndarray]) -> tuple[Tensor, Tensor]:
        """Frame stacks [T, H, W, 3] of B clips -> (h_frames [B, T, D],
        slabs [B*T, S, D']): each frame's summary row, and per frame the
        rows ``_patch_rows`` makes its patch rows from. Here clip by clip,
        by ``_clip_features``, from rows built for at most ``frames``."""
        if clips[0].shape[0] > self.frames:
            raise ShapeError(f"clips of {clips[0].shape[0]} frames exceed the "
                             f"{self.kind} encoder's {self.frames}")
        rows, slabs = zip(*(self._clip_features(frames) for frames in clips))
        return tl.concat(rows, axis=0), tl.concat(slabs, axis=0)

    def _clip_features(self, frames: np.ndarray) -> tuple[Tensor, Tensor]:
        """[T, H, W, 3] -> (h_frames [1, T, D], slab [T, P, D]): the
        frames' summary rows and patch rows."""
        raise NotImplementedError

    # Slabs [B, S, D'] -> patch rows [B, P, D]; None: the slabs are the rows.
    # It makes no constant, so the rows keep the encoder's dtype.
    _patch_rows = None

    def _forward(self, clips: list[np.ndarray]) -> tuple[Tensor, Tensor]:
        if not clips:
            raise ContractError("encoding needs at least one clip")
        shape = clips[0].shape
        if shape[1:3] != (self.image, self.image):
            raise ShapeError(f"clip raster {shape[1:3]} != "
                             f"({self.image}, {self.image})")
        if any(frames.shape != shape for frames in clips):
            raise ShapeError(f"clips of one batch differ in shape: "
                             f"{sorted({f.shape for f in clips})}")
        if self.dtype is tl.compute_dtype():
            return self._features(clips)
        with tl.precision(self.dtype):
            return self._features(clips)

    def encode(self, clips: Sequence[SynthClip]) -> ClipFeatures:
        """Features of a batch of clips, in one call."""
        h_frames, slabs = self._forward([clip.frames for clip in clips])
        return ClipFeatures(h_frames=h_frames, slabs=slabs,
                            patches=self.patches, patch_rows=self._patch_rows)

    @tl.no_tape()
    def embed_frame(self, frame: np.ndarray) -> np.ndarray:
        """Single-frame embedding [D], the frame's summary row, computed
        off the tape; used by the policy stage."""
        h_frames, _ = self._forward([frame[None]])
        return h_frames.data[0, 0].copy()


class PerFrameTokenEncoder(Encoder):
    """One class token and one attention layer per frame. Encoding runs
    the layer for the class query alone, from the frames' raw patches, as
    one ``tensor.class_attention`` op over every frame of the batch; the
    raw patches are the slabs. A frame's patch rows come from the same
    layer over that frame's embedded tokens, made only for the keyframes
    a decode asks for."""

    kind = "per_frame_token"

    def __init__(self, rng, width=64, heads=2, frames=16, image=32, patch=8):
        super().__init__(width, heads, frames, image, patch)
        self.w_patch = tl.randn(rng, (self.patch_dim, width), std=0.02,
                                requires_grad=True)
        self.b_patch = tl.zeros(width, requires_grad=True)
        self.cls = tl.randn(rng, (1, 1, width), std=0.02, requires_grad=True)
        self.attn = AttentionParams.init(rng, width, heads)
        self._positions = positions(self.patches, width)  # [P, D]

    def parameters(self) -> dict[str, Tensor]:
        params = {"w_patch": self.w_patch, "b_patch": self.b_patch,
                  "cls": self.cls}
        params.update(self.attn.named("attn"))
        return params

    def _bias_rows(self) -> Tensor:
        """The patch embedding's bias plus position rows [P, D]. Made
        anew for each call: on the tape, one shared node would sum the bias
        gradient of its consumers in another order."""
        return tl.add(self._positions, self.b_patch)

    def _features(self, clips: list[np.ndarray]) -> tuple[Tensor, Tensor]:
        b, t = len(clips), clips[0].shape[0]
        raw = patch_constant(clips, self.patch)  # [b*t, P, F]
        a = self.attn
        h_frames = tl.class_attention(raw, self.w_patch, self._bias_rows(),
                                      self.cls, a.wq, a.wk, a.wv, a.wo,
                                      a.head_count)
        return tl.reshape(h_frames, (b, t, self.width)), raw

    def _patch_rows(self, slabs: Tensor) -> Tensor:
        b = slabs.shape[0]
        tok = tl.matmul(tl.reshape(slabs, (b * self.patches, self.patch_dim)),
                        self.w_patch)
        tok = tl.add(tl.reshape(tok, (b, self.patches, self.width)),
                     self._bias_rows())
        x = tl.concat([tl.repeat0(self.cls, b), tok], axis=1)  # [b, P+1, D]
        out = tl.add(x, self_attention(x, self.attn)[0])
        return tl.narrow(out, 1, 1, self.patches)


class ClipTokenEncoder(Encoder):
    """A single class token attends over every patch of every frame; its
    own output row is not used, and each frame's summary row is the mean
    of its patches."""

    kind = "clip_token"

    def __init__(self, rng, width=64, heads=2, frames=16, image=32, patch=8):
        super().__init__(width, heads, frames, image, patch)
        self.w_patch = tl.randn(rng, (self.patch_dim, width), std=0.02,
                                requires_grad=True)
        self.b_patch = tl.zeros(width, requires_grad=True)
        self.cls = tl.randn(rng, (1, width), std=0.02, requires_grad=True)
        self.attn = AttentionParams.init(rng, width, heads)
        # space plus time position rows [frames*P, D], frame-major
        space = positions(self.patches, width).data
        time = positions(frames, width).data
        self._positions = tl.constant((space[None] + time[:, None]).reshape(
            frames * self.patches, width))

    def parameters(self) -> dict[str, Tensor]:
        params = {"w_patch": self.w_patch, "b_patch": self.b_patch,
                  "cls": self.cls}
        params.update(self.attn.named("attn"))
        return params

    def _clip_features(self, frames: np.ndarray) -> tuple[Tensor, Tensor]:
        t = frames.shape[0]
        raw = tl.reshape(patch_constant([frames], self.patch),
                         (t * self.patches, self.patch_dim))
        tok = tl.add(tl.matmul(raw, self.w_patch), self.b_patch)
        tok = tl.add(tok, tl.narrow(self._positions, 0, 0,
                                    t * self.patches))
        x = tl.concat([self.cls, tok], axis=0)  # [1 + t*P, D]
        out = tl.add(x, self_attention(x, self.attn)[0])
        patches = tl.reshape(tl.narrow(out, 0, 1, t * self.patches),
                             (t, self.patches, self.width))
        h_frames = tl.mean_axis(patches, axis=1)
        return tl.reshape(h_frames, (1, t, self.width)), patches


class ConvGridEncoder(Encoder):
    """Two non-overlapping conv layers feeding a 2-layer attention adapter."""

    kind = "conv_grid"

    def __init__(self, rng, width=64, heads=2, frames=16, image=32, patch=8):
        super().__init__(width, heads, frames, image, patch)
        # stage 1: k4 s4 over pixels; stage 2: k2 s2 over the stage-1 grid.
        self.grid1 = image // 4
        if self.grid1 % 2:
            raise ShapeError(f"image {image} incompatible with the 4x then 2x "
                             "downsampling stack")
        if self.grid1 // 2 != self.grid:
            raise ShapeError("conv grid must match the patch grid")
        self.w1 = tl.randn(rng, (4 * 4 * 3, CONV_CHANNELS), std=0.05,
                           requires_grad=True)
        self.b1 = tl.zeros(CONV_CHANNELS, requires_grad=True)
        self.w2 = tl.randn(rng, (2 * 2 * CONV_CHANNELS, width), std=0.05,
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
        # Per frame and 2x2 output cell, row-major, the four stage-1 rows
        # it pools: (r, c), (r, c+1), (r+1, c), (r+1, c+1).
        g1 = self.grid1
        corner = 2 * g1 * np.arange(self.grid)[:, None] + 2 * np.arange(
            self.grid)
        self._pool_indices = (g1 * g1 * np.arange(frames)[:, None, None]
                              + corner.reshape(1, -1, 1)
                              + np.array([0, 1, g1, g1 + 1])).reshape(-1)
        self._positions = positions(self.patches, width)  # [P, D]

    def parameters(self) -> dict[str, Tensor]:
        params = {"conv1.w": self.w1, "conv1.b": self.b1,
                  "conv2.w": self.w2, "conv2.b": self.b2}
        for i, lay in enumerate(self.adapter):
            params.update(lay["attn"].named(f"adapter{i}.attn"))
            for key in ("ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2"):
                params[f"adapter{i}.{key}"] = lay[key]
        return params

    def _clip_features(self, frames: np.ndarray) -> tuple[Tensor, Tensor]:
        t = frames.shape[0]
        cells = tl.reshape(patch_constant([frames], 4),
                           (t * self.grid1 * self.grid1, 48))
        x = tl.gelu(tl.add(tl.matmul(cells, self.w1), self.b1))
        x = tl.take0(x, self._pool_indices[:4 * t * self.patches])
        x = tl.reshape(x, (t * self.patches, 4 * CONV_CHANNELS))
        x = tl.gelu(tl.add(tl.matmul(x, self.w2), self.b2))
        x = tl.add(tl.reshape(x, (t, self.patches, self.width)),
                   self._positions)
        for lay in self.adapter:
            x = tl.add(x, self_attention(x, lay["attn"])[0])
            flat = tl.reshape(x, (t * self.patches, self.width))
            ff = tl.mlp(flat, lay["ffn_w1"], lay["ffn_b1"], lay["ffn_w2"],
                        lay["ffn_b2"])
            x = tl.add(x, tl.reshape(ff, (t, self.patches, self.width)))
        h_frames = tl.mean_axis(x, axis=1)
        return tl.reshape(h_frames, (1, t, self.width)), x


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
