"""Joint fine-tuning loop, Adam optimizer, metrics, and checkpoints.

One training step renders its batch of clips from their records (each
record scripts its scene once and then redraws only the backdrop, in the
compute dtype), encodes them in one call (each frame's summary row),
makes one batched decode, for which the encoder makes the patch rows of
each clip's keyframe alone, and one loss per task (each the mean over
its clips, detection masked on no-change clips, with one batched match),
combines them with the learnable variance weighting, and applies one
Adam update. Adam keeps its two moments in one flat buffer each, over
the trainable parameters in store order; an update gathers the gradients
into one array, runs each elementwise operation once over all of them,
and subtracts each parameter's slice in place. A store must keep the
trainable parameters, shapes and dtype it had at its first update.
Batches follow a seeded Fisher-Yates shuffle per epoch, its swap indices
drawn as one array, with any trailing partial batch dropped, so runs are
bit-reproducible.

A step holds its own memory only. Its clips' frames live until
``encode`` has copied their patches; its features, predictions, losses
and the tape under them (the activations backward reads) live until the
step returns its log row. So no two steps' tapes are alive at once: step
k's is freed before step k+1 renders its first clip. Non-finite
predictions raise ``TrainingAbort`` with the step and the first such
clip's seed before any loss reads them (the detection match refuses
non-finite costs), and so does a non-finite loss.

A model has one compute dtype, ``TrainConfig.dtype``: float32 by default,
or float64. ``build_model``, ``train`` and ``ModelBundle.predict`` run
under ``tensor.precision`` of it, and the encoder computes its features
in it wherever it is called, so parameters, activations, gradients and
Adam moments are all of that dtype; ``evaluate`` computes its losses and
metrics in float64 from the model's predictions, the IoU of each matched
box with ``losses.iou_giou`` on constants. Same-seed runs are
bit-reproducible within one dtype. Checkpoints store float64 whatever
the dtype, so float32 values round-trip exactly; loading a value that
overflows the model's dtype is an error.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as tl
from .decoder import (ClipFeatures, ClipPrediction, DecoderConfig,
                      TaskFusionDecoder, TaskPredictions)
from .losses import (ClipLabels, SigmaParams, TASK_ORDER, iou_giou,
                     joint_loss, make_pnr_targets, match_queries, oscc_loss,
                     pnr_loss, scod_loss)
from .seeding import rng_for
from .synth import ClipRecord, Encoder, SynthClip, build_encoder
from .tensor import ContractError, ShapeError, Tensor, TensorError, backward


class CheckpointError(Exception):
    """Checkpoint file is malformed or inconsistent with its header."""


class TrainingAbort(Exception):
    """Training hit a non-finite prediction or loss; carries the step, the
    clip seed and what was non-finite ("predictions", "oscc loss", ...)."""

    def __init__(self, step: int, clip_seed: int, what: str):
        self.step = step
        self.clip_seed = clip_seed
        self.what = what
        super().__init__(f"non-finite {what} at step {step} "
                         f"(clip seed {clip_seed})")


class ParamStore:
    """Ordered name -> tensor registry plus a JSON ``description`` of what
    built it (None if nothing); iteration follows insertion order."""

    def __init__(self, description: dict | None = None):
        self._params: dict[str, Tensor] = {}
        self.description = description

    def register(self, name: str, t: Tensor) -> None:
        if name in self._params:
            raise ContractError(f"duplicate parameter name {name!r}")
        self._params[name] = t

    def add_module(self, prefix: str, params: dict[str, Tensor]) -> None:
        for name, t in params.items():
            self.register(f"{prefix}.{name}", t)

    def items(self):
        return self._params.items()

    def names(self) -> list[str]:
        return list(self._params)

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def fill_missing_grads(self) -> None:
        for t in self._params.values():
            if t.requires_grad and t.grad is None:
                t.grad = np.zeros_like(t.data)


CHECKPOINT_FORMAT = "taskfusion-checkpoint/1"


def save_checkpoint(store: ParamStore, path) -> None:
    """Header JSON line {"format", "description", "params": {name: {shape,
    byte_offset}}}, then little-endian float64 payload in registry order."""
    params: dict[str, dict] = {}
    chunks: list[bytes] = []
    offset = 0
    for name, t in store.items():
        params[name] = {"shape": list(t.shape), "byte_offset": offset}
        raw = np.ascontiguousarray(t.data, dtype="<f8").tobytes()
        chunks.append(raw)
        offset += len(raw)
    header = {"format": CHECKPOINT_FORMAT, "description": store.description,
              "params": params}
    with open(path, "wb") as f:
        f.write(json.dumps(header).encode("utf-8") + b"\n")
        for c in chunks:
            f.write(c)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_header(header) -> None:
    if not (isinstance(header, dict)
            and header.get("format") == CHECKPOINT_FORMAT):
        raise CheckpointError("header is not a JSON object with the format "
                              f"tag {CHECKPOINT_FORMAT!r}")
    if not (isinstance(header.get("description"), (dict, type(None)))
            and isinstance(header.get("params"), dict)):
        raise CheckpointError("header needs an object or null description "
                              "and an object of params")
    for name, meta in header["params"].items():
        if not (isinstance(meta, dict) and isinstance(meta.get("shape"), list)
                and all(_is_int(n) and n >= 0 for n in meta["shape"])
                and _is_int(meta.get("byte_offset"))):
            raise CheckpointError(f"parameter {name!r}: header entry needs an "
                                  "integer-list shape and an integer "
                                  "byte_offset")


def load_checkpoint(path) -> ParamStore:
    """Read a checkpoint back into a fresh store, verifying the payload
    and that every value is finite."""
    with open(path, "rb") as f:
        header_line = f.readline()
        payload = f.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"unreadable header: {e}") from None
    _check_header(header)
    params = header["params"]
    expected = 0
    for name, meta in params.items():
        n = int(np.prod(meta["shape"])) if meta["shape"] else 1
        if meta["byte_offset"] != expected:
            raise CheckpointError(f"parameter {name!r} at byte offset "
                                  f"{meta['byte_offset']}, expected {expected}")
        expected += n * 8
    if len(payload) != expected:
        raise CheckpointError(f"payload is {len(payload)} bytes, header "
                              f"requires {expected}")
    store = ParamStore(header["description"])
    for name, meta in params.items():
        shape = tuple(meta["shape"])
        n = int(np.prod(shape)) if shape else 1
        start = meta["byte_offset"]
        arr = np.frombuffer(payload[start:start + n * 8], dtype="<f8")
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"parameter {name!r} holds a non-finite "
                                  "value")
        store.register(name, Tensor(arr.reshape(shape), requires_grad=True))
    return store


def copy_parameters(src: ParamStore, dst: ParamStore) -> None:
    """Copy values by name, cast to each destination's dtype; any mismatch,
    or a value that overflows that dtype, names the offending parameter."""
    src_names = set(src.names())
    for name, t in dst.items():
        if name not in src:
            raise CheckpointError(f"checkpoint is missing parameter {name!r}")
        value = src[name]
        if value.shape != t.shape:
            raise ShapeError(f"parameter {name!r}: checkpoint shape "
                             f"{value.shape} != model shape {t.shape}")
        if value.data.dtype == t.data.dtype:
            np.copyto(t.data, value.data)
        else:
            with np.errstate(over="ignore"):
                np.copyto(t.data, value.data)
            if not np.all(np.isfinite(t.data)):
                raise CheckpointError(f"parameter {name!r} holds a value "
                                      f"that overflows {t.data.dtype}")
        src_names.discard(name)
    if src_names:
        raise CheckpointError(f"checkpoint has unexpected parameters "
                              f"{sorted(src_names)[:3]}")


def load_described(path, kind: str, build):
    """Load a checkpoint of ``kind`` ("model" or "policy") into the owner
    that ``build(description) -> (owner, its store)`` rebuilds."""
    store = load_checkpoint(path)
    found = (store.description or {}).get("kind")
    if found != kind:
        raise CheckpointError(f"{path} is a {found or 'plain'} checkpoint, "
                              f"not a {kind} checkpoint")
    try:
        owner, dst = build(store.description)
    except (KeyError, TypeError, ValueError, TensorError) as e:
        raise CheckpointError(f"{path}: description does not build a {kind}: "
                              f"{e!r}") from None
    copy_parameters(store, dst)
    return owner


@dataclass
class AdamState:
    """Adam's settings and state. The first step lays out the store's
    trainable parameters, in store order, in one flat buffer per moment;
    ``m[name]`` and ``v[name]`` are views of a parameter's slice of them."""

    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    # (name, shape, dtype) of each trainable parameter, and the buffers
    _layout: list | None = field(default=None, repr=False)
    _m: np.ndarray | None = field(default=None, repr=False)
    _v: np.ndarray | None = field(default=None, repr=False)

    @property
    def m(self) -> dict[str, np.ndarray]:
        return self._views(self._m)

    @property
    def v(self) -> dict[str, np.ndarray]:
        return self._views(self._v)

    def _views(self, flat: np.ndarray | None) -> dict[str, np.ndarray]:
        """Each parameter's slice of a flat buffer in the layout."""
        views, start = {}, 0
        for name, shape, _ in self._layout or ():
            stop = start + math.prod(shape)
            views[name] = flat[start:stop].reshape(shape)
            start = stop
        return views


def _adam_layout(state: AdamState, layout: list) -> None:
    """Allocate the moment buffers for ``layout`` on the first step, or
    check that it is the layout they were allocated for."""
    if state._layout is not None:
        if layout != state._layout:
            old, new = ({name: f"{shape} {dtype}" for name, shape, dtype in x}
                        for x in (state._layout, layout))
            moved = [n for n in (*new, *old) if old.get(n) != new.get(n)]
            what = "their order moved"
            if moved:
                n = moved[0]
                what = (f"{n!r} was {old.get(n, 'absent')}, is "
                        f"{new.get(n, 'absent')}")
            raise ContractError("the store's trainable parameters changed "
                                f"since the first Adam step: {what}")
        return
    dtypes = sorted({str(dtype) for _, _, dtype in layout})
    if len(dtypes) > 1:
        raise ContractError(f"Adam needs one dtype; the store mixes {dtypes}")
    total = sum(math.prod(shape) for _, shape, _ in layout)
    state._m = np.zeros(total, layout[0][2])
    state._v = np.zeros(total, layout[0][2])
    state._layout = layout


def adam_step(store: ParamStore, state: AdamState) -> None:
    """One bias-corrected Adam update; gradients are consumed (reset).

    Every gradient is checked to be present and finite before any
    parameter moves, so a failed step leaves the model untouched. The
    update runs once over all gradients, gathered into one array, with
    the elementwise operations of a per-parameter update in their order;
    then each parameter subtracts its slice.
    """
    params = [(name, p) for name, p in store.items() if p.requires_grad]
    for name, p in params:
        if p.grad is None:
            raise ContractError(f"parameter {name!r} has no gradient")
    if not params:
        state.step_count += 1
        return
    _adam_layout(state, [(name, p.data.shape, p.data.dtype)
                         for name, p in params])
    g = np.concatenate([p.grad.reshape(-1) for _, p in params])
    if not np.isfinite(g).all():
        bad = next(name for name, p in params
                   if not np.isfinite(p.grad).all())
        raise ContractError(f"parameter {bad!r} has a non-finite gradient")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    m, v = state._m, state._v
    sq = (1 - b2) * g  # (1 - b2) * g * g
    sq *= g
    v *= b2
    v += sq
    g *= 1 - b1
    m *= b1
    m += g
    upd = np.divide(m, 1 - b1 ** t, out=g)  # lr * m_hat / (sqrt(v_hat) + eps)
    upd *= state.lr
    np.divide(v, 1 - b2 ** t, out=sq)
    np.sqrt(sq, out=sq)
    sq += state.eps
    upd /= sq
    for (_, p), step in zip(params, state._views(upd).values()):
        p.data -= step
        p.grad = None


@dataclass
class TrainConfig:
    steps: int = 2000
    batch_size: int = 32
    lr: float = 3e-4
    enabled_tasks: tuple[str, ...] = ("oscc", "pnr", "scod")
    seed: int = 0
    encoder: str = "per_frame_token"
    width: int = 64
    layers: int = 2
    dec_heads: int = 4
    enc_heads: int = 2
    mlp_hidden: int = 128
    patch: int = 8
    # The compute dtype of the model and of every step, "float32" or
    # "float64"; the checkpoint payload is float64 either way.
    dtype: str = "float32"

    def __post_init__(self):
        if self.steps < 0:
            raise ContractError(f"steps must be >= 0, got {self.steps}")
        for name in ("batch_size", "width", "layers", "dec_heads",
                     "enc_heads", "mlp_hidden", "patch"):
            value = getattr(self, name)
            if value < 1:
                raise ContractError(f"{name} must be >= 1, got {value}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ContractError(f"lr must be finite and > 0, got {self.lr}")
        if self.dtype not in ("float32", "float64"):
            raise ContractError(f"dtype must be 'float32' or 'float64', got "
                                f"{self.dtype!r}")
        self.enabled_tasks = tuple(self.enabled_tasks)
        unknown = set(self.enabled_tasks) - set(TASK_ORDER)
        if unknown:
            raise ContractError(f"unknown tasks {sorted(unknown)}")
        if not self.enabled_tasks:
            raise ContractError("enabled_tasks must be nonempty")


@dataclass
class ModelBundle:
    encoder: Encoder
    decoder: TaskFusionDecoder
    sigma: SigmaParams
    store: ParamStore

    @property
    def enabled_tasks(self) -> tuple[str, ...]:
        return self.decoder.config.enabled_tasks

    @property
    def dtype(self) -> np.dtype:
        """The compute dtype the model was built in."""
        return self.encoder.dtype

    @tl.no_tape()
    def predict(self, clip: SynthClip) -> ClipPrediction:
        with tl.precision(self.dtype):
            return self.decoder.infer(self.encoder.encode([clip])).clip(0)


def build_model(config: TrainConfig, frames: int, image: int) -> ModelBundle:
    """The model ``config`` describes, built in its compute dtype."""
    with tl.precision(config.dtype):
        encoder = build_encoder(config.encoder,
                                rng_for(config.seed, "init", "enc"),
                                width=config.width, heads=config.enc_heads,
                                frames=frames, image=image, patch=config.patch)
        dec_cfg = DecoderConfig(layers=config.layers, width=config.width,
                                heads=config.dec_heads, frames=frames,
                                patches=encoder.patches,
                                mlp_hidden=config.mlp_hidden,
                                enabled_tasks=config.enabled_tasks)
        decoder = TaskFusionDecoder(dec_cfg,
                                    rng_for(config.seed, "init", "dec"))
        sigma = SigmaParams.init()
        recorded = dict(asdict(config),
                        enabled_tasks=list(config.enabled_tasks))
        store = ParamStore({"kind": "model", "config": recorded,
                            "frames": frames, "image": image})
        store.add_module("enc", encoder.parameters())
        store.add_module("dec", decoder.parameters())
        store.register("sigma.s", sigma.s)
        return ModelBundle(encoder=encoder, decoder=decoder, sigma=sigma,
                           store=store)


def load_model(path) -> ModelBundle:
    """Rebuild the model a checkpoint describes, then load its values. A
    description without a dtype predates float32 models: it is float64."""
    def build(desc):
        config = TrainConfig(**{"dtype": "float64", **desc["config"]})
        model = build_model(config, frames=desc["frames"],
                            image=desc["image"])
        return model, model.store
    return load_described(path, "model", build)


def fisher_yates(indices: list[int], rng: np.random.Generator) -> list[int]:
    """Swap position i = n-1, ..., 1 with a uniform j in [0, i]. The j
    come from one array draw, which consumes the generator as n-1 scalar
    ``rng.integers(0, i + 1)`` calls would."""
    order = list(indices)
    draws = rng.integers(0, np.arange(len(order), 1, -1)).tolist()
    for i, j in zip(range(len(order) - 1, 0, -1), draws):
        order[i], order[j] = order[j], order[i]
    return order


def _batches(n: int, batch_size: int, seed: int):
    """Endless batch index stream: seeded shuffle per epoch, partial batch
    at the epoch end dropped (whole epoch used when n < batch_size)."""
    size = min(batch_size, n)
    epoch = 0
    while True:
        order = fisher_yates(list(range(n)), rng_for(seed, "shuffle", epoch))
        for lo in range(0, n - size + 1, size):
            yield order[lo:lo + size]
        epoch += 1


@dataclass
class TrainResult:
    model: ModelBundle
    log: list[dict]


def batch_losses(model: ModelBundle, labels: list[ClipLabels],
                 features: ClipFeatures,
                 enabled: tuple[str, ...]) -> tuple[dict[str, Tensor],
                                                    TaskPredictions]:
    """One decode of the batch, each clip at its labeled change frame (a
    no-change clip at its mid frame; its detection loss is masked), and one
    loss per enabled task; detection is left out when no clip of the batch
    changes state."""
    preds = _decode_at_labels(model, labels, features)
    return _task_losses(preds, labels, features.frames, enabled), preds


def _decode_at_labels(model: ModelBundle, labels: list[ClipLabels],
                      features: ClipFeatures) -> TaskPredictions:
    keyframes = [features.frames // 2 if lab.pnr_frame is None
                 else lab.pnr_frame for lab in labels]
    return model.decoder.decode(features, keyframes)


def _task_losses(preds: TaskPredictions, labels: list[ClipLabels],
                 frames: int, enabled: tuple[str, ...]) -> dict[str, Tensor]:
    out: dict[str, Tensor] = {}
    if "oscc" in enabled:
        out["oscc"] = oscc_loss(preds.oscc_logits,
                                [lab.state_change for lab in labels])
    if "pnr" in enabled:
        out["pnr"] = pnr_loss(preds.pnr_logits,
                              make_pnr_targets(labels, frames))
    if "scod" in enabled and any(lab.state_change for lab in labels):
        out["scod"] = scod_loss(preds.scod_logits, preds.scod_boxes, labels)
    return out


def _first_nonfinite_clip(preds: TaskPredictions) -> int | None:
    """Index of the first clip with a non-finite output, None if none."""
    b = preds.keyframes.shape[0]
    ok = np.all([np.isfinite(t.data.reshape(b, -1)).all(axis=1)
                 for t in preds.outputs()], axis=0)
    return None if ok.all() else int(np.argmin(ok))


def train(records: list[ClipRecord], config: TrainConfig) -> TrainResult:
    if not records:
        raise ContractError("training dataset is empty")
    clip_cfg = records[0].config
    if clip_cfg.height != clip_cfg.width:
        raise ShapeError("training expects square rasters")
    model = build_model(config, frames=clip_cfg.frames, image=clip_cfg.height)
    adam = AdamState(lr=config.lr)
    batches = _batches(len(records), config.batch_size, config.seed)
    log: list[dict] = []

    with tl.precision(config.dtype):
        for step in range(1, config.steps + 1):
            log.append(_train_step(model, adam, step,
                                   [records[i] for i in next(batches)],
                                   config.enabled_tasks))
    return TrainResult(model=model, log=log)


def _train_step(model: ModelBundle, adam: AdamState, step: int,
                batch: list[ClipRecord], enabled: tuple[str, ...]) -> dict:
    """Train on one batch and return the step's log row. What the step
    makes is local to this call, so none of it outlives the step; the
    frames go right after ``encode``, which copies their patches."""
    clips = [record.clip() for record in batch]
    labels = [clip.labels for clip in clips]
    features = model.encoder.encode(clips)
    del clips
    preds = _decode_at_labels(model, labels, features)
    bad = _first_nonfinite_clip(preds)
    if bad is not None:
        raise TrainingAbort(step, batch[bad].seed, "predictions")
    parts = _task_losses(preds, labels, features.frames, enabled)
    for task, value in parts.items():
        if not np.isfinite(value.item()):
            raise TrainingAbort(step, batch[0].seed, f"{task} loss")
    present = tuple(t for t in enabled if t in parts)
    total = joint_loss(parts, model.sigma, present)
    if not np.isfinite(total.item()):
        raise TrainingAbort(step, batch[0].seed, "joint loss")
    backward(total)
    model.store.fill_missing_grads()
    adam_step(model.store, adam)

    sigma2 = model.sigma.sigma2()
    row = {"step": step, "loss_total": total.item()}
    for i, task in enumerate(TASK_ORDER):
        row[f"loss_{task}"] = parts[task].item() if task in parts else None
        row[f"sigma2_{i + 1}"] = (float(sigma2[i]) if task in enabled
                                  else None)
    return row


@dataclass
class EvalReport:
    oscc_accuracy: float | None
    pnr_error_frames: float | None
    pnr_error_seconds: float | None
    scod_mean_iou: float | None
    loss_means: dict[str, float]
    clip_count: int

    def rows(self) -> list[tuple[str, float]]:
        out = []
        for name in ("oscc_accuracy", "pnr_error_frames", "pnr_error_seconds",
                     "scod_mean_iou"):
            value = getattr(self, name)
            if value is not None:
                out.append((name, value))
        for task, value in self.loss_means.items():
            out.append((f"loss_{task}", value))
        out.append(("clip_count", float(self.clip_count)))
        return out


@tl.no_tape()
def evaluate(model, records: list[ClipRecord]) -> EvalReport:
    """Metrics over a dataset: classification accuracy, keyframe error in
    frames and seconds, and mean IoU of matched detections.

    ``model`` needs ``predict(clip) -> ClipPrediction`` and
    ``enabled_tasks``; the keyframe for spatial predictions comes from the
    keyframe head's argmax (first index on ties). Predictions are made
    clip by clip; the losses, the matching and the IoU of the matched
    pairs then run once over all of them, as arrays. It all runs under
    ``tensor.no_tape``, recording no tape node.
    """
    if not records:
        raise ContractError("evaluation dataset is empty")
    enabled = model.enabled_tasks
    labels, preds = [], []
    for record in records:
        clip = record.clip()
        labels.append(clip.labels)
        preds.append(model.predict(clip))
    duration = records[0].config.clip_duration_seconds
    frames = records[0].config.frames
    changes = [lab.state_change for lab in labels]

    def stacked(get) -> Tensor:
        return tl.constant(np.stack([get(p) for p in preds]))

    loss_means: dict[str, float] = {}
    accuracy = mean_err = mean_iou = None
    if "oscc" in enabled:
        logits = stacked(lambda p: p.oscc_logits.data)
        accuracy = float(np.mean((np.argmax(logits.data, axis=1) == 0)
                                 == np.asarray(changes)))
        loss_means["oscc"] = oscc_loss(logits, changes).item()
    if "pnr" in enabled:
        logits = stacked(lambda p: p.pnr_logits.data)
        loss_means["pnr"] = pnr_loss(logits,
                                     make_pnr_targets(labels, frames)).item()
        errors = [abs(int(k) - lab.pnr_frame)
                  for k, lab in zip(np.argmax(logits.data, axis=1), labels)
                  if lab.state_change]
        mean_err = float(np.mean(errors)) if errors else None
    if "scod" in enabled and any(changes):
        class_logits = stacked(lambda p: [q.class_logits.data for q in p.scod])
        boxes = stacked(lambda p: [q.box.data for q in p.scod])
        match = match_queries(class_logits, boxes, labels)
        loss_means["scod"] = scod_loss(class_logits, boxes, labels,
                                       match=match).item()
        iou, _ = iou_giou(tl.constant(boxes.data[match.clips, match.queries]),
                          tl.constant(match.boxes))
        mean_iou = float(np.mean(iou.data))

    return EvalReport(
        oscc_accuracy=accuracy,
        pnr_error_frames=mean_err,
        pnr_error_seconds=(mean_err * duration / frames
                           if mean_err is not None else None),
        scod_mean_iou=mean_iou,
        loss_means=loss_means,
        clip_count=len(records),
    )
