"""Supervised losses for the three perceptual tasks and their combination.

Each task loss takes the outputs of a batch of B clips and returns its
mean over the clips it applies to, in one vectorized pass.
Classification uses cross-entropy. The keyframe task is supervised as a
distribution over frames with target-first KL (one-hot targets reduce it
to negative log-likelihood); the targets of a batch are built as one
array. Both take log softmax from one max-shifted log-sum-exp. Detection
is a set-prediction loss: each clip's queries are matched to its
ground-truth boxes by minimum-cost assignment, the match is held fixed
during backward, and unmatched queries are pushed toward the no-object
class; no-change clips are masked out. A clip has at most 2 boxes, so
one call of the exact batched solver ``assignment.hungarian`` matches
the whole batch, and the loss gathers the matched pairs as arrays. The
matcher's costs mirror the loss terms with the same functions: class
probabilities from ``tensor.softmax``, and the GIoU of ``iou_giou``, the
one box-overlap formula, which ``trainer.evaluate`` also reads its IoU
from. The combined loss weighs tasks by learnable log-variances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import tensor as tl
from .assignment import MAX_BOXES, hungarian
from .tensor import ContractError, DomainError, Tensor

CLASS_HAND = 0
CLASS_OBJECT = 1
CLASS_NO_OBJECT = 2
BOX_CLASS_COUNT = 3

# Matching / loss coefficients, DETR recipe: class, L1, generalized IoU.
LAMBDA_CLS = 1.0
LAMBDA_L1 = 5.0
LAMBDA_GIOU = 2.0

TASK_ORDER = ("oscc", "pnr", "scod")


class LabelError(Exception):
    """Clip labels violate their invariants."""


@dataclass
class LabeledBox:
    kind: str  # "hand" | "object"
    box: tuple[float, float, float, float]  # (cx, cy, w, h), normalized

    def __post_init__(self):
        if self.kind not in ("hand", "object"):
            raise LabelError(f"unknown box kind {self.kind!r}")
        cx, cy, w, h = self.box
        if w <= 0 or h <= 0:
            raise LabelError(f"box must have positive extent, got w={w} h={h}")
        if not all(0.0 <= v <= 1.0 for v in (cx, cy, w, h)):
            raise LabelError(f"box coords must lie in [0, 1], got {self.box}")

    @property
    def class_index(self) -> int:
        return CLASS_HAND if self.kind == "hand" else CLASS_OBJECT


@dataclass
class ClipLabels:
    state_change: bool
    pnr_frame: int | None = None
    boxes: list[LabeledBox] = field(default_factory=list)

    def __post_init__(self):
        if self.state_change:
            if self.pnr_frame is None:
                raise LabelError("state-change clip without a keyframe index")
        else:
            if self.pnr_frame is not None or self.boxes:
                raise LabelError("no-change clip must carry no keyframe/boxes")
        if len(self.boxes) > MAX_BOXES:
            raise LabelError(f"at most {MAX_BOXES} boxes per clip, got "
                             f"{len(self.boxes)}")


@dataclass
class PnrTarget:
    dist: np.ndarray  # [T] probability vector, or [B, T] with one per clip

    def __post_init__(self):
        self.dist = np.asarray(self.dist, dtype=np.float64)
        if np.any(self.dist < 0) or np.any(
                np.abs(self.dist.sum(axis=-1) - 1.0) > 1e-12):
            raise LabelError("keyframe target must be a probability vector")


@dataclass
class SigmaParams:
    """Learnable per-task log-variances s_i = log(sigma_i^2)."""

    s: Tensor

    @classmethod
    def init(cls) -> "SigmaParams":
        return cls(s=tl.zeros(len(TASK_ORDER), requires_grad=True))

    def sigma2(self) -> np.ndarray:
        return np.exp(self.s.data)


def _comp(t: Tensor, i: int) -> Tensor:
    return tl.reshape(tl.narrow(t, 0, i, 1), ())


def _shifted_log_sum_exp(logits: Tensor) -> tuple[Tensor, Tensor]:
    """``z = logits - max`` and ``log(sum(exp(z)))`` over the last axis:
    log softmax is ``z - lse``. The max is detached, so the shift has
    exactly zero gradient."""
    m = tl._row_max(logits.data)
    z = tl.sub(logits, tl.constant(np.broadcast_to(m, logits.shape)))
    return z, tl.log(tl.sum_axis(tl.exp(z), axis=-1))


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """-log softmax(logits)[label] for every row of ``logits`` [..., C];
    ``labels`` has shape [...]."""
    labels = np.asarray(labels, dtype=np.intp)
    n = logits.shape[-1]
    if labels.shape != logits.shape[:-1]:
        raise ContractError(f"labels shape {labels.shape} does not match "
                            f"logits shape {logits.shape}")
    if np.any((labels < 0) | (labels >= n)):
        raise ContractError(f"labels {labels} out of range for {n} classes")
    z, lse = _shifted_log_sum_exp(logits)
    one_hot = tl.constant(np.eye(n)[labels])
    return tl.sub(lse, tl.sum_axis(tl.mul(z, one_hot), axis=-1))


def oscc_loss(oscc_logits: Tensor, state_change) -> Tensor:
    """Two-class cross-entropy, averaged over clips: ``oscc_logits``
    [B, 2] (or [2] for one clip), ``state_change`` one flag per clip.
    Class 0 means a state change occurs."""
    if oscc_logits.shape[-1:] != (2,):
        raise ContractError(f"expected 2 logits, got shape {oscc_logits.shape}")
    labels = np.where(np.asarray(state_change, dtype=bool), 0, 1)
    return tl.mean_all(cross_entropy(oscc_logits, labels))


def make_pnr_targets(labels: Sequence[ClipLabels], frames: int) -> PnrTarget:
    """One target row per clip, stacked: [B, T]; one-hot at the change
    frame, or uniform 1/T when nothing changes."""
    change = np.array([lab.state_change for lab in labels], dtype=bool)
    keyframe = np.array([lab.pnr_frame if lab.state_change else 0
                         for lab in labels], dtype=np.intp)
    outside = change & ((keyframe < 0) | (keyframe >= frames))
    if outside.any():
        raise LabelError(f"keyframe {keyframe[outside][0]} outside "
                         f"[0, {frames})")
    dist = np.full((len(labels), frames), 1.0 / frames)
    dist[change] = 0.0
    dist[np.flatnonzero(change), keyframe[change]] = 1.0
    return PnrTarget(dist)


def make_pnr_target(labels: ClipLabels, frames: int) -> PnrTarget:
    """The [T] target of one clip."""
    return PnrTarget(make_pnr_targets([labels], frames).dist[0])


def pnr_loss(pnr_logits: Tensor, target: PnrTarget) -> Tensor:
    """KL(target || softmax(logits)) with the 0*log(0) = 0 convention,
    averaged over clips; logits and target are [B, T] (or [T])."""
    t = target.dist
    if pnr_logits.shape != t.shape:
        raise ContractError(f"logits shape {pnr_logits.shape} != target shape "
                            f"{t.shape}")
    target_entropy = np.sum(t * np.log(np.where(t > 0, t, 1.0)), axis=-1)
    z, lse = _shifted_log_sum_exp(pnr_logits)
    # sum_t target * log p = sum_t target * z - lse * sum_t target
    cross = tl.sub(tl.sum_axis(tl.mul(tl.constant(t), z), axis=-1),
                   tl.mul(lse, tl.constant(np.sum(t, axis=-1))))
    return tl.mean_all(tl.sub(tl.constant(target_entropy), cross))


def _pair_product(x: Tensor, axis: int) -> Tensor:
    # x[..., 0] * x[..., 1] along ``axis`` (kept with length 1)
    return tl.mul(tl.narrow(x, axis, 0, 1), tl.narrow(x, axis, 1, 1))


def iou_giou(a: Tensor, b: Tensor) -> tuple[Tensor, Tensor]:
    """IoU and generalized IoU of (cx, cy, w, h) boxes, row by row: two
    [..., 4] tensors of one shape give two [...] tensors, differentiable.

    The corners are a centre plus or minus half a side, so each is off by
    up to an ulp of the centre: identical boxes can give an IoU of 1 plus
    ulps, and where the union is a rectangle the hull can round below it.
    IoU is clamped at 1 and the hull at the union, so ``-1 <= giou <= iou
    <= 1`` holds exactly, and every value already in range is unchanged.
    On constants the chain records no tape node.
    """
    if a.shape != b.shape or a.shape[-1:] != (4,):
        raise ContractError(f"boxes must be [..., 4] pairs, got {a.shape} and "
                            f"{b.shape}")
    if np.any(a.data[..., 2:] <= 0) or np.any(b.data[..., 2:] <= 0):
        raise DomainError("degenerate (zero-area) box")
    ax = a.data.ndim - 1

    def corners(box):  # (x1, y1), (x2, y2), (w, h)
        center, size = tl.narrow(box, ax, 0, 2), tl.narrow(box, ax, 2, 2)
        half = tl.scale(size, 0.5)
        return tl.sub(center, half), tl.add(center, half), size

    a_lo, a_hi, a_size = corners(a)
    b_lo, b_hi, b_size = corners(b)
    inter = _pair_product(
        tl.relu(tl.sub(tl.minimum(a_hi, b_hi), tl.maximum(a_lo, b_lo))), ax)
    union = tl.sub(tl.add(_pair_product(a_size, ax), _pair_product(b_size, ax)),
                   inter)
    iou = tl.minimum(tl.div(inter, union), 1.0)
    hull = tl.maximum(_pair_product(
        tl.sub(tl.maximum(a_hi, b_hi), tl.minimum(a_lo, b_lo)), ax), union)
    g = tl.sub(iou, tl.div(tl.sub(hull, union), hull))
    return tl.reshape(iou, a.shape[:-1]), tl.reshape(g, a.shape[:-1])


def _check_detection(class_logits: Tensor, boxes: Tensor,
                     labels: Sequence[ClipLabels]) -> None:
    b, q = class_logits.shape[:2]
    if class_logits.shape != (b, q, BOX_CLASS_COUNT) or boxes.shape != (b, q, 4):
        raise ContractError(f"detection outputs must be [B, Q, 3] and "
                            f"[B, Q, 4], got {class_logits.shape} and "
                            f"{boxes.shape}")
    if len(labels) != b:
        raise ContractError(f"{len(labels)} label sets for a batch of {b}")


@dataclass
class Match:
    """The matched (clip, query, ground-truth box) triples of a batch, one
    entry per box, in clip order and each clip's box order."""

    clips: np.ndarray    # [M] clip index
    queries: np.ndarray  # [M] query index within the clip
    boxes: np.ndarray    # [M, 4] the ground-truth box
    classes: np.ndarray  # [M] its class index


@tl.no_tape()
def match_queries(class_logits: Tensor, boxes: Tensor,
                  labels: Sequence[ClipLabels]) -> Match:
    """Minimum-cost pairing of each clip's ground-truth boxes (rows) to
    distinct queries (cols).

    The costs of every clip are built in one pass over detached values,
    under ``tensor.no_tape``, and mirror the loss terms; gradients never
    flow through the discrete match. The box terms are float64 whatever
    the model's dtype. One call of the exact batched solver matches them.
    """
    _check_detection(class_logits, boxes, labels)
    counts = np.array([len(lab.boxes) for lab in labels], dtype=np.intp)
    g = int(counts.max(initial=0))
    gt = np.full((len(labels), g, 4), 0.5)
    gt_class = np.zeros((len(labels), g), dtype=np.intp)
    for i, lab in enumerate(labels):
        for j, box in enumerate(lab.boxes):
            gt[i, j] = box.box
            gt_class[i, j] = box.class_index
    prob = tl.softmax(class_logits).data                       # [B, Q, 3]
    prob_gt = np.take_along_axis(prob, gt_class[:, None, :], axis=2)
    pred = boxes.data[:, None, :, :]                            # [B, 1, Q, 4]
    l1 = np.abs(pred - gt[:, :, None, :]).sum(axis=-1)          # [B, G, Q]
    with tl.precision("float64"):
        _, g_iou = iou_giou(*map(tl.constant, np.broadcast_arrays(
            pred, gt[:, :, None, :])))
    costs = (LAMBDA_CLS * (-np.swapaxes(prob_gt, 1, 2)) + LAMBDA_L1 * l1
             + LAMBDA_GIOU * (1.0 - g_iou.data))
    cols = hungarian(costs, counts)
    clips, rows = np.nonzero(cols >= 0)
    return Match(clips=clips, queries=cols[clips, rows], boxes=gt[clips, rows],
                 classes=gt_class[clips, rows])


def scod_loss(class_logits: Tensor, boxes: Tensor,
              labels: Sequence[ClipLabels], match: Match | None = None
              ) -> Tensor:
    """Set-prediction detection loss, averaged over state-change clips.

    ``class_logits`` [B, Q, 3] and ``boxes`` [B, Q, 4] are the query
    outputs of B clips. On a state-change clip, matched queries pay class
    cross-entropy plus weighted L1 and GIoU box terms, and unmatched
    queries pay cross-entropy against no-object. No-change clips carry no
    boxes and are masked out. The match is computed per call unless one
    is supplied (gradient checks condition on a fixed match; gradients
    never cross it).
    """
    _check_detection(class_logits, boxes, labels)
    mask = np.array([lab.state_change for lab in labels])
    if not mask.any() or any(lab.state_change and not lab.boxes
                             for lab in labels):
        raise ContractError("detection loss is undefined without ground-truth "
                            "boxes; caller must mask no-change clips")
    if match is None:
        match = match_queries(class_logits, boxes, labels)
    b, q = class_logits.shape[:2]
    target = np.full((b, q), CLASS_NO_OBJECT, dtype=np.intp)
    target[match.clips, match.queries] = match.classes
    ce = tl.sum_all(tl.mul(cross_entropy(class_logits, target),
                           tl.constant(np.outer(mask, np.ones(q)))))
    matched = tl.take0(tl.reshape(boxes, (b * q, 4)),
                       match.clips * q + match.queries)
    gt = tl.constant(match.boxes)
    d = tl.sub(matched, gt)
    l1 = tl.sum_all(tl.add(tl.relu(d), tl.relu(tl.scale(d, -1.0))))
    giou_gap = tl.sum_all(tl.sub(1.0, iou_giou(matched, gt)[1]))
    total = tl.add(ce, tl.add(tl.scale(l1, LAMBDA_L1),
                              tl.scale(giou_gap, LAMBDA_GIOU)))
    return tl.scale(total, 1.0 / int(mask.sum()))


def joint_loss(parts: Mapping[str, Tensor], sigma: SigmaParams,
               enabled: Sequence[str]) -> Tensor:
    """Uncertainty-weighted sum: exp(-s_i)/2 * L_i + s_i/2 per enabled task.

    Algebraically equal to 1/(2 sigma_i^2) L_i + log sigma_i summed over
    tasks, since s_i = log sigma_i^2. Disabled tasks contribute neither
    the weighted term nor the regularizer.
    """
    enabled = tuple(enabled)
    if not enabled:
        raise ContractError("at least one task must be enabled")
    unknown = set(enabled) - set(TASK_ORDER)
    if unknown:
        raise ContractError(f"unknown tasks {sorted(unknown)}")
    total = tl.constant(0.0)
    for i, task in enumerate(TASK_ORDER):
        if task not in enabled:
            continue
        if task not in parts:
            raise ContractError(f"enabled task {task!r} missing its loss")
        s_i = _comp(sigma.s, i)
        weighted = tl.scale(tl.mul(tl.exp(tl.scale(s_i, -1.0)), parts[task]), 0.5)
        total = tl.add(total, tl.add(weighted, tl.scale(s_i, 0.5)))
    return total
