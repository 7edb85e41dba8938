"""Supervised losses for the three perceptual tasks and their combination.

Each task loss takes the outputs of a batch of B clips and returns its
mean over the clips it applies to, in one vectorized pass.
Classification uses log-sum-exp stabilized cross-entropy. The keyframe
task is supervised as a distribution over frames with target-first KL
(one-hot targets reduce it to negative log-likelihood). Detection is a
set-prediction loss: each clip's queries are matched to its ground-truth
boxes by minimum-cost assignment, the match is held fixed during
backward, and unmatched queries are pushed toward the no-object class;
no-change clips are masked out. The combined loss weighs tasks by
learnable log-variances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import tensor as tl
from .assignment import Assignment, CostMatrix, hungarian
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
        if len(self.boxes) > 2:
            raise LabelError(f"at most 2 boxes per clip, got {len(self.boxes)}")


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


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """-log softmax(logits)[label] for every row of ``logits`` [..., C];
    ``labels`` has shape [...]. Stabilized by a detached max shift."""
    labels = np.asarray(labels, dtype=np.intp)
    n = logits.shape[-1]
    if labels.shape != logits.shape[:-1]:
        raise ContractError(f"labels shape {labels.shape} does not match "
                            f"logits shape {logits.shape}")
    if np.any((labels < 0) | (labels >= n)):
        raise ContractError(f"labels {labels} out of range for {n} classes")
    # the shift has exactly zero gradient
    m = np.max(logits.data, axis=-1, keepdims=True)
    z = tl.sub(logits, tl.constant(np.broadcast_to(m, logits.shape)))
    lse = tl.log(tl.sum_axis(tl.exp(z), axis=-1))
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


def make_pnr_target(labels: ClipLabels, frames: int) -> PnrTarget:
    """One-hot at the change frame, or uniform 1/T when nothing changes."""
    if labels.state_change:
        if labels.pnr_frame >= frames or labels.pnr_frame < 0:
            raise LabelError(f"keyframe {labels.pnr_frame} outside [0, {frames})")
        dist = np.zeros(frames)
        dist[labels.pnr_frame] = 1.0
    else:
        dist = np.full(frames, 1.0 / frames)
    return PnrTarget(dist=dist)


def make_pnr_targets(labels: Sequence[ClipLabels], frames: int) -> PnrTarget:
    """One target row per clip, stacked: [B, T]."""
    return PnrTarget(np.stack([make_pnr_target(lab, frames).dist
                               for lab in labels]))


def pnr_loss(pnr_logits: Tensor, target: PnrTarget) -> Tensor:
    """KL(target || softmax(logits)) with the 0*log(0) = 0 convention,
    averaged over clips; logits and target are [B, T] (or [T])."""
    t = target.dist
    if pnr_logits.shape != t.shape:
        raise ContractError(f"logits shape {pnr_logits.shape} != target shape "
                            f"{t.shape}")
    target_entropy = np.sum(t * np.log(np.where(t > 0, t, 1.0)), axis=-1)
    m = np.max(pnr_logits.data, axis=-1, keepdims=True)
    z = tl.sub(pnr_logits, tl.constant(np.broadcast_to(m, t.shape)))
    lse = tl.log(tl.sum_axis(tl.exp(z), axis=-1))
    # sum_t target * log p = sum_t target * z - lse * sum_t target
    cross = tl.sub(tl.sum_axis(tl.mul(tl.constant(t), z), axis=-1),
                   tl.mul(lse, tl.constant(np.sum(t, axis=-1))))
    return tl.mean_all(tl.sub(tl.constant(target_entropy), cross))


def _pair_product(x: Tensor, axis: int) -> Tensor:
    # x[..., 0] * x[..., 1] along ``axis`` (kept with length 1)
    return tl.mul(tl.narrow(x, axis, 0, 1), tl.narrow(x, axis, 1, 1))


def giou(a: Tensor, b: Tensor) -> Tensor:
    """Generalized IoU of (cx, cy, w, h) boxes, row by row: [..., 4] pairs
    give [...]; differentiable, in (-1, 1]."""
    a = a if isinstance(a, Tensor) else tl.constant(np.asarray(a, dtype=np.float64))
    b = b if isinstance(b, Tensor) else tl.constant(np.asarray(b, dtype=np.float64))
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
    iou = tl.div(inter, union)
    hull = _pair_product(
        tl.sub(tl.maximum(a_hi, b_hi), tl.minimum(a_lo, b_lo)), ax)
    out = tl.sub(iou, tl.div(tl.sub(hull, union), hull))
    return tl.reshape(out, a.shape[:-1])


def iou_giou_values(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Plain-number IoU and generalized IoU of (cx, cy, w, h) boxes; the
    [..., 4] operands broadcast against each other."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if np.any(a[..., 2:] <= 0) or np.any(b[..., 2:] <= 0):
        raise DomainError("degenerate (zero-area) box")
    a_lo, a_hi = a[..., :2] - a[..., 2:] / 2, a[..., :2] + a[..., 2:] / 2
    b_lo, b_hi = b[..., :2] - b[..., 2:] / 2, b[..., :2] + b[..., 2:] / 2
    overlap = np.maximum(0.0, np.minimum(a_hi, b_hi) - np.maximum(a_lo, b_lo))
    inter = overlap[..., 0] * overlap[..., 1]
    union = a[..., 2] * a[..., 3] + b[..., 2] * b[..., 3] - inter
    iou = inter / union
    hull_wh = np.maximum(a_hi, b_hi) - np.minimum(a_lo, b_lo)
    hull = hull_wh[..., 0] * hull_wh[..., 1]
    return iou, iou - (hull - union) / hull


def _check_detection(class_logits: Tensor, boxes: Tensor,
                     labels: Sequence[ClipLabels]) -> None:
    b, q = class_logits.shape[:2]
    if class_logits.shape != (b, q, BOX_CLASS_COUNT) or boxes.shape != (b, q, 4):
        raise ContractError(f"detection outputs must be [B, Q, 3] and "
                            f"[B, Q, 4], got {class_logits.shape} and "
                            f"{boxes.shape}")
    if len(labels) != b:
        raise ContractError(f"{len(labels)} label sets for a batch of {b}")


def match_queries(class_logits: Tensor, boxes: Tensor,
                  labels: Sequence[ClipLabels]) -> list[Assignment | None]:
    """Minimum-cost pairing of each clip's ground-truth boxes (rows) to its
    queries (cols); None for clips without boxes.

    The costs of every clip are built in one numpy pass over detached
    values and mirror the loss terms; gradients never flow through the
    discrete match. Each clip is then matched on its own.
    """
    _check_detection(class_logits, boxes, labels)
    g = max((len(lab.boxes) for lab in labels), default=0)
    gt = np.full((len(labels), g, 4), 0.5)
    gt_class = np.zeros((len(labels), g), dtype=np.intp)
    for i, lab in enumerate(labels):
        for j, box in enumerate(lab.boxes):
            gt[i, j] = box.box
            gt_class[i, j] = box.class_index
    logits = class_logits.data
    e = np.exp(logits - np.max(logits, axis=-1, keepdims=True))
    prob = e / np.sum(e, axis=-1, keepdims=True)               # [B, Q, 3]
    prob_gt = np.take_along_axis(prob, gt_class[:, None, :], axis=2)
    pred = boxes.data[:, None, :, :]                            # [B, 1, Q, 4]
    l1 = np.abs(pred - gt[:, :, None, :]).sum(axis=-1)          # [B, G, Q]
    _, g_iou = iou_giou_values(pred, gt[:, :, None, :])
    costs = (LAMBDA_CLS * (-np.swapaxes(prob_gt, 1, 2)) + LAMBDA_L1 * l1
             + LAMBDA_GIOU * (1.0 - g_iou))
    return [hungarian(CostMatrix(costs[i, :len(lab.boxes)]))
            if lab.boxes else None for i, lab in enumerate(labels)]


def scod_loss(class_logits: Tensor, boxes: Tensor,
              labels: Sequence[ClipLabels],
              match: Sequence[Assignment | None] | None = None) -> Tensor:
    """Hungarian-matched detection loss, averaged over state-change clips.

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
    q = class_logits.shape[1]
    target = np.full((len(labels), q), CLASS_NO_OBJECT, dtype=np.intp)
    rows, gt = [], []
    for i, (lab, assignment) in enumerate(zip(labels, match)):
        if not lab.state_change:
            continue
        for gi, qj in assignment.pairs:
            target[i, qj] = lab.boxes[gi].class_index
            rows.append(i * q + qj)
            gt.append(lab.boxes[gi].box)
    ce = tl.sum_all(tl.mul(cross_entropy(class_logits, target),
                           tl.constant(np.outer(mask, np.ones(q)))))
    matched = tl.take0(tl.reshape(boxes, (len(labels) * q, 4)), rows)
    gt = np.asarray(gt, dtype=np.float64)
    d = tl.sub(matched, tl.constant(gt))
    l1 = tl.sum_all(tl.add(tl.relu(d), tl.relu(tl.scale(d, -1.0))))
    giou_gap = tl.sum_all(tl.sub(1.0, giou(matched, tl.constant(gt))))
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
