"""Finite-difference audit of every analytic gradient in the library.

``run_gradcheck`` checks every tape op, both attention blocks (on token
sets and on a batch of two), the class-row op ``class_attention`` (over
one frame and over three), the fused MLP ``mlp`` (with shared and with
per-token weights), all three task losses, the uncertainty weighting,
and the joint loss through a tiny two-layer decode of two clips, every
parameter included. Its inputs derive from one seed; each
check is named, and ``taskfusion gradcheck`` prints one line per check.
It needs float64 inputs, as ``tensor.grad_check`` does.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tl
from .attention import AttentionParams, cross_attention, self_attention
from .decoder import ClipFeatures, DecoderConfig, TaskFusionDecoder
from .losses import (ClipLabels, LabeledBox, SigmaParams, TASK_ORDER,
                     iou_giou, joint_loss, make_pnr_target, make_pnr_targets,
                     match_queries, oscc_loss, pnr_loss, scod_loss)
from .seeding import rng_for
from .tensor import GradCheckReport, TensorError, grad_check


def _positive(rng, shape, lo=0.1, hi=3.0):
    return tl.tensor(rng.uniform(lo, hi, shape), requires_grad=True)


def _away_from(rng, shape, margin=0.05):
    x = rng.standard_normal(shape)
    x = x + np.sign(x) * margin * 2
    return tl.tensor(x, requires_grad=True)


def _box_margins_ok(a: np.ndarray, b: np.ndarray, margin: float = 0.015) -> bool:
    """True when no corner pair, component pair, or overlap edge sits near a
    min/max/relu kink, so central differences stay valid."""
    ac = np.array([a[0] - a[2] / 2, a[1] - a[3] / 2,
                   a[0] + a[2] / 2, a[1] + a[3] / 2])
    bc = np.array([b[0] - b[2] / 2, b[1] - b[3] / 2,
                   b[0] + b[2] / 2, b[1] + b[3] / 2])
    if np.any(np.abs(ac - bc) < margin) or np.any(np.abs(a - b) < margin):
        return False
    iw = min(ac[2], bc[2]) - max(ac[0], bc[0])
    ih = min(ac[3], bc[3]) - max(ac[1], bc[1])
    if abs(iw) <= margin or abs(ih) <= margin:
        return False
    # Interval containment on either axis makes the inner box's center
    # gradient exactly zero along it; finite differences then only measure
    # rounding noise, so such pairs are rejected.
    for axis in (0, 1):
        lo, hi = axis, axis + 2
        if ac[lo] > bc[lo] and ac[hi] < bc[hi]:
            return False
        if bc[lo] > ac[lo] and bc[hi] < ac[hi]:
            return False
    return True


# Draws allowed per fixture before giving up; every fixture's acceptance
# rate is a few percent or more, so running out means a broken fixture.
_ATTEMPTS = 1000


def _kink_free_boxes(rng) -> tuple[np.ndarray, np.ndarray]:
    for _ in range(_ATTEMPTS):
        a = np.concatenate([rng.uniform(0.3, 0.7, 2), rng.uniform(0.12, 0.4, 2)])
        b = np.concatenate([rng.uniform(0.3, 0.7, 2), rng.uniform(0.12, 0.4, 2)])
        if _box_margins_ok(a, b):
            return a, b
    raise TensorError(f"no kink-free box pair in {_ATTEMPTS} draws")


def _query_boxes(rng, n_queries: int, gt_boxes) -> np.ndarray:
    """[1, n_queries, 4] pre-sigmoid query boxes, each drawn on its own
    until its sigmoid clears every ground-truth box's kinks."""
    raws = []
    for q in range(n_queries):
        for _ in range(_ATTEMPTS):
            raw = rng.standard_normal(4) * 0.5
            squashed = 1.0 / (1.0 + np.exp(-raw))
            if all(_box_margins_ok(squashed, np.asarray(g)) for g in gt_boxes):
                raws.append(raw)
                break
        else:
            raise TensorError(f"query box {q}: none of {_ATTEMPTS} draws "
                              "clears the ground-truth boxes")
    return np.stack(raws)[None]


def run_gradcheck(seed: int = 0, tol: float = 1e-4,
                  eps: float = 1e-5) -> list[tuple[str, GradCheckReport]]:
    """Finite-difference verification of every op, both attention blocks,
    the class-row op, the fused MLP, all three losses, and the full joint
    loss through a tiny decode."""
    results: list[tuple[str, GradCheckReport]] = []

    def check(name, f, inputs, names=None):
        results.append((name, grad_check(f, inputs, eps=eps, tol=tol,
                                         names=names)))

    cases_per_kind = 5
    binary = {"add": tl.add, "sub": tl.sub, "mul": tl.mul, "div": tl.div,
              "maximum": tl.maximum, "minimum": tl.minimum}
    for kind, op in binary.items():
        for c in range(cases_per_kind):
            rng = rng_for(seed, "gc", kind, c)
            a = tl.tensor(rng.standard_normal((3, 4)), requires_grad=True)
            if kind == "div":
                b = _away_from(rng, (3, 4), margin=0.3)
            elif kind in ("maximum", "minimum"):
                b = tl.tensor(a.data + np.sign(rng.standard_normal((3, 4)))
                              * rng.uniform(0.2, 1.0, (3, 4)),
                              requires_grad=True)
            else:
                b = tl.tensor(rng.standard_normal((3, 4)), requires_grad=True)
            w = tl.constant(rng.standard_normal((3, 4)))
            check(f"elementwise.{kind}[{c}]",
                  lambda x, y, op=op, w=w: tl.sum_all(tl.mul(op(x, y), w)),
                  [a, b], names=["a", "b"])

    unary = {"relu": tl.relu, "gelu": tl.gelu, "exp": tl.exp, "log": tl.log,
             "sigmoid": tl.sigmoid}
    for kind in (*unary, "scale"):
        for c in range(cases_per_kind):
            rng = rng_for(seed, "gc", kind, c)
            if kind == "log":
                a = _positive(rng, (3, 4))
            elif kind == "relu":
                a = _away_from(rng, (3, 4))
            elif kind == "exp":
                a = tl.tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
            else:
                a = tl.tensor(rng.standard_normal((3, 4)), requires_grad=True)
            w = tl.constant(rng.standard_normal((3, 4)))
            if kind == "scale":
                factor = float(rng.uniform(-2, 2))
                f = lambda x, k=factor, w=w: tl.sum_all(tl.mul(tl.scale(x, k), w))
            else:
                f = lambda x, op=unary[kind], w=w: tl.sum_all(
                    tl.mul(op(x), w))
            check(f"elementwise.{kind}[{c}]", f, [a], names=["a"])

    for c in range(3):
        rng = rng_for(seed, "gc", "matmul", c)
        a = tl.tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = tl.tensor(rng.standard_normal((4, 2)), requires_grad=True)
        w = tl.constant(rng.standard_normal((3, 2)))
        check(f"matmul[{c}]",
              lambda x, y, w=w: tl.sum_all(tl.mul(tl.matmul(x, y), w)),
              [a, b], names=["a", "b"])

        rng = rng_for(seed, "gc", "matmul_batched", c)
        a3 = tl.tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        b3 = tl.tensor(rng.standard_normal((2, 4, 2)), requires_grad=True)
        w3 = tl.constant(rng.standard_normal((2, 3, 2)))
        check(f"matmul_batched[{c}]",
              lambda x, y, w=w3: tl.sum_all(tl.mul(tl.matmul(x, y), w)),
              [a3, b3], names=["a", "b"])

    structural = {
        "permute": lambda x: tl.permute(tl.reshape(x, (2, 2, 3)), (2, 0, 1)),
        "reshape": lambda x: tl.reshape(x, (6, 2)),
        "narrow": lambda x: tl.narrow(x, 1, 1, 2),
        "take0": lambda x: tl.take0(x, [2, 0, 2]),
        "repeat0": lambda x: tl.repeat0(tl.narrow(x, 0, 0, 1), 3),
        "sum_axis": lambda x: tl.sum_axis(x, 1),
        "mean_axis": lambda x: tl.mean_axis(x, 0),
        "softmax": lambda x: tl.softmax(x, axis=-1),
    }
    for name, op in structural.items():
        for c in range(3):
            rng = rng_for(seed, "gc", name, c)
            a = tl.tensor(rng.standard_normal((3, 4)), requires_grad=True)
            out_shape = op(tl.constant(a.data)).shape
            w = tl.constant(rng.standard_normal(out_shape))
            check(f"{name}[{c}]",
                  lambda x, op=op, w=w: tl.sum_all(tl.mul(op(x), w)),
                  [a], names=["a"])

    for c in range(3):
        rng = rng_for(seed, "gc", "multi", c)
        parts = [tl.tensor(rng.standard_normal((2, 3)), requires_grad=True)
                 for _ in range(3)]
        w = tl.constant(rng.standard_normal((6, 3)))
        check(f"concat[{c}]",
              lambda a, b, cc, w=w: tl.sum_all(
                  tl.mul(tl.concat([a, b, cc], axis=0), w)),
              parts, names=["a", "b", "c"])

        rng = rng_for(seed, "gc", "layer_norm", c)
        x = tl.tensor(rng.standard_normal((3, 5)), requires_grad=True)
        g = tl.tensor(rng.uniform(0.5, 1.5, 5), requires_grad=True)
        b = tl.tensor(rng.standard_normal(5) * 0.1, requires_grad=True)
        w = tl.constant(rng.standard_normal((3, 5)))
        check(f"layer_norm[{c}]",
              lambda x, g, b, w=w: tl.sum_all(
                  tl.mul(tl.layer_norm(x, g, b), w)),
              [x, g, b], names=["x", "gain", "bias"])

        check(f"sum_all[{c}]", lambda x: tl.scale(tl.sum_all(x), 1.7),
              [tl.tensor(rng.standard_normal((3, 4)), requires_grad=True)],
              names=["a"])

    # attention blocks, on [n, D] token sets and on a batch of two
    for batch, tag in (((), ""), ((2,), "_batched")):
        for c in range(3):
            rng = rng_for(seed, "gc", "attn" + tag, c)
            params = AttentionParams.init(rng, 8, 2, std=0.3)
            tokens = tl.tensor(rng.standard_normal(batch + (5, 8)),
                               requires_grad=True)
            w = tl.constant(rng.standard_normal(batch + (5, 8)))
            inputs = [tokens, params.wq, params.wk, params.wv, params.wo]
            check(f"self_attention{tag}[{c}]",
                  lambda t, *_, p=params, w=w: tl.sum_all(
                      tl.mul(self_attention(t, p)[0], w)),
                  inputs, names=["tokens", "wq", "wk", "wv", "wo"])

            memory = tl.tensor(rng.standard_normal(batch + (6, 8)),
                               requires_grad=True)
            queries = tl.tensor(rng.standard_normal(batch + (3, 8)),
                                requires_grad=True)
            wq = tl.constant(rng.standard_normal(batch + (3, 8)))
            check(f"cross_attention{tag}[{c}]",
                  lambda m, q, *_, p=params, w=wq: tl.sum_all(
                      tl.mul(cross_attention(m, q, p)[0], w)),
                  [memory, queries, params.wq, params.wk, params.wv,
                   params.wo],
                  names=["memory", "queries", "wq", "wk", "wv", "wo"])

    # the class-row op, over the raw patches of one frame and of three
    for frames in (1, 3):
        for c in range(3):
            rng = rng_for(seed, "gc", "class_attention", frames, c)
            params = AttentionParams.init(rng, 8, 2, std=0.3)
            raw = tl.constant(rng.standard_normal((frames, 4, 6)))
            w_patch = tl.tensor(rng.standard_normal((6, 8)) * 0.5,
                                requires_grad=True)
            rows = tl.tensor(rng.standard_normal((4, 8)) * 0.5,
                             requires_grad=True)
            cls = tl.tensor(rng.standard_normal((1, 1, 8)), requires_grad=True)
            w = tl.constant(rng.standard_normal((frames, 8)))
            check(f"class_attention[{frames}x{c}]",
                  lambda wp, r, cl, *ws, x=raw, w=w: tl.sum_all(tl.mul(
                      tl.class_attention(x, wp, r, cl, *ws, heads=2), w)),
                  [w_patch, rows, cls, params.wq, params.wk, params.wv,
                   params.wo],
                  names=["w_patch", "rows", "cls", "wq", "wk", "wv", "wo"])

    # the fused two-layer MLP, with shared weights over [N, D] rows and
    # with stacked per-token weights over [B, G, D]
    for tokens, tag in ((None, ""), (3, "_stacked")):
        g = () if tokens is None else (tokens,)
        for c in range(3):
            rng = rng_for(seed, "gc", "mlp" + tag, c)
            shapes = [(2,) + g + (4,), g + (4, 5), g + (5,), g + (5, 2),
                      g + (2,)]
            inputs = [tl.tensor(rng.standard_normal(s) * 0.7,
                                requires_grad=True) for s in shapes]
            w = tl.constant(rng.standard_normal((2,) + g + (2,)))
            check(f"mlp{tag}[{c}]",
                  lambda *args, w=w: tl.sum_all(tl.mul(tl.mlp(*args), w)),
                  inputs, names=["x", "w1", "b1", "w2", "b2"])

    # losses
    for c in range(3):
        rng = rng_for(seed, "gc", "losses", c)
        logits2 = tl.tensor(rng.standard_normal(2), requires_grad=True)
        check(f"oscc_loss[{c}]",
              lambda x, lab=bool(c % 2): oscc_loss(x, lab),
              [logits2], names=["logits"])

        logits_t = tl.tensor(rng.standard_normal(6), requires_grad=True)
        labels = (ClipLabels(True, pnr_frame=int(rng.integers(0, 6)),
                             boxes=[LabeledBox("hand", (0.5, 0.5, 0.2, 0.2))])
                  if c % 2 == 0 else ClipLabels(False))
        target = make_pnr_target(labels, 6)
        check(f"pnr_loss[{c}]", lambda x, t=target: pnr_loss(x, t),
              [logits_t], names=["logits"])

        a_box, b_box = _kink_free_boxes(rng)
        a = tl.tensor(a_box, requires_grad=True)
        b = tl.tensor(b_box, requires_grad=True)
        check(f"giou[{c}]", lambda x, y: iou_giou(x, y)[1], [a, b],
              names=["a", "b"])

    for c in range(3):
        rng = rng_for(seed, "gc", "scod", c)
        n_queries = 4
        gt_boxes = [(0.3, 0.3, 0.2, 0.2), (0.7, 0.6, 0.25, 0.25)]
        class_leaf = tl.tensor(rng.standard_normal((1, n_queries, 3)),
                               requires_grad=True)
        box_leaf = tl.tensor(_query_boxes(rng, n_queries, gt_boxes),
                             requires_grad=True)
        labels = [ClipLabels(True, pnr_frame=1,
                             boxes=[LabeledBox("hand", gt_boxes[0]),
                                    LabeledBox("object", gt_boxes[1])])]
        fixed = match_queries(class_leaf, tl.sigmoid(box_leaf), labels)

        def f_scod(cl, bx, labels=labels, fixed=fixed):
            return scod_loss(cl, tl.sigmoid(bx), labels, match=fixed)

        check(f"scod_loss[{c}]", f_scod, [class_leaf, box_leaf],
              names=["class_logits", "boxes"])

        s = tl.tensor(rng.standard_normal(3) * 0.5, requires_grad=True)
        loss_leaves = [tl.tensor(float(rng.uniform(0.5, 4.0)),
                                 requires_grad=True) for _ in range(3)]
        check(f"joint_loss[{c}]",
              lambda a, b, cc, sv: joint_loss(
                  {"oscc": a, "pnr": b, "scod": cc}, SigmaParams(sv),
                  TASK_ORDER),
              loss_leaves + [s], names=["l_oscc", "l_pnr", "l_scod", "s"])

    results.append(("decode_joint", _decode_joint_check(seed, tol, eps)))
    return results


def _decode_joint_check(seed: int, tol: float, eps: float) -> GradCheckReport:
    """Full joint loss through a tiny decode of two clips, one with a state
    change and one without (so the detection mask is checked too), every
    parameter checked."""
    rng = rng_for(seed, "gc", "decode")
    b, t, p, d = 2, 4, 4, 8
    cfg = DecoderConfig(layers=2, width=d, heads=2, frames=t, patches=p,
                        mlp_hidden=16)
    dec = TaskFusionDecoder(cfg, rng)
    # Production init keeps attention nearly uniform, which drives wq/wk
    # gradients below the finite-difference noise floor; re-draw every
    # parameter at a scale where all of them matter.
    for name, param in dec.parameters().items():
        if name.endswith((".g",)):
            param.data[...] = 1.0 + 0.2 * rng.standard_normal(param.shape)
        else:
            param.data[...] = 0.35 * rng.standard_normal(param.shape)
    h_frames = tl.tensor(rng.standard_normal((b, t, d)) * 0.5,
                         requires_grad=True)
    h_patches = tl.tensor(rng.standard_normal((b, t, p, d)) * 0.5,
                          requires_grad=True)
    sigma = SigmaParams(tl.tensor(rng.standard_normal(3) * 0.3,
                                  requires_grad=True))
    keyframes = np.array([2, t // 2])  # the change frame; mid frame

    def features():
        # one slab per frame, as the encoders hand them over
        return ClipFeatures(h_frames=h_frames,
                            slabs=tl.reshape(h_patches, (b * t, p, d)),
                            patches=p)

    # Ground-truth boxes are the initial predictions shifted by a fixed
    # offset, keeping every min/max/relu in the box terms away from its
    # kink so central differences are trustworthy. Under the fixed match
    # only matched (query, ground truth) pairs enter the box terms.
    preds0 = dec.decode(features(), keyframes)
    pred_boxes = preds0.scod_boxes.data[0]
    base_shifts = (np.array([0.035, -0.041, 0.047, -0.053]),
                   np.array([-0.061, 0.067, -0.043, 0.071]),
                   np.array([0.083, 0.029, -0.077, 0.037]))
    candidates = [s * k for k in (1.0, 1.4, 1.9, 2.6) for s in base_shifts]
    for shift in candidates:
        gt_boxes = (np.clip(pred_boxes[0] + shift, 0.06, 0.94),
                    np.clip(pred_boxes[4] - shift, 0.06, 0.94))
        labels = [ClipLabels(True, pnr_frame=2, boxes=[
                      LabeledBox("hand", tuple(gt_boxes[0])),
                      LabeledBox("object", tuple(gt_boxes[1]))]),
                  ClipLabels(False)]
        fixed = match_queries(preds0.scod_logits, preds0.scod_boxes, labels)
        if all(_box_margins_ok(pred_boxes[q], gt)
               for q, gt in zip(fixed.queries, fixed.boxes)):
            break
    else:
        raise TensorError(f"none of the {len(candidates)} ground-truth "
                          "shifts clears the matched boxes' kinks")

    def f(*_):
        preds = dec.decode(features(), keyframes)
        parts = {
            "oscc": oscc_loss(preds.oscc_logits, [True, False]),
            "pnr": pnr_loss(preds.pnr_logits, make_pnr_targets(labels, t)),
            "scod": scod_loss(preds.scod_logits, preds.scod_boxes, labels,
                              match=fixed),
        }
        # Constant 1/32 keeps |f| ~ 0.3; the gradient check itself is
        # unchanged up to that constant.
        return tl.scale(joint_loss(parts, sigma, TASK_ORDER), 1.0 / 32.0)

    names = ["h_frames", "h_patches", "sigma.s"]
    inputs = [h_frames, h_patches, sigma.s]
    for name, tns in dec.parameters().items():
        names.append(name)
        inputs.append(tns)
    # float64 rounds |f| ~ 0.3 to within ~2.8e-17, and central differences
    # divide that by 2*eps: at the op checks' step of 1e-5 the noise
    # (2.8e-12) exceeds tol times grad_check's 1e-8 denominator floor, so
    # gradients near 1e-8 fail on rounding alone. A 10x step puts the noise
    # near 2.8e-13; the box margins keep every kink far beyond it.
    return grad_check(f, inputs, eps=min(10 * eps, 1e-3), tol=tol,
                      names=names)

