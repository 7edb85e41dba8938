"""Batch command-line front end.

Every output file starts with a ``# {json}`` header carrying the exact
run configuration and artifact version, so results are traceable to the
command that produced them. Exit codes: 0 success, 1 usage error,
2 runtime/corruption error. All randomness derives from ``--seed``.

Checkpoints describe themselves: a JSON header line {"format":
"taskfusion-checkpoint/1", "description", "params"}, then the payload,
little-endian float64 whatever the model's compute dtype. ``eval``,
``dump-attention``, ``export-embeddings``, ``bc-train`` and ``bc-eval``
rebuild the model from that description, so they take no model flags,
``--seed``, ``--frames`` or ``--env-image``, and their CSVs carry it. For
random-init BC features, use ``train --steps 0 --seed S``.

``train`` builds and trains the model in float32, the default compute
dtype of ``TrainConfig``. The description records the dtype, and every
other subcommand runs the model in it; a description without one is
float64. ``gradcheck`` always runs in float64. A policy checkpoint
records the model checkpoint's description and a sha256 of its encoder
payload, and ``bc-eval`` refuses a model checkpoint whose encoder
differs from it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys

import numpy as np

from . import tensor as tl
from .assignment import AssignmentError
from .attention import AttentionParams, cross_attention, self_attention
from .bc import (ToyEnvConfig, bc_eval, bc_train, collect_demos,
                 compare_representations, load_policy, read_demos, write_demos)
from .decoder import ClipFeatures, DecoderConfig, TaskFusionDecoder
from .losses import (ClipLabels, LabeledBox, SigmaParams, TASK_ORDER, giou,
                     joint_loss, make_pnr_target, make_pnr_targets,
                     match_queries, oscc_loss, pnr_loss, scod_loss)
from .seeding import derive_seed, rng_for
from .synth import (ClipConfig, DatasetError, ENCODER_KINDS, build_encoder,
                    read_dataset, write_dataset)
from .tensor import GradCheckReport, TensorError, grad_check
from .trainer import (CheckpointError, TrainConfig, TrainingAbort, evaluate,
                      load_model, save_checkpoint, train)

ARTIFACT_VERSION = "taskfusion-0.1.0"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _run_config(args: argparse.Namespace, **descriptions) -> dict:
    """The run's flags, plus the description of each checkpoint loaded."""
    flags = {k: v for k, v in vars(args).items()
             if k not in ("func", "command") and v is not None}
    return {"artifact": ARTIFACT_VERSION, "command": args.command,
            "config": flags, **descriptions}


def _write_csv(path, args, columns: list[str], rows: list[list],
               **descriptions) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("# " + json.dumps(_run_config(args, **descriptions),
                                  sort_keys=True) + "\n")
        writer = csv.writer(f)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])


# ---------------------------------------------------------------------------
# gradient-check suite


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


def _kink_free_boxes(rng) -> tuple[np.ndarray, np.ndarray]:
    while True:
        a = np.concatenate([rng.uniform(0.3, 0.7, 2), rng.uniform(0.12, 0.4, 2)])
        b = np.concatenate([rng.uniform(0.3, 0.7, 2), rng.uniform(0.12, 0.4, 2)])
        if _box_margins_ok(a, b):
            return a, b


def run_gradcheck(seed: int = 0, tol: float = 1e-4,
                  eps: float = 1e-5) -> list[tuple[str, GradCheckReport]]:
    """Finite-difference verification of every op, both attention blocks,
    all three losses, and the full joint loss through a tiny decode."""
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

        rng = rng_for(seed, "gc", "bmm", c)
        a3 = tl.tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        b3 = tl.tensor(rng.standard_normal((2, 4, 2)), requires_grad=True)
        w3 = tl.constant(rng.standard_normal((2, 3, 2)))
        check(f"bmm[{c}]",
              lambda x, y, w=w3: tl.sum_all(tl.mul(tl.bmm(x, y), w)),
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
                      tl.mul(self_attention(t, p), w)),
                  inputs, names=["tokens", "wq", "wk", "wv", "wo"])

            memory = tl.tensor(rng.standard_normal(batch + (6, 8)),
                               requires_grad=True)
            queries = tl.tensor(rng.standard_normal(batch + (3, 8)),
                                requires_grad=True)
            wq = tl.constant(rng.standard_normal(batch + (3, 8)))
            check(f"cross_attention{tag}[{c}]",
                  lambda m, q, *_, p=params, w=wq: tl.sum_all(
                      tl.mul(cross_attention(m, q, p), w)),
                  [memory, queries, params.wq, params.wk, params.wv,
                   params.wo],
                  names=["memory", "queries", "wq", "wk", "wv", "wo"])

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
        check(f"giou[{c}]", lambda x, y: giou(x, y), [a, b], names=["a", "b"])

    for c in range(3):
        rng = rng_for(seed, "gc", "scod", c)
        n_queries = 4
        gt_boxes = [(0.3, 0.3, 0.2, 0.2), (0.7, 0.6, 0.25, 0.25)]
        class_leaf = tl.tensor(rng.standard_normal((1, n_queries, 3)),
                               requires_grad=True)
        while True:
            raws = rng.standard_normal((1, n_queries, 4)) * 0.5
            squashed = 1.0 / (1.0 + np.exp(-raws[0]))
            if all(_box_margins_ok(s, np.asarray(g))
                   for s in squashed for g in gt_boxes):
                break
        box_leaf = tl.tensor(raws, requires_grad=True)
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
    h_total = tl.tensor(rng.standard_normal((b, t, p, d)) * 0.5,
                        requires_grad=True)
    sigma = SigmaParams(tl.tensor(rng.standard_normal(3) * 0.3,
                                  requires_grad=True))
    keyframes = np.array([2, t // 2])  # the change frame; mid frame

    def features():
        return ClipFeatures(h_frames=h_frames, h_total=h_total, frames=t,
                            patches=p)

    # Ground-truth boxes are the initial predictions shifted by a fixed
    # offset, keeping every min/max/relu in the box terms away from its
    # kink so central differences are trustworthy.
    preds0 = dec.decode(features(), keyframes)
    pred_boxes = preds0.scod_boxes.data[0]
    base_shifts = (np.array([0.035, -0.041, 0.047, -0.053]),
                   np.array([-0.061, 0.067, -0.043, 0.071]),
                   np.array([0.083, 0.029, -0.077, 0.037]))
    candidates = [s * k for k in (1.0, 1.4, 1.9, 2.6) for s in base_shifts]
    for shift in candidates:
        gt_hand = np.clip(pred_boxes[0] + shift, 0.06, 0.94)
        gt_obj = np.clip(pred_boxes[4] - shift, 0.06, 0.94)
        if all(_box_margins_ok(pb, g) for pb in pred_boxes
               for g in (gt_hand, gt_obj)):
            break
    labels = [ClipLabels(True, pnr_frame=2, boxes=[
                  LabeledBox("hand", tuple(gt_hand)),
                  LabeledBox("object", tuple(gt_obj))]),
              ClipLabels(False)]
    fixed = match_queries(preds0.scod_logits, preds0.scod_boxes, labels)

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

    names = ["h_frames", "h_total", "sigma.s"]
    inputs = [h_frames, h_total, sigma.s]
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


# ---------------------------------------------------------------------------
# subcommand handlers


def _clip_config_from_args(args) -> ClipConfig:
    return ClipConfig(frames=args.frames, height=args.image, width=args.image,
                      p_change=args.p_change,
                      clip_duration_seconds=args.duration, noise=args.noise)


def cmd_gen_data(args) -> int:
    write_dataset(args.out, args.count, args.seed,
                  _clip_config_from_args(args),
                  header=_run_config(args))
    print(f"wrote {args.count} clip records to {args.out}")
    return 0


def _train_config(args) -> TrainConfig:
    tasks = tuple(t.strip() for t in args.tasks.split(",") if t.strip())
    return TrainConfig(steps=args.steps, batch_size=args.batch_size,
                       lr=args.lr, enabled_tasks=tasks, seed=args.seed,
                       encoder=args.encoder, width=args.width,
                       layers=args.layers, dec_heads=args.dec_heads,
                       enc_heads=args.enc_heads, mlp_hidden=args.mlp_hidden,
                       patch=args.patch)


LOG_COLUMNS = ["step", "loss_total", "loss_oscc", "loss_pnr", "loss_scod",
               "sigma2_1", "sigma2_2", "sigma2_3"]


def cmd_train(args) -> int:
    records = read_dataset(args.data)
    result = train(records, _train_config(args))
    save_checkpoint(result.model.store, args.out_checkpoint)
    rows = [[row[c] for c in LOG_COLUMNS] for row in result.log]
    _write_csv(args.log, args, LOG_COLUMNS, rows)
    final = result.log[-1]["loss_total"] if result.log else float("nan")
    print(f"trained {args.steps} steps; final loss {final:.6f}; "
          f"checkpoint {args.out_checkpoint}; log {args.log}")
    return 0


def cmd_eval(args) -> int:
    records = read_dataset(args.data)
    model = load_model(args.checkpoint)
    report = evaluate(model, records)
    rows = [[name, value] for name, value in report.rows()]
    if args.out:
        _write_csv(args.out, args, ["metric", "value"], rows,
                   checkpoint=model.store.description)
    for name, value in report.rows():
        print(f"{name},{value}")
    return 0


@tl.precision("float64")
def cmd_gradcheck(args) -> int:
    results = run_gradcheck(seed=args.seed, tol=args.tol, eps=args.eps)
    failed = 0
    for name, report in results:
        status = "PASS" if report.passed else "FAIL"
        if not report.passed:
            failed += 1
        print(f"{status} {name} max_rel_err={report.max_rel_error:.3e}")
    print(f"{len(results) - failed}/{len(results)} checks passed "
          f"(tol {args.tol})")
    if failed:
        raise TensorError(f"{failed} gradient checks failed")
    return 0


@tl.no_tape()
def cmd_dump_attention(args) -> int:
    records = read_dataset(args.data)
    if not 0 <= args.clip_index < len(records):
        raise UsageError(f"--clip-index {args.clip_index} is outside the "
                         f"dataset's {len(records)} clips (0 to "
                         f"{len(records) - 1})")
    model = load_model(args.checkpoint)
    clip = records[args.clip_index].clip()
    preds = model.decoder.infer(model.encoder.encode(clip))
    rows = []
    for layer_i, layer in enumerate(preds.attention):
        for block, mat in (("self", layer.self_attn[0]),
                           ("temporal", layer.temporal[0]),
                           ("spatial", layer.spatial[0])):
            for head in range(mat.shape[0]):
                for r in range(mat.shape[1]):
                    for c in range(mat.shape[2]):
                        rows.append([layer_i, block, head, r, c,
                                     float(mat[head, r, c])])
    _write_csv(args.out, args, ["layer", "block", "head", "row", "col",
                                "weight"], rows,
               checkpoint=model.store.description)
    print(f"wrote attention matrices for clip {args.clip_index} to {args.out}")
    return 0


@tl.no_tape()
def cmd_export_embeddings(args) -> int:
    records = read_dataset(args.data)
    model = load_model(args.checkpoint)
    width = model.encoder.width
    rows = []
    for record in records:
        clip = record.clip()
        per_frame = model.encoder.encode(clip).h_frames.data[0]
        labels = clip.labels
        for frame in range(clip.config.frames):
            if not labels.state_change:
                tag = "none"
            else:
                tag = "before" if frame < labels.pnr_frame else "after"
            rows.append([record.seed, frame, tag]
                        + [float(v) for v in per_frame[frame]])
    cols = ["clip_seed", "frame", "tag"] + [f"e{i}" for i in range(width)]
    _write_csv(args.out, args, cols, rows, checkpoint=model.store.description)
    print(f"wrote {len(rows)} embedding rows to {args.out}")
    return 0


def cmd_bc_demos(args) -> int:
    cfg = ToyEnvConfig(horizon=args.horizon, image=args.env_image)
    demos = collect_demos(args.count, args.seed, cfg)
    write_demos(args.out, cfg, demos, header=_run_config(args))
    n = sum(len(d.transitions) for d in demos)
    print(f"wrote {len(demos)} demos ({n} transitions) to {args.out}")
    return 0


def cmd_bc_train(args) -> int:
    model = load_model(args.checkpoint)
    env_cfg, demos = read_demos(args.demos)
    if env_cfg.image != model.encoder.image:
        raise DatasetError(f"demos are rendered at {env_cfg.image} px; the "
                           f"checkpoint's encoder takes {model.encoder.image} "
                           "px")
    policy, log = bc_train(demos, model.encoder.embed_frame,
                           steps=args.bc_steps, seed=args.seed, lr=args.bc_lr,
                           use_proprio=(args.proprio == "on"),
                           max_step=env_cfg.max_step)
    policy.encoder = _encoder_record(model)
    save_checkpoint(policy.store(), args.out_policy)
    print(f"bc-train: {args.bc_steps} steps, final loss {log[-1]:.6f}, "
          f"policy {args.out_policy}")
    return 0


def _encoder_record(model) -> dict:
    """What a policy records of its encoder: the model checkpoint's
    description and a sha256 of the checkpoint payload of its ``enc.*``
    parameters."""
    h = hashlib.sha256()
    for name, t in model.store.items():
        if name.startswith("enc."):
            h.update(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    return {"checkpoint": model.store.description, "sha256": h.hexdigest()}


# The model config fields that fix the encoder's layout and dtype; its
# values are compared through the payload digest. The other fields (tasks,
# decoder, optimiser, steps) may differ.
_ENCODER_FIELDS = ("encoder", "width", "enc_heads", "patch", "dtype")


def _encoder_identity(record) -> dict | None:
    """What fixes the encoder in a record from ``_encoder_record``: its
    config fields, the clip size and the payload digest; None when the
    record lacks them."""
    try:
        desc = record["checkpoint"]
        cfg = {"dtype": "float64", **desc["config"]}
        return {**{k: cfg[k] for k in _ENCODER_FIELDS},
                "frames": desc["frames"], "image": desc["image"],
                "sha256": record["sha256"]}
    except (KeyError, TypeError):
        return None


def cmd_bc_eval(args) -> int:
    model = load_model(args.checkpoint)
    policy = load_policy(args.policy)
    want = _encoder_identity(policy.encoder)
    found = _encoder_identity(_encoder_record(model))
    if want is None:
        raise CheckpointError(f"the policy records no encoder; the "
                              f"checkpoint holds {found}")
    if want != found:
        differ = ", ".join(f"{k} {want[k]} (policy) != {found[k]} "
                           f"(checkpoint)" for k in want if want[k] != found[k])
        raise CheckpointError(f"the policy was trained on another encoder "
                              f"than the checkpoint holds: {differ}")
    enc = model.encoder
    if policy.embed_dim != enc.width:
        raise CheckpointError(f"policy takes {policy.embed_dim}-dim "
                              f"embeddings; the encoder gives {enc.width}")
    cfg = ToyEnvConfig(horizon=args.horizon, image=enc.image)
    rate = bc_eval(policy.as_actor(enc.embed_frame), args.episodes, args.seed,
                   cfg)
    if args.out:
        _write_csv(args.out, args, ["seed", "episodes", "success_rate"],
                   [[args.seed, args.episodes, rate]],
                   checkpoint=model.store.description,
                   policy=policy.store().description)
    print(f"success_rate,{rate}")
    return 0


def cmd_bc_compare(args) -> int:
    records = read_dataset(args.data)
    tc = _train_config(args)
    result = train(records, tc)
    tuned = result.model.encoder

    clip_cfg = records[0].config
    with tl.precision(tuned.dtype):
        random_enc = build_encoder(args.encoder,
                                   rng_for(args.seed, "baseline", "enc"),
                                   width=args.width, heads=args.enc_heads,
                                   frames=clip_cfg.frames,
                                   image=clip_cfg.height, patch=args.patch)
    cfg = ToyEnvConfig(horizon=args.horizon, image=clip_cfg.height)
    demos = collect_demos(args.demo_count, derive_seed(args.seed, "demos"),
                          cfg)
    seeds = [derive_seed(args.seed, "bc-seed", i)
             for i in range(args.bc_seeds)]
    report = compare_representations(
        tuned.embed_frame, random_enc.embed_frame, demos,
        bc_steps=args.bc_steps, seeds=seeds, episodes=args.episodes,
        env_cfg=cfg, use_proprio=(args.proprio == "on"))
    if args.out:
        _write_csv(args.out, args,
                   ["representation", "mean_success", "per_seed"],
                   [["fine_tuned", report.tuned_rate,
                     ";".join(f"{r:.3f}" for r in report.tuned_per_seed)],
                    ["random_init", report.random_rate,
                     ";".join(f"{r:.3f}" for r in report.random_per_seed)],
                    ["gap", report.gap, ""]])
    print(f"fine_tuned_success,{report.tuned_rate}")
    print(f"random_init_success,{report.random_rate}")
    print(f"gap,{report.gap}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--encoder", choices=ENCODER_KINDS,
                   default="per_frame_token")
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--dec-heads", type=int, default=4)
    p.add_argument("--enc-heads", type=int, default=2)
    p.add_argument("--mlp-hidden", type=int, default=128)
    p.add_argument("--patch", type=int, default=8)
    p.add_argument("--tasks", default="oscc,pnr,scod")
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=3e-4)


def build_parser() -> _Parser:
    parser = _Parser(prog="taskfusion", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a seed-regenerable clip dataset")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--frames", type=int, default=16)
    p.add_argument("--image", type=int, default=32)
    p.add_argument("--p-change", type=float, default=0.5)
    p.add_argument("--duration", type=float, default=8.0)
    p.add_argument("--noise", type=float, default=0.04)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="joint multitask fine-tuning")
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--log", required=True)
    _add_model_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="metrics of a checkpoint on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--eps", type=float, default=1e-5)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("dump-attention",
                       help="attention matrices of one clip's inference "
                            "as CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--clip-index", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dump_attention)

    p = sub.add_parser("export-embeddings",
                       help="per-frame embeddings with change tags as CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_embeddings)

    p = sub.add_parser("bc-demos", help="collect scripted expert demos")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--horizon", type=int, default=50)
    p.add_argument("--env-image", type=int, default=32)
    p.set_defaults(func=cmd_bc_demos)

    p = sub.add_parser("bc-train", help="behavior cloning on frozen features")
    p.add_argument("--demos", required=True)
    p.add_argument("--checkpoint", required=True,
                   help="model checkpoint; for random-init features, one "
                        "from train --steps 0 --seed S")
    p.add_argument("--out-policy", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bc-steps", type=int, default=2000)
    p.add_argument("--bc-lr", type=float, default=1e-3)
    p.add_argument("--proprio", choices=("on", "off"), default="on")
    p.set_defaults(func=cmd_bc_train)

    p = sub.add_parser("bc-eval", help="success rate of a trained policy")
    p.add_argument("--policy", required=True)
    p.add_argument("--checkpoint", required=True, help="the policy's model")
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--horizon", type=int, default=50)
    p.set_defaults(func=cmd_bc_eval)

    p = sub.add_parser("bc-compare",
                       help="A/B fine-tuned vs random-init representation")
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--demo-count", type=int, default=25)
    p.add_argument("--bc-steps", type=int, default=2000)
    p.add_argument("--bc-seeds", type=int, default=3)
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--horizon", type=int, default=50)
    p.add_argument("--proprio", choices=("on", "off"), default="on")
    p.add_argument("--out")
    _add_model_flags(p)
    p.set_defaults(func=cmd_bc_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (DatasetError, CheckpointError, TrainingAbort, TensorError,
            AssignmentError, OSError) as e:
        print(f"error in {args.command}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
