"""Batch command-line front end.

Every output file starts with a ``# {json}`` header carrying the exact
run configuration and artifact version, so results are traceable to the
command that produced them. Exit codes: 0 success, 1 usage error,
2 runtime/corruption error. All randomness derives from ``--seed``.

Checkpoints describe themselves: a JSON header line {"format":
"taskfusion-checkpoint/1", "description", "params"}, then the payload,
little-endian float64 whatever the model's compute dtype. ``eval``,
``dump-attention``, ``export-embeddings``, ``bc-train`` and ``bc-compare``
rebuild the model from that description, so they take no model flags,
``--frames`` or ``--env-image``, and their CSVs carry it. For random-init
BC features, use ``train --steps 0 --seed S``. ``bc-train`` and
``bc-compare`` take the env from their ``--demos`` file. ``bc-train``
writes a policy checkpoint that holds the policy, the model's ``enc.*``
parameters and description, and the demos' env config, so ``bc-eval``
takes only ``--policy``. ``bc-compare`` A/Bs the frozen encoders of two
model checkpoints, ``--checkpoint`` against ``--baseline-checkpoint``,
under one BC protocol (the same demos and BC seeds), and its header
carries both descriptions. With ``train --steps 0 --seed S`` as the
baseline and a model trained with the same ``--seed S``, the baseline is
the exact encoder the fine-tuned one started from.

``train`` builds and trains the model in float32, the default compute
dtype of ``TrainConfig``. The description records the dtype, and every
other subcommand runs the model in it; a description without one is
float64. ``gradcheck`` always runs in float64.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import tensor as tl
from .assignment import AssignmentError
from .bc import (ToyEnvConfig, bc_eval, bc_train, collect_demos,
                 compare_representations, load_policy, read_demos,
                 save_policy, write_demos)
from .gradcheck import run_gradcheck
from .seeding import derive_seeds
from .synth import (ARTIFACT_VERSION, ClipConfig, DatasetError, ENCODER_KINDS,
                    read_dataset, write_dataset)
from .tensor import TensorError
from .trainer import (CheckpointError, TrainConfig, TrainingAbort, evaluate,
                      load_model, save_checkpoint, train)


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
    if not result.log:
        print(f"trained 0 steps: no step ran; checkpoint "
              f"{args.out_checkpoint} holds the random init of seed "
              f"{args.seed}; log {args.log} has no rows")
        return 0
    print(f"trained {args.steps} steps; final loss "
          f"{result.log[-1]['loss_total']:.6f}; "
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
    preds = model.decoder.infer(model.encoder.encode([clip]))
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
        per_frame = model.encoder.encode([clip]).h_frames.data[0]
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


def _demos_for(path, encoder):
    """A demo file's env config and demos, rendered at ``encoder``'s size."""
    env_cfg, demos = read_demos(path)
    if env_cfg.image != encoder.image:
        raise DatasetError(f"demos are rendered at {env_cfg.image} px; the "
                           f"checkpoint's encoder takes {encoder.image} px")
    return env_cfg, demos


def cmd_bc_train(args) -> int:
    model = load_model(args.checkpoint)
    env_cfg, demos = _demos_for(args.demos, model.encoder)
    policy, log = bc_train(demos, model.encoder.embed_frame,
                           steps=args.bc_steps, seed=args.seed, lr=args.bc_lr,
                           use_proprio=(args.proprio == "on"),
                           max_step=env_cfg.max_step)
    save_policy(args.out_policy, policy, model, env_cfg)
    print(f"bc-train: {args.bc_steps} steps, final loss {log[-1]:.6f}, "
          f"policy {args.out_policy}")
    return 0


def cmd_bc_eval(args) -> int:
    policy, encoder, env_cfg, description = load_policy(args.policy)
    rate = bc_eval(policy.as_actor(encoder.embed_frame), args.episodes,
                   args.seed, env_cfg)
    if args.out:
        _write_csv(args.out, args, ["seed", "episodes", "success_rate"],
                   [[args.seed, args.episodes, rate]], policy=description)
    print(f"success_rate,{rate}")
    return 0


def cmd_bc_compare(args) -> int:
    tuned = load_model(args.checkpoint)
    baseline = load_model(args.baseline_checkpoint)
    image = tuned.encoder.image
    if baseline.encoder.image != image:
        raise CheckpointError(f"--checkpoint takes {image} px frames and "
                              f"--baseline-checkpoint {baseline.encoder.image}"
                              " px; the env renders at one size")
    env_cfg, demos = _demos_for(args.demos, tuned.encoder)
    seeds = derive_seeds(args.seed, args.bc_seeds, "bc-seed")
    report = compare_representations(
        tuned.encoder.embed_frame, baseline.encoder.embed_frame, demos,
        bc_steps=args.bc_steps, seeds=seeds, episodes=args.episodes,
        env_cfg=env_cfg, use_proprio=(args.proprio == "on"))
    if args.out:
        _write_csv(args.out, args,
                   ["representation", "mean_success", "per_seed"],
                   [["checkpoint", report.tuned_rate,
                     ";".join(f"{r:.3f}" for r in report.tuned_per_seed)],
                    ["baseline_checkpoint", report.baseline_rate,
                     ";".join(f"{r:.3f}" for r in report.baseline_per_seed)],
                    ["gap", report.gap, ""]],
                   checkpoint=tuned.store.description,
                   baseline_checkpoint=baseline.store.description)
    print(f"checkpoint_success,{report.tuned_rate}")
    print(f"baseline_checkpoint_success,{report.baseline_rate}")
    print(f"gap,{report.gap}")
    return 0


# ---------------------------------------------------------------------------
# parser


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

    p = sub.add_parser("bc-eval", help="success rate of a trained policy "
                                       "in the env of its demos")
    p.add_argument("--policy", required=True)
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bc_eval)

    p = sub.add_parser("bc-compare",
                       help="A/B the frozen encoders of two model "
                            "checkpoints under one BC protocol")
    p.add_argument("--checkpoint", required=True,
                   help="model checkpoint, the fine-tuned side")
    p.add_argument("--baseline-checkpoint", required=True,
                   help="model checkpoint to compare against; for "
                        "random-init, train --steps 0 with the fine-tuned "
                        "model's --seed")
    p.add_argument("--demos", required=True, help="demo file from bc-demos")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bc-steps", type=int, default=2000)
    p.add_argument("--bc-seeds", type=int, default=3)
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--proprio", choices=("on", "off"), default="on")
    p.add_argument("--out")
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
