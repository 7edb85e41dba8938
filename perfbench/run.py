"""Benchmark of the taskfusion pipeline: one workload per process.

    python3 perfbench/run.py --workload train_pft --seed 1 --seconds 20 \
        --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it repeat every metric by name and unit, the outcome of
each correctness check, and the environment. Runs keep their output
digests (and untraced metrics, for the tracing overhead) under
``.perfbench_out/`` so that every run of one source tree and seed must
reproduce the first one exactly. Exits 2 without a result when the
program cannot be imported or set up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _limit_blas_threads() -> int:
    """Run BLAS on the calling thread only, so the load stays one caller on
    one core; must run before numpy is imported. The matrices are at most
    a few hundred wide: a second BLAS thread made a training step no
    faster and its timings more spread."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def _blas_threads() -> int | None:
    """Threads of numpy's bundled OpenBLAS, if it exposes the query."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(cores: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cores_allowed": cores,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
            "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def source_digest(*dirs: Path) -> str:
    """Digest of the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for path in sorted(p for d in dirs for p in d.rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _load_state() -> dict:
    try:
        return json.loads((OUT / "state.json").read_text())
    except (OSError, ValueError):
        return {}


def _save_state(state: dict) -> None:
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"state.{os.getpid()}.tmp"
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
    os.replace(tmp, OUT / "state.json")


def _check_determinism(ledger, state: dict, key: str, kind: str,
                       digests: list[str], rounds: list[str]) -> list[bool]:
    """Every round of one kind (check or timed) in this run, and in every
    earlier run of the same source, workload, size and seed, must produce
    the same digest."""
    record = state.setdefault("digests", {}).setdefault(key, {})
    out = []
    for d, round_kind in zip(digests, rounds):
        reference = record.setdefault(f"{kind}.{round_kind}", d)
        out.append(ledger.check(
            f"determinism.{kind}", d == reference,
            f"{kind} digest of a {round_kind} round {d[:12]} != "
            f"{reference[:12]} recorded for this source and seed"))
    return out


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the smoke-test size")
    args = parser.parse_args(argv)

    cores = _limit_blas_threads()
    src = ROOT / "src"
    if not (src / "taskfusion" / "__init__.py").is_file():
        print(f"error: no taskfusion sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import taskfusion

    if Path(taskfusion.__file__).resolve().parent != src / "taskfusion":
        print(f"error: imported taskfusion from {taskfusion.__file__}",
              file=sys.stderr)
        return 2
    import spans
    import stats
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.size]
    env = environment(cores)
    key = (f"{source_digest(src, Path(__file__).resolve().parent)}:"
           f"{wl.name}:{args.size}:{args.seed}")

    tracer = spans.Tracer() if args.trace else None
    ledger = workloads.Ledger()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if tracer is not None:
            tracer.install()
        m = workloads.run(wl, size, args.seed, args.seconds, work, ledger,
                          tracer)
    except Exception as e:  # set-up failed: there is no result to report
        traceback.print_exc()
        print(f"error: {wl.name} set-up failed: {e}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(work, ignore_errors=True)
    if not m.train_segments:
        print(f"error: {wl.name}: no round completed", file=sys.stderr)
        return 2

    e2e = workloads.end_to_end(m, _peak_rss_mb())
    state = _load_state()
    same = _check_determinism(ledger, state, key, "outputs", m.digests,
                              m.kinds)
    if tracer is not None:
        same = [a and b for a, b in zip(same, _check_determinism(
            ledger, state, key, "tape", m.tape_digests, m.kinds))]
    for ok, (attempted, failed) in zip(same, m.round_ops):
        if not ok:  # a round that does not reproduce fails as a whole
            ledger.failed += attempted - failed
    if tracer is None:
        state.setdefault("untraced", {})[key] = e2e
    _save_state(state)

    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (passed, failed) in sorted(ledger.checks.items()):
        print(f"check {name} passed={passed} failed={failed}")
    aliases = ALIASES[wl.kind]
    units = dict(E2E_UNITS)
    for name, value in {**e2e, **workloads.reported(m)}.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"metric {name} {value:.6g} {units[name]}{alias}")
    print(f"tail_percentile p{stats.tail_percentile(len(m.latencies)):g} "
          f"of {len(m.latencies)} samples; {len(m.train_segments)} timed "
          "rounds")
    print(f"error_rate {ledger.failed / max(ledger.attempted, 1):.6g} "
          f"({ledger.failed}/{ledger.attempted})")

    if tracer is None:
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in e2e.items()}
    else:
        metrics = _traced_report(tracer, spans, wl, args, m, e2e, env,
                                 state.get("untraced", {}).get(key))
    correct = ledger.failed == 0 and all(
        failed == 0 for _, failed in ledger.checks.values())
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


# Metric -> unit: the five gated end-to-end metrics (the same names on every
# workload), then the ungated figures printed beside them.
E2E_UNITS = (("setup_s", "s"), ("train_per_s", "1/s"), ("eval_per_s", "1/s"),
             ("latency_ms_min", "ms"), ("peak_rss_mb", "MB"),
             ("latency_ms_p50", "ms"), ("latency_ms_tail", "ms"),
             ("setup_s_median", "s"), ("train_per_s_median", "1/s"),
             ("eval_per_s_median", "1/s"))
# What each end-to-end metric measures on each kind of workload.
ALIASES = {
    "train": {"train_per_s": "train_clips_per_s",
              "eval_per_s": "eval_clips_per_s",
              "latency_ms_p50": "eval_clip_ms_p50",
              "latency_ms_tail": "eval_clip_ms_tail"},
    "bc": {"train_per_s": "bc_train_steps_per_s",
           "eval_per_s": "bc_eval_actions_per_s",
           "latency_ms_p50": "bc_act_ms_p50",
           "latency_ms_tail": "bc_act_ms_tail"},
}


def _traced_report(tracer, spans, wl, args, m, e2e, env, untraced) -> dict:
    table = spans.SpanTable(tracer.spans)
    values, missing = spans.per_layer(table, tracer, wl.name, m.loss_final,
                                      m.checkpoint_bytes)
    overhead = ({k: e2e[k] / untraced[k] - 1.0 for k in e2e
                 if untraced.get(k)} if untraced else None)
    breakdown = table.breakdown()
    for phase, rows in breakdown.items():
        print(f"phase {phase}")
        for name, row in rows.items():
            if row["share"] >= 0.005:
                print(f"  {row['share']:7.1%} {row['ms']:12.1f} ms  {name}")
    for name, value in values.items():
        unit = spans.PER_LAYER[name][0]
        shown = f"missing: {missing[name]}" if value is None else f"{value:.6g}"
        print(f"layer {name} {shown} {unit}")
    if overhead is None:
        print("tracing overhead: no untraced run of this source, workload, "
              "size and seed is recorded")
    else:
        print("tracing overhead " + " ".join(
            f"{k}={v:+.1%}" for k, v in overhead.items()))

    OUT.mkdir(exist_ok=True)
    stem = f"trace-{wl.name}-{args.size}-{args.seed}"
    with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as f:
        for span in tracer.spans:
            f.write(json.dumps(span) + "\n")
    (OUT / f"{stem}.json").write_text(json.dumps({
        "workload": wl.name, "seed": args.seed, "size": args.size,
        "env": env, "end_to_end_traced": e2e, "end_to_end_untraced": untraced,
        "overhead": overhead, "per_layer": values, "missing": missing,
        "breakdown": breakdown}, indent=1))

    out = {}
    for name, value in values.items():
        entry = {"value": value, "unit": spans.PER_LAYER[name][0]}
        if value is None:
            entry["missing"] = missing[name]
        out[name] = entry
    return out


if __name__ == "__main__":
    sys.exit(main())
