"""Smoke test of the benchmark at its tiny size. It checks that every
declared metric is emitted with its unit, that every correctness check
runs, and that missing wrapped names are reported; it gates on no timing.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

CHECKS = {
    "train": {"setup.checkpoint_roundtrip", "setup.dataset_sizes",
              "train.loss_finite", "train.loss_falls",
              "checkpoint.same_predictions", "eval.report_valid",
              "determinism.outputs", "determinism.prefix"},
    "bc": {"bc.demos_succeeded", "bc.loss_finite", "bc.loss_falls",
           "checkpoint.same_actions", "bc.success_rate_valid",
           "determinism.outputs", "determinism.prefix"},
}


def run(root: Path, workload: str, trace: int, seed: int = 3):
    out = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=300)
    return out, out.stdout.strip().splitlines()


def copy_tree(dest: Path, with_src: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return dest


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_and_every_check_runs(workload, trace):
    out, lines = run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], float)
               for m in result["metrics"].values())

    ran = {line.split()[1] for line in lines if line.startswith("check ")}
    kind = "bc" if workload.startswith("bc") else "train"
    assert CHECKS[kind] | ({"determinism.tape"} if trace else set()) <= ran
    env = next(line for line in lines if line.startswith("env "))
    for key in ("nproc=", "blas=", "blas_threads=", "python=", "numpy="):
        assert key in env
    assert any(line.startswith("error_rate 0 ") for line in lines)


def test_benchmark_declares_the_metrics_the_code_computes():
    sys.path.insert(0, str(HERE))
    import spans

    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == [
        (name, unit) for name, (unit, _, _) in spans.PER_LAYER.items()]
    expected = {w for _, _, ws in spans.PER_LAYER.values() for w in ws}
    assert expected == set(WORKLOADS)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    root = copy_tree(tmp_path, with_src=False)
    out, lines = run(root, WORKLOADS[0], 0)
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def test_a_digest_that_differs_from_the_recorded_one_fails_the_run(tmp_path):
    root = copy_tree(tmp_path)
    out, _ = run(root, "bc_pft", 0)
    assert out.returncode == 0, out.stderr
    state_path = root / ".perfbench_out" / "state.json"
    state = json.loads(state_path.read_text())
    for record in state["digests"].values():
        record["outputs.timed"] = "0" * 64
    state_path.write_text(json.dumps(state))
    out, lines = run(root, "bc_pft", 0)
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_a_vanished_name_is_reported_missing(monkeypatch):
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    from taskfusion import trainer

    original = trainer.joint_loss
    monkeypatch.delattr(trainer, "joint_loss")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert "taskfusion.trainer.joint_loss" in tracer.missing["losses.joint"]
        values, missing = spans.per_layer(spans.SpanTable(tracer.spans),
                                          tracer, "train_pft", None, [])
    finally:
        tracer.restore()
    assert values["losses.joint_ms"] is None
    assert "joint_loss" in missing["losses.joint_ms"]
    # Present but never called on a workload that should call it.
    assert values["decoder.decode_ms"] is None
    assert missing["decoder.decode_ms"] == "decoder.decode never called"
    # Not expected on this workload: a real zero, not missing.
    assert values["bc.render_ms"] == 0.0
    monkeypatch.undo()
    assert trainer.joint_loss is original
    assert not hasattr(trainer.train, "__wrapped__")
