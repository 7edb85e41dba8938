"""The full finite-difference gradient audit, ``taskfusion gradcheck``.

It takes about half a minute, so it is marked ``slow`` and left out of the
default run; run it with ``pytest -m slow``. The fixtures' bounded draws
are checked in the default run."""

import hashlib

import numpy as np
import pytest

from taskfusion import cli, gradcheck, trainer
from taskfusion import tensor as tl
from taskfusion.bc import ToyEnvConfig, bc_train, collect_demos
from taskfusion.seeding import rng_for
from taskfusion.synth import ClipConfig, ClipRecord, generate_clip
from taskfusion.tensor import GradCheckReport, TensorError

GT_BOXES = [(0.3, 0.3, 0.2, 0.2), (0.7, 0.6, 0.25, 0.25)]


@pytest.mark.slow
def test_gradcheck_passes_every_check(capsys):
    assert cli.main(["gradcheck"]) == 0
    assert "139/139 checks passed" in capsys.readouterr().out


def test_each_query_box_clears_every_ground_truth_box():
    raws = gradcheck._query_boxes(rng_for(0, "gc", "scod", 0), 4, GT_BOXES)
    assert raws.shape == (1, 4, 4)
    for raw in raws[0]:
        box = 1.0 / (1.0 + np.exp(-raw))
        assert all(gradcheck._box_margins_ok(box, np.asarray(g))
                   for g in GT_BOXES)


def test_fixtures_raise_when_no_draw_clears_the_kinks(monkeypatch):
    monkeypatch.setattr(gradcheck, "_box_margins_ok", lambda a, b: False)
    rng = np.random.default_rng(0)
    with pytest.raises(TensorError, match="no kink-free box pair in 1000"):
        gradcheck._kink_free_boxes(rng)
    with pytest.raises(TensorError, match="query box 0: none of 1000 draws"):
        gradcheck._query_boxes(rng, 4, GT_BOXES)
    with tl.precision("float64"), pytest.raises(
            TensorError, match="none of the 12 ground-truth shifts"):
        gradcheck._decode_joint_check(0, 1e-4, 1e-5)


def test_every_op_kind_training_records_is_on_a_checked_tape(recorded_nodes,
                                                           monkeypatch):
    """The op kinds one tiny train step per encoder and one tiny bc_train
    step record all appear on the tapes ``run_gradcheck`` checks, so no op
    trains without a finite-difference check. ``grad_check`` is stubbed to
    one forward call and a walk of its tape: no differences run."""
    clip_cfg = ClipConfig(frames=4, height=16, width=16, p_change=0.5)
    records = [ClipRecord(seed=s, config=clip_cfg,
                          labels=generate_clip(s, clip_cfg).labels)
               for s in range(4)]  # two clips change state, two do not
    for encoder in ("per_frame_token", "clip_token", "conv_grid"):
        trainer.train(records, trainer.TrainConfig(
            steps=1, batch_size=4, encoder=encoder, width=16, layers=2,
            dec_heads=2, enc_heads=2, mlp_hidden=16, patch=8))
    bc_train(collect_demos(1, 5, ToyEnvConfig(image=16)),
             lambda obs: obs.reshape(-1)[:8], steps=1, seed=6)
    trained = {node.op for node in recorded_nodes}

    checked = set()

    def walk_tape(f, inputs, **_):
        stack, seen = [f(*inputs)], set()
        while stack:
            t = stack.pop()
            if t.node is not None and id(t) not in seen:
                seen.add(id(t))
                checked.add(t.node.op)
                stack.extend(t.node.inputs)
        return GradCheckReport({}, tol=1e-4)

    monkeypatch.setattr(gradcheck, "grad_check", walk_tape)
    gradcheck.run_gradcheck()
    assert "matmul" in trained and "class_attention" in trained
    assert trained <= checked, sorted(trained - checked)


# sha256 over every check of ``run_gradcheck()``: its name, its input
# names, each input's shape and bytes, and the float64 value of one
# forward call of the function it checks.
AUDIT_DIGEST = ("020a5efdec0017bc4091607c8cd8df05"
                "da07974caead5c6c95c7d3e33b608d8b")


def test_every_check_keeps_its_name_inputs_and_value(monkeypatch):
    """The audit's checks, in order, each with the inputs it perturbs and
    the value its function takes on them. ``grad_check`` is stubbed to
    that one forward call, so no differences run."""
    calls = []

    def forward_once(f, inputs, names=None, **_):
        calls.append((list(names), [t.data.copy() for t in inputs],
                      np.float64(f(*inputs).item())))

    monkeypatch.setattr(gradcheck, "grad_check", forward_once)
    with tl.precision("float64"):
        results = gradcheck.run_gradcheck()
    assert len(results) == len(calls) == 139
    h = hashlib.sha256()
    for (name, _), (names, arrays, value) in zip(results, calls):
        h.update(repr((name, names, [a.shape for a in arrays])).encode())
        for a in arrays:
            h.update(a.tobytes())
        h.update(value.tobytes())
    assert h.hexdigest() == AUDIT_DIGEST
