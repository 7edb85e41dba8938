"""The full finite-difference gradient audit, ``taskfusion gradcheck``.

It takes about half a minute, so it is marked ``slow`` and left out of the
default run; run it with ``pytest -m slow``. The fixtures' bounded draws
are checked in the default run."""

import numpy as np
import pytest

from taskfusion import cli, gradcheck
from taskfusion import tensor as tl
from taskfusion.seeding import rng_for
from taskfusion.tensor import TensorError

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
