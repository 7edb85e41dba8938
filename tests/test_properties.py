"""Property-based tests (hypothesis): the Hungarian solver against the
brute-force oracle, and the bounds and symmetry of generalized IoU.
Draws are derandomized, so every run checks the same examples."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from taskfusion import tensor as tl
from taskfusion.assignment import CostMatrix, brute_force_assign, hungarian
from taskfusion.losses import giou, iou_giou_values

SETTINGS = settings(max_examples=200, derandomize=True, database=None,
                    deadline=None)


@st.composite
def cost_matrices(draw):
    q = draw(st.integers(1, 6))
    g = draw(st.integers(0, q))
    return draw(arrays(np.float64, (g, q),
                       elements=st.floats(-100, 100, allow_nan=False)))


@SETTINGS
@given(cost_matrices())
def test_hungarian_matches_the_brute_force_oracle(costs):
    got = hungarian(CostMatrix(costs))
    want = brute_force_assign(CostMatrix(costs))
    g, q = costs.shape
    rows = sorted(r for r, _ in got.pairs)
    cols = [c for _, c in got.pairs]
    assert rows == list(range(g))
    assert len(set(cols)) == g and all(0 <= c < q for c in cols)
    paid = sum(costs[r, c] for r, c in got.pairs)
    assert abs(paid - got.total_cost) <= 1e-9 * (1 + abs(paid))
    assert abs(got.total_cost - want.total_cost) <= 1e-9 * (
        1 + abs(want.total_cost))


boxes = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                  st.floats(0.01, 1.0), st.floats(0.01, 1.0))


# Rounding slack for the bounds. The corners are a centre plus or minus
# half a side, so each edge is off by up to an ulp of the centre (about
# 1e-16), which is up to 1e-14 of a 0.01 side: identical boxes can give
# an iou of 1 + 1.3e-15, and where the hull equals the union (boxes whose
# union is a rectangle) hull - union rounds below 0 and giou exceeds iou by
# an ulp, e.g. (0, 0, 0.5, 1) against (0.3516211874727259, 0,
# 0.3516211874727259, 1).
EPS = 1e-12


@SETTINGS
@given(boxes, boxes)
def test_giou_is_bounded_by_iou_and_symmetric(a, b):
    iou, g = iou_giou_values(a, b)
    assert -1.0 - EPS <= g <= iou + EPS
    assert 0.0 <= iou <= 1.0 + EPS
    iou_ba, g_ba = iou_giou_values(b, a)
    assert iou_ba == iou and g_ba == g
    with tl.precision("float64"):
        taped = giou(tl.constant(np.array(a)), tl.constant(np.array(b)))
    assert abs(taped.item() - g) <= 1e-12
