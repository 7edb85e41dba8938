"""Property-based tests (hypothesis): the batched exact matcher against
the brute-force oracle, the bounds and symmetry of generalized IoU, and the
broadcast rules of the binary tensor ops. Draws are derandomized, so
every run checks the same examples."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from taskfusion import tensor as tl
from taskfusion.assignment import AssignmentDomainError, hungarian
from taskfusion.losses import giou, iou_giou_values
from taskfusion.tensor import ShapeError

from oracles import brute_force_assign

SETTINGS = settings(max_examples=200, derandomize=True, database=None,
                    deadline=None)


# Costs from a handful of values tie exactly and often; the rest are any
# finite floats.
COSTS = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
                  st.floats(-100, 100, allow_nan=False))


@st.composite
def batched_costs(draw):
    """[B, G, Q] costs with G <= 2 rows, and each clip's box count."""
    q = draw(st.integers(2, 6))
    g = draw(st.integers(0, 2))
    b = draw(st.integers(1, 4))
    costs = draw(arrays(np.float64, (b, g, q), elements=COSTS))
    counts = draw(arrays(np.intp, b, elements=st.integers(0, g)))
    return costs, counts


@SETTINGS
@given(batched_costs())
@example((np.zeros((3, 2, 2)), np.array([0, 1, 2])))
@example((np.ones((1, 2, 6)), np.array([2])))
def test_hungarian_matches_the_brute_force_oracle(case):
    costs, counts = case
    got = hungarian(costs, counts)
    g, q = costs.shape[1:]
    assert got.shape == (len(costs), g)
    for c, n, cols in zip(costs, counts, got):
        assert list(cols[n:]) == [-1] * (g - n)
        cols = list(cols[:n])
        assert len(set(cols)) == n and all(0 <= j < q for j in cols)
        paid = float(sum(c[r, j] for r, j in enumerate(cols)))
        assert paid == brute_force_assign(c[:n])[1]


@SETTINGS
@given(batched_costs(), st.sampled_from([np.inf, -np.inf, np.nan]),
       st.integers(0, 10 ** 6))
def test_hungarian_rejects_non_finite_costs(case, bad, where):
    costs, counts = case
    used = np.argwhere(np.arange(costs.shape[1]) < counts[:, None])
    if not len(used):
        return
    i, r = used[where % len(used)]
    costs[i, r, where % costs.shape[2]] = bad
    with pytest.raises(AssignmentDomainError):
        hungarian(costs, counts)


boxes = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                  st.floats(0.01, 1.0), st.floats(0.01, 1.0))


@SETTINGS
@given(boxes, boxes)
# Rounding once took these out of range: an IoU of 1 + 4e-16 for identical
# boxes, and a GIoU above the IoU where the union is a rectangle.
@example((0.163, 0.582, 1.0, 0.163), (0.163, 0.582, 1.0, 0.163))
@example((0.0, 0.0, 0.5, 1.0), (0.3516211874727259, 0.0, 0.3516211874727259,
                                1.0))
def test_giou_is_bounded_by_iou_and_symmetric(a, b):
    iou, g = iou_giou_values(a, b)
    assert -1.0 <= g <= iou
    assert 0.0 <= iou <= 1.0
    iou_ba, g_ba = iou_giou_values(b, a)
    assert iou_ba == iou and g_ba == g
    with tl.precision("float64"):
        taped = giou(tl.constant(np.array(a)), tl.constant(np.array(b)))
    assert abs(taped.item() - g) <= 1e-12


BINARY = {
    # op -> the local derivatives (d/da, d/db) on the broadcast operands
    "add": (tl.add, lambda a, b: (np.ones_like(a), np.ones_like(b))),
    "sub": (tl.sub, lambda a, b: (np.ones_like(a), -np.ones_like(b))),
    "mul": (tl.mul, lambda a, b: (b, a)),
    "div": (tl.div, lambda a, b: (1.0 / b, -a / (b * b))),
    "maximum": (tl.maximum, lambda a, b: (1.0 * (a >= b), 1.0 * (a < b))),
    "minimum": (tl.minimum, lambda a, b: (1.0 * (a <= b), 1.0 * (a > b))),
}

dims = st.lists(st.integers(1, 3), max_size=3).map(tuple)
wide = st.lists(st.integers(2, 3), min_size=1, max_size=3).map(tuple)


@st.composite
def shape_pairs(draw):
    """Equal shapes, a size-1 operand, a trailing suffix, or two shapes
    without size-1 axes (mostly rejected), in either order."""
    mode = draw(st.sampled_from(["apart", "equal", "scalar", "suffix"]))
    if mode == "apart":
        big = draw(wide)
        small = draw(wide.filter(lambda s: s != big))
    else:
        big = draw(dims)
        if mode == "equal":
            small = big
        elif mode == "scalar":
            small = (1,) * draw(st.integers(0, len(big)))
        else:
            small = big[draw(st.integers(0, len(big))):]
    return (small, big) if draw(st.booleans()) else (big, small)


def _allowed(a: tuple, b: tuple) -> bool:
    """The documented rule: equal shapes, a size-1 operand of no higher
    rank, or one shape a trailing suffix of the other."""
    if a == b:
        return True
    for small, big in ((a, b), (b, a)):
        if len(small) <= len(big) and (
                np.prod(small) == 1 or big[len(big) - len(small):] == small):
            return True
    return False


def _sum_to(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to an operand's shape."""
    grad = grad.sum(axis=tuple(range(grad.ndim - len(shape))))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] > 1)
    return grad.sum(axis=axes, keepdims=True).reshape(shape)


@pytest.mark.parametrize("kind", sorted(BINARY))
@settings(SETTINGS, max_examples=100)
@given(shape_pairs(), st.integers(0, 2**32))
def test_binary_ops_broadcast_only_as_documented(kind, shapes, seed):
    """Each binary op accepts exactly the documented broadcasts and raises
    ShapeError for any other pair; each operand's gradient has its shape
    and is the broadcast gradient summed over the repeated axes."""
    op, local = BINARY[kind]
    rng = np.random.default_rng(seed)
    a_shape, b_shape = shapes
    a = rng.standard_normal(a_shape)
    b = rng.uniform(0.5, 2.0, b_shape) * rng.choice([-1.0, 1.0], b_shape)
    with tl.precision("float64"):
        ta = tl.tensor(a, requires_grad=True)
        tb = tl.tensor(b, requires_grad=True)
        if not _allowed(a_shape, b_shape):
            with pytest.raises(ShapeError):
                op(ta, tb)
            return
        out = op(ta, tb)
        out_shape = np.broadcast_shapes(a_shape, b_shape)
        assert out.shape == out_shape in (a_shape, b_shape)
        w = rng.standard_normal(out_shape)
        tl.backward(tl.sum_all(tl.mul(out, w)))
    a_bc, b_bc = np.broadcast_to(a, out_shape), np.broadcast_to(b, out_shape)
    da, db = local(a_bc, b_bc)
    for t, want in ((ta, _sum_to(w * da, a_shape)),
                    (tb, _sum_to(w * db, b_shape))):
        assert t.grad.shape == t.shape
        assert np.allclose(t.grad, want, rtol=1e-12, atol=1e-12)
