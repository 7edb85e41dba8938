"""Property-based tests (hypothesis): the batched exact matcher against
the brute-force oracle, the bounds and symmetry of generalized IoU, the
broadcast rules of the binary tensor ops, the fused ops' direct ufunc
reductions against the np.mean/np.max/np.sum formulas, and the toy env's
scalar helpers, dynamics, expert and frames against np.linalg.norm,
np.clip and the env's numpy 2-vector formulas, bit for bit. Draws are
derandomized, so every run checks the same examples."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from taskfusion import tensor as tl
from taskfusion.assignment import AssignmentDomainError, hungarian
from taskfusion.bc import (EnvState, ToyEnv, ToyEnvConfig, clip,
                           expert_policy)
from taskfusion.losses import iou_giou
from taskfusion.synth import norm
from taskfusion.tensor import ShapeError

from oracles import (attention_weights_reference, brute_force_assign,
                     class_attention_reference, env_render_reference,
                     env_step_reference, expert_policy_reference,
                     iou_giou_values, layer_norm_reference)

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
    with tl.precision("float64"):
        iou, g = (t.item() for t in iou_giou(tl.constant(a), tl.constant(b)))
        iou_ba, g_ba = (t.item()
                        for t in iou_giou(tl.constant(b), tl.constant(a)))
    assert -1.0 <= g <= iou <= 1.0
    assert 0.0 <= iou
    assert iou_ba == iou and g_ba == g
    assert (iou, g) == tuple(float(v) for v in iou_giou_values(a, b))


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


# The fused ops call np.add.reduce / np.maximum.reduce (and divide by the
# axis length for a mean) where they called np.mean, np.max and np.sum; the
# results must be the same bits, in both compute dtypes.
DTYPES = st.sampled_from(["float32", "float64"])
lead = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)


@SETTINGS
@given(lead, st.integers(1, 24), DTYPES, st.integers(0, 2**32))
def test_layer_norm_equals_the_mean_formulas_bit_for_bit(shape, d, dtype,
                                                         seed):
    rng = np.random.default_rng(seed)
    x, dout = (rng.standard_normal(shape + (d,)) * rng.uniform(0.1, 10)
               for _ in range(2))
    gain, bias = rng.standard_normal(d), rng.standard_normal(d)
    with tl.precision(dtype):
        ts = [tl.tensor(v, requires_grad=True) for v in (x, gain, bias)]
        out = tl.layer_norm(*ts)
        tl.backward(tl.sum_all(tl.mul(out, dout)))
        want = layer_norm_reference(*(t.data for t in ts),
                                    tl.constant(dout).data)
    for got, ref in zip([out.data] + [t.grad for t in ts], want):
        assert got.dtype == ref.dtype == np.dtype(dtype)
        assert np.array_equal(got, ref)


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 6), st.integers(1, 9),
       st.sampled_from([(8, 1), (8, 2), (12, 3), (16, 4)]), st.booleans(),
       DTYPES, st.integers(0, 2**32))
def test_attention_weights_equal_the_max_sum_softmax_bit_for_bit(
        b, nq, nk, width_heads, own, dtype, seed):
    d, heads = width_heads
    rng = np.random.default_rng(seed)
    with tl.precision(dtype):
        xq = tl.constant(rng.standard_normal((b, nq, d)))
        xm = xq if own else tl.constant(rng.standard_normal((b, nk, d)))
        ws = [tl.constant(rng.standard_normal((d, d))) for _ in range(4)]
        _, weights = tl.attention(xq, None if own else xm, *ws, heads)
    want = attention_weights_reference(xq.data, xm.data, ws[0].data,
                                       ws[1].data, heads)
    assert weights.dtype == want.dtype == np.dtype(dtype)
    assert np.array_equal(weights, want)


@SETTINGS
@given(st.integers(1, 5), st.integers(1, 6), st.integers(1, 7),
       st.sampled_from([(8, 1), (8, 2), (12, 3), (16, 4)]), DTYPES,
       st.integers(0, 2**32))
def test_class_attention_equals_the_max_sum_softmax_bit_for_bit(
        n, p, f, width_heads, dtype, seed):
    d, heads = width_heads
    rng = np.random.default_rng(seed)
    with tl.precision(dtype):
        args = [tl.constant(rng.standard_normal(shape)) for shape in
                ((n, p, f), (f, d), (p, d), (1, 1, d))
                + ((d, d),) * 4]
        out = tl.class_attention(*args, heads)
    want = class_attention_reference(*(a.data for a in args), heads)
    assert out.data.dtype == want.dtype == np.dtype(dtype)
    assert np.array_equal(out.data, want)


# Zeros of both signs, subnormals, the largest finite floats, infinities
# and NaN, then any float, then the env's own range.
EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            1.7976931348623157e308, -1.7976931348623157e308, np.inf,
            -np.inf, np.nan]
coords = st.one_of(st.sampled_from(EXTREMES), st.floats(),
                   st.floats(-2.0, 2.0))


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


@SETTINGS
@given(arrays(np.float64, st.integers(0, 5), elements=coords))
@example(np.array([0.0, -0.0]))
@example(np.array([5e-324, -5e-324]))
@example(np.array([1e300, 1e300]))
@example(np.array([np.inf, np.nan]))
def test_norm_equals_np_linalg_norm_bit_for_bit(v):
    with np.errstate(over="ignore", invalid="ignore"):  # both warn alike
        got, want = norm(v), np.linalg.norm(v)
    assert type(got) is float
    assert _bits(got) == _bits(want)


@st.composite
def clip_cases(draw):
    """Bounds lo <= hi (both zeros, the env's bounds, or any two
    non-NaN floats) and a value that is often exactly at a bound."""
    lo, hi = draw(st.one_of(
        st.sampled_from([(0.0, 1.0), (-0.05, 0.05), (-0.0, 0.0), (0.0, 0.0),
                         (-0.0, -0.0), (-np.inf, np.inf)]),
        st.tuples(st.floats(allow_nan=False),
                  st.floats(allow_nan=False)).map(sorted)))
    x = draw(st.one_of(coords, st.sampled_from([lo, hi, -lo, -hi])))
    return x, lo, hi


@SETTINGS
@given(clip_cases())
@example((-0.0, 0.0, 1.0))
@example((0.0, -0.0, 0.0))
@example((-0.0, -0.0, 0.0))
@example((np.nan, -0.05, 0.05))
@example((np.inf, 0.0, 1.0))
@example((-np.inf, -0.05, 0.05))
@example((0.05, -0.05, 0.05))
def test_clip_equals_np_clip_of_a_2_vector_bit_for_bit(case):
    x, lo, hi = case
    assert _bits(clip(x, lo, hi)) == _bits(np.clip(np.array([x, x]), lo,
                                                     hi)[0])


# Positions in the unit square, often on its walls or at its centre.
unit = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0))
positions_2d = st.tuples(unit, unit).map(np.array)
# Env settings: the defaults, zero, or anything up to a third of the square.
radii = st.one_of(st.sampled_from([0.0, 0.03, 0.05, 0.06]),
                  st.floats(0.0, 0.3))


def _same(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@SETTINGS
@given(positions_2d, positions_2d, positions_2d,
       st.tuples(coords, coords).map(np.array), radii, radii, radii)
# The gripper on the cube at a wall, where the expert's detour divides
# 0 by 0; and both signs of zero in the action.
@example(np.array([1.0, 0.5]), np.array([1.0, 0.5]), np.array([0.4, 0.5]),
         np.array([0.0, -0.0]), 0.05, 0.06, 0.05)
@example(np.array([0.2, 0.2]), np.array([0.2, 0.2]), np.array([0.6, 0.6]),
         np.array([-0.0, 0.0]), 0.0, 0.0, 0.05)
def test_env_step_and_expert_equal_their_numpy_formulas_bit_for_bit(
        gripper, cube, target, action, max_step, contact_radius,
        success_radius):
    cfg = ToyEnvConfig(max_step=max_step, contact_radius=contact_radius,
                       success_radius=success_radius)
    env = ToyEnv(cfg)
    env.state = EnvState(gripper=gripper, cube=cube, target=target)
    with np.errstate(invalid="ignore"):  # the detour's 0 / 0, on both sides
        assert _same(expert_policy(env.state, cfg),
                     expert_policy_reference(gripper, cube, target, cfg))
    want_gripper, want_cube = env_step_reference(gripper, cube, action, cfg)
    state = env.step(action)
    assert _same(state.gripper, want_gripper)
    assert _same(state.cube, want_cube)
    ok = env.success()
    assert type(ok) is bool
    assert ok == bool(np.linalg.norm(want_cube - target) < success_radius)


@settings(SETTINGS, max_examples=60)
@given(st.integers(0, 2**32), positions_2d, positions_2d,
       st.sampled_from([14, 16, 32]), st.floats(0.0, 0.5),
       st.floats(0.0, 0.5))
def test_frames_equal_the_whole_drawn_frame_bit_for_bit(
        seed, gripper, cube, image, cube_size, gripper_size):
    """Cube and gripper anywhere, edges included, over the scene layer."""
    cfg = ToyEnvConfig(image=image, cube_size=cube_size,
                       gripper_size=gripper_size)
    env = ToyEnv(cfg)
    target = env.reset(seed).target
    env.state = EnvState(gripper=gripper, cube=cube, target=target)
    assert _same(env.render(), env_render_reference(seed, env.state, cfg))
