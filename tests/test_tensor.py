import numpy as np
import pytest

from taskfusion import tensor as tl
from taskfusion.seeding import rng_for
from taskfusion.tensor import (ContractError, DomainError, ShapeError,
                               backward, grad_check)

from oracles import mlp_reference


def test_matmul_identity():
    eye = tl.constant(np.eye(2))
    m = tl.constant([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(tl.matmul(eye, m).data, m.data)


def test_matmul_projector():
    p = tl.constant([[1.0, 0.0], [0.0, 0.0]])
    m = tl.constant([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(tl.matmul(p, m).data, [[5.0, 6.0], [0.0, 0.0]])


def test_matmul_gradient_vs_finite_differences():
    rng = rng_for(3, "matmul")
    a = tl.tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = tl.tensor(rng.standard_normal((4, 2)), requires_grad=True)
    report = grad_check(lambda x, y: tl.sum_all(tl.matmul(x, y)), [a, b],
                        eps=1e-5, tol=1e-6)
    assert report.passed, str(report)


def test_matmul_shape_mismatch_names_both_shapes():
    # inner sizes, batch sizes or ranks that differ, and a 4-D operand
    for sa, sb in (((2, 3), (4, 2)), ((2, 2, 3), (3, 3, 2)),
                   ((2, 3), (1, 3, 2)), ((1, 2, 2, 3), (1, 2, 3, 2))):
        with pytest.raises(ShapeError) as e:
            tl.matmul(tl.constant(np.zeros(sa)), tl.constant(np.zeros(sb)))
        assert str(sa) in str(e.value) and str(sb) in str(e.value)


def test_batched_matmul_is_the_per_item_matmuls():
    rng = rng_for(4, "matmul-batched")
    for dtype in ("float32", "float64"):
        with tl.precision(dtype):
            a = tl.tensor(rng.standard_normal((3, 2, 4)), requires_grad=True)
            b = tl.tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
            w = tl.constant(rng.standard_normal((3, 2, 5)))
            out = tl.matmul(a, b)
            backward(tl.sum_all(tl.mul(out, w)))
            assert out.node.op == "matmul"
            for i in range(3):
                ai = tl.tensor(a.data[i], requires_grad=True)
                bi = tl.tensor(b.data[i], requires_grad=True)
                yi = tl.matmul(ai, bi)
                backward(tl.sum_all(tl.mul(yi, tl.constant(w.data[i]))))
                assert np.array_equal(out.data[i], yi.data)
                assert np.array_equal(a.grad[i], ai.grad)
                assert np.array_equal(b.grad[i], bi.grad)


def test_softmax_uniform_on_equal_logits():
    out = tl.softmax(tl.constant([0.0, 0.0, 0.0, 0.0]))
    assert np.allclose(out.data, 0.25, atol=0)


def test_softmax_no_overflow_on_huge_logits():
    out = tl.softmax(tl.constant([1000.0, 0.0]))
    assert abs(out.data[0] - 1.0) <= 1e-12
    assert abs(out.data[1]) <= 1e-12


def test_softmax_matches_high_precision_oracle():
    # independent scalar-math evaluation at 50 digits
    import mpmath

    mpmath.mp.dps = 50
    xs = [1, 2, 3]
    exps = [mpmath.exp(x) for x in xs]
    total = sum(exps)
    expected = np.array([float(e / total) for e in exps])
    out = tl.softmax(tl.constant([1.0, 2.0, 3.0]))
    assert np.max(np.abs(out.data - expected)) < 1e-15


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_row_max_has_the_values_of_the_last_axis_reduce(dtype):
    """The softmax row max, over numpy's reduce below 32 rows and over a
    transposed copy from 32 on, equals numpy's reduce over the last axis,
    also on rows of NaN, +-inf and +-0.0. The values are the same, so
    every nonzero max has the same bits; the sign of a zero max follows
    the order numpy visits the row in, which differs, and leaves every
    shifted exponential, the max's only use, the same."""
    rng = rng_for(12, "row_max", dtype)
    special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])
    for shape in [(1, 2, 17), (1, 4, 2, 16), (1, 4, 1, 17), (31, 3),
                  (32, 3), (1, 4, 10, 10), (32, 8, 2), (32, 4, 10, 10),
                  (16, 2, 17), (512, 2, 17)]:
        for share in (0.0, 0.1, 0.5, 1.0):
            s = rng.standard_normal(shape).astype(dtype)
            mask = rng.random(shape) < share
            s[mask] = rng.choice(special, int(mask.sum()))
            got = tl._row_max(s)
            want = np.maximum.reduce(s, -1, keepdims=True)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True)
            with np.errstate(invalid="ignore", over="ignore"):
                assert np.array_equal(np.exp(s - got), np.exp(s - want),
                                      equal_nan=True)


def test_softmax_rows_sum_to_one_and_positive():
    rng = rng_for(11, "softmax")
    for _ in range(50):
        x = tl.constant(rng.standard_normal((4, 7)) * rng.uniform(0.1, 50))
        y = tl.softmax(x, axis=-1).data
        assert np.all(y > 0)
        assert np.max(np.abs(y.sum(axis=-1) - 1.0)) <= 1e-12


def test_layer_norm_constant_slice_collapses_to_bias():
    x = tl.constant([[5.0, 5.0, 5.0, 5.0]])
    out = tl.layer_norm(x, tl.ones(4), tl.zeros(4))
    assert np.allclose(out.data, 0.0)
    out2 = tl.layer_norm(x, tl.ones(4), tl.constant([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(out2.data, [[1.0, 2.0, 3.0, 4.0]])


def test_layer_norm_zero_gain_broadcasts_bias():
    rng = rng_for(5, "ln")
    x = tl.constant(rng.standard_normal((3, 6)))
    bias = tl.constant(rng.standard_normal(6))
    out = tl.layer_norm(x, tl.zeros(6), bias)
    assert np.allclose(out.data, np.broadcast_to(bias.data, (3, 6)))


def test_layer_norm_statistics():
    rng = rng_for(6, "ln-stats")
    # larger-variance input keeps the eps-induced variance bias below 1e-6
    x = tl.constant(rng.standard_normal((4, 64)) * 5.0)
    out = tl.layer_norm(x, tl.ones(64), tl.zeros(64), eps=1e-5).data
    assert np.max(np.abs(out.mean(axis=-1))) <= 1e-10
    assert np.max(np.abs(out.var(axis=-1) - 1.0)) <= 1e-6


def test_relu_values():
    assert np.array_equal(tl.relu(tl.constant([-1.0, 0.0, 2.0])).data,
                          [0.0, 0.0, 2.0])


def test_exp_log_inverse_pair():
    rng = rng_for(7, "exploq")
    x = rng.uniform(0.01, 10.0, 50)
    back = tl.exp(tl.log(tl.constant(x))).data
    assert np.max(np.abs(back - x)) <= 1e-12


def test_log_domain_error():
    with pytest.raises(DomainError):
        tl.log(tl.constant([1.0, -2.0]))
    with pytest.raises(DomainError):
        tl.log(tl.constant([0.0]))


def test_gelu_gradient_at_20_random_points():
    rng = rng_for(8, "gelu")
    x = tl.tensor(rng.standard_normal(20) * 2.0, requires_grad=True)
    report = grad_check(lambda v: tl.sum_all(tl.gelu(v)), [x],
                        eps=1e-5, tol=1e-5)
    assert report.passed, str(report)


def test_broadcasting_scalar_and_suffix_only():
    a = tl.constant(np.arange(6.0).reshape(2, 3))
    assert tl.add(a, 1.0).data.shape == (2, 3)
    row = tl.constant([10.0, 20.0, 30.0])
    assert np.array_equal(tl.add(a, row).data, a.data + row.data)
    block = tl.constant(np.ones((3, 4)))
    assert tl.mul(tl.constant(np.ones((2, 3, 4))), block).shape == (2, 3, 4)
    for other in (np.zeros(2), np.zeros((1, 3)), np.zeros((2, 1)),
                  np.zeros((3, 2))):
        with pytest.raises(ShapeError):
            tl.add(a, tl.constant(other))  # leading-axis or middle broadcast


def test_size_one_operand_must_keep_the_other_shape():
    # (1, 1) + (3,) would broadcast to (1, 3), a shape neither operand has
    a = tl.tensor(np.ones((1, 1)), requires_grad=True)
    b = tl.tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        tl.add(a, b)
    with pytest.raises(ShapeError):
        tl.sub(b, a)
    out = tl.add(a, tl.tensor(np.ones((2, 3)), requires_grad=True))
    backward(tl.sum_all(out))
    assert a.grad.shape == (1, 1) and a.grad[0, 0] == 6.0


def test_suffix_broadcast_gradient_sums_leading_axes():
    rng = rng_for(15, "suffix")
    x = tl.tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    b = tl.tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = tl.constant(rng.standard_normal((2, 3, 4)))
    for op in (tl.add, tl.sub, tl.mul, tl.div):
        report = grad_check(
            lambda u, v, op=op: tl.sum_all(tl.mul(op(u, v), w)), [x, b],
            eps=1e-5, tol=1e-5)
        assert report.passed, f"{op.__name__}: {report}"
    x.grad = b.grad = None
    backward(tl.sum_all(tl.add(x, b)))
    assert np.array_equal(b.grad, np.full((3, 4), 2.0))


def test_backward_sum_gives_ones():
    rng = rng_for(9, "bsum")
    x = tl.tensor(rng.standard_normal((3, 5)), requires_grad=True)
    backward(tl.sum_all(x))
    assert np.array_equal(x.grad, np.ones((3, 5)))


def test_backward_product_rule():
    x = tl.tensor(3.0, requires_grad=True)
    y = tl.tensor(4.0, requires_grad=True)
    backward(tl.mul(x, y))
    assert float(x.grad) == 4.0
    assert float(y.grad) == 3.0


def test_backward_accumulates_across_uses():
    x = tl.tensor(2.0, requires_grad=True)
    backward(tl.add(tl.mul(x, x), x))  # d/dx (x^2 + x) = 2x + 1
    assert float(x.grad) == 5.0


def test_backward_requires_scalar():
    x = tl.tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ContractError):
        backward(tl.add(x, 1.0))


def _reachable_nodes(loss):
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop().node
        if node is not None and node.nid not in nodes:
            nodes[node.nid] = node
            stack.extend(node.inputs)
    return list(nodes.values())


def test_backward_releases_every_rule_and_keeps_the_graph():
    """After backward each node reachable from the loss has its rule
    released, and keeps its op and its inputs."""
    rng = rng_for(13, "release")
    x = tl.tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = tl.tensor(rng.standard_normal((4, 4)), requires_grad=True)
    h = tl.layer_norm(tl.matmul(x, w), tl.constant(np.ones(4)),
                      tl.constant(np.zeros(4)))
    loss = tl.sum_all(tl.mul(tl.softmax(h, axis=-1), h))
    before = [(n, n.op, n.inputs) for n in _reachable_nodes(loss)]
    assert len(before) == 5 and all(n.backward is not None
                                    for n, _, _ in before)
    backward(loss)
    after = _reachable_nodes(loss)
    assert [n for n, _, _ in before] == after
    for node, op, inputs in before:
        assert node.backward is None, op
        assert node.op == op and node.inputs is inputs


def test_a_second_backward_raises_naming_the_released_op():
    """A graph serves one backward: a second one over it, or over a new
    loss built on part of it, raises before it changes any gradient."""
    x = tl.tensor([1.0, 2.0], requires_grad=True)
    y = tl.exp(x)
    loss = tl.sum_all(y)
    backward(loss)
    first = x.grad.copy()
    with pytest.raises(ContractError, match="'sum_all' node"):
        backward(loss)
    with pytest.raises(ContractError, match="'exp' node"):
        backward(tl.sum_all(tl.mul(y, y)))
    assert np.array_equal(x.grad, first)


def test_backward_linearity():
    rng = rng_for(10, "linear")
    alpha, beta = 1.7, -2.3

    def losses(x):
        l1 = tl.sum_all(tl.mul(x, x))
        l2 = tl.sum_all(tl.exp(tl.scale(x, 0.1)))
        return l1, l2

    x = tl.tensor(rng.standard_normal(6), requires_grad=True)
    l1, l2 = losses(x)
    backward(tl.add(tl.scale(l1, alpha), tl.scale(l2, beta)))
    combined = x.grad.copy()

    x.grad = None
    l1, _ = losses(x)
    backward(l1)
    g1 = x.grad.copy()
    x.grad = None
    _, l2 = losses(x)
    backward(l2)
    g2 = x.grad.copy()

    assert np.max(np.abs(combined - (alpha * g1 + beta * g2))) <= 1e-10


def test_determinism_bit_identical():
    def run():
        rng = rng_for(12, "det")
        x = tl.tensor(rng.standard_normal((4, 4)), requires_grad=True)
        y = tl.softmax(tl.matmul(x, tl.permute(x, (1, 0))), axis=-1)
        loss = tl.sum_all(tl.mul(y, y))
        backward(loss)
        return loss.item(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert np.array_equal(g1, g2)


def test_grad_check_sum_of_squares():
    x = tl.tensor([1.0, 2.0, 3.0], requires_grad=True)
    report = grad_check(lambda v: tl.sum_all(tl.mul(v, v)), [x],
                        eps=1e-5, tol=1e-8)
    assert report.passed, str(report)
    x.grad = None
    backward(tl.sum_all(tl.mul(x, x)))
    assert np.allclose(x.grad, [2.0, 4.0, 6.0], atol=0)


def test_grad_check_softmax_kl():
    rng = rng_for(13, "kl")
    target = rng.uniform(0.1, 1.0, 5)
    target /= target.sum()
    t = tl.constant(target)

    def f(logits):
        p = tl.softmax(logits)
        return tl.scale(tl.sum_all(tl.mul(t, tl.log(p))), -1.0)

    x = tl.tensor(rng.standard_normal(5), requires_grad=True)
    report = grad_check(f, [x], eps=1e-5, tol=1e-5)
    assert report.passed, str(report)


def test_grad_check_flags_wrong_backward_rule():
    # negative control: an op whose recorded rule is deliberately off by 10%
    def broken_double(x):
        out = tl.scale(x, 2.0)
        if out.node is not None:  # the finite differences record no node
            orig = out.node.backward
            out.node.backward = lambda dout: tuple(
                None if g is None else g * 1.1 for g in orig(dout))
        return tl.sum_all(out)

    x = tl.tensor([1.0, 2.0], requires_grad=True)
    report = grad_check(broken_double, [x], eps=1e-5, tol=1e-4)
    assert not report.passed


def test_grad_check_evaluates_the_finite_differences_off_the_tape():
    outputs = []

    def f(x):
        outputs.append(tl.sum_all(tl.exp(tl.mul(x, x))))
        return outputs[-1]

    x = tl.tensor([0.3, -0.2, 0.5], requires_grad=True)
    assert grad_check(f, [x]).passed
    assert len(outputs) == 1 + 2 * 3
    assert outputs[0].node is not None  # the analytic pass
    assert all(out.node is None for out in outputs[1:])


def test_grad_check_rejects_bad_eps():
    x = tl.tensor([1.0], requires_grad=True)
    with pytest.raises(ContractError):
        grad_check(lambda v: tl.sum_all(v), [x], eps=1e-2)


def test_structural_op_edges():
    x = tl.constant(np.arange(12.0).reshape(3, 4))
    with pytest.raises(ShapeError):
        tl.narrow(x, 0, 2, 5)
    with pytest.raises(ShapeError):
        tl.take0(x, [0, 7])
    with pytest.raises(ShapeError):
        tl.reshape(x, (5, 5))


def test_registered_ops_gradient_sweep():
    # every pointwise op, many seeds, against eps=1e-5 FD
    rng = rng_for(14, "sweep")
    unary_domains = {
        tl.relu: lambda: rng.standard_normal(6) + np.sign(rng.standard_normal(6)),
        tl.gelu: lambda: rng.standard_normal(6),
        tl.exp: lambda: rng.uniform(-2, 2, 6),
        tl.log: lambda: rng.uniform(0.1, 3.0, 6),
        tl.sigmoid: lambda: rng.standard_normal(6),
    }
    for op, draw in unary_domains.items():
        for _ in range(4):
            x = tl.tensor(draw(), requires_grad=True)
            w = tl.constant(rng.standard_normal(6))
            report = grad_check(
                lambda v, op=op, w=w: tl.sum_all(tl.mul(op(v), w)),
                [x], eps=1e-5, tol=1e-4)
            assert report.passed, f"{op.__name__}: {report}"

    for op in (tl.add, tl.sub, tl.mul, tl.div):
        for _ in range(4):
            a = tl.tensor(rng.standard_normal(6), requires_grad=True)
            b_data = rng.standard_normal(6)
            if op is tl.div:
                b_data = b_data + np.sign(b_data) * 0.5
            b = tl.tensor(b_data, requires_grad=True)
            report = grad_check(
                lambda x, y, op=op: tl.sum_all(
                    tl.mul(op(x, y), tl.constant(np.arange(1.0, 7.0)))),
                [a, b], eps=1e-5, tol=1e-4)
            assert report.passed, f"{op.__name__}: {report}"


def test_attention_op_shape_errors():
    w = tl.constant(np.zeros((4, 4)))
    x = tl.constant(np.zeros((2, 3, 4)))
    for queries, memory, weights, heads in [
            (tl.constant(np.zeros(4)), None, w, 2),           # no token axis
            (x, tl.constant(np.zeros((3, 4))), w, 2),          # batch vs none
            (x, tl.constant(np.zeros((3, 3, 4))), w, 2),       # batch 2 vs 3
            (x, tl.constant(np.zeros((2, 3, 5))), w, 2),       # memory width
            (x, None, tl.constant(np.zeros((4, 5))), 2),       # weight shape
            (x, None, w, 3)]:                                  # 4 % 3 heads
        with pytest.raises(ShapeError):
            tl.attention(queries, memory, weights, w, w, w, heads)


@pytest.mark.parametrize("nq, nk", [(0, 3), (3, 0), (0, 0)])
@pytest.mark.parametrize("batch", [(), (2,)])
def test_attention_op_refuses_an_empty_set(nq, nk, batch):
    """An empty query set or memory is a ContractError of the op itself
    (it was a ZeroDivisionError or a numpy ValueError)."""
    w = tl.constant(np.zeros((4, 4)))
    queries = tl.constant(np.zeros(batch + (nq, 4)))
    memory = tl.constant(np.zeros(batch + (nk, 4)))
    with pytest.raises(ContractError, match="empty"):
        tl.attention(queries, memory, w, w, w, w, 2)
    if nq == nk:
        with pytest.raises(ContractError, match="empty"):
            tl.attention(queries, None, w, w, w, w, 2)


def _mlp_leaves(rng, batch, tokens, dtype):
    """x and the four weights of ``tl.mlp``: shared when ``tokens`` is
    None, else stacked for that many tokens; every leaf requires grad."""
    g = () if tokens is None else (tokens,)
    rows = (batch,) + g + (5,)
    shapes = [rows, g + (5, 7), g + (7,), g + (7, 3), g + (3,)]
    with tl.precision(dtype):
        return [tl.tensor(rng.standard_normal(s) * 0.7, requires_grad=True)
                for s in shapes]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("tokens", [None, 1, 8])
@pytest.mark.parametrize("batch", [1, 6])
def test_mlp_equals_the_unfused_composition_bit_for_bit(dtype, tokens,
                                                        batch):
    rng = rng_for(15, "mlp", dtype, tokens or 0, batch)
    leaves = _mlp_leaves(rng, batch, tokens, dtype)
    with tl.precision(dtype):
        twins = [tl.tensor(t.data, requires_grad=True) for t in leaves]
        w = tl.constant(rng.standard_normal(leaves[0].shape[:-1] + (3,)))
    outs = []
    for op, inputs in ((tl.mlp, leaves), (mlp_reference, twins)):
        out = op(*inputs)
        tl.backward(tl.sum_all(tl.mul(out, w)))
        outs.append(out)
    assert outs[0].node.op == "mlp"
    assert outs[0].data.dtype == np.dtype(dtype)
    assert outs[0].data.flags.c_contiguous
    assert np.array_equal(outs[0].data, outs[1].data)
    for name, t, twin in zip(("x", "w1", "b1", "w2", "b2"), leaves, twins):
        assert t.grad.dtype == np.dtype(dtype), name
        assert np.array_equal(t.grad, twin.grad), name


def test_mlp_is_one_node_on_the_tape_and_none_off_it(recorded_nodes):
    leaves = _mlp_leaves(rng_for(16, "mlp"), 4, 8, "float64")
    out = tl.mlp(*leaves)
    assert [n.op for n in recorded_nodes] == ["mlp"]
    recorded_nodes.clear()
    with tl.no_tape():
        again = tl.mlp(*leaves)
    assert recorded_nodes == [] and again.node is None
    assert not again.requires_grad
    assert np.array_equal(again.data, out.data)


def test_mlp_shape_errors():
    def z(*shape):
        return tl.constant(np.zeros(shape))

    shared = [z(4, 5), z(5, 7), z(7), z(7, 3), z(3)]
    stacked = [z(2, 8, 5), z(8, 5, 7), z(8, 7), z(8, 7, 3), z(8, 3)]
    for base, i, bad in [
            (shared, 0, z(4, 6)),        # x width != w1 rows
            (shared, 0, z(2, 4, 5)),     # batched rows, shared weights
            (shared, 2, z(6)),           # b1 width
            (shared, 3, z(6, 3)),        # w2 rows != hidden
            (shared, 4, z(1, 3)),        # b2 not [O]
            (stacked, 0, z(2, 5, 5)),    # 5 tokens, 8 stacked MLPs
            (stacked, 0, z(8, 5)),       # rows, stacked weights
            (stacked, 2, z(7)),          # b1 not per token
            (stacked, 3, z(7, 3)),       # w2 not stacked
            (stacked, 4, z(8, 4))]:      # b2 width != w2 columns
        args = list(base)
        args[i] = bad
        with pytest.raises(ShapeError, match="mlp"):
            tl.mlp(*args)


def test_no_tape_records_no_node_and_restores_recording():
    x = tl.tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
    on_tape = tl.gelu(tl.mul(x, x))
    with tl.no_tape():
        with tl.no_tape():  # nests: leaving the inner block keeps it off
            pass
        off = tl.gelu(tl.mul(x, x))
    assert on_tape.node is not None
    assert off.node is None and not off.requires_grad
    assert np.array_equal(off.data, on_tape.data)
    with pytest.raises(RuntimeError):
        with tl.no_tape():
            raise RuntimeError("inside the block")
    assert tl.mul(x, x).node is not None


def test_no_tape_as_a_decorator_covers_each_call(recorded_nodes):
    x = tl.tensor(np.ones(2), requires_grad=True)
    square = tl.no_tape()(lambda t: tl.mul(t, t))
    assert square(x).node is None and square(x).node is None
    assert recorded_nodes == []
    assert tl.mul(x, x).node is not None and len(recorded_nodes) == 1


def test_no_tape_decorated_function_may_recurse():
    """A recursive decorated function enters the one decorator instance
    once per call; each exit restores the flag its entry found, so the
    outer call still runs off the tape after the inner one returns, and
    recording is back on after the outermost, also on an exception."""
    x = tl.tensor(np.ones(2), requires_grad=True)
    nodes = []

    @tl.no_tape()
    def descend(depth):
        nodes.append(tl.mul(x, x).node)
        if depth:
            descend(depth - 1)
        nodes.append(tl.mul(x, x).node)

    descend(2)
    assert nodes == [None] * 6
    assert tl.mul(x, x).node is not None

    @tl.no_tape()
    def fail(depth):
        if not depth:
            raise RuntimeError("innermost call")
        fail(depth - 1)

    with pytest.raises(RuntimeError):
        fail(2)
    assert tl.mul(x, x).node is not None


def test_constructor_copies_its_input():
    a = np.zeros(3)
    t, u, c = tl.Tensor(a), tl.tensor(a), tl.constant(a)
    a[0] = 5.0
    for x in (t, u, c):
        assert x.data[0] == 0.0 and x.data.flags.c_contiguous
    s = tl.constant(np.float64(2.0))
    assert s.shape == () and s.item() == 2.0


def test_precision_sets_the_dtype_nests_and_restores():
    assert tl.compute_dtype() == np.float64
    x = np.array([1.0, 1.0 + 1e-12])
    with tl.precision("float32"):
        t = tl.constant(x)
        with tl.precision(np.dtype(np.float64)):
            assert tl.constant(x).data.dtype == np.float64
        y = tl.gelu(tl.matmul(tl.reshape(t, (1, 2)), tl.ones((2, 2))))
        loss = tl.sum_all(tl.softmax(y))
    assert t.data.dtype == y.data.dtype == loss.data.dtype == np.float32
    assert t.data[0] == t.data[1]  # rounded to float32 on construction
    assert tl.constant(x).data.dtype == np.float64
    with pytest.raises(RuntimeError):
        with tl.precision("float32"):
            raise RuntimeError("inside the block")
    assert tl.compute_dtype() == np.float64
    half = tl.precision("float32")(lambda v: tl.scale(tl.constant(v), 0.5))
    assert half(x).data.dtype == np.float32
    for bad in ("float16", "int64", np.float32, None):
        with pytest.raises(ContractError, match="float32 or float64"):
            with tl.precision(bad):
                pass


def test_backward_keeps_float32_gradients():
    with tl.precision("float32"):
        x = tl.tensor([[0.5, -1.0], [2.0, -0.25]], requires_grad=True)
        w = tl.tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        y = tl.relu(tl.layer_norm(tl.matmul(x, w), tl.ones(2), tl.zeros(2)))
        backward(tl.sum_all(tl.mul(y, y)))
    assert x.grad.dtype == w.grad.dtype == np.float32


def test_grad_check_rejects_float32_inputs():
    with tl.precision("float32"):
        x = tl.tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError, match="float64"):
        grad_check(lambda v: tl.sum_all(tl.mul(v, v)), [x])
