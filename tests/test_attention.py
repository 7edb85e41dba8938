import math

import numpy as np
import pytest

from taskfusion import tensor as tl
from taskfusion.decoder import (AttentionParams, cross_attention, positions,
                                self_attention)
from taskfusion.seeding import rng_for
from taskfusion.tensor import ContractError, ShapeError, backward, grad_check


def _params(seed, width=8, heads=2, std=0.3):
    return AttentionParams.init(rng_for(seed, "attn"), width, heads, std=std)


def test_single_token_attention_weight_is_one():
    params = _params(0)
    tokens = tl.constant(rng_for(1, "tok").standard_normal((1, 8)))
    _, weights = self_attention(tokens, params)
    assert weights.shape == (2, 1, 1)
    assert np.allclose(weights, 1.0, atol=0)


def test_duplicate_tokens_produce_identical_rows():
    params = _params(2)
    row = rng_for(3, "row").standard_normal(8)
    tokens = tl.constant(np.stack([row, row]))
    out = self_attention(tokens, params)[0].data
    assert np.array_equal(out[0], out[1])


def test_attention_rows_sum_to_one_per_head():
    params = _params(4, heads=4, width=16)
    tokens = tl.constant(rng_for(5, "t").standard_normal((4, 16)) * 3)
    _, weights = self_attention(tokens, params)
    sums = weights.sum(axis=-1)
    assert np.max(np.abs(sums - 1.0)) <= 1e-12


def test_cross_attention_single_memory_slot():
    params = _params(6)
    memory = tl.constant(rng_for(7, "m").standard_normal((1, 8)))
    queries = tl.constant(rng_for(8, "q").standard_normal((3, 8)))
    _, weights = cross_attention(memory, queries, params)
    assert weights.shape == (2, 3, 1)
    assert np.allclose(weights, 1.0, atol=0)


def test_cross_attention_identical_memory_rows_permutation_invariant():
    params = _params(9)
    row = rng_for(10, "m").standard_normal(8)
    memory = tl.constant(np.stack([row] * 5))
    queries = tl.constant(rng_for(11, "q").standard_normal((2, 8)))
    out1 = cross_attention(memory, queries, params)[0].data
    out2 = cross_attention(tl.constant(memory.data[::-1].copy()), queries,
                           params)[0].data
    assert np.allclose(out1, out2, atol=1e-15)


def test_cross_attention_weight_rows_sum_to_one():
    params = _params(12, heads=4, width=16)
    memory = tl.constant(rng_for(13, "m").standard_normal((6, 16)))
    queries = tl.constant(rng_for(14, "q").standard_normal((3, 16)))
    _, weights = cross_attention(memory, queries, params)
    assert np.max(np.abs(weights.sum(axis=-1) - 1.0)) <= 1e-12


def test_query_permutation_equivariance():
    params = _params(15)
    rng = rng_for(16, "perm")
    queries = tl.constant(rng.standard_normal((5, 8)))
    memory = tl.constant(rng.standard_normal((4, 8)))
    perm = rng.permutation(5)
    out = cross_attention(memory, queries, params)[0].data
    out_perm = cross_attention(memory,
                               tl.constant(queries.data[perm].copy()),
                               params)[0].data
    assert np.allclose(out[perm], out_perm, atol=1e-14)

    tokens_out = self_attention(queries, params)[0].data
    # for self-attention the memory permutes with the queries; identical
    # key set means permuting rows permutes outputs
    tokens_perm = self_attention(tl.constant(queries.data[perm].copy()),
                                 params)[0].data
    assert np.allclose(tokens_out[perm], tokens_perm, atol=1e-14)


def test_attention_blocks_pass_grad_check():
    params = _params(17)
    rng = rng_for(18, "gc")
    tokens = tl.tensor(rng.standard_normal((4, 8)), requires_grad=True)
    w = tl.constant(rng.standard_normal((4, 8)))
    report = grad_check(
        lambda t, *_: tl.sum_all(tl.mul(self_attention(t, params)[0], w)),
        [tokens, params.wq, params.wk, params.wv, params.wo],
        eps=1e-5, tol=1e-4,
        names=["tokens", "wq", "wk", "wv", "wo"])
    assert report.passed, str(report)

    memory = tl.tensor(rng.standard_normal((5, 8)), requires_grad=True)
    queries = tl.tensor(rng.standard_normal((2, 8)), requires_grad=True)
    wq = tl.constant(rng.standard_normal((2, 8)))
    report = grad_check(
        lambda m, q, *_: tl.sum_all(tl.mul(cross_attention(m, q, params)[0],
                                           wq)),
        [memory, queries, params.wq, params.wk, params.wv, params.wo],
        eps=1e-5, tol=1e-4,
        names=["memory", "queries", "wq", "wk", "wv", "wo"])
    assert report.passed, str(report)


def test_attention_errors():
    """The op checks the block's weights and head count at every call:
    holding them in ``AttentionParams`` checks nothing."""
    tokens = tl.constant(np.zeros((2, 10)))
    for heads in (4, 0):  # 10 % 4 != 0, and no heads at all
        params = AttentionParams.init(rng_for(19, "x"), 10, heads)
        with pytest.raises(ShapeError, match=f"by {heads} heads"):
            self_attention(tokens, params)
    params = _params(20)
    wide = AttentionParams(params.wq, params.wk, params.wv,
                           tl.tensor(np.zeros((8, 6))), params.head_count)
    with pytest.raises(ShapeError, match="weights"):
        self_attention(tl.constant(np.zeros((2, 8))), wide)  # wo not [8, 8]
    with pytest.raises(ContractError):
        cross_attention(tl.constant(np.zeros((0, 8))),
                        tl.constant(np.zeros((2, 8))), params)


def test_positional_table_bounds_and_determinism():
    rows = positions(32, 16)
    assert rows.shape == (32, 16) and not rows.requires_grad
    assert np.all(rows.data <= 1.0) and np.all(rows.data >= -1.0)
    assert np.array_equal(rows.data, positions(32, 16).data)


def test_positions_for_fewer_rows_are_the_first_rows_for_more():
    """Each entry depends only on its row and column, so every consumer may
    build just the rows it adds, in either dtype; the sin/cos pairs start
    at (0, 1)."""
    for dtype in ("float64", "float32"):
        with tl.precision(dtype):
            rows = positions(64, 8).data
            assert rows.dtype == np.dtype(dtype)
            for n in (1, 4, 17, 63):
                assert np.array_equal(positions(n, 8).data, rows[:n]), n
        assert np.array_equal(rows[0], np.tile([0.0, 1.0], 4))
    with pytest.raises(ShapeError, match="even width"):
        positions(4, 7)


def test_positional_rows_injective():
    rows = positions(64, 8).data
    for i in range(64):
        for j in range(i + 1, 64):
            assert not np.array_equal(rows[i], rows[j]), (i, j)


def test_batched_attention_matches_per_item_calls():
    params = _params(23, heads=2, width=8)
    rng = rng_for(24, "batch")
    tokens = tl.constant(rng.standard_normal((3, 5, 8)))
    memory = tl.constant(rng.standard_normal((3, 4, 8)))
    out_self, self_weights = self_attention(tokens, params)
    out_cross, cross_weights = cross_attention(memory, tokens, params)
    assert self_weights.shape == (3, 2, 5, 5)
    assert cross_weights.shape == (3, 2, 5, 4)
    for b in range(3):
        one, item_weights = self_attention(tl.constant(tokens.data[b]), params)
        assert np.max(np.abs(out_self.data[b] - one.data)) <= 1e-14
        assert np.max(np.abs(self_weights[b] - item_weights)) <= 1e-14
        one, _ = cross_attention(tl.constant(memory.data[b]),
                                 tl.constant(tokens.data[b]), params)
        assert np.max(np.abs(out_cross.data[b] - one.data)) <= 1e-14
    with pytest.raises(ShapeError):
        cross_attention(tl.constant(memory.data[:2]), tokens, params)


def _op_chain_attention(queries, memory, params):
    """Reference built from primitive ops, the chain the fused ``attention``
    tape op replaced: matmul projections, reshape/permute head split,
    batched matmul scores, scale, softmax, batched matmul with v, head
    merge, output matmul."""
    nq, d = queries.shape[-2:]
    nk = memory.shape[-2]
    b = queries.size // (nq * d)
    h = params.head_count
    dh = d // h

    def split(x, w, n):
        y = tl.matmul(tl.reshape(x, (b * n, d)), w)
        y = tl.permute(tl.reshape(y, (b, n, h, dh)), (0, 2, 1, 3))
        return tl.reshape(y, (b * h, n, dh))

    q = split(queries, params.wq, nq)
    k = split(memory, params.wk, nk)
    v = split(memory, params.wv, nk)
    weights = tl.softmax(tl.scale(tl.matmul(q, tl.permute(k, (0, 2, 1))),
                                  1.0 / math.sqrt(dh)), axis=-1)
    o = tl.permute(tl.reshape(tl.matmul(weights, v), (b, h, nq, dh)),
                   (0, 2, 1, 3))
    out = tl.matmul(tl.reshape(o, (b * nq, d)), params.wo)
    return (tl.reshape(out, queries.shape),
            weights.data.reshape(queries.shape[:-2] + (h, nq, nk)))


@pytest.mark.parametrize("kind", ["self", "cross", "cross_constant_memory"])
@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("batch", [(), (3,)], ids=["unbatched", "B3"])
def test_fused_attention_matches_the_op_chain(batch, heads, kind):
    rng = rng_for(25, "fused", kind, heads, len(batch))
    params = AttentionParams.init(rng, 8, heads, std=0.5)
    queries = tl.tensor(rng.standard_normal(batch + (5, 8)),
                        requires_grad=True)
    memory = queries if kind == "self" else tl.tensor(
        rng.standard_normal(batch + (7, 8)), requires_grad=(kind == "cross"))
    g = tl.constant(rng.standard_normal(batch + (5, 8)))
    leaves = [queries, memory, params.wq, params.wk, params.wv, params.wo]

    def run(attend):
        for t in leaves:
            t.grad = None
        out, weights = attend()
        backward(tl.sum_all(tl.mul(out, g)))
        return out, weights, [t.grad for t in leaves]

    def fused():
        if kind == "self":
            return self_attention(queries, params)
        return cross_attention(memory, queries, params)

    out, weights, grads = run(fused)
    ref_out, ref_weights, ref_grads = run(
        lambda: _op_chain_attention(queries, memory, params))
    assert out.node.op == "attention"
    assert len(out.node.inputs) == (5 if kind == "self" else 6)
    assert np.max(np.abs(out.data - ref_out.data)) <= 1e-12
    assert weights.shape == batch + (heads, 5, 5 if kind == "self" else 7)
    assert np.max(np.abs(weights - ref_weights)) <= 1e-12
    for name, got, want in zip(["queries", "memory", "wq", "wk", "wv", "wo"],
                               grads, ref_grads):
        if want is None:  # a memory that does not require grad
            assert got is None, name
        else:
            assert np.max(np.abs(got - want)) <= 1e-12, name
    if kind == "cross_constant_memory":  # the rule of a graph not yet run
        assert fused()[0].node.backward(g.data)[1] is None


def test_returned_attention_weights_are_a_read_only_view():
    """The weights handed back are the op's own array, not a copy; writing
    to them raises, and the op's backward rule still reads them."""
    params = _params(40)
    x = tl.tensor(rng_for(41, "x").standard_normal((2, 3, 8)),
                  requires_grad=True)
    out, returned = self_attention(x, params)
    _, weights = tl.attention(x, None, params.wq, params.wk, params.wv,
                              params.wo, params.head_count)
    assert np.array_equal(returned, weights)
    assert not returned.flags.writeable and returned.base is not None
    with pytest.raises(ValueError):
        returned[0, 0, 0, 0] = 1.0
    backward(tl.sum_all(out))
    assert x.grad is not None and params.wq.grad is not None


def _class_attention_and_chain(rng, n, p, f, d, heads, std):
    """The fused class-row op and, as separate ops, the patch embedding,
    the class token prepended, cross-attention of the class token over the
    frame's tokens and the residual, on the same inputs (weights of
    standard deviation ``std``): each one's output and the gradients of
    the seven weight leaves for one output gradient."""
    params = AttentionParams.init(rng, d, heads, std=std)
    raw = tl.constant(rng.standard_normal((n, p, f)))
    w_patch = tl.tensor(rng.standard_normal((f, d)) * std, requires_grad=True)
    rows = tl.tensor(rng.standard_normal((p, d)) * 0.5, requires_grad=True)
    cls = tl.tensor(rng.standard_normal((1, 1, d)), requires_grad=True)
    g = tl.constant(rng.standard_normal((n, d)))
    leaves = [w_patch, rows, cls, params.wq, params.wk, params.wv, params.wo]

    def run(rows_of):
        for t in leaves:
            t.grad = None
        out = rows_of()
        backward(tl.sum_all(tl.mul(out, g)))
        return out, [t.grad for t in leaves]

    def chain():
        tok = tl.matmul(tl.reshape(raw, (n * p, f)), w_patch)
        tok = tl.add(tl.reshape(tok, (n, p, d)), rows)
        c = tl.repeat0(cls, n)
        x = tl.concat([c, tok], axis=1)
        return tl.reshape(tl.add(c, cross_attention(x, c, params)[0]), (n, d))

    def class_rows():
        return tl.class_attention(raw, w_patch, rows, cls, params.wq,
                                  params.wk, params.wv, params.wo, heads)

    # raw gets no gradient; the rule is read on a graph not yet run
    assert class_rows().node.backward(g.data)[0] is None
    return run(class_rows), run(chain), leaves


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("frames", [1, 3])
def test_class_attention_matches_embedding_then_attention(frames, heads):
    """The fused class-row op against the op chain: values and every
    gradient."""
    n, d = frames, 8
    (out, grads), (ref_out, ref_grads), leaves = _class_attention_and_chain(
        rng_for(50, "class", frames, heads), n, 5, 6, d, heads, std=0.5)
    assert out.node.op == "class_attention" and out.shape == (n, d)
    assert np.max(np.abs(out.data - ref_out.data)) <= 1e-12
    for t, got, want in zip(leaves, grads, ref_grads):
        assert got.shape == t.shape
        assert np.max(np.abs(got - want)) <= 1e-12


def test_class_attention_matches_the_chain_at_the_default_size():
    """The same comparison at the CLI default's size, 512 frames (B=32 of
    16 frames) of 16 patches of 192 values, width 64 and 2 heads, where
    the op's per-frame products and the chain's [N*P, F] products run
    different BLAS paths: the output and all seven gradients agree within
    1e-12 of their largest value, in float64."""
    (out, grads), (ref_out, ref_grads), _ = _class_attention_and_chain(
        rng_for(53, "class", "default"), 512, 16, 192, 64, 2, std=0.2)
    assert out.data.dtype == np.float64
    for got, want in zip([out.data] + grads, [ref_out.data] + ref_grads):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_class_attention_errors():
    rng = rng_for(51, "class")
    params = _params(52)
    args = [tl.constant(rng.standard_normal((2, 5, 6))),
            tl.tensor(rng.standard_normal((6, 8))),
            tl.tensor(rng.standard_normal((5, 8))),
            tl.tensor(rng.standard_normal(8)),
            params.wq, params.wk, params.wv, params.wo]

    def call(i=None, value=None, heads=2):
        a = list(args)
        if i is not None:
            a[i] = value
        return tl.class_attention(*a, heads=heads)

    assert call().shape == (2, 8)
    with pytest.raises(ContractError, match="constants"):
        call(0, tl.tensor(args[0].data, requires_grad=True))
    with pytest.raises(ShapeError):
        call(0, tl.constant(args[0].data[0]))         # raw not [N, P, F]
    with pytest.raises(ShapeError):
        call(1, tl.tensor(rng.standard_normal((7, 8))))  # F mismatch
    with pytest.raises(ShapeError):
        call(2, tl.tensor(rng.standard_normal((4, 8))))  # P mismatch
    with pytest.raises(ShapeError):
        call(3, tl.tensor(rng.standard_normal(6)))       # D mismatch
    with pytest.raises(ShapeError, match="heads"):
        call(heads=3)
