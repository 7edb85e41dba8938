"""Test oracles shared by several test modules."""

import itertools
import math

import numpy as np

from taskfusion import tensor as tl


def brute_force_assign(costs) -> tuple[list[tuple[int, int]], float]:
    """Exhaustive minimum over all injections of the rows of ``costs``
    [g, q] into its columns: the (row, column) pairs and their total."""
    costs = np.asarray(costs, dtype=np.float64)
    g, q = costs.shape
    best_cost, best = math.inf, None
    for combo in itertools.permutations(range(q), g):
        c = float(sum(costs[r, col] for r, col in enumerate(combo)))
        if c < best_cost:
            best_cost, best = c, combo
    if best is None:
        return [], 0.0
    return list(enumerate(best)), best_cost


# The formulas the fused tensor ops used before they called numpy's ufunc
# reductions (np.add.reduce, np.maximum.reduce, then ``/ d``) directly:
# np.mean, np.max and np.sum, whose results those must equal bit for bit.


def softmax_reference(s: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax over the last axis."""
    e = np.exp(s - np.max(s, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def layer_norm_reference(x, gain, bias, dout, eps=1e-5):
    """``tensor.layer_norm``'s output and its input, gain and bias
    gradients for the output gradient ``dout``."""
    mu = np.mean(x, axis=-1, keepdims=True)
    var = np.mean((x - mu) ** 2, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    dxhat = dout * gain
    m1 = np.mean(dxhat, axis=-1, keepdims=True)
    m2 = np.mean(dxhat * xhat, axis=-1, keepdims=True)
    axes = tuple(range(dout.ndim - 1))
    return (xhat * gain + bias, inv * (dxhat - m1 - xhat * m2),
            np.sum(dout * xhat, axis=axes), np.sum(dout, axis=axes))


def attention_weights_reference(xq, xm, wq, wk, heads):
    """The weights [b, heads, nq, nk] of queries xq [b, nq, D] over memory
    xm [b, nk, D], from scores computed as ``tensor.attention`` does."""
    b, nq, d = xq.shape
    nk, dh = xm.shape[1], d // heads
    q = np.ascontiguousarray((xq.reshape(b * nq, d) @ wq).reshape(
        b, nq, heads, dh).transpose(0, 2, 1, 3))
    kt = np.ascontiguousarray((xm.reshape(b * nk, d) @ wk).reshape(
        b, nk, heads, dh).transpose(0, 2, 3, 1))
    return softmax_reference((q @ kt) * (1.0 / math.sqrt(dh)))


def class_attention_reference(raw, w_patch, rows, cls, wq, wk, wv, wo,
                              heads):
    """``tensor.class_attention``'s output [N, D], computed as that op
    computes it: its products read the raw patches [N, P, F] frame by
    frame."""
    n, p, f = raw.shape
    d = w_patch.shape[1]
    dh = d // heads
    c = 1.0 / math.sqrt(dh)
    c0 = cls.reshape(d)
    qh = (c0 @ wq).reshape(heads, dh)
    u = (wk.reshape(d, heads, dh) * qh).sum(axis=2) * c
    s = np.empty((n, heads, p + 1), dtype=raw.dtype)
    s[:, :, 0] = c0 @ u
    s[:, :, 1:] = (raw @ (w_patch @ u) + rows @ u).transpose(0, 2, 1)
    pr = softmax_reference(s)
    p0, pj = pr[:, :, 0], np.ascontiguousarray(pr[:, :, 1:])
    emb = ((pj @ raw).reshape(n * heads, f) @ w_patch
           + pj.reshape(n * heads, p) @ rows + p0.reshape(-1, 1) * c0)
    emb3 = emb.reshape(n, heads, d).transpose(1, 0, 2)
    wv3 = wv.reshape(d, heads, dh).transpose(1, 0, 2)
    o = (emb3 @ wv3).transpose(1, 0, 2).reshape(n, d)
    return o @ wo + c0


def mlp_reference(x, w1, b1, w2, b2):
    """The op chain ``tensor.mlp`` fuses, on tensors: two linear layers
    (``matmul`` then ``add``) around ``gelu`` for shared 2-D weights, and
    for stacked per-token weights each layer as ``permute``, a batched
    ``matmul``, ``permute`` and ``add``."""
    def layer(x, w, b):
        if w.data.ndim == 2:
            return tl.add(tl.matmul(x, w), b)
        y = tl.matmul(tl.permute(x, (1, 0, 2)), w)
        return tl.add(tl.permute(y, (1, 0, 2)), b)

    return layer(tl.gelu(layer(x, w1, b1)), w2, b2)


def iou_giou_values(a, b) -> tuple[np.ndarray, np.ndarray]:
    """IoU and generalized IoU of (cx, cy, w, h) boxes in float64 numpy;
    the [..., 4] operands broadcast against each other. IoU is clamped at
    1 and the hull at the union, so ``-1 <= giou <= iou <= 1`` holds
    exactly: ``losses.iou_giou`` must equal it bit for bit in float64."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a_lo, a_hi = a[..., :2] - a[..., 2:] / 2, a[..., :2] + a[..., 2:] / 2
    b_lo, b_hi = b[..., :2] - b[..., 2:] / 2, b[..., :2] + b[..., 2:] / 2
    overlap = np.maximum(0.0, np.minimum(a_hi, b_hi) - np.maximum(a_lo, b_lo))
    inter = overlap[..., 0] * overlap[..., 1]
    union = a[..., 2] * a[..., 3] + b[..., 2] * b[..., 3] - inter
    iou = np.minimum(inter / union, 1.0)
    hull_wh = np.maximum(a_hi, b_hi) - np.minimum(a_lo, b_lo)
    hull = np.maximum(hull_wh[..., 0] * hull_wh[..., 1], union)
    return iou, iou - (hull - union) / hull
