"""Test oracles shared by several test modules."""

import itertools
import math

import numpy as np

from taskfusion import bc, synth
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


def no_change_script_reference(rng, cfg):
    """The hand path [T, 2] and object rect of a no-change scene script,
    scripted as ``synth._make_script`` did before it rejected a candidate
    drift at its endpoints: every candidate's whole path is built and
    checked. ``rng`` is positioned after the backdrop; ``cfg.p_change``
    must be 0."""
    t, h, w = cfg.frames, cfg.height, cfg.width
    hand, obj_lo, obj_hi = synth._scene_sizes(w)
    side = max(4, int(rng.integers(obj_lo, obj_hi + 1)))
    margin = hand + 2
    ox = int(rng.integers(margin, w - side - margin + 1))
    oy = int(rng.integers(margin, h - side - margin + 1))
    obj = (ox, oy, side, side)
    if rng.random() < cfg.p_change:
        raise ValueError("the reference scripts no-change clips only")
    frac = np.arange(t) / (t - 1)
    for _ in range(100):
        sx = int(rng.integers(0, w - hand + 1))
        sy = int(rng.integers(0, h - hand + 1))
        ex = min(max(sx + int(rng.integers(-12, 13)), 0), w - hand)
        ey = min(max(sy + int(rng.integers(-12, 13)), 0), h - hand)
        start, end = np.array([sx, sy]), np.array([ex, ey])
        xy = np.round(start + (end - start) * frac[:, None])
        xy = np.minimum(np.maximum(xy, 0), (w - hand, h - hand)).astype(
            np.int16)
        if np.all(synth._rects_clear((*xy.T, hand, hand), obj, gap=2)):
            return xy, obj
    corner = (0, 0) if synth._rects_clear((0, 0, hand, hand), obj, 2) else (
        w - hand, h - hand)
    return np.tile(np.array(corner, dtype=np.int16), (t, 1)), obj


def env_step_reference(gripper, cube, action, cfg):
    """``ToyEnv.step``'s numpy 2-vector formula, as it was before the env
    worked on Python floats: the gripper and the cube after ``action``."""
    a = np.clip(np.asarray(action, dtype=np.float64),
                -cfg.max_step, cfg.max_step)
    g = np.clip(gripper + a, 0.0, 1.0)
    sep = cube - g
    dist = float(np.linalg.norm(sep))
    if dist < cfg.contact_radius:
        direction = sep / dist if dist > 0 else np.array([1.0, 0.0])
        cube = np.clip(g + direction * cfg.contact_radius, 0.0, 1.0)
    return g, cube


def expert_policy_reference(gripper, cube, target, cfg):
    """``bc.expert_policy``'s numpy 2-vector formula, as it was before it
    worked on Python floats."""
    to_target = target - cube
    d = float(np.linalg.norm(to_target))
    if d <= cfg.success_radius * 0.5:
        return np.zeros(2)
    push_dir = to_target / d
    behind = cube - push_dir * (cfg.contact_radius + 0.01)
    to_behind = behind - gripper
    d_behind = float(np.linalg.norm(to_behind))
    if d_behind > 0.015:
        step = to_behind / (d_behind + 1e-12) * min(cfg.max_step, d_behind)
        if np.linalg.norm(gripper + step - cube) < cfg.contact_radius + 0.005:
            radial = gripper - cube
            radial = radial / (np.linalg.norm(radial) + 1e-12)
            tangent = np.array([-radial[1], radial[0]])
            if np.dot(tangent, to_behind) < 0:
                tangent = -tangent
            step = tangent + radial * 0.3
            step = step / np.linalg.norm(step) * cfg.max_step
        return np.clip(step, -cfg.max_step, cfg.max_step)
    return np.clip(push_dir * min(cfg.max_step, d), -cfg.max_step,
                   cfg.max_step)


def env_render_reference(seed, state, cfg):
    """``ToyEnv.render``'s frame drawn whole, as it was before the scene
    layer: the seed's backdrop, the target's outline, cube, gripper."""
    background = synth.backdrop(np.random.Generator(np.random.PCG64(seed)),
                                cfg.image, cfg.image, cfg.noise)
    img = background.copy()
    n = cfg.image
    tx, ty = state.target
    x0, y0, w, h = synth.box_to_rect(
        (tx, ty, cfg.cube_size * 0.6, cfg.cube_size * 0.6), n, n)
    img[max(y0, 0):y0 + h, max(x0, 0):x0 + w] = bc.TARGET_COLOR
    ix, iy, iw, ih = x0 + 1, y0 + 1, max(w - 2, 0), max(h - 2, 0)
    img[max(iy, 0):iy + ih, max(ix, 0):ix + iw] = \
        background[max(iy, 0):iy + ih, max(ix, 0):ix + iw]
    cx, cy = state.cube
    synth.draw_rect(img, synth.box_to_rect(
        (cx, cy, cfg.cube_size, cfg.cube_size), n, n),
        synth.OBJECT_COLOR_AFTER)
    gx, gy = state.gripper
    synth.draw_rect(img, synth.box_to_rect(
        (gx, gy, cfg.gripper_size, cfg.gripper_size), n, n), synth.HAND_COLOR)
    return np.clip(img, 0.0, 1.0)
