"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every tensor wraps a C-contiguous float64 numpy array. Operations on
tensors that require gradients record a node (op kind, inputs, backward
rule) onto the tensor they produce; ``backward`` collects the reachable
nodes in one walk and visits them newest first.

Broadcasting in the binary elementwise ops is deliberately restricted to
three cases: equal shapes; a size-1 operand whose broadcast leaves the
other operand's shape unchanged (a scalar onto a tensor); and an operand
whose shape is a trailing suffix of the other's (a ``[D]`` bias onto
``[..., D]`` rows, an ``[8, H]`` block onto ``[B, 8, H]``). A broadcast
operand's gradient is summed over the axes it was repeated along, so
every backward rule stays exact and obvious.

Three ops are fused blocks with hand-written backward rules, each one node
on the tape: ``softmax``, ``layer_norm`` and ``attention`` (node kind
``"attention"``: a whole multi-head attention block, from the q/k/v
projections to the output projection, computing gradients only for the
inputs that need them). The perfbench tape breakdown, whose list of kinds
predates it, counts ``"attention"`` nodes under ``other``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "GradCheckReport",
    "TensorError",
    "ShapeError",
    "DomainError",
    "ContractError",
    "tensor",
    "constant",
    "zeros",
    "ones",
    "randn",
    "add",
    "sub",
    "mul",
    "div",
    "scale",
    "relu",
    "gelu",
    "exp",
    "log",
    "sigmoid",
    "maximum",
    "minimum",
    "matmul",
    "bmm",
    "permute",
    "reshape",
    "concat",
    "narrow",
    "take0",
    "repeat0",
    "sum_all",
    "mean_all",
    "sum_axis",
    "mean_axis",
    "softmax",
    "layer_norm",
    "attention",
    "backward",
    "grad_check",
]


class TensorError(Exception):
    """Base class for tensor-library errors."""


class ShapeError(TensorError):
    """Operand shapes violate an op's preconditions."""


class DomainError(TensorError):
    """Operand values outside an op's numeric domain (e.g. log of <= 0)."""


class ContractError(TensorError):
    """An op was called in a state its contract forbids."""


_node_ids = itertools.count()


@dataclass
class Node:
    """Record of one executed op: kind, operands, and its backward rule.

    ``backward`` maps the output gradient to one gradient array per input
    (``None`` for inputs that do not require gradients).
    """

    op: str
    inputs: tuple["Tensor", ...]
    backward: Callable[[np.ndarray], tuple]
    nid: int


class Tensor:
    """A dense float64 array, optionally carrying a gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        # ascontiguousarray promotes 0-d to 1-d; keep scalars 0-d
        arr = np.ascontiguousarray(arr) if arr.ndim else arr.copy()
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.node: Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def constant(data) -> Tensor:
    return Tensor(data)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def randn(rng: np.random.Generator, shape, std: float = 1.0,
          requires_grad: bool = False) -> Tensor:
    return Tensor(rng.standard_normal(shape) * std, requires_grad=requires_grad)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _make(data: np.ndarray, op: str, inputs: tuple[Tensor, ...],
          backward_rule: Callable[[np.ndarray], tuple]) -> Tensor:
    out = Tensor(data)
    if any(t.requires_grad or t.node is not None for t in inputs):
        out.requires_grad = True
        out.node = Node(op=op, inputs=inputs, backward=backward_rule,
                        nid=next(_node_ids))
    return out


# ---------------------------------------------------------------------------
# elementwise ops


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape == b.shape:
        return
    for small, big in ((a, b), (b, a)):
        k = len(small.shape)
        if k <= len(big.shape) and (
                small.size == 1 or big.shape[len(big.shape) - k:] == small.shape):
            return
    raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} are neither equal, "
                     "scalar-with-tensor, nor a trailing-suffix broadcast")


def _reduce_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # Undo broadcasting: a size-1 operand receives the summed gradient, a
    # suffix operand the gradient summed over the leading axes.
    if grad.shape == shape:
        return grad
    if math.prod(shape) == 1:
        return np.sum(grad).reshape(shape)
    return np.sum(grad, axis=tuple(range(grad.ndim - len(shape))))


def _gelu_forward(x: np.ndarray) -> np.ndarray:
    # tanh approximation: 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3)))
    c = math.sqrt(2.0 / math.pi)
    u = c * (x + 0.044715 * x**3)
    return 0.5 * x * (1.0 + np.tanh(u))


def _gelu_grad(x: np.ndarray) -> np.ndarray:
    # Exact derivative of the tanh approximation above.
    c = math.sqrt(2.0 / math.pi)
    u = c * (x + 0.044715 * x**3)
    t = np.tanh(u)
    du = c * (1.0 + 3.0 * 0.044715 * x**2)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du


def _binary(kind: str, fwd, da_rule, db_rule):
    def op(a, b) -> Tensor:
        a, b = _as_tensor(a), _as_tensor(b)
        _check_broadcast(a, b, kind)
        data = fwd(a.data, b.data)

        def backward_rule(dout: np.ndarray):
            da = _reduce_to(da_rule(dout, a.data, b.data), a.shape) \
                if (a.requires_grad or a.node) else None
            db = _reduce_to(db_rule(dout, a.data, b.data), b.shape) \
                if (b.requires_grad or b.node) else None
            return da, db

        return _make(data, kind, (a, b), backward_rule)

    op.__name__ = kind
    return op


def _unary(kind: str, fwd, grad_rule, domain=None):
    def op(a) -> Tensor:
        a = _as_tensor(a)
        if domain is not None:
            domain(a.data)
        data = fwd(a.data)

        def backward_rule(dout: np.ndarray):
            return (dout * grad_rule(a.data, data),)

        return _make(data, kind, (a,), backward_rule)

    op.__name__ = kind
    return op


def _log_domain(x: np.ndarray) -> None:
    if np.any(x <= 0.0):
        raise DomainError("log: non-positive operand")


add = _binary("add", lambda a, b: a + b,
              lambda g, a, b: g, lambda g, a, b: g)
sub = _binary("sub", lambda a, b: a - b,
              lambda g, a, b: g, lambda g, a, b: -g)
mul = _binary("mul", lambda a, b: a * b,
              lambda g, a, b: g * b, lambda g, a, b: g * a)
div = _binary("div", lambda a, b: a / b,
              lambda g, a, b: g / b, lambda g, a, b: -g * a / (b * b))
maximum = _binary("maximum", np.maximum,
                  lambda g, a, b: g * (a >= b), lambda g, a, b: g * (a < b))
minimum = _binary("minimum", np.minimum,
                  lambda g, a, b: g * (a <= b), lambda g, a, b: g * (a > b))

relu = _unary("relu", lambda x: np.maximum(x, 0.0),
              lambda x, y: (x > 0.0).astype(np.float64))
gelu = _unary("gelu", _gelu_forward, lambda x, y: _gelu_grad(x))
exp = _unary("exp", np.exp, lambda x, y: y)
log = _unary("log", np.log, lambda x, y: 1.0 / x, domain=_log_domain)
sigmoid = _unary("sigmoid", lambda x: 1.0 / (1.0 + np.exp(-x)),
                 lambda x, y: y * (1.0 - y))


def scale(a, c: float) -> Tensor:
    """Multiply by a plain (non-differentiated) scalar constant."""
    a = _as_tensor(a)
    c = float(c)

    def backward_rule(dout: np.ndarray):
        return (dout * c,)

    return _make(a.data * c, "scale", (a,), backward_rule)


# ---------------------------------------------------------------------------
# structural / linear-algebra ops


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    data = a.data @ b.data

    def backward_rule(dout: np.ndarray):
        da = dout @ b.data.T if (a.requires_grad or a.node) else None
        db = a.data.T @ dout if (b.requires_grad or b.node) else None
        return da, db

    return _make(data, "matmul", (a, b), backward_rule)


def bmm(a, b) -> Tensor:
    """Batched matmul over the leading axis: [B,n,k] @ [B,k,m] -> [B,n,m]."""
    a, b = _as_tensor(a), _as_tensor(b)
    if (a.data.ndim != 3 or b.data.ndim != 3 or a.shape[0] != b.shape[0]
            or a.shape[2] != b.shape[1]):
        raise ShapeError(f"bmm: incompatible shapes {a.shape} and {b.shape}")
    data = a.data @ b.data

    def backward_rule(dout: np.ndarray):
        da = dout @ np.swapaxes(b.data, 1, 2) if (a.requires_grad or a.node) else None
        db = np.swapaxes(a.data, 1, 2) @ dout if (b.requires_grad or b.node) else None
        return da, db

    return _make(data, "bmm", (a, b), backward_rule)


def permute(a, axes: Sequence[int]) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise ShapeError(f"permute: axes {axes} invalid for shape {a.shape}")
    inv = np.argsort(axes)

    def backward_rule(dout: np.ndarray):
        return (np.ascontiguousarray(np.transpose(dout, inv)),)

    return _make(np.ascontiguousarray(np.transpose(a.data, axes)),
                 "permute", (a,), backward_rule)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    old_shape = a.shape

    def backward_rule(dout: np.ndarray):
        return (dout.reshape(old_shape),)

    try:
        data = a.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"reshape: {old_shape} -> {shape}: {e}") from None
    return _make(np.ascontiguousarray(data), "reshape", (a,), backward_rule)


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = tuple(_as_tensor(p) for p in parts)
    if not parts:
        raise ContractError("concat of zero tensors")
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward_rule(dout: np.ndarray):
        grads = []
        for p, start, stop in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad or p.node:
                idx = [slice(None)] * dout.ndim
                idx[axis] = slice(start, stop)
                grads.append(np.ascontiguousarray(dout[tuple(idx)]))
            else:
                grads.append(None)
        return tuple(grads)

    return _make(np.concatenate([p.data for p in parts], axis=axis),
                 "concat", parts, backward_rule)


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` entries along one axis."""
    a = _as_tensor(a)
    if not (0 <= start and start + length <= a.shape[axis]):
        raise ShapeError(f"narrow: [{start}:{start + length}] out of range for "
                         f"axis {axis} of shape {a.shape}")
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def backward_rule(dout: np.ndarray):
        g = np.zeros_like(a.data)
        g[idx] = dout
        return (g,)

    return _make(np.ascontiguousarray(a.data[idx]), "narrow", (a,), backward_rule)


def take0(a, indices) -> Tensor:
    """Gather rows ``a[indices]`` along the leading axis (scatter-add backward)."""
    a = _as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("take0: indices must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"take0: index out of range for shape {a.shape}")

    def backward_rule(dout: np.ndarray):
        g = np.zeros_like(a.data)
        np.add.at(g, idx, dout)
        return (g,)

    return _make(np.ascontiguousarray(a.data[idx]), "take0", (a,), backward_rule)


def repeat0(a, n: int) -> Tensor:
    """Tile a leading axis of size 1 to size ``n``."""
    a = _as_tensor(a)
    if a.shape[0] != 1:
        raise ShapeError(f"repeat0: leading axis must be 1, got {a.shape}")

    def backward_rule(dout: np.ndarray):
        return (np.sum(dout, axis=0, keepdims=True),)

    return _make(np.ascontiguousarray(np.repeat(a.data, n, axis=0)),
                 "repeat0", (a,), backward_rule)


def sum_all(a) -> Tensor:
    a = _as_tensor(a)

    def backward_rule(dout: np.ndarray):
        return (np.full_like(a.data, float(dout)),)

    return _make(np.asarray(np.sum(a.data)), "sum_all", (a,), backward_rule)


def mean_all(a) -> Tensor:
    a = _as_tensor(a)
    return scale(sum_all(a), 1.0 / a.size)


def sum_axis(a, axis: int, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)

    def backward_rule(dout: np.ndarray):
        g = dout if keepdims else np.expand_dims(dout, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(np.sum(a.data, axis=axis, keepdims=keepdims),
                 "sum_axis", (a,), backward_rule)


def mean_axis(a, axis: int, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    return scale(sum_axis(a, axis, keepdims), 1.0 / a.shape[axis])


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax (max-subtraction) along one axis."""
    a = _as_tensor(a)
    if not (-a.data.ndim <= axis < a.data.ndim):
        raise ShapeError(f"softmax: axis {axis} invalid for shape {a.shape}")
    shifted = a.data - np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / np.sum(e, axis=axis, keepdims=True)

    def backward_rule(dout: np.ndarray):
        inner = np.sum(dout * y, axis=axis, keepdims=True)
        return (y * (dout - inner),)

    return _make(y, "softmax", (a,), backward_rule)


def layer_norm(a, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    if eps <= 0:
        raise DomainError("layer_norm: eps must be > 0")
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias must be ({d},), got "
                         f"{gain.shape}/{bias.shape}")
    mu = np.mean(a.data, axis=-1, keepdims=True)
    var = np.mean((a.data - mu) ** 2, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (a.data - mu) * inv
    data = xhat * gain.data + bias.data

    def backward_rule(dout: np.ndarray):
        need_a = a.requires_grad or a.node
        da = None
        if need_a:
            dxhat = dout * gain.data
            m1 = np.mean(dxhat, axis=-1, keepdims=True)
            m2 = np.mean(dxhat * xhat, axis=-1, keepdims=True)
            da = inv * (dxhat - m1 - xhat * m2)
        axes = tuple(range(dout.ndim - 1))
        dg = np.sum(dout * xhat, axis=axes) if (gain.requires_grad or gain.node) else None
        db = np.sum(dout, axis=axes) if (bias.requires_grad or bias.node) else None
        return da, dg, db

    return _make(data, "layer_norm", (a, gain, bias), backward_rule)


def attention(queries, memory, wq, wk, wv, wo,
              heads: int) -> tuple[Tensor, np.ndarray]:
    """Multi-head scaled dot-product attention as one op.

    ``queries`` [..., nq, D] attend over ``memory`` [..., nk, D] with the
    same leading axes, or over themselves when ``memory`` is None. The op
    covers the q/k/v projections, the split into ``heads`` heads of width
    D/heads, the scaled scores, a max-subtracted softmax over the memory
    axis, weights @ v, the head merge and the output projection ``wo``.
    Returns the output [..., nq, D] and the weights [B, heads, nq, nk], B
    the product of the leading axes (1 for an unbatched [nq, D]). The
    weights array is the one the backward rule reads; copy it before
    writing to it.
    """
    queries = _as_tensor(queries)
    mem = queries if memory is None else _as_tensor(memory)
    ws = tuple(_as_tensor(w) for w in (wq, wk, wv, wo))
    if (queries.data.ndim < 2 or mem.data.ndim != queries.data.ndim
            or mem.shape[:-2] != queries.shape[:-2]):
        raise ShapeError(f"attention: queries {queries.shape} and memory "
                         f"{mem.shape} need equal leading axes")
    nq, d = queries.shape[-2:]
    nk = mem.shape[-2]
    if mem.shape[-1] != d or any(w.shape != (d, d) for w in ws):
        raise ShapeError(f"attention: width {d} needs [{d}, {d}] weights and "
                         f"memory, got {mem.shape} and "
                         f"{[w.shape for w in ws]}")
    if heads < 1 or d % heads:
        raise ShapeError(f"attention: width {d} not divisible by {heads} heads")
    b = queries.size // (nq * d)
    dh = d // heads
    c = 1.0 / math.sqrt(dh)
    xq = queries.data.reshape(b * nq, d)
    xm = mem.data.reshape(b * nk, d)

    # Every per-head operand is made contiguous before its batched matmul:
    # numpy then runs one plain gemm per (clip, head), faster than on
    # strided views, and with the operand layout of the unfused op chain.
    def split(y: np.ndarray, n: int) -> np.ndarray:
        # [b*n, D] -> [b, heads, n, dh]
        return np.ascontiguousarray(
            y.reshape(b, n, heads, dh).transpose(0, 2, 1, 3))

    def merge(y: np.ndarray, axes=(0, 2, 1, 3)) -> np.ndarray:
        # [b, heads, n, dh] (or another order, by axes) -> [b*n, D]
        return y.transpose(axes).reshape(-1, d)

    q = split(xq @ ws[0].data, nq)
    kt = np.ascontiguousarray(  # [b, heads, dh, nk]
        (xm @ ws[1].data).reshape(b, nk, heads, dh).transpose(0, 2, 3, 1))
    v = split(xm @ ws[2].data, nk)
    s = (q @ kt) * c
    e = np.exp(s - np.max(s, axis=-1, keepdims=True))
    p = e / np.sum(e, axis=-1, keepdims=True)  # [b, heads, nq, nk]
    o = merge(p @ v)
    data = (o @ ws[3].data).reshape(queries.shape)

    def needs(t: Tensor) -> bool:
        return t.requires_grad or t.node is not None

    inputs = (queries,) + ws if memory is None else (queries, mem) + ws
    need_x = needs(queries), needs(mem)
    need_w = tuple(needs(w) for w in ws)

    def backward_rule(dout: np.ndarray):
        g = dout.reshape(b * nq, d)
        dwo = o.T @ g if need_w[3] else None
        need_q = need_x[0] or need_w[0]
        need_kv = need_x[1] or need_w[1] or need_w[2]
        dq = dk = dv = dxq = dxm = None  # skipped where nothing needs them
        if need_q or need_kv:
            do = split(g @ ws[3].data.T, nq)
            dp = do @ v.swapaxes(2, 3)
            ds = p * (dp - np.sum(dp * p, axis=-1, keepdims=True)) * c
            if need_q:
                dq = merge(ds @ kt.swapaxes(2, 3))
            if need_kv:
                dk = merge(q.swapaxes(2, 3) @ ds, (0, 3, 1, 2))
                dv = merge(p.swapaxes(2, 3) @ do)
        if need_x[0]:
            dxq = (dq @ ws[0].data.T).reshape(queries.shape)
        if need_x[1]:
            dxm = (dk @ ws[1].data.T + dv @ ws[2].data.T).reshape(mem.shape)
        dws = (xq.T @ dq if need_w[0] else None,
               xm.T @ dk if need_w[1] else None,
               xm.T @ dv if need_w[2] else None, dwo)
        if memory is None:  # one input, read as both queries and memory
            return (None if dxq is None else dxq + dxm,) + dws
        return (dxq, dxm) + dws

    return _make(data, "attention", inputs, backward_rule), p


# ---------------------------------------------------------------------------
# reverse pass


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``grad`` of every requires_grad leaf."""
    if loss.data.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    # One walk collects each node's output tensor; node ids follow execution
    # order, so sorting them newest first visits every node after all of
    # its consumers.
    outputs: dict[int, Tensor] = {}
    stack = [loss]
    while stack:
        t = stack.pop()
        n = t.node
        if n is None or n.nid in outputs:
            continue
        outputs[n.nid] = t
        stack.extend(n.inputs)

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for nid in sorted(outputs, reverse=True):
        out = outputs[nid]
        dout = grads.pop(id(out), None)
        if dout is None:
            continue
        for inp, g in zip(out.node.inputs, out.node.backward(dout)):
            if g is None:
                continue
            if inp.node is None:
                if inp.requires_grad:
                    if inp.grad is None:
                        inp.grad = np.zeros_like(inp.data)
                    inp.grad += g
            else:
                key = id(inp)
                if key in grads:
                    grads[key] = grads[key] + g
                else:
                    grads[key] = g


# ---------------------------------------------------------------------------
# finite-difference verification


@dataclass
class GradCheckEntry:
    name: str
    max_rel_error: float
    passed: bool


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry]
    tol: float

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def max_rel_error(self) -> float:
        return max((e.max_rel_error for e in self.entries), default=0.0)

    def __str__(self) -> str:
        lines = [f"{'PASS' if e.passed else 'FAIL'}  {e.name}  "
                 f"max_rel_err={e.max_rel_error:.3e}" for e in self.entries]
        return "\n".join(lines)


def grad_check(f: Callable[..., Tensor], inputs: Sequence[Tensor],
               eps: float = 1e-5, tol: float = 1e-4,
               names: Sequence[str] | None = None) -> GradCheckReport:
    """Compare analytic gradients of ``f(*inputs)`` to central differences.

    ``f`` must be deterministic and return a scalar tensor. Relative error
    per element uses the max(|analytic|, |numeric|, 1e-8) denominator.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ContractError(f"grad_check: eps {eps} outside [1e-7, 1e-3]")
    if names is None:
        names = [f"input{i}" for i in range(len(inputs))]

    for t in inputs:
        t.grad = None
    loss = f(*inputs)
    backward(loss)

    entries = []
    for name, t in zip(names, inputs):
        if not t.requires_grad:
            continue
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad.copy()
        numeric = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        nflat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f(*inputs).item()
            flat[i] = orig - eps
            lo = f(*inputs).item()
            flat[i] = orig
            nflat[i] = (hi - lo) / (2.0 * eps)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        rel = float(np.max(np.abs(analytic - numeric) / denom)) if flat.size else 0.0
        entries.append(GradCheckEntry(name=name, max_rel_error=rel,
                                      passed=rel <= tol))
    return GradCheckReport(entries=entries, tol=tol)
