"""Dense float tensors with tape-based reverse-mode differentiation.

Every tensor wraps a C-contiguous numpy array of the compute dtype,
float64 by default. Operations on tensors that require gradients record a
node (op kind, inputs, backward rule) onto the tensor they produce;
``backward`` collects the reachable nodes in one walk and visits them
newest first, releasing each node's rule once visited: a graph serves
one backward, and what its rules hold is freed during it. A tensor has
a node only if it also has ``requires_grad`` set, so that one flag says
whether a backward rule computes an input's gradient: a leaf the caller
marked, or an op result on the tape.

The compute dtype is one module flag, float64 or float32, set for a block
by ``with precision(dtype):`` (or as ``@precision(dtype)`` for every call
of a function); it nests, and leaving the block restores it, also on an
exception. The public constructor (``Tensor``, ``tensor``, ``constant``,
and so plain numbers and arrays passed to an op) copies its input into a
fresh array of that dtype, so a tensor never aliases its caller's array.
An op keeps the array its numpy computation produced, without a copy or
a cast: on operands of the compute dtype that is the compute dtype, and
every backward rule keeps its gradients in its operands' dtype. A model
runs in the dtype it was built in (``trainer.TrainConfig.dtype``); the
finite-difference check ``grad_check`` takes float64 inputs only.

Broadcasting in the binary elementwise ops is deliberately restricted to
three cases: equal shapes; a size-1 operand whose broadcast leaves the
other operand's shape unchanged (a scalar onto a tensor); and an operand
whose shape is a trailing suffix of the other's (a ``[D]`` bias onto
``[..., D]`` rows, an ``[8, H]`` block onto ``[B, 8, H]``). A broadcast
operand's gradient is summed over the axes it was repeated along, so
every backward rule stays exact and obvious.

Five ops are fused blocks with hand-written backward rules, each one node
on the tape: ``softmax``, ``layer_norm``, ``attention`` (node kind
``"attention"``: a whole multi-head attention block, from the q/k/v
projections to the output projection, computing gradients only for the
inputs that need them; it checks its own inputs, so its callers, the
decoder's ``self_attention`` and ``cross_attention``, add no checks of
their own), ``class_attention`` (node kind
``"class_attention"``: the class rows of N frames from their raw patches,
a patch embedding plus an attention block whose one query is a shared
class token, with the key and value projections absorbed into it) and
``mlp`` (node kind ``"mlp"``: a two-layer GELU MLP, with one set of
weights for all rows or one per token, whose values and gradients are
those of the op chain it replaces, bit for bit, in fewer numpy calls).
One ``matmul`` op takes 2-D operands and batches of them, ``[B, n, k] @
[B, k, m]``, both as node kind ``"matmul"``.

The ops call numpy's ufunc reductions directly: ``np.add.reduce`` and
``np.maximum.reduce``, and a mean is that sum divided by the axis length.
``np.sum``, ``np.max`` and ``np.mean`` run these same loops behind a few
microseconds of Python argument handling per call, which a B=1 inference
pays on every op; the results are the same bits (the hypothesis tests
check the fused ops against the ``np.mean``/``np.max``/``np.sum``
formulas, in both dtypes). For the same reason the op checks read
``data.shape`` rather than the ``shape`` property, and ``permute`` builds
its inverse permutation in Python. Every softmax row max (``softmax``,
``attention``, ``class_attention`` and the losses' log-sum-exp) of 32
rows or more runs over a transposed copy of the scores, one elementwise
pass per column instead of numpy's row-by-row reduce of a 2 to 17 long
last axis (several times faster on the decoder's [32, 4, 10, 10]
self-attention scores). A max is
exact in any order, so every softmax output keeps its bits. Sums stay
``np.add.reduce`` over the last axis: a sum's bits depend on the order of
its additions, which differs over the transposed copy, and the tests pin
float64 digests of those bits.

Inside ``with no_tape():`` no op records a node, even on inputs that
require gradients: every result is a plain tensor with ``node`` None and
``requires_grad`` False, holding the same values as on the tape. The
inference entry points (``ModelBundle.predict``, ``evaluate``,
``Encoder.embed_frame``, ``Policy.act`` and the CLI's attention and
embedding dumps) run in it, so they keep no backward closures or
activations alive. The mode is one module flag; it nests, also when one
decorated function calls itself, and leaving the block restores it, also
on an exception.
"""

from __future__ import annotations

import itertools
import math
from contextlib import ContextDecorator
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
    "class_attention",
    "mlp",
    "backward",
    "no_tape",
    "precision",
    "compute_dtype",
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
_recording = True  # False inside no_tape(); read by _make
_dtype = np.dtype(np.float64)  # set by precision(); read by Tensor
# The compute dtypes by name and by numpy dtype (a lookup by dtype skips
# str(dtype), which costs more than entering precision).
_COMPUTE_DTYPES = {key: np.dtype(name) for name in ("float32", "float64")
                   for key in (name, np.dtype(name))}


@dataclass
class Node:
    """Record of one executed op: kind, operands, and its backward rule.

    ``backward`` maps the output gradient to one gradient array per input
    (``None`` for inputs that do not require gradients). The reverse pass
    sets it to None once it has visited the node, which frees the arrays
    the rule holds; ``op`` and ``inputs`` stay.
    """

    op: str
    inputs: tuple["Tensor", ...]
    backward: Callable[[np.ndarray], tuple] | None
    nid: int


class Tensor:
    """A dense array of the compute dtype, optionally carrying a gradient
    buffer. The constructor copies ``data``."""

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.array(data, dtype=_dtype, order="C")
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
    draws = rng.standard_normal(shape)
    draws *= std
    return Tensor(draws, requires_grad=requires_grad)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


class no_tape(ContextDecorator):
    """Record no tape nodes inside the block (see the module docstring);
    as ``@no_tape()``, inside every call of the decorated function. A
    class, as ``precision`` is: ``predict``, ``embed_frame`` and
    ``Policy.act`` enter it on every call, and a generator-based context
    manager costs about three times as much per entry."""

    def __init__(self):
        self._saved: list[bool] = []  # a stack: one instance may nest

    def __enter__(self):
        global _recording
        self._saved.append(_recording)
        _recording = False

    def __exit__(self, *exc):
        global _recording
        _recording = self._saved.pop()


def compute_dtype() -> np.dtype:
    """The dtype new tensors get (see ``precision``)."""
    return _dtype


class precision(ContextDecorator):
    """Make ``dtype`` ("float32" or "float64", or that numpy dtype) the
    compute dtype inside the block (see the module docstring); as
    ``@precision(dtype)``, inside every call of the decorated function.
    A class rather than a generator: encoders enter it once per frame
    they embed, and this costs half as much."""

    def __init__(self, dtype):
        self.dtype = _COMPUTE_DTYPES.get(dtype)
        if self.dtype is None:
            raise ContractError(f"compute dtype must be float32 or float64, "
                                f"got {dtype!r}")
        self._saved: list[np.dtype] = []  # a stack: one instance may nest

    def __enter__(self):
        global _dtype
        self._saved.append(_dtype)
        _dtype = self.dtype

    def __exit__(self, *exc):
        global _dtype
        _dtype = self._saved.pop()


def _make(data: np.ndarray, op: str, inputs: tuple[Tensor, ...],
          backward_rule: Callable[[np.ndarray], tuple]) -> Tensor:
    # Adopt the op's fresh result; ufuncs hand back 0-d results as numpy
    # scalars, which become 0-d arrays.
    out = Tensor.__new__(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data)
    out.requires_grad = False
    out.grad = None
    out.node = None
    if _recording and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.node = Node(op=op, inputs=inputs, backward=backward_rule,
                        nid=next(_node_ids))
    return out


# ---------------------------------------------------------------------------
# elementwise ops


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    sa, sb = a.data.shape, b.data.shape
    if sa == sb:
        return
    for small, big in ((sa, sb), (sb, sa)):
        k = len(small)
        if k <= len(big) and (
                math.prod(small) == 1 or big[len(big) - k:] == small):
            return
    raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} are neither equal, "
                     "scalar-with-tensor, nor a trailing-suffix broadcast")


def _reduce_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # Undo broadcasting: a size-1 operand receives the summed gradient, a
    # suffix operand the gradient summed over the leading axes.
    if grad.shape == shape:
        return grad
    if math.prod(shape) == 1:
        return np.add.reduce(grad, None).reshape(shape)
    return np.add.reduce(grad, tuple(range(grad.ndim - len(shape))))


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The tanh approximation 0.5*x*(1 + tanh(u)), u = sqrt(2/pi)*(x +
    # 0.044715*x^3), and its derivative are computed from tanh(u) and x*x;
    # ``mlp`` keeps them from its forward for its backward. The cube is
    # (x*x)*x, not x**3: numpy sends a cube through the C pow() per
    # element, about 70x slower (x**2 has its own fast path, x*x's bits).
    sq = x * x
    return np.tanh(_GELU_C * (x + 0.044715 * (sq * x))), sq


def _gelu_value(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + t)


def _gelu_grad(x: np.ndarray, t: np.ndarray, sq: np.ndarray) -> np.ndarray:
    # Exact derivative of the tanh approximation, from its parts.
    du = _GELU_C * (1.0 + 3.0 * 0.044715 * sq)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du


def _binary(kind: str, fwd, da_rule, db_rule):
    def op(a, b) -> Tensor:
        a, b = _as_tensor(a), _as_tensor(b)
        _check_broadcast(a, b, kind)
        data = fwd(a.data, b.data)

        def backward_rule(dout: np.ndarray):
            da = _reduce_to(da_rule(dout, a.data, b.data), a.data.shape) \
                if a.requires_grad else None
            db = _reduce_to(db_rule(dout, a.data, b.data), b.data.shape) \
                if b.requires_grad else None
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
              lambda x, y: (x > 0.0).astype(x.dtype))
gelu = _unary("gelu", lambda x: _gelu_value(x, _gelu_parts(x)[0]),
              lambda x, y: _gelu_grad(x, *_gelu_parts(x)))
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
    """[n, k] @ [k, m] -> [n, m], or batched over a leading axis:
    [B, n, k] @ [B, k, m] -> [B, n, m]."""
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb = a.data.shape, b.data.shape
    if not (len(sa) == len(sb) and len(sa) in (2, 3)
            and sa[:-2] == sb[:-2] and sa[-1] == sb[-2]):
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    data = a.data @ b.data

    def backward_rule(dout: np.ndarray):
        da = dout @ b.data.swapaxes(-1, -2) if a.requires_grad else None
        db = a.data.swapaxes(-1, -2) @ dout if b.requires_grad else None
        return da, db

    return _make(data, "matmul", (a, b), backward_rule)


def permute(a, axes: Sequence[int]) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    n = a.data.ndim
    if sorted(axes) != list(range(n)):
        raise ShapeError(f"permute: axes {axes} invalid for shape {a.shape}")
    inv = [0] * n  # the inverse permutation: inv[axes[i]] = i
    for i, ax in enumerate(axes):
        inv[ax] = i

    def backward_rule(dout: np.ndarray):
        return (np.ascontiguousarray(dout.transpose(inv)),)

    return _make(np.ascontiguousarray(a.data.transpose(axes)),
                 "permute", (a,), backward_rule)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    old_shape = a.data.shape

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

    def backward_rule(dout: np.ndarray):
        grads = []
        stop = 0
        for p in parts:
            start, stop = stop, stop + p.data.shape[axis]
            if p.requires_grad:
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
    if not (0 <= start and start + length <= a.data.shape[axis]):
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
    if idx.size and (np.minimum.reduce(idx) < 0
                     or np.maximum.reduce(idx) >= a.data.shape[0]):
        raise ShapeError(f"take0: index out of range for shape {a.shape}")

    def backward_rule(dout: np.ndarray):
        g = np.zeros_like(a.data)
        np.add.at(g, idx, dout)
        return (g,)

    return _make(np.ascontiguousarray(a.data[idx]), "take0", (a,), backward_rule)


def repeat0(a, n: int) -> Tensor:
    """Tile a leading axis of size 1 to size ``n``."""
    a = _as_tensor(a)
    if a.data.shape[0] != 1:
        raise ShapeError(f"repeat0: leading axis must be 1, got {a.shape}")

    def backward_rule(dout: np.ndarray):
        return (np.add.reduce(dout, 0, keepdims=True),)

    return _make(np.ascontiguousarray(a.data.repeat(n, 0)),
                 "repeat0", (a,), backward_rule)


def sum_all(a) -> Tensor:
    a = _as_tensor(a)

    def backward_rule(dout: np.ndarray):
        return (np.full_like(a.data, float(dout)),)

    return _make(np.asarray(np.add.reduce(a.data, None)), "sum_all", (a,),
                 backward_rule)


def mean_all(a) -> Tensor:
    a = _as_tensor(a)
    return scale(sum_all(a), 1.0 / a.size)


def sum_axis(a, axis: int, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)

    def backward_rule(dout: np.ndarray):
        g = dout if keepdims else np.expand_dims(dout, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _make(np.add.reduce(a.data, axis, keepdims=keepdims),
                 "sum_axis", (a,), backward_rule)


def mean_axis(a, axis: int, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    return scale(sum_axis(a, axis, keepdims), 1.0 / a.shape[axis])


def _row_max(s: np.ndarray) -> np.ndarray:
    """The max over the last axis, kept as a length-1 axis: the values of
    ``np.maximum.reduce(s, -1, keepdims=True)``. numpy reduces a short
    contiguous last axis row by row; from 32 rows on, one elementwise pass
    per column of a transposed copy is faster. Below that the copy's fixed
    cost (about 1 µs) exceeds the saving, and the rows go to numpy's own
    reduce: a B=1 inference's class-row softmax has 2. Only the sign of a
    zero max may differ between the two, as it follows the visiting order,
    and a softmax's exponentials of ``s - max`` never see it."""
    k = s.shape[-1]
    if s.size < 32 * k:
        return np.maximum.reduce(s, -1, keepdims=True)
    return np.maximum.reduce(s.reshape(-1, k).T.copy(), 0).reshape(
        s.shape[:-1] + (1,))


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax (max-subtraction) along one axis."""
    a = _as_tensor(a)
    if not (-a.data.ndim <= axis < a.data.ndim):
        raise ShapeError(f"softmax: axis {axis} invalid for shape {a.shape}")
    e = np.exp(a.data - np.swapaxes(
        _row_max(np.swapaxes(a.data, axis, -1)), axis, -1))
    y = e / np.add.reduce(e, axis, keepdims=True)

    def backward_rule(dout: np.ndarray):
        inner = np.add.reduce(dout * y, axis, keepdims=True)
        return (y * (dout - inner),)

    return _make(y, "softmax", (a,), backward_rule)


def layer_norm(a, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    if eps <= 0:
        raise DomainError("layer_norm: eps must be > 0")
    x = a.data
    d = x.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias must be ({d},), got "
                         f"{gain.shape}/{bias.shape}")
    xc = x - np.add.reduce(x, -1, keepdims=True) / d
    var = np.add.reduce(xc ** 2, -1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = xhat * gain.data + bias.data

    def backward_rule(dout: np.ndarray):
        da = None
        if a.requires_grad:
            dxhat = dout * gain.data
            m1 = np.add.reduce(dxhat, -1, keepdims=True) / d
            m2 = np.add.reduce(dxhat * xhat, -1, keepdims=True) / d
            da = inv * (dxhat - m1 - xhat * m2)
        axes = tuple(range(dout.ndim - 1))
        dg = np.add.reduce(dout * xhat, axes) if gain.requires_grad else None
        db = np.add.reduce(dout, axes) if bias.requires_grad else None
        return da, dg, db

    return _make(data, "layer_norm", (a, gain, bias), backward_rule)


def attention(queries, memory, wq, wk, wv, wo,
              heads: int) -> tuple[Tensor, np.ndarray]:
    """Multi-head scaled dot-product attention as one op.

    ``queries`` [nq, D] or [B, nq, D] attend over ``memory`` [nk, D] or
    [B, nk, D], or over themselves when ``memory`` is None. The op covers
    the q/k/v projections, the split into ``heads`` heads of width
    D/heads, the scaled scores, a max-subtracted softmax over the memory
    axis, weights @ v, the head merge and the output projection ``wo``.
    It checks its own inputs: an empty query set or memory is a
    ContractError, any other mismatch a ShapeError. Returns the output,
    shaped as the queries, and the weights [..., heads, nq, nk]: a
    read-only view of the array the backward rule reads.
    """
    queries = _as_tensor(queries)
    mem = queries if memory is None else _as_tensor(memory)
    ws = (_as_tensor(wq), _as_tensor(wk), _as_tensor(wv), _as_tensor(wo))
    sq, sm = queries.data.shape, mem.data.shape
    if len(sq) not in (2, 3) or len(sm) != len(sq) or sm[:-2] != sq[:-2]:
        raise ShapeError(f"attention: queries {sq} and memory {sm} need "
                         f"shapes [n, D] or [B, n, D] with equal B")
    nq, d = sq[-2:]
    nk = sm[-2]
    if nq < 1 or nk < 1:
        raise ContractError(f"attention: empty query set {sq} or memory {sm}")
    if sm[-1] != d or [w.data.shape for w in ws] != [(d, d)] * 4:
        raise ShapeError(f"attention: width {d} needs [{d}, {d}] weights and "
                         f"memory, got {sm} and {[w.shape for w in ws]}")
    if heads < 1 or d % heads:
        raise ShapeError(f"attention: width {d} not divisible by {heads} heads")
    b = queries.data.size // (nq * d)
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
    e = np.exp(s - _row_max(s))
    p = e / np.add.reduce(e, -1, keepdims=True)  # [b, heads, nq, nk]
    o = merge(p @ v)
    data = (o @ ws[3].data).reshape(sq)
    inputs = (queries,) + ws if memory is None else (queries, mem) + ws
    weights = p.reshape(sq[:-2] + p.shape[1:])
    weights.flags.writeable = False

    def backward_rule(dout: np.ndarray):
        need_x = queries.requires_grad, mem.requires_grad
        need_w = tuple(w.requires_grad for w in ws)
        g = dout.reshape(b * nq, d)
        dwo = o.T @ g if need_w[3] else None
        need_q = need_x[0] or need_w[0]
        need_kv = need_x[1] or need_w[1] or need_w[2]
        dq = dk = dv = dxq = dxm = None  # skipped where nothing needs them
        if need_q or need_kv:
            do = split(g @ ws[3].data.T, nq)
            dp = do @ v.swapaxes(2, 3)
            ds = p * (dp - np.add.reduce(dp * p, -1, keepdims=True)) * c
            if need_q:
                dq = merge(ds @ kt.swapaxes(2, 3))
            if need_kv:
                dk = merge(q.swapaxes(2, 3) @ ds, (0, 3, 1, 2))
                dv = merge(p.swapaxes(2, 3) @ do)
        if need_x[0]:
            dxq = (dq @ ws[0].data.T).reshape(sq)
        if need_x[1]:
            dxm = (dk @ ws[1].data.T + dv @ ws[2].data.T).reshape(sm)
        dws = (xq.T @ dq if need_w[0] else None,
               xm.T @ dk if need_w[1] else None,
               xm.T @ dv if need_w[2] else None, dwo)
        if memory is None:  # one input, read as both queries and memory
            return (None if dxq is None else dxq + dxm,) + dws
        return (dxq, dxm) + dws

    return _make(data, "attention", inputs, backward_rule), weights


def class_attention(raw, w_patch, rows, cls, wq, wk, wv, wo,
                    heads: int) -> Tensor:
    """The class rows [N, D] of N frames, from their raw patches, as one op.

    A frame's tokens are the class token ``cls`` (D values, any shape) and
    its P patch embeddings ``raw_j @ w_patch + rows_j``: ``raw`` [N, P, F]
    holds each frame's raw patch rows, ``rows`` [P, D] the bias plus
    position rows. The class token is the only query. The op returns
    ``cls + attention(cls over the frame's 1+P tokens)``, the multi-head
    attention of ``attention`` with the residual added, for every frame.

    With one query shared by every frame, the key and value projections
    fold into the query side (weight absorption, as in the MLA attention
    of DeepSeek-V2, arXiv 2405.04434). With ``u_h = wk_h q_h / sqrt(d_h)``
    and ``q = cls @ wq``, patch j scores ``raw_j · (w_patch u_h) + rows_j ·
    u_h``, and head h outputs ``((Σ_j p_hj raw_j) w_patch + Σ_j p_hj rows_j
    + p_h0 cls) wv_h``. So no patch is ever embedded. ``raw`` is a
    constant: the op keeps a reference to it for its backward rule, and
    no gradient flows into it.

    Every product reads the raw patches frame by frame, as [N, P, F]: the
    scores ``raw @ (w_patch u)``, the token mix ``p @ raw`` and, in the
    backward rule, the absorbed-key gradient ``Σ_n raw[n]ᵀ ds[n]``, never
    one skinny [N·P, F] @ [F, heads] product over every patch, which at
    the CLI default (N=512, F=192) is the slower BLAS path.
    """
    raw = _as_tensor(raw)
    w_patch, rows, cls = _as_tensor(w_patch), _as_tensor(rows), _as_tensor(cls)
    ws = tuple(_as_tensor(w) for w in (wq, wk, wv, wo))
    if raw.requires_grad:
        raise ContractError("class_attention: raw patch rows are constants")
    if raw.data.ndim != 3 or w_patch.data.ndim != 2:
        raise ShapeError(f"class_attention: raw {raw.shape} is not [N, P, F] "
                         f"or w_patch {w_patch.shape} is not [F, D]")
    n, p, f = raw.shape
    d = w_patch.shape[1]
    if (w_patch.shape[0] != f or rows.shape != (p, d) or cls.size != d
            or any(w.shape != (d, d) for w in ws)):
        raise ShapeError(f"class_attention: raw {raw.shape} needs w_patch "
                         f"[{f}, D], rows [{p}, D], D class values and "
                         f"[D, D] weights, got {w_patch.shape}, {rows.shape}, "
                         f"{cls.shape} and {[w.shape for w in ws]}")
    if heads < 1 or d % heads:
        raise ShapeError(f"class_attention: width {d} not divisible by "
                         f"{heads} heads")
    dh = d // heads
    c = 1.0 / math.sqrt(dh)
    x = raw.data  # [N, P, F], read frame by frame
    wp, rw, c0 = w_patch.data, rows.data, cls.data.reshape(d)
    wk3 = ws[1].data.reshape(d, heads, dh)
    # [heads, D, dh]: head h's value projection
    wv3 = ws[2].data.reshape(d, heads, dh).transpose(1, 0, 2)

    qh = (c0 @ ws[0].data).reshape(heads, dh)
    u = np.add.reduce(wk3 * qh, 2) * c  # [D, heads]: the absorbed keys
    s = np.empty((n, heads, p + 1), dtype=x.dtype)
    s[:, :, 0] = c0 @ u
    s[:, :, 1:] = (x @ (wp @ u) + rw @ u).transpose(0, 2, 1)
    e = np.exp(s - _row_max(s))
    pr = e / np.add.reduce(e, -1, keepdims=True)  # [N, heads, 1+P]
    p0, pj = pr[:, :, 0], np.ascontiguousarray(pr[:, :, 1:])
    m = (pj @ x).reshape(n * heads, f)  # Σ_j p_hj raw_j
    # Σ over the tokens of p_hj times token j's embedding, per head
    emb = m @ wp + pj.reshape(n * heads, p) @ rw + p0.reshape(-1, 1) * c0
    emb3 = emb.reshape(n, heads, d).transpose(1, 0, 2)  # [heads, N, D]
    o = (emb3 @ wv3).transpose(1, 0, 2).reshape(n, d)
    data = o @ ws[3].data + c0

    inputs = (raw, w_patch, rows, cls) + ws

    def backward_rule(dout: np.ndarray):
        g = dout.reshape(n, d)
        do3 = (g @ ws[3].data.T).reshape(n, heads, dh).transpose(1, 0, 2)
        # [N*heads, D]: the gradient of each head's token mix emb
        demb = (do3 @ wv3.transpose(0, 2, 1)).transpose(1, 0, 2).reshape(
            n * heads, d)
        dpj = (demb @ rw.T).reshape(n, heads, p) + (
            (demb @ wp.T).reshape(n, heads, f) @ x.transpose(0, 2, 1))
        dp = np.empty_like(pr)
        dp[:, :, 0] = (demb @ c0).reshape(n, heads)
        dp[:, :, 1:] = dpj
        ds = pr * (dp - np.add.reduce(dp * pr, -1, keepdims=True))
        ds0 = np.add.reduce(ds[:, :, 0], 0)  # [heads]
        dsj = np.ascontiguousarray(ds[:, :, 1:].transpose(0, 2, 1))
        da = np.add.reduce(x.transpose(0, 2, 1) @ dsj, 0)  # [F, heads]
        dr = np.add.reduce(dsj, 0)  # [P, heads]
        du = wp.T @ da + rw.T @ dr + np.outer(c0, ds0)
        dqh = np.add.reduce(du[:, :, None] * wk3, 0) * c  # [heads, dh]
        dq = dqh.reshape(d)
        dcls = (np.add.reduce(g, 0) + p0.reshape(-1) @ demb + u @ ds0
                + ws[0].data @ dq)
        grads = (None,
                 m.T @ demb + da @ u.T,
                 pj.reshape(n * heads, p).T @ demb + dr @ u.T,
                 dcls.reshape(cls.shape),
                 np.outer(c0, dq),
                 (du[:, :, None] * qh * c).reshape(d, d),
                 (emb3.transpose(0, 2, 1) @ do3).transpose(1, 0, 2).reshape(
                     d, d),
                 o.T @ g)
        return tuple(gr if t.requires_grad else None
                     for gr, t in zip(grads, inputs))

    return _make(data, "class_attention", inputs, backward_rule)


def mlp(x, w1, b1, w2, b2) -> Tensor:
    """``gelu(x @ w1 + b1) @ w2 + b2`` as one op.

    Shared weights apply one MLP to every row: ``x`` [N, D], ``w1`` [D, H],
    ``b1`` [H], ``w2`` [H, O], ``b2`` [O]. Stacked weights give each of G
    tokens its own MLP: ``x`` [B, G, D], ``w1`` [G, D, H], ``b1`` [G, H],
    ``w2`` [G, H, O], ``b2`` [G, O]; the matmuls run per token over
    contiguous [G, B, .] copies of their operands. The op evaluates the
    expressions of ``add(matmul(x, w1), b1)``, ``gelu`` and the second
    linear layer (``permute``/``matmul``/``permute`` per stacked layer) in
    their order, so its output and gradients are theirs bit for bit; the
    backward rule reuses the forward's GELU intermediates and computes
    gradients only for the inputs that need them.
    """
    x, w1, b1, w2, b2 = (_as_tensor(a) for a in (x, w1, b1, w2, b2))
    sx, s1, s2 = x.data.shape, w1.data.shape, w2.data.shape
    stacked = len(s1) == 3
    g = s1[:1] if stacked else ()  # the token axis of stacked weights
    if not (len(s1) in (2, 3) and len(sx) == len(s1)
            and sx[1:-1] == g and sx[-1] == s1[-2]
            and s2[:-1] == g + s1[-1:] and b1.data.shape == g + s1[-1:]
            and b2.data.shape == g + s2[-1:]):
        raise ShapeError(f"mlp: x {sx} needs [N, D] rows with w1 [D, H], b1 "
                         f"[H], w2 [H, O], b2 [O], or [B, G, D] with w1 "
                         f"[G, D, H], b1 [G, H], w2 [G, H, O], b2 [G, O]; got "
                         f"{w1.shape}, {b1.shape}, {w2.shape}, {b2.shape}")

    if stacked:
        def swap(a: np.ndarray) -> np.ndarray:  # [B, G, .] <-> [G, B, .]
            return np.ascontiguousarray(a.transpose(1, 0, 2))

        def tr(a: np.ndarray) -> np.ndarray:
            return np.swapaxes(a, 1, 2)
    else:
        def swap(a: np.ndarray) -> np.ndarray:
            return a

        def tr(a: np.ndarray) -> np.ndarray:
            return a.T

    xs = swap(x.data)
    z = swap(xs @ w1.data) + b1.data
    th, sq = _gelu_parts(z)  # kept for the backward rule
    hid = _gelu_value(z, th)
    hs = swap(hid)
    data = swap(hs @ w2.data) + b2.data
    inputs = (x, w1, b1, w2, b2)

    def backward_rule(dout: np.ndarray):
        need = [a.requires_grad for a in inputs]
        dx = dw1 = db1 = None
        dy = swap(dout)
        dw2 = tr(hs) @ dy if need[3] else None
        db2 = _reduce_to(dout, b2.data.shape) if need[4] else None
        if need[0] or need[1] or need[2]:
            dz = swap(dy @ tr(w2.data)) * _gelu_grad(z, th, sq)
            dzs = swap(dz)
            if need[0]:
                dx = swap(dzs @ tr(w1.data))
            if need[1]:
                dw1 = tr(xs) @ dzs
            if need[2]:
                db1 = _reduce_to(dz, b1.data.shape)
        return dx, dw1, db1, dw2, db2

    return _make(data, "mlp", inputs, backward_rule)


# ---------------------------------------------------------------------------
# reverse pass


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``grad`` of every requires_grad leaf.

    A leaf whose ``grad`` is None gets a copy of its first contribution,
    in its own dtype; later contributions add to it in place.

    A graph serves one backward. Each node's rule is released (set to
    None) as soon as the walk has visited the node, whether the rule ran
    or no gradient reached it, so the arrays the rules hold go during the
    walk; a node keeps its ``op`` and ``inputs``. A later backward over a
    graph that reaches a released node raises ``ContractError`` naming
    its op, before it changes any gradient. An evaluation that never
    needs a backward runs under ``no_tape`` and records no graph at all.
    """
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
        if n.backward is None:
            raise ContractError(f"backward: the graph reaches a {n.op!r} node "
                                f"that an earlier backward already released; "
                                f"a graph serves one backward")
        outputs[n.nid] = t
        stack.extend(n.inputs)

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for nid in sorted(outputs, reverse=True):
        out = outputs[nid]
        rule, out.node.backward = out.node.backward, None
        dout = grads.pop(id(out), None)
        if dout is None:
            continue
        for inp, g in zip(out.node.inputs, rule(dout)):
            if g is None:
                continue
            if inp.node is None:
                if inp.requires_grad:
                    if inp.grad is None:  # a copy: rules may share g
                        inp.grad = np.array(g, dtype=inp.data.dtype)
                    else:
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
class GradCheckReport:
    """Each checked input's max relative error, by name, and the tolerance
    every one of them must stay within."""

    errors: dict[str, float]
    tol: float

    @property
    def passed(self) -> bool:
        return all(e <= self.tol for e in self.errors.values())

    @property
    def max_rel_error(self) -> float:
        return max(self.errors.values(), default=0.0)

    def __str__(self) -> str:
        return "\n".join(f"{'PASS' if e <= self.tol else 'FAIL'}  {name}  "
                         f"max_rel_err={e:.3e}"
                         for name, e in self.errors.items())


def grad_check(f: Callable[..., Tensor], inputs: Sequence[Tensor],
               eps: float = 1e-5, tol: float = 1e-4,
               names: Sequence[str] | None = None) -> GradCheckReport:
    """Compare analytic gradients of ``f(*inputs)`` to central differences.

    ``f`` must be deterministic and return a scalar tensor. The report
    holds each input's largest relative error per element, by name, with
    the max(|analytic|, |numeric|, 1e-8) denominator.
    Every input must be float64: float32 rounding (about 6e-8 of each
    value) divided by the ``2 * eps`` step would swamp the tolerance.
    The analytic pass records a graph and runs its one backward; the
    central-difference evaluations run under ``no_tape`` and record none.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ContractError(f"grad_check: eps {eps} outside [1e-7, 1e-3]")
    if not (np.isfinite(tol) and tol > 0):
        raise ContractError(f"grad_check: tol must be finite and > 0, got "
                            f"{tol}")
    for t in inputs:
        if t.data.dtype != np.float64:
            raise ContractError(f"grad_check: inputs must be float64, got "
                                f"{t.data.dtype}")
    if names is None:
        names = [f"input{i}" for i in range(len(inputs))]

    for t in inputs:
        t.grad = None
    loss = f(*inputs)
    backward(loss)

    errors = {}
    for name, t in zip(names, inputs):
        if not t.requires_grad:
            continue
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad.copy()
        numeric = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        nflat = numeric.reshape(-1)
        with no_tape():
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi = f(*inputs).item()
                flat[i] = orig - eps
                lo = f(*inputs).item()
                flat[i] = orig
                nflat[i] = (hi - lo) / (2.0 * eps)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        errors[name] = (float(np.max(np.abs(analytic - numeric) / denom))
                        if flat.size else 0.0)
    return GradCheckReport(errors, tol)
