"""Minimal reverse-mode automatic differentiation over numpy arrays.

A dynamic graph is rebuilt for every forward pass: each op output records
its parent tensors and a closure that propagates the incoming gradient to
them. ``backward`` on a scalar walks the graph once in reverse topological
order. Gradients accumulate (+=) into leaves until ``zero_grads`` is
called, which is what batch-level gradient accumulation relies on.

Non-finite detection: every op that can turn finite inputs into NaN or
infinity (the arithmetic ops, log, and the reductions) checks its output
and raises. Ops whose outputs are finite whenever their inputs are finite
(activations, shape ops, clip, max) skip the runtime check; together the
two groups guarantee all tensors stay finite.

Only the operations the network needs are implemented; there is no
general broadcasting machinery beyond numpy's, and no GPU path.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import GraphError, NonFiniteError, ShapeMismatch

__all__ = [
    "Tensor",
    "backward",
    "concat",
    "grad_enabled",
    "leaky_relu",
    "lstm_sequence",
    "matmul",
    "no_grad",
    "take_rows",
    "transpose",
    "zero_grads",
]

_grad_enabled = True


def grad_enabled() -> bool:
    return _grad_enabled


@contextlib.contextmanager
def no_grad():
    """Disable graph construction; forward values are unaffected."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _as_float_array(data) -> np.ndarray:
    arr = np.asarray(data)
    if arr.dtype.kind != "f":
        arr = arr.astype(np.float32)
    return arr


def _check_finite(data: np.ndarray, op: str) -> None:
    # A float sum is non-finite iff some element is, as long as the finite
    # values cannot overflow the accumulator; everything flowing through
    # this engine is magnitude-bounded (features, activations, clipped
    # gradients), so the cheap reduction is a sound detector.
    if not np.isfinite(data.sum()):
        raise NonFiniteError(f"non-finite values produced by '{op}'")


class Tensor:
    """An n-d float array with an optional gradient slot.

    Leaves are created with ``requires_grad=True``; op outputs carry the
    backward closure. ``data`` must stay finite; creation checks.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_float_array(data)
        _check_finite(self.data, "tensor")
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.item())

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{flag})"

    # -- operator sugar ------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return _getitem(self, key)

    @property
    def T(self) -> "Tensor":
        return transpose(self)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_max(self, axis=axis, keepdims=keepdims)

    def tanh(self) -> "Tensor":
        return tanh(self)

    def sigmoid(self) -> "Tensor":
        return sigmoid(self)

    def log(self) -> "Tensor":
        return log(self)

    def clip(self, lo: float, hi: float) -> "Tensor":
        return clip(self, lo, hi)

    def backward(self) -> None:
        backward(self)


# -- graph plumbing ----------------------------------------------------


def _raw(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    if backward_fn is not None:
        out._parents = parents
        out._backward = backward_fn
    else:
        out._parents = ()
        out._backward = None
    return out


def _make(data: np.ndarray, op: str, parents: tuple, backward_fn) -> Tensor:
    _check_finite(data, op)
    return _raw(data, parents, backward_fn)


def _coerce(x, like=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if isinstance(like, Tensor) and isinstance(x, (int, float)):
        # a Python number takes the other operand's dtype, as numpy's weak
        # scalars do, so ``1.0 - y`` keeps a float32 ``y`` in float32
        return Tensor(np.asarray(x, dtype=like.dtype))
    return Tensor(x)


def _tracked(t: Tensor) -> bool:
    return t.requires_grad or t._backward is not None


def _track_any(*ts: Tensor) -> bool:
    if not _grad_enabled:
        return False
    return any(_tracked(t) for t in ts)


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


def zero_grads(tensors: Iterable[Tensor]) -> None:
    """Drop accumulated gradients on the given tensors."""
    for t in tensors:
        t.grad = None


def backward(loss: Tensor) -> None:
    """Populate gradients of everything the scalar ``loss`` depends on.

    Visits each graph node exactly once, in reverse topological order.
    Leaf gradients accumulate across calls; interior gradients live only
    as long as the graph itself.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.shape}")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape``, undoing numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- elementwise binary ops --------------------------------------------


def _binary(op: str, fn, a, b, grad_a, grad_b) -> Tensor:
    """``fn(a, b)`` with numpy broadcasting; ``grad_a(g, a, b, out)`` and
    ``grad_b`` give each operand's gradient before unbroadcasting."""
    a, b = _coerce(a, like=b), _coerce(b, like=a)
    try:
        data = fn(a.data, b.data)
    except ValueError:
        raise ShapeMismatch(f"{op}: cannot broadcast {a.shape} with {b.shape}") from None
    if not _track_any(a, b):
        return _make(data, op, (), None)

    def backward_fn(g):
        if _tracked(a):
            _accum(a, _unbroadcast(grad_a(g, a.data, b.data, data), a.data.shape))
        if _tracked(b):
            _accum(b, _unbroadcast(grad_b(g, a.data, b.data, data), b.data.shape))

    return _make(data, op, (a, b), backward_fn)


def add(a, b) -> Tensor:
    return _binary("add", np.add, a, b, lambda g, x, y, out: g, lambda g, x, y, out: g)


def sub(a, b) -> Tensor:
    return _binary("sub", np.subtract, a, b, lambda g, x, y, out: g, lambda g, x, y, out: -g)


def mul(a, b) -> Tensor:
    return _binary(
        "mul", np.multiply, a, b, lambda g, x, y, out: g * y, lambda g, x, y, out: g * x
    )


def div(a, b) -> Tensor:
    return _binary(
        "div", np.divide, a, b, lambda g, x, y, out: g / y, lambda g, x, y, out: -g * out / y
    )


# -- matmul -------------------------------------------------------------


def matmul(a, b) -> Tensor:
    """Matrix product for 1-D and 2-D operands, numpy semantics."""
    a, b = _coerce(a), _coerce(b)
    if a.ndim not in (1, 2) or b.ndim not in (1, 2):
        raise ShapeMismatch(f"matmul supports 1-D/2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeMismatch(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    data = a.data @ b.data
    if not _track_any(a, b):
        return _make(data, "matmul", (), None)

    def backward_fn(g):
        track_a = _tracked(a)
        track_b = _tracked(b)
        if a.ndim == 2 and b.ndim == 2:
            if track_a:
                _accum(a, g @ b.data.T)
            if track_b:
                _accum(b, a.data.T @ g)
        elif a.ndim == 1 and b.ndim == 2:
            if track_a:
                _accum(a, b.data @ g)
            if track_b:
                _accum(b, np.outer(a.data, g))
        elif a.ndim == 2 and b.ndim == 1:
            if track_a:
                _accum(a, np.outer(g, b.data))
            if track_b:
                _accum(b, a.data.T @ g)
        else:  # 1-D dot 1-D
            if track_a:
                _accum(a, g * b.data)
            if track_b:
                _accum(b, g * a.data)

    return _make(data, "matmul", (a, b), backward_fn)


# -- activations and pointwise functions --------------------------------
# (bounded outputs: no finite check needed)


def tanh(x: Tensor) -> Tensor:
    data = np.tanh(x.data)
    if not _track_any(x):
        return _raw(data, (), None)

    def backward_fn(g):
        _accum(x, g * (1.0 - data * data))

    return _raw(data, (x,), backward_fn)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-x) overflowing to inf yields exactly 0.0, the correct limit,
    # so only the warning needs suppressing; no NaN can appear for
    # finite x
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def sigmoid(x: Tensor) -> Tensor:
    data = _stable_sigmoid(x.data)
    if not _track_any(x):
        return _raw(data, (), None)

    def backward_fn(g):
        _accum(x, g * data * (1.0 - data))

    return _raw(data, (x,), backward_fn)


def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    data = np.where(x.data > 0, x.data, slope * x.data)
    if not _track_any(x):
        return _raw(data, (), None)

    def backward_fn(g):
        _accum(x, g * np.where(x.data > 0, 1.0, slope).astype(x.data.dtype))

    return _raw(data, (x,), backward_fn)


def log(x: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(x.data)
    if not _track_any(x):
        return _make(data, "log", (), None)

    def backward_fn(g):
        _accum(x, g / x.data)

    return _make(data, "log", (x,), backward_fn)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes only inside the range."""
    data = np.clip(x.data, lo, hi)
    if not _track_any(x):
        return _raw(data, (), None)

    def backward_fn(g):
        mask = (x.data >= lo) & (x.data <= hi)
        _accum(x, g * mask.astype(x.data.dtype))

    return _raw(data, (x,), backward_fn)


# -- LSTM sequence --------------------------------------------------------


def lstm_sequence(xproj: Tensor, w_h: Tensor) -> Tensor:
    """An LSTM run over a whole sequence from a zero state; returns the
    (T, H) hidden states.

    ``xproj`` is (T, 4H), each frame's input projection plus bias, packed
    [input, forget, candidate, output]; ``w_h`` is (H, 4H). The candidate
    uses tanh, the other gates sigmoid. One node covers the whole time
    loop: the forward keeps the gate activations and cell states only
    when a graph is being built, and the backward is a single BPTT loop
    whose recurrent-weight gradient is one GEMM after it. A backward
    direction is ``lstm_sequence(x[::-1], w_h)[::-1]``. All outputs are
    bounded, so no finite check is needed.
    """
    h_dim = w_h.shape[0]
    if xproj.ndim != 2 or w_h.shape != (h_dim, 4 * h_dim) or xproj.shape[1] != 4 * h_dim:
        raise ShapeMismatch(f"lstm_sequence: xproj {xproj.shape} does not fit w_h {w_h.shape}")
    t_len = xproj.shape[0]
    w = w_h.data
    dtype = np.result_type(xproj.data, w)
    keep = _track_any(xproj, w_h)
    hs = np.empty((t_len, h_dim), dtype)
    if keep:
        acts = np.empty((t_len, 4 * h_dim), dtype)  # the gates after their activations
        cs = np.zeros((t_len + 1, h_dim), dtype)  # cs[t] is the cell state before frame t
        tcs = np.empty((t_len, h_dim), dtype)
    h = np.zeros(h_dim, dtype)
    c = np.zeros(h_dim, dtype)
    for t in range(t_len):
        z = xproj.data[t] + h @ w
        a = _stable_sigmoid(z)
        a[2 * h_dim : 3 * h_dim] = np.tanh(z[2 * h_dim : 3 * h_dim])
        c = a[h_dim : 2 * h_dim] * c + a[0:h_dim] * a[2 * h_dim : 3 * h_dim]
        tc = np.tanh(c)
        h = a[3 * h_dim :] * tc
        hs[t] = h
        if keep:
            acts[t] = a
            cs[t + 1] = c
            tcs[t] = tc
    if not keep:
        return _raw(hs, (), None)

    def backward_fn(grad):
        dz = np.empty_like(acts)
        dh_next = np.zeros(h_dim, dtype)
        dc_next = np.zeros(h_dim, dtype)
        for t in range(t_len - 1, -1, -1):
            i = acts[t, 0:h_dim]
            f = acts[t, h_dim : 2 * h_dim]
            g_cand = acts[t, 2 * h_dim : 3 * h_dim]
            o = acts[t, 3 * h_dim :]
            tc = tcs[t]
            dh = grad[t] + dh_next
            dc = dc_next + dh * o * (1.0 - tc * tc)
            dz[t, 0:h_dim] = dc * g_cand * i * (1.0 - i)
            dz[t, h_dim : 2 * h_dim] = dc * cs[t] * f * (1.0 - f)
            dz[t, 2 * h_dim : 3 * h_dim] = dc * i * (1.0 - g_cand * g_cand)
            dz[t, 3 * h_dim :] = dh * tc * o * (1.0 - o)
            dc_next = dc * f
            dh_next = w @ dz[t]
        if _tracked(xproj):
            _accum(xproj, dz)
        if _tracked(w_h):
            _accum(w_h, hs[:-1].T @ dz[1:])

    return _raw(hs, (xproj, w_h), backward_fn)


# -- reductions ----------------------------------------------------------


def _expand_reduced(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, shape)
    if not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def tensor_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = x.data.sum(axis=axis, keepdims=keepdims)
    if not _track_any(x):
        return _make(data, "sum", (), None)

    def backward_fn(g):
        _accum(x, _expand_reduced(g, x.data.shape, axis, keepdims))

    return _make(data, "sum", (x,), backward_fn)


def tensor_mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = x.data.mean(axis=axis, keepdims=keepdims)
    count = x.data.size if axis is None else x.data.shape[axis]
    if not _track_any(x):
        return _make(data, "mean", (), None)

    def backward_fn(g):
        _accum(x, _expand_reduced(g / count, x.data.shape, axis, keepdims))

    return _make(data, "mean", (x,), backward_fn)


def tensor_max(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Max reduction; the gradient routes to the first maximal element."""
    data = x.data.max(axis=axis, keepdims=keepdims)
    if not _track_any(x):
        return _raw(data, (), None)

    def backward_fn(g):
        gx = np.zeros_like(x.data)
        if axis is None:
            gx.flat[np.argmax(x.data)] = g if np.ndim(g) == 0 else g.item()
        else:
            idx = np.expand_dims(np.argmax(x.data, axis=axis), axis)
            ge = g if keepdims else np.expand_dims(g, axis)
            np.put_along_axis(gx, idx, ge, axis)
        _accum(x, gx)

    return _raw(data, (x,), backward_fn)


# -- shape ops ------------------------------------------------------------


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = x.data.reshape(shape)
    if not _track_any(x):
        return _raw(data, (), None)

    def backward_fn(g):
        _accum(x, g.reshape(x.data.shape))

    return _raw(data, (x,), backward_fn)


def transpose(x: Tensor) -> Tensor:
    if x.ndim != 2:
        raise ShapeMismatch(f"transpose expects a 2-D tensor, got {x.shape}")
    data = x.data.T
    if not _track_any(x):
        return _raw(data, (), None)

    def backward_fn(g):
        _accum(x, g.T)

    return _raw(data, (x,), backward_fn)


def _getitem(x: Tensor, key) -> Tensor:
    data = x.data[key]
    if not _track_any(x):
        return _raw(data, (), None)

    def backward_fn(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        x.grad[key] += g

    return _raw(data, (x,), backward_fn)


def take_rows(x: Tensor, indices) -> Tensor:
    """Per-row gather from a 2-D tensor: out[t] = x[t, indices[t]]."""
    idx = np.asarray(indices, dtype=np.int64)
    if x.ndim != 2 or idx.shape != (x.shape[0],):
        raise ShapeMismatch(
            f"take_rows expects (T, n) tensor and T indices, got {x.shape} and {idx.shape}"
        )
    rows = np.arange(x.shape[0])
    data = x.data[rows, idx]
    if not _track_any(x):
        return _raw(data, (), None)

    def backward_fn(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        np.add.at(x.grad, (rows, idx), g)

    return _raw(data, (x,), backward_fn)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; all other dimensions must agree."""
    ts = [_coerce(t) for t in tensors]
    if not ts:
        raise ShapeMismatch("concat of an empty sequence")
    base = list(ts[0].shape)
    for t in ts[1:]:
        other = list(t.shape)
        if len(other) != len(base) or any(
            i != axis and other[i] != base[i] for i in range(len(base))
        ):
            raise ShapeMismatch(
                f"concat: incompatible shapes {[t.shape for t in ts]} along axis {axis}"
            )
    data = np.concatenate([t.data for t in ts], axis=axis)
    if not _track_any(*ts):
        return _raw(data, (), None)

    sizes = [t.shape[axis] for t in ts]

    def backward_fn(g):
        offset = 0
        index: list = [slice(None)] * g.ndim
        for t, size in zip(ts, sizes):
            if _tracked(t):
                index[axis] = slice(offset, offset + size)
                _accum(t, g[tuple(index)])
            offset += size

    return _raw(data, tuple(ts), backward_fn)
