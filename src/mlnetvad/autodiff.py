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
    "bilstm_layer",
    "concat",
    "grad_enabled",
    "leaky_relu",
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
    """Matrix product of two 2-D operands."""
    a, b = _coerce(a), _coerce(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeMismatch(f"matmul supports 2-D operands only, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    data = a.data @ b.data
    if not _track_any(a, b):
        return _make(data, "matmul", (), None)

    def backward_fn(g):
        if _tracked(a):
            _accum(a, g @ b.data.T)
        if _tracked(b):
            _accum(b, a.data.T @ g)

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


# -- Bi-LSTM layer --------------------------------------------------------


def bilstm_layer(xproj_f: Tensor, xproj_b: Tensor, w_h_f: Tensor, w_h_b: Tensor) -> Tensor:
    """Both directions of a Bi-LSTM layer, each from a zero state; returns
    the (T, 2H) hidden states, columns [forward | backward].

    ``xproj_f`` and ``xproj_b`` are (T, 4H), each frame's input
    projection plus bias for one direction, packed [input, forget,
    candidate, output]; ``w_h_f`` and ``w_h_b`` are (H, 4H). The
    candidate uses tanh, the other gates sigmoid. One node covers the
    whole layer: a single time loop advances both directions together,
    the backward one reading ``xproj_b`` from the last frame down, with
    one stacked (2, 1, H) @ (2, H, 4H) recurrent matmul per step. The
    forward keeps the gate activations, cell states, tanh(cell) and
    hidden states only when a graph is being built. The backward is a
    single BPTT loop: every gate-derivative factor that does not depend
    on the recursion is computed for the whole sequence before it, and
    both recurrent-weight gradients are one batched GEMM after it. All
    outputs are bounded, so no finite check is needed.
    """
    h_dim = w_h_f.shape[0]
    if (
        xproj_f.ndim != 2
        or xproj_f.shape[1] != 4 * h_dim
        or xproj_b.shape != xproj_f.shape
        or w_h_f.shape != (h_dim, 4 * h_dim)
        or w_h_b.shape != w_h_f.shape
    ):
        raise ShapeMismatch(
            f"bilstm_layer: xproj {xproj_f.shape} and {xproj_b.shape} do not fit "
            f"w_h {w_h_f.shape} and {w_h_b.shape}"
        )
    t_len = xproj_f.shape[0]
    xf, xb = xproj_f.data, xproj_b.data
    w = np.stack([w_h_f.data, w_h_b.data])  # (2, H, 4H): direction 0 forward, 1 backward
    dtype = np.result_type(xf, xb, w)
    keep = _track_any(xproj_f, xproj_b, w_h_f, w_h_b)
    out = np.empty((t_len, 2 * h_dim), dtype)
    # per-step state, (2, 1, .): one row per direction
    h = np.zeros((2, 1, h_dim), dtype)
    c = np.zeros((2, 1, h_dim), dtype)
    z = np.empty((2, 1, 4 * h_dim), dtype)
    a = np.empty_like(z)  # the gates after their activations
    ig = np.empty_like(c)
    tc = np.empty_like(c)
    gate_i, gate_f = a[..., :h_dim], a[..., h_dim : 2 * h_dim]
    gate_g, gate_o = a[..., 2 * h_dim : 3 * h_dim], a[..., 3 * h_dim :]
    z_g = z[..., 2 * h_dim : 3 * h_dim]
    if keep:  # indexed by step: the backward direction's step s is frame T-1-s
        acts = np.empty((t_len, 2, 1, 4 * h_dim), dtype)
        cs = np.zeros((t_len + 1, 2, 1, h_dim), dtype)  # cs[s] is the cell state before step s
        tcs = np.empty((t_len, 2, 1, h_dim), dtype)
    # exp(-z) overflowing to inf gives the exact sigmoid limit 0.0
    with np.errstate(over="ignore"):
        for s in range(t_len):
            r = t_len - 1 - s
            np.matmul(h, w, out=z)
            z[0] += xf[s]
            z[1] += xb[r]
            np.negative(z, out=a)
            np.exp(a, out=a)
            a += 1.0
            np.divide(1.0, a, out=a)
            np.tanh(z_g, out=gate_g)
            c *= gate_f
            np.multiply(gate_i, gate_g, out=ig)
            c += ig
            np.tanh(c, out=tc)
            np.multiply(gate_o, tc, out=h)
            out[s, :h_dim] = h[0, 0]
            out[r, h_dim:] = h[1, 0]
            if keep:
                acts[s] = a
                cs[s + 1] = c
                tcs[s] = tc
    if not keep:
        return _raw(out, (), None)

    def backward_fn(grad):
        gates = acts.reshape(t_len, 2, 4, h_dim)
        i, f = gates[:, :, 0:1], gates[:, :, 1:2]
        g_cand, o = gates[:, :, 2:3], gates[:, :, 3:4]
        # the factors of dc and dh that do not depend on the recursion
        dc_factors = np.concatenate(
            [g_cand * i * (1.0 - i), cs[:-1] * f * (1.0 - f), i * (1.0 - g_cand * g_cand)], axis=2
        )
        do_factor = tcs * o * (1.0 - o)
        dh_to_dc = o * (1.0 - tcs * tcs)
        grads = np.empty((t_len, 2, 1, h_dim), dtype)
        grads[:, 0, 0] = grad[:, :h_dim]
        grads[:, 1, 0] = grad[::-1, h_dim:]
        w_t = np.ascontiguousarray(w.transpose(0, 2, 1))
        dz = np.empty((t_len, 2, 1, 4 * h_dim), dtype)
        dz_gates = dz.reshape(t_len, 2, 4, h_dim)
        dh = np.zeros((2, 1, h_dim), dtype)
        dc = np.zeros_like(dh)
        dc_next = np.zeros_like(dh)
        for s in range(t_len - 1, -1, -1):
            dh += grads[s]  # dh held the recurrent part, w_h @ dz of step s+1
            np.multiply(dh, dh_to_dc[s], out=dc)
            dc += dc_next
            np.multiply(dc, dc_factors[s], out=dz_gates[s, :, :3])
            np.multiply(dh, do_factor[s], out=dz_gates[s, :, 3:])
            np.multiply(dc, f[s], out=dc_next)
            np.matmul(dz[s], w_t, out=dh)
        dz = dz.reshape(t_len, 2, 4 * h_dim).transpose(1, 0, 2)  # (2, T, 4H), by direction
        if _tracked(xproj_f):
            _accum(xproj_f, dz[0])
        if _tracked(xproj_b):
            _accum(xproj_b, dz[1, ::-1])
        if _tracked(w_h_f) or _tracked(w_h_b):
            h_prev = np.stack([out[:-1, :h_dim], out[:0:-1, h_dim:]])  # (2, T-1, H)
            dw = h_prev.transpose(0, 2, 1) @ dz[:, 1:]
            for w_h, dw_dir in ((w_h_f, dw[0]), (w_h_b, dw[1])):
                if _tracked(w_h):
                    _accum(w_h, dw_dir)

    return _raw(out, (xproj_f, xproj_b, w_h_f, w_h_b), backward_fn)


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
