"""Minimal reverse-mode automatic differentiation over numpy arrays.

A dynamic graph is rebuilt for every forward pass: each op output records
its parent tensors and a closure that propagates the incoming gradient to
them. ``backward`` on a scalar walks the graph once in reverse topological
order and frees each node's closure as it goes, so a graph serves one
``backward``. Gradients accumulate (+=) into leaves until ``zero_grads``
is called, which is what batch-level gradient accumulation relies on.

Non-finite detection: every op that can turn finite inputs into NaN or
infinity (the arithmetic ops, ``affine``, log, and the reductions) checks
its output and raises. Ops whose outputs are finite whenever their inputs
are finite (activations, shape ops, clip, max) skip the check, except the
bounded ``gated_units``, whose numpy inputs no ``Tensor`` has checked.
Together the two groups guarantee all tensors stay finite.

A Bi-LSTM layer is one node, ``bilstm_layer``: both directions of a
packed batch advance in one time loop. Its step works gate-major, on
(4, 2, B, H) blocks, so every elementwise operand is one contiguous
(2, B, H) block. Each block of ``SCAN_BLOCK`` steps gathers its inputs
in one pass per direction. The BPTT writes each step's four gate
gradients into one contiguous block and copies it into the packed row
that the recurrent matmul reads.

Only the operations the network needs are implemented; there is no
general broadcasting machinery beyond numpy's, and no GPU path.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import GraphError, NonFiniteError, ShapeMismatch

__all__ = [
    "Tensor",
    "affine",
    "backward",
    "bilstm_layer",
    "gated_units",
    "grad_enabled",
    "leaky_relu",
    "matmul",
    "no_grad",
    "take_rows",
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


def _consumed(g: np.ndarray) -> None:
    raise GraphError("this graph was consumed by an earlier backward; build it again")


def backward(loss: Tensor) -> None:
    """Populate gradients of everything the scalar ``loss`` depends on.

    Visits each graph node exactly once, in reverse topological order.
    Leaf gradients accumulate across calls. The walk frees the graph as
    it goes: once a node's closure has run, the node drops its gradient,
    its closure and its parents, keeping only its data. A second
    ``backward`` over a consumed graph, or over a new graph built on a
    consumed node, raises ``GraphError``.
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
            node.grad = None
            node._backward = _consumed
            node._parents = ()


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


# -- matmul and dense layers -------------------------------------------


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


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """A dense layer, ``x @ w.T + b``: x is (T, in), w (out, in), b (out,)."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1] or b.shape != (w.shape[0],):
        raise ShapeMismatch(f"affine: x {x.shape} does not fit w {w.shape} and b {b.shape}")
    data = x.data @ w.data.T + b.data
    if not _track_any(x, w, b):
        return _make(data, "affine", (), None)

    def backward_fn(g):
        if _tracked(x):
            _accum(x, g @ w.data)
        if _tracked(w):
            _accum(w, (x.data.T @ g).T)
        if _tracked(b):
            _accum(b, g.sum(axis=0))

    return _make(data, "affine", (x, w, b), backward_fn)


def gated_units(inputs: Sequence[np.ndarray], weights: Sequence[tuple[Tensor, ...]]) -> Tensor:
    """The (T, n, d) stack of n gated affine units: unit i maps its (T, K_i)
    numpy input x_i to ``tanh(x_i @ w_f.T + b_f) * sigmoid(x_i @ w_g.T +
    b_g)``, where ``weights[i] = (w_f, b_f, w_g, b_g)``. The inputs get no
    gradient; the node keeps only each unit's tanh and sigmoid outputs."""
    d = weights[0][0].shape[:1] if weights else ()
    shapes = [[t.shape for t in unit] for unit in weights]
    if not inputs or len(inputs) != len(weights) or any(
        x.ndim != 2 or x.shape[0] != inputs[0].shape[0] or unit != [d + x.shape[1:], d] * 2
        for x, unit in zip(inputs, shapes)
    ):
        raise ShapeMismatch(f"gated_units: inputs {[x.shape for x in inputs]} do not fit {shapes}")
    ths = [np.tanh(x @ w_f.data.T + b_f.data) for x, (w_f, b_f, _, _) in zip(inputs, weights)]
    sgs = [_stable_sigmoid(x @ w_g.data.T + b_g.data) for x, (_, _, w_g, b_g) in zip(inputs, weights)]
    out = np.stack([th * sg for th, sg in zip(ths, sgs)], axis=1)
    params = tuple(t for unit in weights for t in unit)
    if not _track_any(*params):
        return _make(out, "gated_units", (), None)

    def backward_fn(g):
        for i, (x, (w_f, b_f, w_g, b_g), th, sg) in enumerate(zip(inputs, weights, ths, sgs)):
            d_f = g[:, i] * sg * (1.0 - th * th)
            d_g = g[:, i] * th * sg * (1.0 - sg)
            for w, b, dz in ((w_f, b_f, d_f), (w_g, b_g, d_g)):
                if _tracked(w):
                    _accum(w, (x.T @ dz).T)
                if _tracked(b):
                    _accum(b, dz.sum(axis=0))

    return _make(out, "gated_units", params, backward_fn)


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

SCAN_BLOCK = 64  # time steps whose input rows bilstm_layer gathers at once


def _packed_lengths(lengths, rows: int) -> np.ndarray:
    """The utterance lengths of a packed batch of ``rows`` rows; None is
    one utterance of them all."""
    if lengths is None:
        return np.array([rows], dtype=np.int64)
    lens = np.asarray(lengths)
    if (
        lens.ndim != 1
        or lens.size == 0
        or lens.dtype.kind not in "iu"
        or (lens < 1).any()
        or lens.sum() != rows
    ):
        raise ShapeMismatch(f"lengths {lens.tolist()} do not split {rows} packed rows")
    return lens.astype(np.int64)


def _step_rows(offsets: np.ndarray, lengths: np.ndarray, start: int, stop: int):
    """(fwd, bwd, real), each (stop - start, B): the packed row that each
    direction's steps ``start`` to ``stop - 1`` read for every utterance,
    and whether the step is real. A padded step, past an utterance's
    length, reads the row of that direction's last real step."""
    steps = np.arange(start, stop)[:, None]
    last = lengths - 1
    fwd = offsets + np.minimum(steps, last)
    bwd = offsets + np.maximum(last - steps, 0)
    return fwd, bwd, steps < lengths


def bilstm_layer(
    xproj_f: Tensor, xproj_b: Tensor, w_h_f: Tensor, w_h_b: Tensor, lengths=None
) -> Tensor:
    """Both directions of a Bi-LSTM layer over a packed batch of B
    utterances, each direction of each utterance from a zero state.

    ``xproj_f`` and ``xproj_b`` are packed (ΣT, 4H): the rows of utterance
    b are ``lengths[b]`` consecutive frames, each frame's input projection
    plus bias for one direction, gates packed [input, forget, candidate,
    output]. ``lengths`` (positive, summing to ΣT) defaults to one
    utterance of all rows. ``w_h_f`` and ``w_h_b`` are (H, 4H). Returns the
    packed (ΣT, 2H) hidden states, columns [forward | backward]. The
    candidate uses tanh, the other gates sigmoid.

    One node covers the whole layer: a single time loop of max(lengths)
    steps advances both directions of every utterance as (2, B, H) states,
    with one (2, B, H) @ (2, H, 4H) recurrent matmul per step. The
    backward direction's step s is frame ``lengths[b] - 1 - s`` of
    utterance b. A shorter utterance's padded steps come after its real
    ones in both directions, so they never feed a real frame; their zero
    incoming gradient makes their share of the BPTT zero.

    The step works gate-major, so that every elementwise operand is one
    contiguous (2, B, H) block rather than a strided gate column of a
    (2, B, 4H) row. The loop reads its inputs from (steps, 4, 2, B, H)
    blocks of ``SCAN_BLOCK`` steps, each direction gathered from the
    packed rows in one ``np.take``. One add reads the packed matmul
    output through a gate-major view and writes the (4, 2, B, H)
    pre-activations; the sigmoid runs over all four gates and the
    candidate's tanh then replaces its slot. When a graph is being built,
    each step writes its gate activations, cell state and tanh(cell)
    straight into the buffers the backward keeps; without one, the same
    loop writes them into per-step scratch.

    The backward is a single BPTT loop over the same layout: every
    gate-derivative factor that does not depend on the recursion is
    computed gate-major for all steps before it, each step writes its four
    gate gradients into one contiguous (4, 2, B, H) block and copies it
    once into the packed (2, B, 4H) row that the recurrent matmul reads,
    and both recurrent-weight gradients are one batched GEMM after the
    loop. All outputs are bounded, so no finite check is needed.
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
    rows = xproj_f.shape[0]
    lengths = _packed_lengths(lengths, rows)
    offsets = np.cumsum(lengths) - lengths
    n_utts, t_max = lengths.size, int(lengths.max())
    w = np.stack([w_h_f.data, w_h_b.data])  # (2, H, 4H): direction 0 forward, 1 backward
    dtype = np.result_type(xproj_f.data, xproj_b.data, w)
    # each direction's input rows as (4, H) gate blocks
    x_gates = [x.data.astype(dtype, copy=False).reshape(rows, 4, h_dim) for x in (xproj_f, xproj_b)]
    keep = _track_any(xproj_f, xproj_b, w_h_f, w_h_b)
    out = np.empty((rows, 2 * h_dim), dtype)
    block = min(SCAN_BLOCK, t_max)
    xs = np.empty((block, 4, 2, n_utts, h_dim), dtype)  # a block's inputs, gate-major
    hs = np.empty((block, 2, n_utts, h_dim), dtype)  # a block's hidden states
    # per-step state and scratch, (2, B, .): one row per direction and utterance
    h = np.zeros((2, n_utts, h_dim), dtype)
    z_rows = np.empty((2, n_utts, 4 * h_dim), dtype)  # the recurrent product, gates packed
    z_rows_gates = z_rows.reshape(2, n_utts, 4, h_dim).transpose(2, 0, 1, 3)
    z = np.empty((4, 2, n_utts, h_dim), dtype)  # the pre-activations, gate-major
    z_g = z[2]
    ig = np.empty_like(h)
    one = dtype.type(1.0)  # a typed scalar: a Python float is converted on every call
    # ``steps`` yields, per step: the (4, 2, B, H) gate block, its four
    # gates, the cell state before and after the step, and tanh(cell)
    if keep:  # indexed by step
        acts = np.empty((t_max, 4, 2, n_utts, h_dim), dtype)  # the gates after their activations
        cs = np.zeros((t_max + 1, 2, n_utts, h_dim), dtype)  # cs[s] is the cell state before step s
        tcs = np.empty((t_max, 2, n_utts, h_dim), dtype)
        steps = zip(acts, *acts.transpose(1, 0, 2, 3, 4), cs[:-1], cs[1:], tcs)
    else:
        a = np.empty_like(z)
        c = np.zeros_like(h)
        steps = zip(*map(itertools.repeat, (a, *a, c, c, np.empty_like(h))))
    # exp(-z) overflowing to inf gives the exact sigmoid limit 0.0
    with np.errstate(over="ignore"):
        for start in range(0, t_max, block):
            n = min(block, t_max - start)
            fwd, bwd, real = _step_rows(offsets, lengths, start, start + n)
            for d, rows_of in enumerate((fwd, bwd)):
                np.take(
                    x_gates[d], rows_of, axis=0, mode="clip", out=xs[:n, :, d].transpose(0, 2, 1, 3)
                )
            for x_step, h_next, (a, gate_i, gate_f, gate_g, gate_o, c_prev, c, tc) in zip(
                xs[:n], hs[:n], steps
            ):
                np.matmul(h, w, out=z_rows)
                np.add(z_rows_gates, x_step, out=z)
                np.negative(z, out=a)
                np.exp(a, out=a)
                np.add(a, one, out=a)
                np.reciprocal(a, out=a)  # 1 / a, rounded as the division rounds
                np.tanh(z_g, out=gate_g)
                np.multiply(c_prev, gate_f, out=c)
                np.multiply(gate_i, gate_g, out=ig)
                c += ig
                np.tanh(c, out=tc)
                h = h_next
                np.multiply(gate_o, tc, out=h)
            out[fwd[real], :h_dim] = hs[:n, 0][real]
            out[bwd[real], h_dim:] = hs[:n, 1][real]
    if not keep:
        return _raw(out, (), None)

    def backward_fn(grad):
        fwd, bwd, real = _step_rows(offsets, lengths, 0, t_max)
        i, f, g_cand, o = acts.transpose(1, 0, 2, 3, 4)
        # the factors of dc and dh that do not depend on the recursion
        dc_factors = np.stack(
            [g_cand * i * (1.0 - i), cs[:-1] * f * (1.0 - f), i * (1.0 - g_cand * g_cand)], axis=1
        )
        do_factor = tcs * o * (1.0 - o)
        dh_to_dc = o * (1.0 - tcs * tcs)
        grads = np.zeros((t_max, 2, n_utts, h_dim), dtype)  # padded steps get none
        grads[:, 0][real] = grad[fwd[real], :h_dim]
        grads[:, 1][real] = grad[bwd[real], h_dim:]
        w_t = np.ascontiguousarray(w.transpose(0, 2, 1))
        dz = np.empty((t_max, 2, n_utts, 4 * h_dim), dtype)
        dz_gates = dz.reshape(t_max, 2, n_utts, 4, h_dim).transpose(0, 3, 1, 2, 4)
        dz_step = np.empty((4, 2, n_utts, h_dim), dtype)  # a step's gate gradients, gate-major
        dz_cell, dz_o = dz_step[:3], dz_step[3]
        dh = np.zeros((2, n_utts, h_dim), dtype)
        dc = np.zeros_like(dh)
        dc_next = np.zeros_like(dh)
        by_step = (grads, dh_to_dc, dc_factors, do_factor, f, dz, dz_gates)
        for g, to_dc, dc_factor, o_factor, f_s, dz_row, dz_row_gates in zip(
            *(a[::-1] for a in by_step)
        ):
            dh += g  # dh held the recurrent part, w_h @ dz of the next step
            np.multiply(dh, to_dc, out=dc)
            dc += dc_next
            np.multiply(dc, dc_factor, out=dz_cell)
            np.multiply(dh, o_factor, out=dz_o)
            np.multiply(dc, f_s, out=dc_next)
            np.copyto(dz_row_gates, dz_step)
            np.matmul(dz_row, w_t, out=dh)
        for x, rows_of, d in ((xproj_f, fwd, 0), (xproj_b, bwd, 1)):
            if _tracked(x):
                dx = np.empty((rows, 4 * h_dim), dtype)
                dx[rows_of[real]] = dz[:, d][real]
                _accum(x, dx)
        if _tracked(w_h_f) or _tracked(w_h_b):
            # the state before step s, for s >= 1; a padded step's dz is zero
            h_prev = np.stack([out[fwd[:-1], :h_dim], out[bwd[:-1], h_dim:]])  # (2, T-1, B, H)
            dz_dirs = dz[1:].transpose(1, 0, 2, 3).reshape(2, -1, 4 * h_dim)
            dw = h_prev.reshape(2, -1, h_dim).transpose(0, 2, 1) @ dz_dirs
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
