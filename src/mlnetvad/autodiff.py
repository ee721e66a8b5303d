"""Minimal reverse-mode automatic differentiation over numpy arrays.

A dynamic graph is rebuilt for every forward pass: each op output records
its parent tensors and a closure that propagates the incoming gradient to
them. ``backward`` on a scalar walks the graph once in reverse topological
order and frees each node's closure as it goes, so a graph serves one
``backward``. Gradients accumulate (+=) into leaves until ``zero_grads``
is called, which is what batch-level gradient accumulation relies on.

The ops: elementwise ``add`` and ``mul``; ``projection``, the
``bilstm_base`` variant's tanh dense layer, and ``gated_units``, all
gated branches in one node, both over padded frames whose windows they
build themselves; the channel attention's ``branch_weights`` and
``branch_fusion``; ``bilstm_layer``, one node per Bi-LSTM layer;
``classifier_head``, the leaky-ReLU layer and the sigmoid unit in one
node; ``concat_rows`` and ``split_rows``, which pack utterances' rows
into one tensor and unpack them; the full sum and the mean over one
axis; and the losses ``cross_entropy`` and ``selected_nll``. Every op
takes operands of one dtype, and ``add`` and ``mul`` operands of one
shape; a Python number takes the other operand's dtype and shape. Any
other operand raises ``ShapeMismatch``. The dense layers allocate only
their GEMM outputs and add their biases into them in place. Each layer
node rounds every value and gradient as the chain of elementwise ops it
replaced did, and a tensor those ops fed from several places takes each
contribution in its own accumulation, in their order.

Non-finite detection: every op that can turn finite inputs into NaN or
infinity (the arithmetic ops, the dense layers and input projections,
the reductions, the attention nodes and the losses) checks its output
and raises; ``branch_weights`` also checks its descriptors, scores and
row sums. Its ratio and ``selected_nll``'s log run under
``np.errstate``, so that a row of zero scores or a zero weight raises
``NonFiniteError``, not a numpy warning. Ops whose outputs are finite
whenever their inputs are finite (the Bi-LSTM states, the head's
sigmoid) skip the check, except the bounded ``projection`` and
``gated_units``, whose numpy inputs no ``Tensor`` has checked. Together
the two groups guarantee all tensors stay finite.

A Bi-LSTM layer is one ``bilstm_layer`` node, in which both directions
of a packed batch advance in one time loop. The loop runs in blocks of
``SCAN_BLOCK`` steps; each block projects the input rows it needs,
so no whole-utterance projection is kept. Its step works gate-major, on
(4, 2, B, H) blocks, so every elementwise operand is one (2, B, H)
block. Scoring and training run the same loop, and in both each
utterance's block projections, like ``classifier_head``'s GEMMs, run
over its own rows. Every recurrent product, forward and in the BPTT, is
a row of a GEMM of two or more rows, whose rows round alike for any row
count from 2 to 8 (``tests/test_metrics.py`` pins this): B >= 2
utterances share one matmul, and one utterance's two directions are the
two rows of one GEMM forward and get a spare zero lane in the BPTT. So
an utterance gets the same bits alone, in a packed scoring batch of any
size and as a training lane, and parameters take the lanes'
contributions in order. A graph decides only what these nodes keep: no
value changes with it.
A forward step is eleven numpy calls with positional outputs, and the
loop runs under one ``np.errstate``. One row map serves the layer: the
slices of each utterance's packed rows that a block's steps read. The
block projections, the output scatter and the BPTT all take them. The
BPTT runs in blocks too, and each step writes its four gate gradients
straight into the rows that the recurrent matmul reads, through a
gate-major view.

Only the operations the network needs are implemented; there is no
broadcasting, no dtype promotion and no GPU path.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GraphError, NonFiniteError, ShapeMismatch

__all__ = [
    "Tensor",
    "backward",
    "bilstm_layer",
    "branch_fusion",
    "branch_weights",
    "classifier_head",
    "concat_rows",
    "cross_entropy",
    "gated_units",
    "grad_enabled",
    "no_grad",
    "projection",
    "selected_nll",
    "split_rows",
    "zero_grads",
]

_grad_enabled = True


def grad_enabled() -> bool:
    return _grad_enabled


@contextlib.contextmanager
def no_grad():
    """Disable graph construction. Forward values keep their bits: a graph
    decides only what the nodes keep, at every batch size."""
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


def _check_finite(data: np.ndarray, op: str) -> np.ndarray:
    """``data``, once it is known to be finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(data, op)


def _finite(data: np.ndarray, op: str) -> np.ndarray:
    """``_check_finite`` for a caller that already ignores numpy's overflow
    and invalid-value warnings."""
    # A finite sum proves every element finite. A non-finite one may come
    # from finite values that overflow the accumulator, or from both
    # infinities at once, so only then are the elements looked at.
    if not np.isfinite(data.sum()) and not np.isfinite(data).all():
        raise NonFiniteError(f"non-finite values produced by '{op}'")
    return data


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

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def sum(self) -> "Tensor":
        return tensor_sum(self)

    def mean(self, axis: int) -> "Tensor":
        return tensor_mean(self, axis)

    def backward(self) -> None:
        backward(self)


# -- graph plumbing ----------------------------------------------------


def _raw(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out._parents = parents
    out._backward = backward_fn
    return out


def _make(data: np.ndarray, op: str, parents: tuple, backward_fn) -> Tensor:
    _check_finite(data, op)
    return _raw(data, parents, backward_fn)


def _coerce(x, like=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if isinstance(like, Tensor) and isinstance(x, (int, float)):
        # a Python number takes the other operand's dtype and shape, so
        # ``0.5 * y`` keeps a float32 ``y`` in float32
        return Tensor(np.full(like.shape, x, like.dtype))
    return Tensor(x)


def _one_dtype(op: str, *operands) -> np.dtype:
    """The dtype that all ``operands`` (tensors or arrays) share."""
    dtypes = {x.dtype for x in operands}
    if len(dtypes) != 1:
        raise ShapeMismatch(f"{op}: operands mix dtypes {sorted(map(str, dtypes))}")
    return dtypes.pop()


def _tracked(t: Tensor) -> bool:
    return t.requires_grad or t._backward is not None


def _track_any(*ts: Tensor) -> bool:
    if not _grad_enabled:
        return False
    return any(_tracked(t) for t in ts)


def _accum(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add ``g`` into ``t``'s gradient; a ``fresh`` g, which nothing else
    holds, becomes the gradient without a copy."""
    if t.grad is None:
        t.grad = g if fresh else g.copy()
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


# -- elementwise binary ops --------------------------------------------


def _binary(op: str, fn, a, b, grad_a, grad_b) -> Tensor:
    """``fn(a, b)`` of two operands of one shape; ``grad_a(g, a, b)`` and
    ``grad_b`` give each operand's gradient."""
    a, b = _coerce(a, like=b), _coerce(b, like=a)
    if a.shape != b.shape:
        raise ShapeMismatch(f"{op}: shapes {a.shape} and {b.shape} differ")
    _one_dtype(op, a, b)
    data = fn(a.data, b.data)
    if not _track_any(a, b):
        return _make(data, op, (), None)

    def backward_fn(g):
        if _tracked(a):
            _accum(a, grad_a(g, a.data, b.data))
        if _tracked(b):
            _accum(b, grad_b(g, a.data, b.data))

    return _make(data, op, (a, b), backward_fn)


def add(a, b) -> Tensor:
    return _binary("add", np.add, a, b, lambda g, x, y: g, lambda g, x, y: g)


def mul(a, b) -> Tensor:
    return _binary("mul", np.multiply, a, b, lambda g, x, y: g * y, lambda g, x, y: g * x)


# -- dense layers ----------------------------------------------------------


def _add_bias(data: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``data + b``, summed into ``data``'s own buffer."""
    data += b
    return data


def _dense_param_grads(
    w: Tensor, b: Tensor, x: np.ndarray, dz: np.ndarray, transposed: bool = True
) -> None:
    """Accumulate the weight and bias gradients of ``x @ w.T + b``, or of
    ``x @ w + b`` when not ``transposed``, for the output gradient dz."""
    if _tracked(w):
        dw = x.T @ dz
        _accum(w, dw.T if transposed else dw)
    if _tracked(b):
        _accum(b, dz.sum(axis=0))


def window_matrix(padded: np.ndarray, radius: int) -> np.ndarray:
    """The (T, (2 * radius + 1) * F) windows of (T + 2 * radius, F) padded
    rows, time-major: row t holds padded rows t to t + 2 * radius, so a
    narrower window is a column slice of a wider one."""
    width = (2 * radius + 1) * padded.shape[1]
    # window t starts at flat element t * F: one strided copy of every F-th
    # window of the flattened rows, which are exactly T
    return sliding_window_view(padded.reshape(-1), width)[:: padded.shape[1]].copy()


def _radius(op: str, padded: np.ndarray, width: int) -> int:
    """The window radius r of a (2r + 1)-row window ``width`` columns wide
    over ``padded``'s rows; ShapeMismatch when there is none."""
    span, rest = divmod(width, padded.shape[1]) if padded.ndim == 2 and padded.shape[1] else (0, 1)
    if rest or span % 2 == 0:
        raise ShapeMismatch(f"{op}: a weight of width {width} takes no window of {padded.shape} rows")
    return span // 2


def projection(padded: np.ndarray, w: Tensor, b: Tensor) -> Tensor:
    """The tanh dense layer ``tanh(windows @ w.T + b)`` over the windows
    of numpy rows: w is (out, (2r + 1) F) and b (out,), and ``padded``
    holds the T frames of F values padded by r rows at each end (r = 0:
    the frames themselves). Row t of the windows is padded rows t to
    t + 2r. One node whose only array is its GEMM output, which takes the
    bias and then the tanh in place; the backward rebuilds the windows
    from ``padded``. The rows get no gradient."""
    radius = _radius("projection", padded, w.shape[1]) if w.ndim == 2 else -1
    if radius < 0 or padded.shape[0] <= 2 * radius or b.shape != w.shape[:1]:
        raise ShapeMismatch(f"projection: rows {padded.shape} do not fit w {w.shape} and b {b.shape}")
    _one_dtype("projection", padded, w, b)
    data = _check_finite(_add_bias(window_matrix(padded, radius) @ w.data.T, b.data), "projection")
    np.tanh(data, out=data)
    if not _track_any(w, b):
        return _raw(data, (), None)

    def backward_fn(g):
        _dense_param_grads(w, b, window_matrix(padded, radius), g * (1.0 - data * data))

    return _raw(data, (w, b), backward_fn)


def gated_units(padded: np.ndarray, weights: Sequence[tuple[Tensor, ...]]) -> Tensor:
    """The (T, n, d) stack of n gated affine units over windows of numpy
    rows: unit i maps its (T, (2r_i + 1) F) windows x_i to ``tanh(x_i @
    w_f.T + b_f) * sigmoid(x_i @ w_g.T + b_g)``, where ``weights[i] =
    (w_f, b_f, w_g, b_g)`` and ``padded`` holds the T frames of F values
    padded by R = max(r_i) rows at each end. Row t of unit i's windows is
    padded rows t + R - r_i to t + R + r_i: a column slice of the widest
    windows, which are built once for the forward pass and again for the
    backward. Each unit's tanh and sigmoid run in place on their own GEMM
    outputs, and their product is written straight into the stack. The
    rows get no gradient; the node keeps only each unit's tanh and
    sigmoid outputs."""
    d = weights[0][0].shape[:1] if weights else ()
    shapes = [[t.shape for t in unit] for unit in weights]
    widths = [unit[0][1:] if unit else () for unit in shapes]  # (K,) for a 2-D w_f
    if not weights or any(len(k) != 1 or unit != [d + k, d] * 2 for unit, k in zip(shapes, widths)):
        raise ShapeMismatch(f"gated_units: rows {padded.shape} do not fit {shapes}")
    radii = [_radius("gated_units", padded, k[0]) for k in widths]
    radius = max(radii)
    if padded.shape[0] <= 2 * radius:
        raise ShapeMismatch(f"gated_units: rows {padded.shape} do not fit {shapes}")
    f = padded.shape[1]
    cols = [slice((radius - r) * f, (radius + r + 1) * f) for r in radii]
    params = tuple(t for unit in weights for t in unit)
    windows = window_matrix(padded, radius)
    out = np.empty((windows.shape[0], len(weights)) + d, _one_dtype("gated_units", padded, *params))
    ths, sgs = [], []
    for i, (col, (w_f, b_f, w_g, b_g)) in enumerate(zip(cols, weights)):
        x = windows[:, col]
        th = _add_bias(x @ w_f.data.T, b_f.data)
        np.tanh(th, out=th)
        sg = _sigmoid_in_place(_add_bias(x @ w_g.data.T, b_g.data))
        np.multiply(th, sg, out=out[:, i])
        ths.append(th)
        sgs.append(sg)
    if not _track_any(*params):
        return _make(out, "gated_units", (), None)

    def backward_fn(g):
        windows = window_matrix(padded, radius)
        for i, (col, (w_f, b_f, w_g, b_g), th, sg) in enumerate(zip(cols, weights, ths, sgs)):
            _dense_param_grads(w_f, b_f, windows[:, col], g[:, i] * sg * (1.0 - th * th))
            _dense_param_grads(w_g, b_g, windows[:, col], g[:, i] * th * sg * (1.0 - sg))

    return _make(out, "gated_units", params, backward_fn)


def _sigmoid_in_place(z: np.ndarray) -> np.ndarray:
    """``1.0 / (1.0 + np.exp(-z))``, each step written back into ``z``."""
    # exp(-z) overflowing to inf yields exactly 0.0, the correct limit,
    # so only the warning needs suppressing; no NaN can appear for
    # finite z
    with np.errstate(over="ignore"):
        np.negative(z, out=z)
        np.exp(z, out=z)
        np.add(z, 1.0, out=z)
        return np.divide(1.0, z, out=z)


LEAKY_SLOPE = 0.01


# -- channel attention ----------------------------------------------------


def branch_weights(
    stack: Tensor, w0: Tensor, b0: Tensor, w1: Tensor, b1: Tensor, double_sigmoid: bool = True
) -> Tensor:
    """The channel attention's (T, n) branch weights over a (T, n, d)
    branch stack, one node.

    Each branch's mean and max over its d values are two (T, n)
    descriptors. A shared net, ``leaky_relu(x @ w0.T + b0) @ w1.T + b1``
    with w0 (a, n) and w1 (n, a), scores both; the sigmoid of the two
    scores' sum is each branch's raw score. ``double_sigmoid`` (the
    default) applies a second sigmoid before each row is divided by its
    sum; without it the raw scores are normalized directly, which leaves
    the weights invariant to positive rescaling of the scores. The shared
    net's weights and the stack receive the mean pass's gradient before
    the max pass's, each in its own accumulation, as the elementwise ops
    this node replaced summed them.
    """
    n, a = stack.shape[1:2], b0.shape
    if stack.ndim != 3 or len(a) != 1 or (w0.shape, w1.shape, b1.shape) != (a + n, n + a, n):
        raise ShapeMismatch(
            f"branch_weights: stack {stack.shape} does not fit w0 {w0.shape}, b0 {b0.shape}, "
            f"w1 {w1.shape} and b1 {b1.shape}"
        )
    _one_dtype("branch_weights", stack, w0, b0, w1, b1)
    q = stack.data
    passes, scores = [], []  # per descriptor: itself and the leaky ReLU of the hidden layer
    for d in (_check_finite(q.mean(axis=2), "branch_weights"), q.max(axis=2)):
        h = _check_finite(_add_bias(d @ w0.data.T, b0.data), "branch_weights")
        hidden = np.where(h > 0, h, LEAKY_SLOPE * h)  # positive where h is
        scores.append(_check_finite(_add_bias(hidden @ w1.data.T, b1.data), "branch_weights"))
        passes.append((d, hidden))
    raw = _sigmoid_in_place(_check_finite(scores[0] + scores[1], "branch_weights"))
    num = _sigmoid_in_place(raw.copy()) if double_sigmoid else raw
    den = _check_finite(num.sum(axis=-1, keepdims=True), "branch_weights")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _check_finite(num / den, "branch_weights")
    if not _track_any(stack, w0, b0, w1, b1):
        return _raw(out, (), None)

    def backward_fn(g):
        # the ratio, then the sum that is its denominator
        d_num = g / den
        d_num += (-g * out / den).sum(axis=1, keepdims=True)
        d_raw = d_num * num * (1.0 - num) if double_sigmoid else d_num
        d_scores = d_raw * raw * (1.0 - raw)
        d_pooled = []
        for d, hidden in passes:  # the mean pass, then the max pass
            # the second dense layer, the leaky ReLU, the first dense layer
            d_hidden = d_scores @ w1.data
            _dense_param_grads(w1, b1, hidden, d_scores)
            d_h = d_hidden * np.where(hidden > 0, 1.0, LEAKY_SLOPE).astype(hidden.dtype)
            _dense_param_grads(w0, b0, d, d_h)
            d_pooled.append(d_h @ w0.data)
        if _tracked(stack):
            d_mean, d_max = d_pooled
            _accum(stack, np.broadcast_to((d_mean / q.shape[2])[:, :, None], q.shape))
            d_q = np.zeros_like(q)  # the max's gradient routes to the first maximal element
            np.put_along_axis(d_q, np.argmax(q, axis=2)[:, :, None], d_max[:, :, None], 2)
            _accum(stack, d_q)

    return _raw(out, (stack, w0, b0, w1, b1), backward_fn)


def branch_fusion(weights: Tensor, stack: Tensor) -> Tensor:
    """The (T, d) convex mix ``sum_i weights[:, i] * stack[:, i]`` of a
    (T, n, d) branch stack under its (T, n) branch weights, one node that
    builds no (T, n, d) product: the branches' (T, d) products are summed
    in branch order, the order of numpy's sum over that axis."""
    if stack.ndim != 3 or weights.shape != stack.shape[:2]:
        raise ShapeMismatch(f"branch_fusion: weights {weights.shape} do not fit stack {stack.shape}")
    _one_dtype("branch_fusion", weights, stack)
    w = weights.data[:, :, None]
    data = w[:, 0] * stack.data[:, 0]
    term = np.empty_like(data)
    for i in range(1, stack.shape[1]):
        data += np.multiply(w[:, i], stack.data[:, i], out=term)
    if not _track_any(weights, stack):
        return _make(data, "branch_fusion", (), None)

    def backward_fn(g):
        g = g[:, None, :]
        if _tracked(weights):
            _accum(weights, (g * stack.data).sum(axis=2))
        if _tracked(stack):
            _accum(stack, g * w)

    return _make(data, "branch_fusion", (weights, stack), backward_fn)


# -- Bi-LSTM layer --------------------------------------------------------

SCAN_BLOCK = 64  # time steps whose input rows bilstm_layer projects at once


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


def _spans(lengths: np.ndarray) -> list[tuple[int, int]]:
    """The (first, last + 1) packed row of each utterance."""
    ends = np.cumsum(lengths)
    return list(zip((ends - lengths).tolist(), ends.tolist()))


def _lane_rows(spans: list[tuple[int, int]], start: int, stop: int):
    """For each utterance with real steps among steps ``start`` to ``stop -
    1``: (j, done, fwd, bwd), its index, how many of those steps are real
    and the slice of packed rows of those steps in each direction; ``bwd``
    runs in frame order, the reverse of its steps."""
    for j, (first, end) in enumerate(spans):
        done = min(stop, end - first) - start
        if done > 0:
            fwd = slice(first + start, first + start + done)
            yield j, done, fwd, slice(end - start - done, end - start)


def _bptt(grad: np.ndarray, acts: np.ndarray, cs: np.ndarray, w: np.ndarray, spans, block: int) -> np.ndarray:
    """The BPTT of ``bilstm_layer``'s scan: each lane's (T, 2, 4H) gate
    gradients, as one (B, T, 2, 4H) array, from the output gradient
    ``grad``, the kept (T, 4, 2, B, H) gate activations ``acts``, the kept
    (T + 1, 2, B, H) cell states ``cs`` and the (2, H, 4H) recurrent
    weights ``w``. Its block buffers go when it returns.

    Every lane runs from step max(T) - 1, and its padded steps, past its
    end, get zero output gradients. A zero state gradient stays exactly
    zero through a step whose factors are finite, and they are: every
    projection the forward stepped on, stale or not, was zero or had
    passed ``_finite``, so the kept gates and cell states are finite.
    So each lane reaches its last real step with zero state gradients,
    as a call on it alone starts."""
    t_max, _, _, n, h_dim = acts.shape
    four_h, dtype = 4 * h_dim, acts.dtype
    w_t = np.ascontiguousarray(w.transpose(0, 2, 1))  # (2, 4H, H)
    # a lone utterance gets a spare zero lane, so that the recurrent matmul
    # has two or more rows, as it has for any other lane
    lanes = max(n, 2)
    dz = np.empty((n, t_max, 2, four_h), dtype)  # each lane's, in the layout of a call on it alone
    dz_block = np.zeros((block, 2, lanes, four_h), dtype)  # a block's, as the recurrent matmul reads them
    # (block, 4, 2, B, H), written in place through strides
    dz_gates = dz_block.reshape(block, 2, lanes, 4, h_dim)[:, :, :n].transpose(0, 3, 1, 2, 4)
    dz_cells, dz_os = dz_gates[:, :3], dz_gates[:, 3]
    # the recurrent matmul's output; lane-major for a lone utterance, so that
    # its rows stay one contiguous operand of the elementwise calls
    if n > 1:
        dh_rows = np.zeros((2, n, h_dim), dtype)
    else:
        dh_rows = np.zeros((lanes, 2, h_dim), dtype).transpose(1, 0, 2)
    dh = dh_rows[:, :n]
    dc = np.empty((2, n, h_dim), dtype)
    dc_next = np.zeros_like(dc)
    add, matmul, multiply = np.add, np.matmul, np.multiply
    for start in range(block * ((t_max - 1) // block), -1, -block):
        stop = min(start + block, t_max)
        # the block's output gradients, and the factors of dc and dh that do
        # not depend on the recursion
        grads = np.zeros((stop - start, 2, n, h_dim), dtype)  # steps past a lane's end get none
        for j, done, fwd_rows, bwd_rows in _lane_rows(spans, start, stop):
            grads[:done, 0, j] = grad[fwd_rows, :h_dim]
            grads[:done, 1, j] = grad[bwd_rows, h_dim:][::-1]
        i, f, g_cand, o = acts[start:stop].transpose(1, 0, 2, 3, 4)
        tc = np.tanh(cs[start + 1 : stop + 1])  # as the forward computed it
        dc_factors = np.stack(
            [g_cand * i * (1.0 - i), cs[start:stop] * f * (1.0 - f), i * (1.0 - g_cand * g_cand)], axis=1
        )
        do_factor = tc * o * (1.0 - o)
        dh_to_dc = o * (1.0 - tc * tc)
        dz_steps = (a[: stop - start] for a in (dz_block, dz_cells, dz_os))
        by_step = (grads, dh_to_dc, dc_factors, do_factor, f, *dz_steps)
        for g, to_dc, dc_factor, o_factor, f_s, dz_row, dz_cell, dz_o in zip(*(a[::-1] for a in by_step)):
            add(dh, g, dh)  # dh held the recurrent part, w_h @ dz of the next step
            multiply(dh, to_dc, dc)
            add(dc, dc_next, dc)
            multiply(dc, dc_factor, dz_cell)
            multiply(dh, o_factor, dz_o)
            multiply(dc, f_s, dc_next)
            matmul(dz_row, w_t, dh_rows)
        dz[:, start:stop] = dz_block[: stop - start, :, :n].transpose(2, 0, 1, 3)
    return dz


def bilstm_layer(seq: Tensor, fwd: Sequence[Tensor], bwd: Sequence[Tensor], lengths=None) -> Tensor:
    """Both directions of a Bi-LSTM layer over a packed batch of B
    utterances, each direction of each utterance from a zero state.

    ``seq`` is the packed (ΣT, in) layer input: the rows of utterance b
    are ``lengths[b]`` consecutive frames. ``lengths`` (positive, summing
    to ΣT) defaults to one utterance of all rows. ``fwd`` and ``bwd`` are
    each direction's ``(w_x, w_h, b)``: w_x (in, 4H), w_h (H, 4H) and
    b (4H,), gates packed [input, forget, candidate, output]. Returns the
    packed (ΣT, 2H) hidden states, columns [forward | backward]. The
    candidate uses tanh, the other gates sigmoid.

    One node covers the whole layer: a single time loop of max(lengths)
    steps advances both directions of every utterance as (2, B, H)
    states. The backward direction's step s is frame ``lengths[b] - 1 -
    s`` of utterance b. The loop runs in blocks of ``SCAN_BLOCK`` steps;
    in each block, every utterance with real steps left projects
    ``min(SCAN_BLOCK, T)`` consecutive rows of its own, a slice of
    ``seq``, with one ``x @ w_x`` GEMM per direction, whose bias is
    added in place: the rows of the block's steps, shifted back by the
    steps that run past its end, so that the window stays inside it. Its
    real steps' projections go into a (steps, 4, 2, B, H) gate-major
    buffer, the backward direction's reversed into step order; so every
    projection GEMM has the row count of a call on the utterance alone.
    The same slices place each block's hidden states in the output. The
    step works gate-major, so that every elementwise operand is one
    (2, B, H) block rather than a strided gate column of a (2, B, 4H)
    row: one add reads the recurrent product through a gate-major view and
    writes the (4, 2, B, H) pre-activations, the sigmoid runs over all
    four gates, and the candidate's tanh then replaces its slot. The
    step reads the sigmoid gates' pre-activations negated, from copies
    of the weights whose input, forget and output columns are negated
    once per call; negation is exact, so the bits are those of
    ``exp(-z)``. The projections are never kept. A shorter utterance
    keeps stepping after it ends, on stale projections whose states
    reach no output.

    Every recurrent product is a row of a GEMM of two or more rows. At
    B >= 2 the step is one (2, B, H) @ (2, H, 4H) matmul. At B = 1 the
    two directions' states are the two rows of one (2, H) @ (H, 8H) GEMM
    against both directions' weights side by side, and the step's add
    reads its two diagonal blocks through one fixed gate-major view. With
    OpenBLAS these rows round alike for any B from 2 to 8, and the
    diagonal blocks equal them, so an utterance gets the same bits alone
    and in any packed batch (``tests/test_metrics.py`` pins both at H of
    5, 16 and 64); a 1-row product could round differently. Whether a
    graph is being built decides only what the node keeps: with one
    (training), each utterance is a lane that gets exactly the bits of a
    call on it alone.

    With OpenBLAS a block projection gives each row the bits of one GEMM
    over the whole input whenever 4H is a multiple of 16 in float32 (8 in
    float64), as at the default H of 64, or the input is narrow; at other
    widths an input of 16 or more columns can differ in the last bits.

    A step is eleven numpy calls, each given its output positionally:
    the recurrent product (``np.dot`` at B = 1, ``np.matmul`` otherwise),
    the add of the projection, exp, the add of 1
    (from an array of ones, which dispatches faster than a scalar),
    reciprocal, the candidate's tanh, c * f, i * g, their sum, tanh(c)
    and o * tanh(c). The whole loop runs under one ``np.errstate``. At
    H = 64 with one BLAS thread, a step of both directions of one
    utterance took 10 to 18 µs on a shared 2-core machine whose speed
    drifts by up to 2×.

    With a graph, each step writes its gate activations and cell state
    straight into the buffers the backward keeps; without one, every step
    reuses one set. The backward is a BPTT loop over the same layout, in
    blocks of ``SCAN_BLOCK`` steps from the last: each block gathers its
    output gradients and computes its gate-derivative factors that do not
    depend on the recursion (and tanh(cell), which gives the forward's
    bits again). Each step is eight calls, the matmul included, and
    writes its four gate gradients straight into the rows of one
    (2, max(B, 2), 4H) @ (2, 4H, H) matmul, through a strided gate-major
    view of a per-block buffer; a lone utterance's spare lane stays zero.
    Each block's gate gradients are then copied once into every lane's
    (T, 2, 4H) gradient. A lane's padded steps get zero output gradients
    and pass zero state gradients on exactly, so it reaches its last real
    step with none. Once the loop ends, the kept gates and cell states
    are dropped; then each lane's recurrent-weight gradients are one
    batched GEMM over its steps, and each direction's input-projection
    gradients come from its (T, 4H) gate gradient.
    Every parameter takes the lanes' contributions in lane order, and
    ``seq`` the forward direction's before the backward's. Only the
    projections are checked for finite values; every other output is
    bounded.
    """
    fwd, bwd = tuple(fwd), tuple(bwd)
    h_shape = fwd[1].shape[:1] if len(fwd) == 3 else ()  # (H,)
    four_h = tuple(4 * n for n in h_shape)
    want = [seq.shape[1:] + four_h, h_shape + four_h, four_h]
    if seq.ndim != 2 or not h_shape or any([t.shape for t in d] != want for d in (fwd, bwd)):
        raise ShapeMismatch(
            f"bilstm_layer: seq {seq.shape} does not fit (w_x, w_h, b) "
            f"{[t.shape for t in fwd]} and {[t.shape for t in bwd]}"
        )
    lengths = _packed_lengths(lengths, seq.shape[0])
    dtype = _one_dtype("bilstm_layer", seq, *fwd, *bwd)
    keep = _track_any(seq, *fwd, *bwd)
    (rows, in_dim), h_dim, four_h = seq.shape, h_shape[0], four_h[0]
    spans = _spans(lengths)
    n, t_max = lengths.size, int(lengths.max())
    block = min(SCAN_BLOCK, t_max)
    w = np.stack([fwd[1].data, bwd[1].data])  # (2, H, 4H): direction 0 forward, 1 backward
    # the sigmoid gates' columns negated, exactly, so that the step's exp
    # reads -z; the candidate's keep their sign for its tanh
    sign = np.ones(four_h, dtype)
    sign[: 2 * h_dim] = sign[3 * h_dim :] = -1.0
    w_neg = w * sign
    x_weights = [(w_x.data * sign, b.data * sign) for w_x, _, b in (fwd, bwd)]
    out = np.empty((rows, 2 * h_dim), dtype)
    xs = np.zeros((block, 4, 2, n, h_dim), dtype)  # a block's projections, gate-major
    hs = np.empty((block, 2, n, h_dim), dtype)  # a block's hidden states
    if n == 1:
        # both directions' states are the two rows of one (2, H) @ (H, 8H)
        # GEMM against their weights side by side; its diagonal blocks are
        # the two recurrent products, read through a gate-major view. np.dot
        # runs a 2-D GEMM with the same bits as np.matmul and less dispatch
        product, w_step, hs_rows = np.dot, np.concatenate(w_neg, axis=1), hs.reshape(block, 2, h_dim)
        z_rows = np.empty((2, 2 * four_h), dtype)
        z_rows_gates = np.diagonal(z_rows.reshape(2, 2, 4, h_dim)).transpose(0, 2, 1)[:, :, None]
    else:  # one (2, B, H) @ (2, H, 4H) matmul
        product, w_step, hs_rows = np.matmul, w_neg, hs
        z_rows = np.empty((2, n, four_h), dtype)
        z_rows_gates = z_rows.reshape(2, n, 4, h_dim).transpose(2, 0, 1, 3)
    h = np.zeros(hs_rows.shape[1:], dtype)
    z = np.empty((4, 2, n, h_dim), dtype)  # the pre-activations, gate-major
    z_g = z[2]
    if keep:  # kept for the backward, indexed by step
        acts = np.empty((t_max, 4, 2, n, h_dim), dtype)  # the gates after their activations
        cs = np.zeros((t_max + 1, 2, n, h_dim), dtype)  # cs[s] is the cell state before step s
    else:  # one step's gates and cell state, which every step reuses
        gates, cell = np.empty_like(z), np.zeros((2, n, h_dim), dtype)
        history = tuple(map(itertools.repeat, (gates, *gates, cell, cell)))
    ig, tc = np.empty((2, n, h_dim), dtype), np.empty((2, n, h_dim), dtype)  # tc: tanh(cell), not kept
    ones = np.ones_like(z)  # the sigmoid's 1: an array operand dispatches faster than a scalar
    # the step's ufuncs, called with positional outputs: fewer lookups and
    # no keyword parsing in a loop of thousands of steps
    add, exp, multiply = np.add, np.exp, np.multiply
    reciprocal, tanh = np.reciprocal, np.tanh

    # exp(-z) overflowing to inf gives the exact sigmoid limit 0.0, and a
    # projection that overflows is caught by the check, not by a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, t_max, block):
            stop = min(start + block, t_max)
            if keep:
                a_s = acts[start:stop]
                history = (a_s, *a_s.transpose(1, 0, 2, 3, 4), cs[start:stop], cs[start + 1 :])
            lanes = list(_lane_rows(spans, start, stop))
            # each utterance with real steps left projects min(SCAN_BLOCK, T)
            # consecutive rows of its own, as a call on it alone does: its
            # block's rows, shifted back by the skip steps past its end so
            # that they stay inside it. Its padded steps, and an ended
            # utterance's, step on stale projections
            for j, done, fwd_rows, bwd_rows in lanes:
                first, end = spans[j]
                skip = min(block, end - first) - done
                windows = (slice(fwd_rows.start - skip, fwd_rows.stop), slice(bwd_rows.start, bwd_rows.stop + skip))
                for d, ((w_x, b), window) in enumerate(zip(x_weights, windows)):
                    x = _add_bias(seq.data[window] @ w_x, b).reshape(-1, 4, h_dim)
                    xs[:done, :, d, j] = x[skip:] if d == 0 else x[done - 1 :: -1]  # the backward's in step order
            _finite(xs[: stop - start], "bilstm_layer")
            for x_step, h_next, h_next_row, a, gate_i, gate_f, gate_g, gate_o, c_prev, c in zip(
                xs[: stop - start], hs, hs_rows, *history
            ):
                product(h, w_step, z_rows)
                add(z_rows_gates, x_step, z)
                exp(z, a)
                add(a, ones, a)
                reciprocal(a, a)  # 1 / a, rounded as the division rounds
                tanh(z_g, gate_g)
                multiply(c_prev, gate_f, c)
                multiply(gate_i, gate_g, ig)
                add(c, ig, c)
                tanh(c, tc)
                multiply(gate_o, tc, h_next)
                h = h_next_row
            for j, done, fwd_rows, bwd_rows in lanes:
                out[fwd_rows, :h_dim] = hs[:done, 0, j]
                out[bwd_rows, h_dim:] = hs[done - 1 :: -1, 1, j]
    if not keep:
        return _raw(out, (), None)

    def backward_fn(grad):
        nonlocal acts, cs
        dz = _bptt(grad, acts, cs, w, spans, block)
        acts = cs = None  # the scan's kept buffers go before the gradient GEMMs
        w_h_f, w_h_b = fwd[1], bwd[1]
        if _tracked(w_h_f) or _tracked(w_h_b):
            for j, (first, end) in enumerate(spans):
                # the state before step s, for s >= 1
                h_prev = np.stack([out[first : end - 1, :h_dim], out[end - 1 : first : -1, h_dim:]])
                dw = h_prev.transpose(0, 2, 1) @ dz[j, 1 : end - first].transpose(1, 0, 2)
                for w_h, dw_dir in ((w_h_f, dw[0]), (w_h_b, dw[1])):
                    if _tracked(w_h):
                        _accum(w_h, dw_dir)
        for (w_x, _, b), d in ((fwd, 0), (bwd, 1)):
            d_seq = np.empty((rows, in_dim), dtype) if _tracked(seq) else None
            for j, (first, end) in enumerate(spans):
                dx = np.ascontiguousarray(dz[j, : end - first, d][:: 1 - 2 * d])  # (T, 4H), frame order
                if d_seq is not None:
                    np.matmul(dx, w_x.data.T, out=d_seq[first:end])
                _dense_param_grads(w_x, b, seq.data[first:end], dx, transposed=False)
            if d_seq is not None:
                _accum(seq, d_seq, fresh=True)

    return _raw(out, (seq, *fwd, *bwd), backward_fn)


# -- classifier head ------------------------------------------------------


def classifier_head(
    seq: Tensor, w_hidden: Tensor, b_hidden: Tensor, w_out: Tensor, b_out: Tensor, lengths=None
) -> Tensor:
    """Per-frame probabilities ``sigmoid(leaky_relu(seq @ w_hidden.T +
    b_hidden) @ w_out.T + b_out)`` of the (T, in) rows ``seq``, one node:
    w_hidden is (fc, in), b_hidden (fc,), w_out (1, fc) and b_out (1,).
    Returns (T,). The node keeps only the leaky ReLU's output; where it is
    positive, so was its input.

    ``lengths`` splits the rows into utterances, as in ``bilstm_layer``.
    Each utterance's GEMMs run over its own rows, so it gets the bits of
    a call on it alone, with a graph or without one, and every parameter
    takes the utterances' contributions in order."""
    fc = b_hidden.shape
    if seq.ndim != 2 or (w_hidden.shape, w_out.shape, b_out.shape) != (fc + seq.shape[1:], (1,) + fc, (1,)):
        raise ShapeMismatch(
            f"classifier_head: seq {seq.shape} does not fit w_hidden {w_hidden.shape}, "
            f"b_hidden {b_hidden.shape}, w_out {w_out.shape} and b_out {b_out.shape}"
        )
    dtype = _one_dtype("classifier_head", seq, w_hidden, b_hidden, w_out, b_out)
    spans = _spans(_packed_lengths(lengths, seq.shape[0]))
    z = np.empty((seq.shape[0],) + fc, dtype)
    logits = np.empty((seq.shape[0], 1), dtype)
    for a, b in spans:
        np.matmul(seq.data[a:b], w_hidden.data.T, out=z[a:b])
    _check_finite(_add_bias(z, b_hidden.data), "classifier_head")
    hidden = np.where(z > 0, z, LEAKY_SLOPE * z)
    for a, b in spans:
        np.matmul(hidden[a:b], w_out.data.T, out=logits[a:b])
    _check_finite(_add_bias(logits, b_out.data), "classifier_head")
    probs = _sigmoid_in_place(logits.reshape(seq.shape[0]))
    if not _track_any(seq, w_hidden, b_hidden, w_out, b_out):
        return _raw(probs, (), None)

    def backward_fn(g):
        # the sigmoid, then the output layer, the leaky ReLU and the hidden layer
        d_logits = (g * probs * (1.0 - probs)).reshape(logits.shape)
        d_hidden = np.empty_like(hidden)
        for a, b in spans:
            np.matmul(d_logits[a:b], w_out.data, out=d_hidden[a:b])
            _dense_param_grads(w_out, b_out, hidden[a:b], d_logits[a:b])
        d_z = d_hidden * np.where(hidden > 0, 1.0, LEAKY_SLOPE).astype(hidden.dtype)
        if _tracked(seq):
            d_seq = np.empty_like(seq.data)
            for a, b in spans:
                np.matmul(d_z[a:b], w_hidden.data, out=d_seq[a:b])
            _accum(seq, d_seq, fresh=True)
        for a, b in spans:
            _dense_param_grads(w_hidden, b_hidden, seq.data[a:b], d_z[a:b])

    return _raw(probs, (seq, w_hidden, b_hidden, w_out, b_out), backward_fn)


# -- packing --------------------------------------------------------------


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """The rows of ``parts``, one part after another, in one node whose
    backward hands each part its rows of the gradient."""
    if not parts or any(t.ndim == 0 or t.shape[1:] != parts[0].shape[1:] for t in parts):
        raise ShapeMismatch(f"concat_rows: parts {[t.shape for t in parts]} do not stack by rows")
    _one_dtype("concat_rows", *parts)
    data = np.concatenate([t.data for t in parts])
    if not _track_any(*parts):
        return _raw(data, (), None)
    spans = _spans(np.array([t.shape[0] for t in parts]))

    def backward_fn(g):
        for t, (a, b) in zip(parts, spans):
            if _tracked(t):
                _accum(t, g[a:b])

    return _raw(data, tuple(parts), backward_fn)


def split_rows(x: Tensor, lengths) -> list[Tensor]:
    """``x``'s rows as one tensor per utterance of ``lengths`` rows, each a
    view of ``x``'s data and a node of its own. A part's backward adds its
    gradient into its rows of ``x``'s, which start at -0.0, the one
    additive identity of floats, so each row gets exactly the gradient its
    part received."""
    spans = _spans(_packed_lengths(lengths, x.shape[0] if x.ndim else 0))
    if not _track_any(x):
        return [_raw(x.data[a:b], (), None) for a, b in spans]

    def part(a: int, b: int) -> Tensor:
        def backward_fn(g):
            if x.grad is None:
                x.grad = np.full_like(x.data, -0.0)
            x.grad[a:b] += g

        return _raw(x.data[a:b], (x,), backward_fn)

    return [part(a, b) for a, b in spans]


# -- reductions ----------------------------------------------------------


def tensor_sum(x: Tensor) -> Tensor:
    """The sum of all of ``x``'s elements."""
    data = x.data.sum()
    if not _track_any(x):
        return _make(data, "sum", (), None)

    def backward_fn(g):
        _accum(x, np.broadcast_to(g, x.data.shape))

    return _make(data, "sum", (x,), backward_fn)


def tensor_mean(x: Tensor, axis: int) -> Tensor:
    """The mean of ``x`` over ``axis``, which the result drops."""
    data = x.data.mean(axis=axis)
    if not _track_any(x):
        return _make(data, "mean", (), None)

    def backward_fn(g):
        _accum(x, np.broadcast_to(np.expand_dims(g / x.data.shape[axis], axis), x.data.shape))

    return _make(data, "mean", (x,), backward_fn)


# -- losses ---------------------------------------------------------------


def cross_entropy(probs: Tensor, labels, clamp: float) -> Tensor:
    """``-sum(y log p + (1 - y) log(1 - p))`` over per-frame labels y and
    probabilities p clamped to [clamp, 1 - clamp], one node. A clamped
    probability gets no gradient."""
    labels = np.asarray(labels)
    if probs.shape != labels.shape:
        raise ShapeMismatch(f"probs shape {probs.shape} does not match labels shape {labels.shape}")
    y = _check_finite(labels.astype(probs.dtype.type), "cross_entropy")
    p = np.clip(probs.data, clamp, 1.0 - clamp)
    not_y, not_p = 1.0 - y, 1.0 - p
    data = _check_finite(-(y * np.log(p) + not_y * np.log(not_p)).sum(), "cross_entropy")
    if not _track_any(probs):
        return _raw(data, (), None)

    def backward_fn(g):
        g = np.broadcast_to(-g, p.shape)
        d_p = g * y / p
        d_p -= g * not_y / not_p
        _accum(probs, d_p * ((probs.data >= clamp) & (probs.data <= 1.0 - clamp)).astype(probs.dtype))

    return _raw(data, (probs,), backward_fn)


def selected_nll(weights: Tensor, k) -> Tensor:
    """``-sum_t log weights[t, k[t]]`` for (T, n) weights and T integers k
    in [0, n), one node."""
    idx = np.asarray(k)
    n = weights.shape[1] if weights.ndim == 2 else 0
    if idx.shape != weights.shape[:1] or idx.dtype.kind not in "iu" or ((idx < 0) | (idx >= n)).any():
        raise ShapeMismatch(f"selected_nll: k {idx.dtype} {idx.shape} does not index {weights.shape}")
    rows = np.arange(idx.size)
    picked = weights.data[rows, idx]
    with np.errstate(divide="ignore", invalid="ignore"):
        data = _check_finite(-np.log(picked).sum(), "selected_nll")
    if not _track_any(weights):
        return _raw(data, (), None)

    def backward_fn(g):
        if weights.grad is None:
            # -0.0 is the additive identity, so the rows' other contributions
            # keep their bits whichever comes first
            weights.grad = np.full_like(weights.data, -0.0)
        np.add.at(weights.grad, (rows, idx), np.broadcast_to(-g, picked.shape) / picked)

    return _raw(data, (weights,), backward_fn)
