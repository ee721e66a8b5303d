"""Compute-core tests: forward values, backward rules, graph semantics."""

import ast
import importlib
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import mlnetvad
import mlnetvad.autodiff as ad
from helpers import bilstm_reference, gemm_rows, numeric_grad, rel_error
from mlnetvad.autodiff import Tensor
from mlnetvad.errors import GraphError, NonFiniteError, ShapeMismatch


def _head_params(fc: int, in_dim: int, dtype=np.float64, scale: float = 0.0):
    """(w_hidden, b_hidden, w_out, b_out) of a classifier head, all
    ``scale`` times ones, tracked."""
    shapes = [(fc, in_dim), (fc,), (1, fc), (1,)]
    return [Tensor(np.full(shape, scale, dtype), requires_grad=True) for shape in shapes]


class TestForwardValues:
    def test_zero_head_gives_one_half(self):
        out = ad.classifier_head(Tensor(np.ones((3, 2))), *_head_params(4, 2))
        assert out.shape == (3,)
        np.testing.assert_array_equal(out.data, 0.5)

    def _two_unit_head(self, w_out):
        # hidden units x and -x, each through the leaky ReLU
        w_hidden, b_hidden, w_out_t, b_out = _head_params(2, 1)
        w_hidden.data[:] = [[1.0], [-1.0]]
        w_out_t.data[:] = [w_out]
        return w_hidden, b_hidden, w_out_t, b_out

    def test_head_leaky_slope(self):
        out = ad.classifier_head(Tensor(np.array([[-2.0], [3.0]])), *self._two_unit_head([1.0, 0.0]))
        np.testing.assert_allclose(out.data, 1.0 / (1.0 + np.exp([0.02, -3.0])), rtol=1e-15)

    def test_head_stable_at_extremes(self):
        # logits of -808 and 808: exp(808) overflows to inf, which gives
        # the exact limit 0 and no warning
        out = ad.classifier_head(Tensor(np.array([[-800.0], [800.0]])), *self._two_unit_head([1.0, -1.0]))
        np.testing.assert_array_equal(out.data, [0.0, 1.0])

    def test_head_non_finite_layer_raises(self):
        head = _head_params(2, 2, np.float32, scale=1e20)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="classifier_head"):
            ad.classifier_head(Tensor(np.full((3, 2), 1e20, np.float32)), *head)

    @pytest.mark.parametrize(
        "shapes",
        [  # each case breaks one shape of seq (3, 4) and the head (5, 4), (5,), (1, 5), (1,)
            ((4,), (5, 4), (5,), (1, 5), (1,)),  # seq not 2-D
            ((3, 4), (5, 3), (5,), (1, 5), (1,)),  # w_hidden does not take seq's width
            ((3, 4), (5, 4), (4,), (1, 5), (1,)),  # b_hidden does not match w_hidden
            ((3, 4), (5, 4), (5,), (2, 5), (2,)),  # two outputs
            ((3, 4), (5, 4), (5,), (1, 4), (1,)),  # w_out does not take the hidden width
            ((3, 4), (5, 4), (5,), (1, 5), ()),  # b_out not (1,)
        ],
    )
    def test_head_shape_mismatch_rejected(self, shapes):
        with pytest.raises(ShapeMismatch, match="classifier_head"):
            ad.classifier_head(*(Tensor(np.ones(shape)) for shape in shapes))


class TestBackwardRules:
    def test_head_sigmoid_derivative_at_zero(self):
        head = _head_params(2, 3)
        ad.classifier_head(Tensor(np.ones((4, 3))), *head).sum().backward()
        assert head[3].grad.item() == 4 * 0.25

    def test_linear_loss_gradient_is_input(self):
        # at zero weights the projection's tanh has slope exactly 1
        x = np.random.default_rng(0).normal(size=(1, 4))
        w = Tensor(np.zeros((3, 4)), requires_grad=True)
        ad.projection(x, w, Tensor(np.zeros(3))).sum().backward()
        np.testing.assert_array_equal(w.grad, np.tile(x, (3, 1)))

    def test_fanout_accumulates(self):
        x = Tensor(2.0, requires_grad=True)
        (x + x).backward()
        assert x.grad.item() == 2.0

    def test_grads_accumulate_across_backward_calls(self):
        x = Tensor(1.5, requires_grad=True)
        (x * 3.0).backward()
        (x * 3.0).backward()
        assert x.grad.item() == 6.0
        ad.zero_grads([x])
        assert x.grad is None

    def test_python_number_takes_the_operand_dtype_and_shape(self):
        x = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
        y = 0.5 * x + 1
        assert y.dtype == np.float32 and y.shape == (2, 3)
        y.sum().backward()
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad, 0.5)


def _random_composite(rng):
    """The whole op set on small float64 tensors, wired much as the model
    wires it: two gated units, the attention nodes, the projection mixed
    into the fused rows, a Bi-LSTM layer and the head over a packed batch
    of two, whose probabilities are split and joined again, the
    reductions and both losses."""
    x = rng.normal(size=(7, 2))  # 5 frames of 2 values, padded by one row at each end

    def tracked(*shapes, scale=0.5):
        return tuple(Tensor(rng.normal(size=shape) * scale, requires_grad=True) for shape in shapes)

    units = [tracked((3, k), (3,), (3, k), (3,)) for k in (2, 6)]  # windows of 1 and 3 frames
    attn = tracked((4, 2), (4,), (2, 4), (2,), scale=1.0)
    proj = tracked((3, 6), (3,))
    lstm = [tracked((3, 8), (2, 8), (8,)) for _ in range(2)]
    head = tracked((4, 4), (4,), (1, 4), (1,))
    labels = np.array([1.0, 0.0, 0.0, 1.0, 1.0])
    k = np.array([0, 1, 1, 1, 0])

    def forward():
        stack = ad.gated_units(x, units)  # (5, 2, 3)
        weights = ad.branch_weights(stack, *attn)  # (5, 2)
        fused = ad.branch_fusion(weights, stack) * ad.projection(x, *proj)  # (5, 3)
        seq = ad.bilstm_layer(fused, *lstm, lengths=[3, 2])  # (5, 4)
        probs = ad.concat_rows(ad.split_rows(ad.classifier_head(seq, *head, lengths=[3, 2]), [3, 2]))
        nll = ad.selected_nll(weights, k) + ad.cross_entropy(probs, labels, 1e-7)
        return (seq * seq).mean(axis=1).sum() + 0.5 * nll

    return forward, [*(t for unit in units for t in unit), *attn, *proj, *lstm[0], *lstm[1], *head]


class TestGradientOracle:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_composite_matches_finite_differences(self, seed):
        forward, params = _random_composite(np.random.default_rng(seed))
        loss = forward()
        loss.backward()
        with ad.no_grad():
            numeric = numeric_grad(lambda: forward().item(), params)
        for p, n in zip(params, numeric):
            assert rel_error(p.grad, n) <= 1e-5


class TestGraphSemantics:
    def test_backward_on_non_scalar_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(GraphError):
            (x * 2.0).backward()

    def test_shape_mismatch_reports_shapes(self):
        w = Tensor(np.ones((5, 4)))
        with pytest.raises(ShapeMismatch, match=r"\(2, 3\)"):
            ad.projection(np.ones((2, 3)), w, Tensor(np.ones(5)))

    def test_projection_shape_mismatch_rejected(self):
        for x, w, b in [
            ((4, 3), (2, 5), (2,)),  # windows' width differs from w's
            ((4, 3), (2, 3), (3,)),  # bias does not match the output width
            ((3,), (2, 3), (2,)),  # windows not 2-D
            ((4, 3), (3,), (3,)),  # w not 2-D
        ]:
            with pytest.raises(ShapeMismatch, match="projection"):
                ad.projection(np.ones(x), Tensor(np.ones(w)), Tensor(np.ones(b)))

    @pytest.mark.parametrize("op", ["add", "mul"])
    @pytest.mark.parametrize("a, b", [((5, 3), (3,)), ((5, 1), (5, 3)), ((3,), ()), ((2, 3), (3, 2))])
    def test_unequal_shapes_rejected(self, op, a, b):
        x, y = Tensor(np.ones(a), requires_grad=True), Tensor(np.ones(b), requires_grad=True)
        for args in ((x, y), (y, x)):
            with pytest.raises(ShapeMismatch, match=f"{op}: shapes"):
                getattr(ad, op)(*args)

    def test_non_finite_forward_trips(self):
        weights = Tensor(np.array([[0.0, 1.0]]))
        with pytest.raises(NonFiniteError):
            ad.selected_nll(weights, [0])  # log(0)

    def test_non_finite_constructor_trips(self):
        with pytest.raises(NonFiniteError):
            Tensor(np.array([1.0, np.nan]))

    def test_finite_values_whose_sum_overflows_pass(self):
        x = np.array([3e38, 3e38], np.float32)
        np.testing.assert_array_equal(Tensor(x).data, x)

    def test_both_infinities_raise_without_a_warning(self):
        # the suite turns numpy's invalid-value warning of inf + -inf into a failure
        with pytest.raises(NonFiniteError):
            Tensor(np.array([np.inf, 1.0, -np.inf]))

    def test_no_grad_matches_training_forward(self):
        rng = np.random.default_rng(11)
        forward, params = _random_composite(rng)
        tracked = forward()
        with ad.no_grad():
            untracked = forward()
        assert untracked._backward is None
        np.testing.assert_array_equal(tracked.data, untracked.data)

    def test_deterministic_forward_backward(self):
        def run():
            forward, params = _random_composite(np.random.default_rng(3))
            loss = forward()
            loss.backward()
            return loss.item(), [p.grad.copy() for p in params]

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        for a, b in zip(g1, g2):
            np.testing.assert_array_equal(a, b)

    def test_backward_frees_the_graph_and_keeps_leaf_gradients(self):
        forward, params = _random_composite(np.random.default_rng(6))
        loss = forward()
        hidden = loss._parents[0]
        loss.backward()
        assert all(p.grad is not None for p in params)
        for node in (loss, hidden):
            assert node.grad is None and node._parents == ()

    def test_second_backward_over_a_consumed_graph_raises(self):
        forward, params = _random_composite(np.random.default_rng(8))
        loss = forward()
        loss.backward()
        grads = [p.grad.copy() for p in params]
        with pytest.raises(GraphError, match="consumed"):
            loss.backward()
        with pytest.raises(GraphError, match="consumed"):
            (loss * 2.0).backward()
        for p, g in zip(params, grads):
            np.testing.assert_array_equal(p.grad, g)

    def test_constants_are_untracked(self):
        x = Tensor(np.ones(3))
        y = x * 2.0 + 1.0
        assert y._backward is None and y._parents == ()


class TestDtypes:
    def test_default_dtype_is_float32(self):
        assert Tensor([1, 2, 3]).dtype == np.float32

    def test_float64_is_preserved(self):
        x = Tensor(np.zeros(3, dtype=np.float64), requires_grad=True)
        y = x * x + 1.0
        assert y.dtype == np.float64
        y.sum().backward()
        assert x.grad.dtype == np.float64



# per op: its operands' shapes, and a call of the op on numpy arrays of
# those shapes; gated_units' and projection's padded rows stay numpy
MIXED_DTYPE_OPS = {
    "add": ([(3, 2), (3, 2)], lambda a, b: Tensor(a) + Tensor(b)),
    "mul": ([(3, 2), (3, 2)], lambda a, b: Tensor(a) * Tensor(b)),
    "projection": ([(4, 6), (5, 6), (5,)], lambda x, w, b: ad.projection(x, Tensor(w), Tensor(b))),
    "gated_units": (
        [(4, 6), (5, 6), (5,), (5, 6), (5,)],
        lambda x, *unit: ad.gated_units(x, [tuple(map(Tensor, unit))]),
    ),
    "branch_weights": (
        [(4, 3, 5), (2, 3), (2,), (3, 2), (3,)], lambda *a: ad.branch_weights(*map(Tensor, a))
    ),
    "branch_fusion": ([(4, 3), (4, 3, 5)], lambda *a: ad.branch_fusion(*map(Tensor, a))),
    "concat_rows": ([(4, 3), (2, 3)], lambda *a: ad.concat_rows([Tensor(x) for x in a])),
    "bilstm_layer": (
        [(4, 3), (3, 8), (2, 8), (8,), (3, 8), (2, 8), (8,)],
        lambda x, *w: ad.bilstm_layer(Tensor(x), tuple(map(Tensor, w[:3])), tuple(map(Tensor, w[3:]))),
    ),
    "classifier_head": (
        [(4, 3), (2, 3), (2,), (1, 2), (1,)], lambda *a: ad.classifier_head(*map(Tensor, a))
    ),
}


@pytest.mark.parametrize(
    "op, wide",
    [(op, i) for op, (shapes, _) in MIXED_DTYPE_OPS.items() for i in range(len(shapes))],
)
def test_one_float64_operand_among_float32_rejected(op, wide):
    shapes, call = MIXED_DTYPE_OPS[op]
    arrays = [np.full(shape, 0.5, np.float32) for shape in shapes]
    assert call(*arrays).dtype == np.float32
    arrays[wide] = arrays[wide].astype(np.float64)
    with pytest.raises(ShapeMismatch, match=rf"{op}: operands mix dtypes \['float32', 'float64'\]"):
        call(*arrays)


# each dtype for every operand, bias included
DENSE_DTYPES = [(np.float32, np.float32), (np.float64, np.float64)]


def _backward_with(out: Tensor, rng) -> np.ndarray:
    """Run backward from ``sum(out * g)`` for a random ``g`` in out's dtype,
    so that ``g`` is exactly the gradient the node receives; returns g."""
    g = rng.normal(size=out.shape).astype(out.dtype)
    (out * Tensor(g)).sum().backward()
    return g


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("f", [1, 40])
def test_window_matrix_equals_the_concatenated_slices(f, dtype):
    # the strided copy against the 2r + 1 shifted row slices side by side
    rng = np.random.default_rng(f)
    for radius in range(10):
        for t_len in (1, 2, 600):
            padded = rng.normal(size=(t_len + 2 * radius, f)).astype(dtype)
            windows = ad.window_matrix(padded, radius)
            expected = np.concatenate([padded[k : k + t_len] for k in range(2 * radius + 1)], axis=1)
            assert windows.dtype == dtype and windows.flags.c_contiguous
            assert not np.shares_memory(windows, padded)
            np.testing.assert_array_equal(windows, expected)


class TestDenseNodesExact:
    """The dense nodes against numpy in the op order they replaced: the
    projection through ``np.tanh(x @ w.T + b)`` with its bias added in a
    new array, and the gated units through ``np.tanh``, ``1 / (1 +
    exp(-z))`` and ``np.stack``. Output, dtype and every gradient must
    match bit for bit."""

    def _tensors(self, *arrays):
        return [Tensor(a, requires_grad=True) for a in arrays]

    def _assert_exact(self, tensors, out, expected, grads):
        assert out.dtype == expected.dtype
        np.testing.assert_array_equal(out.data, expected)
        for t, grad in zip(tensors, grads, strict=True):
            assert t.grad.dtype == grad.dtype
            np.testing.assert_array_equal(t.grad, grad)

    @pytest.mark.parametrize("t_len", [1, 7, 575])
    @pytest.mark.parametrize("dtype, b_dtype", DENSE_DTYPES)
    def test_projection(self, dtype, b_dtype, t_len):
        # against the affine node and the tanh node it replaced: the
        # tanh's backward, then the affine's weight and bias gradients
        rng = np.random.default_rng(32)
        x, w = rng.normal(size=(t_len, 12)).astype(dtype), rng.normal(size=(20, 12)).astype(dtype)
        x[0] *= 100.0  # a frame whose tanh saturates at exactly 1
        b = rng.normal(size=20).astype(b_dtype)
        tensors = self._tensors(w, b)
        out = ad.projection(x, *tensors)
        g = _backward_with(out, rng)
        expected = np.tanh(x @ w.T + b)
        d_z = g * (1.0 - expected * expected)
        assert (np.abs(expected[0]) == 1.0).any()
        self._assert_exact(tensors, out, expected, [(x.T @ d_z).T, d_z.sum(axis=0)])

    @pytest.mark.parametrize("dtype, b_dtype", DENSE_DTYPES)
    def test_gated_units(self, dtype, b_dtype):
        # units of 3 and 5 frames of 2 values over rows padded by 2 at each
        # end; their windows are column slices of the widest, as the node
        # rebuilds them for the backward
        rng = np.random.default_rng(33)
        d, t_len, f = 7, 29, 2
        padded = rng.normal(size=(t_len + 4, f)).astype(dtype)
        padded[5] *= 1000.0  # saturates some frames' gates: exp(-z) overflows
        widest = np.concatenate([padded[k : k + t_len] for k in range(5)], axis=1)
        inputs = [widest[:, 2:8], widest]
        arrays = [
            (rng.normal(size=(d, x.shape[1])).astype(dtype), rng.normal(size=d).astype(b_dtype))
            for x in inputs for _ in range(2)
        ]
        units = [(*arrays[2 * i], *arrays[2 * i + 1]) for i in range(len(inputs))]
        tensors = self._tensors(*(a for unit in units for a in unit))
        out = ad.gated_units(padded, [tuple(tensors[4 * i : 4 * i + 4]) for i in range(len(inputs))])
        g = _backward_with(out, rng)
        with np.errstate(over="ignore"):
            ths = [np.tanh(x @ w_f.T + b_f) for x, (w_f, b_f, _, _) in zip(inputs, units)]
            sgs = [1.0 / (1.0 + np.exp(-(x @ w_g.T + b_g))) for x, (_, _, w_g, b_g) in zip(inputs, units)]
        expected = np.stack([th * sg for th, sg in zip(ths, sgs)], axis=1)
        grads = []
        for i, (x, th, sg) in enumerate(zip(inputs, ths, sgs)):
            d_f = g[:, i] * sg * (1.0 - th * th)
            d_g = g[:, i] * th * sg * (1.0 - sg)
            grads += [(x.T @ d_f).T, d_f.sum(axis=0), (x.T @ d_g).T, d_g.sum(axis=0)]
        assert (sgs[1] == 0.0).any()
        self._assert_exact(tensors, out, expected, grads)

    @pytest.mark.parametrize("dtype, b_dtype", DENSE_DTYPES)
    def test_projection_over_padded_rows(self, dtype, b_dtype):
        # windows of 5 frames of 3 values: the node's product equals the one
        # over the window matrix, and so do the gradients from its rebuild
        rng = np.random.default_rng(34)
        padded = rng.normal(size=(11 + 4, 3)).astype(dtype)
        w, b = rng.normal(size=(6, 15)).astype(dtype), rng.normal(size=6).astype(b_dtype)
        windows = ad.window_matrix(padded, 2)
        tensors = self._tensors(w, b)
        out = ad.projection(padded, *tensors)
        g = _backward_with(out, rng)
        expected = np.tanh(windows @ w.T + b)
        d_z = g * (1.0 - expected * expected)
        self._assert_exact(tensors, out, expected, [(windows.T @ d_z).T, d_z.sum(axis=0)])


def _accumulate(total: dict, contributions: dict) -> None:
    """Add each tensor's gradient contributions into ``total`` one at a
    time and in order, the first one copied, as the graph accumulates."""
    for name, parts in contributions.items():
        for part in parts:
            if name in total:
                total[name] += part
            else:
                total[name] = part.copy()


def _sigmoid(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _branch_weights_chain(q, w0, b0, w1, b1, double_sigmoid):
    """The branch weights of the (T, n, d) stack q, and a function from
    their gradient to each input's gradient contributions, in the op order
    of the elementwise chain ``branch_weights`` replaced: mean, max, the
    shared net on the mean, then on the max, an add, a sigmoid, a second
    sigmoid if double, a row sum and a divide. That chain's backward ran
    the divide, then the sum, then the mean pass, then the max pass."""
    nets = []
    for d in (q.mean(axis=2), q.max(axis=2)):
        h = d @ w0.T + b0
        hidden = np.where(h > 0, h, 0.01 * h)
        nets.append((d, h, hidden, hidden @ w1.T + b1))
    raw = _sigmoid(nets[0][3] + nets[1][3])
    num = _sigmoid(raw) if double_sigmoid else raw
    den = num.sum(axis=-1, keepdims=True)
    p = num / den

    def backward(g):
        d_num = g / den + (-g * p / den).sum(axis=1, keepdims=True)
        d_raw = d_num * num * (1.0 - num) if double_sigmoid else d_num
        d_scores = d_raw * raw * (1.0 - raw)
        grads = {"stack": [], "w0": [], "b0": [], "w1": [], "b1": []}
        for (d, h, hidden, _), pooled in zip(nets, ("mean", "max")):
            grads["w1"].append((hidden.T @ d_scores).T)
            grads["b1"].append(d_scores.sum(axis=0))
            d_h = (d_scores @ w1) * np.where(h > 0, 1.0, 0.01).astype(h.dtype)
            grads["w0"].append((d.T @ d_h).T)
            grads["b0"].append(d_h.sum(axis=0))
            d_d = d_h @ w0
            if pooled == "mean":
                grads["stack"].append(np.broadcast_to(np.expand_dims(d_d / q.shape[2], 2), q.shape))
            else:
                d_q = np.zeros_like(q)
                idx = np.expand_dims(np.argmax(q, axis=2), 2)
                np.put_along_axis(d_q, idx, np.expand_dims(d_d, 2), 2)
                grads["stack"].append(d_q)
        return grads

    return p, backward


def _fusion_chain(p, q, g):
    """The fusion ``(p.reshape(T, n, 1) * q).sum(axis=1)`` and the
    gradients of p and q for its gradient g, as the reshape, the multiply
    and the sum gave them."""
    g_full = np.broadcast_to(g[:, None, :], q.shape).copy()  # what the sum passed back
    d_p = (g_full * q).sum(axis=(2,), keepdims=True).reshape(p.shape)
    return (p.reshape(p.shape + (1,)) * q).sum(axis=1), d_p, g_full * p[:, :, None]


class TestAttentionAndLossNodesExact:
    """The channel-attention and loss nodes against numpy in the op order
    of the elementwise chains they replaced. Output, dtype and every
    gradient must match bit for bit, also after a second ``backward``
    accumulates into the same leaves: a tensor fed from several places
    takes each contribution in its own accumulation, in the chain's
    order."""

    NAMES = ("stack", "w0", "b0", "w1", "b1")

    def _attention_arrays(self, rng, dtype, t_len=23, n=5, d=7, a=6):
        q = rng.normal(size=(t_len, n, d)).astype(dtype)
        q[0, 1, [3, 5]] = 4.0  # a tie: the max pass's gradient goes to the first
        shapes = [(a, n), (a,), (n, a), (n,)]
        return [q] + [rng.normal(size=shape).astype(dtype) for shape in shapes]

    def _assert_grads(self, tensors, names, expected):
        for t, name in zip(tensors, names, strict=True):
            assert t.grad.dtype == expected[name].dtype
            np.testing.assert_array_equal(t.grad, expected[name])

    @pytest.mark.parametrize("double", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_branch_weights(self, dtype, double):
        rng = np.random.default_rng(34)
        arrays = self._attention_arrays(rng, dtype)
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        expected = {}
        for _ in range(2):
            out = ad.branch_weights(*tensors, double_sigmoid=double)
            g = _backward_with(out, rng)
            p, chain_backward = _branch_weights_chain(*arrays, double)
            assert out.dtype == p.dtype == dtype
            np.testing.assert_array_equal(out.data, p)
            grads = chain_backward(g)
            assert grads["stack"][1][0, 1, 5] == 0.0 != grads["stack"][1][0, 1, 3]
            _accumulate(expected, grads)
        self._assert_grads(tensors, self.NAMES, expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_branch_fusion(self, dtype):
        rng = np.random.default_rng(35)
        q = rng.normal(size=(19, 4, 6)).astype(dtype)
        p = rng.random((19, 4)).astype(dtype)
        tensors = [Tensor(p, requires_grad=True), Tensor(q, requires_grad=True)]
        expected = {}
        for _ in range(2):
            out = ad.branch_fusion(*tensors)
            g = _backward_with(out, rng)
            fused, d_p, d_q = _fusion_chain(p, q, g)
            assert out.dtype == dtype
            np.testing.assert_array_equal(out.data, fused)
            _accumulate(expected, {"weights": [d_p], "stack": [d_q]})
        self._assert_grads(tensors, ("weights", "stack"), expected)

    @pytest.mark.parametrize("double", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_attention_layer_takes_contributions_in_the_chain_order(self, dtype, double):
        # the stack feeds the fusion and both poolings, and the weights
        # feed the fusion and the attention loss, as in a training graph
        rng = np.random.default_rng(36)
        arrays = self._attention_arrays(rng, dtype)
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        expected = {}
        for _ in range(2):
            weights = ad.branch_weights(*tensors, double_sigmoid=double)
            fused = ad.branch_fusion(weights, tensors[0])
            g = rng.normal(size=fused.shape).astype(dtype)
            k = rng.integers(0, arrays[0].shape[1], fused.shape[0])
            ((fused * Tensor(g)).sum() + ad.selected_nll(weights, k)).backward()

            p, chain_backward = _branch_weights_chain(*arrays, double)
            _, d_p, d_q = _fusion_chain(p, arrays[0], g)
            rows = np.arange(k.size)
            picked_grad = np.broadcast_to(np.asarray(-1.0, dtype), k.shape).copy() / p[rows, k]
            np.add.at(d_p, (rows, k), picked_grad)
            grads = chain_backward(d_p)
            grads["stack"].insert(0, d_q)
            _accumulate(expected, grads)
        self._assert_grads(tensors, self.NAMES, expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cross_entropy(self, dtype):
        rng = np.random.default_rng(37)
        probs = rng.random(41).astype(dtype)
        probs[:4] = [0.0, 1.0, 1e-9, 1.0 - 1e-9]  # clamped: no gradient
        labels = rng.integers(0, 2, 41)
        tensor = Tensor(probs, requires_grad=True)
        y = labels.astype(dtype)
        pc = np.clip(probs, 1e-7, 1.0 - 1e-7)
        inside = ((probs >= 1e-7) & (probs <= 1.0 - 1e-7)).astype(dtype)
        neg = np.asarray(-1.0, dtype)
        expected = {}
        for _ in range(2):
            out = ad.cross_entropy(tensor, labels, 1e-7)
            g = _backward_with(out, rng)
            loss = (y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)).sum() * neg
            assert out.dtype == dtype
            np.testing.assert_array_equal(out.data, loss)
            g_term = np.broadcast_to(g * neg, y.shape).copy()
            d_pc = (g_term * y) / pc  # the log of p, then the log of 1 - p
            d_pc += -((g_term * (1.0 - y)) / (1.0 - pc))
            _accumulate(expected, {"probs": [d_pc * inside]})
        np.testing.assert_array_equal(tensor.grad[:4], 0.0)
        self._assert_grads([tensor], ("probs",), expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_selected_nll(self, dtype):
        rng = np.random.default_rng(38)
        weights = (rng.random((29, 5)) + 0.01).astype(dtype)
        tensor = Tensor(weights, requires_grad=True)
        rows = np.arange(29)
        expected = np.zeros_like(weights)
        for _ in range(2):
            k = rng.integers(0, 5, 29)
            out = ad.selected_nll(tensor, k)
            g = _backward_with(out, rng)
            picked = weights[rows, k]
            assert out.dtype == dtype
            np.testing.assert_array_equal(out.data, np.log(picked).sum() * np.asarray(-1.0, dtype))
            g_picked = np.broadcast_to(g * np.asarray(-1.0, dtype), picked.shape).copy()
            np.add.at(expected, (rows, k), g_picked / picked)
        assert tensor.grad.dtype == dtype
        np.testing.assert_array_equal(tensor.grad, expected)


@pytest.mark.parametrize("module", ["mlnetvad", "mlnetvad.autodiff"])
def test_every_exported_name_resolves(module):
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    mod = importlib.import_module(module)
    for name in mod.__all__:
        assert getattr(mod, name) is namespace[name]


def _autodiff_names_used(tree: ast.Module) -> set[str]:
    """The names a module takes from ``autodiff``: ``ad.name`` or
    ``autodiff.name``, and ``from ...autodiff import name``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in ("ad", "autodiff"):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("autodiff"):
            used.update(alias.name for alias in node.names)
    return used


def _names(nodes) -> Counter:
    """How often each identifier is read or written as a name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in nodes
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_exported_op_has_a_caller():
    # an op, a top-level function, a public method or a class that loses its
    # last caller in the package, the benchmark or the tools fails here; a
    # function or class naming itself inside its own body does not count,
    # and a function the package exports needs no caller
    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "mlnetvad").glob("*.py"))
    others = sorted((root / "vadbench").glob("*.py")) + sorted((root / "tools").glob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in package + others}
    used = set().union(*(_autodiff_names_used(t) for p, t in trees.items() if p.name != "autodiff.py"))
    assert sorted(set(ad.__all__) - used) == []
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    attributes = {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    everywhere = _names(nodes)
    public, unnamed = [], []
    for path in package:
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                exported = isinstance(node, ast.FunctionDef) and node.name in mlnetvad.__all__
                if not exported and everywhere[node.name] == _names(ast.walk(node))[node.name]:
                    unnamed.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                public += [
                    f"{path.stem}.{node.name}.{m.name}"
                    for m in node.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                ]
    assert [name for name in public if name.rsplit(".", 1)[1] not in attributes] == []
    assert unnamed == []


def _per_frame(xproj: np.ndarray, w_h: np.ndarray, reverse: bool) -> np.ndarray:
    """One direction of a Bi-LSTM layer, one frame at a time in numpy: its
    (T, H) hidden states in time order, from the (T, 4H) input rows. The
    recurrent product is a row of a 2-row GEMM, as in the layer."""
    t_len, h_dim = xproj.shape[0], w_h.shape[0]
    h = np.zeros((1, h_dim))
    c = np.zeros((1, h_dim))
    rows = np.empty((t_len, h_dim))
    for t in (range(t_len - 1, -1, -1) if reverse else range(t_len)):
        z = xproj[t : t + 1] + gemm_rows(h, w_h)
        i, f, _, o = np.split(1.0 / (1.0 + np.exp(-z)), 4, axis=1)
        g = np.tanh(z[:, 2 * h_dim : 3 * h_dim])
        c = f * c + i * g
        h = o * np.tanh(c)
        rows[t] = h[0]
    return rows


def _lstm_direction(rng, in_dim: int, h_dim: int, dtype=np.float64, w_x=None, b=None) -> tuple:
    """A tracked (w_x, w_h, b) of one direction: random w_x and b unless
    given, and a random w_h scaled by 1 / sqrt(H)."""
    if w_x is None:
        w_x = rng.normal(size=(in_dim, 4 * h_dim)) / in_dim**0.5
    if b is None:
        b = rng.normal(size=4 * h_dim) * 0.1
    w_h = rng.normal(size=(h_dim, 4 * h_dim)) / h_dim**0.5
    return tuple(Tensor(np.asarray(a, dtype), requires_grad=True) for a in (w_x, w_h, b))


class TestLstmSequence:
    """Each direction of the layer op must give exactly the hidden states
    of a per-frame numpy loop, forward in time for the first half of its
    columns and backward in time for the second, and gradients that match
    central differences of that loop."""

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("t_len", [1, 2, 7])
    def test_matches_per_frame_composite(self, t_len, reverse):
        rng = np.random.default_rng(100 * t_len + reverse)
        h_dim = 5
        dirs = [_lstm_direction(rng, 3, h_dim) for _ in range(2)]
        x = Tensor(rng.normal(size=(t_len, 3)))
        d = int(reverse)  # the direction under test; the other one gets no loss
        w_x, w_h, b = dirs[d]
        cols = slice(d * h_dim, (d + 1) * h_dim)
        coeffs = rng.normal(size=(t_len, h_dim))

        def per_frame() -> np.ndarray:
            return _per_frame(x.data @ w_x.data + b.data, w_h.data, reverse)

        out = ad.bilstm_layer(x, *dirs)
        np.testing.assert_array_equal(out.data[:, cols], per_frame())
        weighted = np.zeros((t_len, 2 * h_dim))
        weighted[:, cols] = coeffs
        (out * Tensor(weighted)).sum().backward()
        for p in dirs[1 - d]:
            np.testing.assert_array_equal(p.grad, 0.0)
        numeric = numeric_grad(lambda: float((per_frame() * coeffs).sum()), dirs[d])
        for p, n in zip(dirs[d], numeric):
            assert rel_error(p.grad, n) <= 1e-5


class TestBilstmLayer:
    def test_no_grad_gives_the_same_states(self):
        rng = np.random.default_rng(4)
        seq = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        dirs = [_lstm_direction(rng, 3, 2) for _ in range(2)]
        tracked = ad.bilstm_layer(seq, *dirs)
        with ad.no_grad():
            untracked = ad.bilstm_layer(seq, *dirs)
        assert untracked._backward is None
        np.testing.assert_array_equal(tracked.data, untracked.data)

    @pytest.mark.parametrize(
        "seq, fwd, bwd",
        [  # each case breaks one shape of seq (3, 5) and (w_x, w_h, b) (5, 16), (4, 16), (16,)
            ((15,), [(5, 16), (4, 16), (16,)], [(5, 16), (4, 16), (16,)]),  # seq not 2-D
            ((3, 6), [(5, 16), (4, 16), (16,)], [(5, 16), (4, 16), (16,)]),  # w_x not seq's width
            ((3, 5), [(5, 12), (4, 16), (16,)], [(5, 16), (4, 16), (16,)]),  # w_x narrower than 4H
            ((3, 5), [(5, 16), (4, 16), (12,)], [(5, 16), (4, 16), (16,)]),  # b not 4H
            ((3, 5), [(5, 16), (4, 16), (16,)], [(5, 12), (3, 12), (12,)]),  # directions of different widths
            ((3, 5), [(5, 16), (4, 16), (16,)], [(5, 16), (4, 16)]),  # no bias
            ((3, 5), [(5, 16), (), (16,)], [(5, 16), (4, 16), (16,)]),  # w_h not 2-D
        ],
    )
    def test_shape_mismatch_rejected(self, seq, fwd, bwd):
        def tensors(shapes):
            return [Tensor(np.zeros(shape)) for shape in shapes]

        with pytest.raises(ShapeMismatch, match="bilstm_layer"):
            ad.bilstm_layer(Tensor(np.zeros(seq)), tensors(fwd), tensors(bwd))

    @pytest.mark.parametrize("lengths", [[5, 1, 9], [70, 1, 130, 64, 2]])
    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_packed_batch_matches_single_calls(self, lengths, dtype, tol):
        # ragged lengths, one of 1 frame, some longer than one scan block
        rng = np.random.default_rng(len(lengths))
        seq = rng.normal(size=(sum(lengths), 6)).astype(dtype)
        dirs = [_lstm_direction(rng, 6, 4, dtype) for _ in range(2)]
        with ad.no_grad():
            packed = ad.bilstm_layer(Tensor(seq), *dirs, lengths=lengths).data
            singles = [
                ad.bilstm_layer(Tensor(x), *dirs).data for x in np.split(seq, np.cumsum(lengths)[:-1])
            ]
        assert packed.dtype == dtype
        np.testing.assert_allclose(packed, np.concatenate(singles), rtol=0, atol=tol)

    def test_packed_gradients_match_single_calls(self):
        # with a graph the utterances are lanes: exactly the single calls'
        # outputs and gradients, the parameters' summed in utterance order
        rng = np.random.default_rng(9)
        lengths = [6, 1, 70]
        seq = rng.normal(size=(sum(lengths), 5))
        dirs = [_lstm_direction(rng, 5, 3) for _ in range(2)]
        params = [t for d in dirs for t in d]
        coeffs = rng.normal(size=(sum(lengths), 6))
        packed = Tensor(seq, requires_grad=True)
        out = ad.bilstm_layer(packed, *dirs, lengths=lengths)
        (out * Tensor(coeffs)).sum().backward()
        packed_grads = [t.grad for t in params]
        ad.zero_grads(params)

        outs, d_seq = [], []
        for rows in np.split(np.arange(sum(lengths)), np.cumsum(lengths)[:-1]):
            single = Tensor(seq[rows], requires_grad=True)
            outs.append(ad.bilstm_layer(single, *dirs))
            (outs[-1] * Tensor(coeffs[rows])).sum().backward()
            d_seq.append(single.grad)
        np.testing.assert_array_equal(out.data, np.concatenate([o.data for o in outs]))
        np.testing.assert_array_equal(packed.grad, np.concatenate(d_seq))
        for t, grad in zip(params, packed_grads):
            np.testing.assert_array_equal(grad, t.grad)

    @pytest.mark.parametrize("lengths", [[1, 7], [7, 65], [65, 577], [577, 1], [65, 1, 30, 64]])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("h_dim", [5, 8, 64])
    def test_lanes_equal_single_calls_bit_for_bit(self, h_dim, dtype, lengths, scale=1.0):
        # the packed graph-mode call against one call per utterance, over
        # two backward passes into the same leaves: each call's passes in
        # turn, as the packed call takes its lanes' contributions in order
        rng = np.random.default_rng(h_dim + sum(lengths))
        in_dim = 16 if h_dim < 64 else 128
        seq = rng.normal(size=(sum(lengths), in_dim)).astype(dtype)
        dirs = [_lstm_direction(rng, in_dim, h_dim, dtype) for _ in range(2)]
        params = [t for d in dirs for t in d]
        for t in params:
            t.data *= scale
        coeffs = [rng.normal(size=(sum(lengths), 2 * h_dim)).astype(dtype) for _ in range(2)]
        packed = Tensor(seq, requires_grad=True)
        outs = []
        for c in coeffs:
            outs.append(ad.bilstm_layer(packed, *dirs, lengths=lengths))
            (outs[-1] * Tensor(c)).sum().backward()
        packed_grads = [t.grad for t in params]
        ad.zero_grads(params)
        rows = np.split(np.arange(sum(lengths)), np.cumsum(lengths)[:-1])
        singles = [Tensor(seq[r], requires_grad=True) for r in rows]
        for out, c in zip(outs, coeffs):
            single_outs = []
            for single, r in zip(singles, rows):
                single_outs.append(ad.bilstm_layer(single, *dirs))
                (single_outs[-1] * Tensor(c[r])).sum().backward()
            np.testing.assert_array_equal(out.data, np.concatenate([o.data for o in single_outs]))
        np.testing.assert_array_equal(packed.grad, np.concatenate([t.grad for t in singles]))
        for t, grad, name in zip(params, packed_grads, TestClassifierNodesExact.LAYER_NAMES[1:]):
            assert grad.dtype == dtype
            np.testing.assert_array_equal(grad, t.grad, err_msg=name)

    @pytest.mark.parametrize("scale", [50.0, 1000.0])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("h_dim", [5, 8, 64])
    def test_saturated_lanes_equal_single_calls_bit_for_bit(self, h_dim, dtype, scale):
        # weights scaled until sigmoid gates round to exactly 0 and 1 (and
        # at 1000, exp(-z) overflows): the shorter lanes' padded steps, on
        # stale projections, must still pass each lane zero state
        # gradients at its last real step
        lengths = [65, 1, 30, 64, 130]
        self.test_lanes_equal_single_calls_bit_for_bit(h_dim, dtype, lengths, scale)
        # the forward direction's input projection, drawn as that call drew it
        rng = np.random.default_rng(h_dim + sum(lengths))
        in_dim = 16 if h_dim < 64 else 128
        seq = rng.normal(size=(sum(lengths), in_dim)).astype(dtype)
        z = np.abs(seq @ (_lstm_direction(rng, in_dim, h_dim, dtype)[0].data * scale))
        assert (1.0 + np.exp(-z) == 1.0).any()

    @pytest.mark.parametrize("graph", [False, True])
    @pytest.mark.parametrize("lengths", [[70], [9, 1, 100, 64]])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("h_dim", [5, 16, 64])
    def test_matches_the_packed_gate_reference_bit_for_bit(self, h_dim, dtype, lengths, graph):
        # float32 gradients equal bit for bit are what a retrained model's
        # first step relies on; the longest utterance spans two scan blocks.
        # The input is both directions' projections side by side, and each
        # w_x picks its half: a product by an identity and zeros is exact
        # under any GEMM kernel. Without a graph the layer is the packed
        # reference over all utterances; with one, each utterance is a lane
        # that equals the reference over it alone, and the parameters sum
        # the lanes' gradients in order.
        rng = np.random.default_rng(h_dim)
        rows, four_h = sum(lengths), 4 * h_dim
        xs = [rng.normal(size=(rows, four_h)).astype(dtype) for _ in range(2)]
        seq = np.hstack(xs)
        picks = [np.eye(2 * four_h, four_h, k=-d * four_h) for d in range(2)]
        dirs = [_lstm_direction(rng, 2 * four_h, h_dim, dtype, w_x=pick, b=np.zeros(four_h)) for pick in picks]
        ws = [d[1].data for d in dirs]
        coeffs = rng.normal(size=(rows, 2 * h_dim)).astype(dtype)
        seq_t = Tensor(seq, requires_grad=True)
        if not graph:
            out_ref = bilstm_reference(xs, ws, lengths, coeffs)[0]
            with ad.no_grad():
                out = ad.bilstm_layer(seq_t, *dirs, lengths=lengths)
            np.testing.assert_array_equal(out.data, out_ref)
            return
        out = ad.bilstm_layer(seq_t, *dirs, lengths=lengths)
        (out * Tensor(coeffs)).sum().backward()
        outs, d_seqs, expected = [], [], {}
        for rows_of in np.split(np.arange(rows), np.cumsum(lengths)[:-1]):
            out_ref, dx_f, dx_b, dw_f, dw_b = bilstm_reference(
                [x[rows_of] for x in xs], ws, [rows_of.size], coeffs[rows_of]
            )
            outs.append(out_ref)
            d_seq = dx_f @ dirs[0][0].data.T
            d_seq += dx_b @ dirs[1][0].data.T
            d_seqs.append(d_seq)
            grads = {}
            for tag, dx, dw in (("f", dx_f, dw_f), ("b", dx_b, dw_b)):
                grads |= {f"w_x_{tag}": [seq[rows_of].T @ dx], f"w_h_{tag}": [dw], f"b_{tag}": [dx.sum(axis=0)]}
            _accumulate(expected, grads)
        np.testing.assert_array_equal(out.data, np.concatenate(outs))
        expected["seq"] = np.concatenate(d_seqs)
        tensors = [seq_t, *dirs[0], *dirs[1]]
        assert out.dtype == dtype and all(t.grad.dtype == dtype for t in tensors)
        for t, name in zip(tensors, TestClassifierNodesExact.LAYER_NAMES, strict=True):
            np.testing.assert_array_equal(t.grad, expected[name], err_msg=name)

    @pytest.mark.parametrize("graph", [False, True])
    def test_scoring_projects_each_utterance_on_its_own_rows(self, graph):
        # with a graph or without one, each scan block and direction
        # projects min(SCAN_BLOCK, T) consecutive rows of each utterance in a
        # GEMM of their own: the block's rows, shifted back to stay inside
        # the utterance, in frame order. The recurrent step stays one
        # (2, B, H) @ (2, H, 4H) matmul. At H = 64 in float32 a GEMM over
        # every utterance's rows of a block, or over only a block's real
        # rows (1 of the 65-frame utterance's second block), rounds some
        # rows differently, so either fails here
        lengths, in_dim, h_dim, dtype = [65, 1, 30, 64], 128, 64, np.float32
        rng = np.random.default_rng(22)
        seq = rng.normal(size=(sum(lengths), in_dim)).astype(dtype)
        dirs = [_lstm_direction(rng, in_dim, h_dim, dtype) for _ in range(2)]
        xs = [np.empty((sum(lengths), 4 * h_dim), dtype) for _ in range(2)]
        for first, length in zip(np.cumsum(lengths) - lengths, lengths):
            size = min(ad.SCAN_BLOCK, length)
            for start in range(0, length, ad.SCAN_BLOCK):
                skip = max(0, start + size - length)
                steps = np.arange(start - skip, start - skip + size)
                for x, frames, (w_x, _, b) in zip(xs, (first + steps, first + length - 1 - steps), dirs):
                    window = np.sort(frames)
                    real = np.isin(window, frames[skip:])  # the block's own steps
                    x[window[real]] = (seq[window] @ w_x.data + b.data)[real]
        ws = [d[1].data for d in dirs]
        out_ref = bilstm_reference(xs, ws, lengths, np.zeros((sum(lengths), 2 * h_dim), dtype))[0]
        if graph:  # each lane also against a call on it alone
            out = ad.bilstm_layer(Tensor(seq, requires_grad=True), *dirs, lengths=lengths)
            parts = np.split(seq, np.cumsum(lengths)[:-1])
            singles = [ad.bilstm_layer(Tensor(x, requires_grad=True), *dirs).data for x in parts]
            np.testing.assert_array_equal(out.data, np.concatenate(singles))
        else:
            with ad.no_grad():
                out = ad.bilstm_layer(Tensor(seq), *dirs, lengths=lengths)
        np.testing.assert_array_equal(out.data, out_ref)

    @pytest.mark.parametrize("graph", [False, True])
    def test_non_finite_projection_raises(self, graph):
        # float32 products of 1e20 and 1e20 overflow to inf in the input projection
        rng = np.random.default_rng(12)
        seq = Tensor(np.full((70, 3), 1e20, np.float32), requires_grad=graph)
        dirs = [_lstm_direction(rng, 3, 2, np.float32, w_x=np.full((3, 8), 1e20)) for _ in range(2)]
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="bilstm_layer"):
            ad.bilstm_layer(seq, *dirs)

    @pytest.mark.parametrize("graph", [False, True])
    def test_one_non_finite_row_of_a_later_block_raises_without_a_warning(self, graph):
        # row 20 of 200 is the backward direction's step 179, in the third
        # scan block, and the forward direction's step 20, in the first.
        # Only the backward w_x overflows on it, to both infinities once the
        # sigmoid gates' columns are negated. No errstate here: the layer
        # must raise, not warn
        rng = np.random.default_rng(13)
        x = rng.normal(size=(200, 3)).astype(np.float32)
        x[20, 0] = 1e30
        w_xs = [rng.normal(size=(3, 8)) for _ in range(2)]
        w_xs[0][0] = 0.0
        w_xs[1][0] = 1e10
        seq = Tensor(x, requires_grad=graph)
        dirs = [_lstm_direction(rng, 3, 2, np.float32, w_x=w_x) for w_x in w_xs]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NonFiniteError, match="bilstm_layer"):
                ad.bilstm_layer(seq, *dirs)
            x[20, 0] = 0.0
            ad.bilstm_layer(Tensor(x, requires_grad=graph), *dirs)  # the other rows are finite
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("lengths", [[2, 2], [4, 4], [3, 2, 0], [4, 3, -1], [3, 0, 4], []])
    def test_lengths_that_do_not_split_the_rows_rejected(self, lengths):
        dirs = [[Tensor(np.zeros(shape)) for shape in [(3, 8), (2, 8), (8,)]] for _ in range(2)]
        with pytest.raises(ShapeMismatch, match="lengths"):
            ad.bilstm_layer(Tensor(np.zeros((7, 3))), *dirs, lengths=lengths)

    def test_no_grad_memory_is_the_output_plus_scratch(self):
        # without a graph the op keeps per-block scratch only: the two
        # directions' whole projections alone would be four times the output
        rng = np.random.default_rng(5)
        t_len, h_dim = 2000, 8
        seq = Tensor(rng.normal(size=(t_len, 4 * h_dim)))
        dirs = [_lstm_direction(rng, 4 * h_dim, h_dim) for _ in range(2)]
        tracemalloc.start()
        try:
            with ad.no_grad():
                out = ad.bilstm_layer(seq, *dirs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * out.data.nbytes + 64 * 1024

    def test_graph_memory_is_the_output_plus_kept_buffers(self):
        # with a graph the op holds, per step and direction, six H-wide
        # rows: the output, the four gate activations and the cell state
        # (the backward computes its tanh again); anything more per step,
        # such as a projection, shows here
        rng = np.random.default_rng(5)
        t_len, h_dim = 2000, 8
        seq = Tensor(rng.normal(size=(t_len, 4 * h_dim)), requires_grad=True)
        dirs = [_lstm_direction(rng, 4 * h_dim, h_dim) for _ in range(2)]
        tracemalloc.start()
        try:
            out = ad.bilstm_layer(seq, *dirs)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        row = 2 * h_dim * out.data.itemsize  # one H-wide row for each direction
        assert held < 6 * t_len * row + 32 * 1024


class TestPacking:
    def test_concat_then_split_routes_each_part_its_rows(self):
        rng = np.random.default_rng(40)
        parts = [Tensor(rng.normal(size=(t, 3)), requires_grad=True) for t in (2, 1, 4)]
        packed = ad.concat_rows(parts)
        np.testing.assert_array_equal(packed.data, np.concatenate([p.data for p in parts]))
        pieces = ad.split_rows(packed, [3, 4])
        assert [p.shape for p in pieces] == [(3, 3), (4, 3)]
        coeffs = rng.normal(size=(7, 3))
        ((pieces[1] * Tensor(coeffs[3:])).sum() + (pieces[0] * Tensor(coeffs[:3])).sum()).backward()
        np.testing.assert_array_equal(np.concatenate([p.grad for p in parts]), coeffs)

    def test_split_keeps_the_sign_of_a_zero_gradient(self):
        # a part's -0.0 reaches the packed gradient as -0.0: the rows start
        # at -0.0, since 0.0 + -0.0 would give 0.0; rows of no part stay -0.0
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        piece = ad.split_rows(x, [1, 2])[1]
        (piece * Tensor(np.array([[-0.0, 1.0], [0.0, -0.0]]))).sum().backward()
        np.testing.assert_array_equal(np.signbit(x.grad), [[True, True], [True, False], [False, True]])

    def test_without_a_graph_the_parts_are_views(self):
        x = Tensor(np.arange(6.0).reshape(3, 2))
        with ad.no_grad():
            pieces = ad.split_rows(x, [2, 1])
            packed = ad.concat_rows(pieces)
        assert all(p._backward is None and np.shares_memory(p.data, x.data) for p in pieces)
        assert packed._backward is None
        np.testing.assert_array_equal(packed.data, x.data)

    @pytest.mark.parametrize("shapes", [[], [(2, 3), (2, 4)], [(2, 3), ()]])
    def test_concat_of_mismatched_parts_rejected(self, shapes):
        with pytest.raises(ShapeMismatch, match="concat_rows"):
            ad.concat_rows([Tensor(np.ones(shape)) for shape in shapes])

    @pytest.mark.parametrize("lengths", [[2, 1], [4, 0], []])
    def test_split_into_lengths_that_do_not_cover_the_rows_rejected(self, lengths):
        with pytest.raises(ShapeMismatch, match="lengths"):
            ad.split_rows(Tensor(np.ones((4, 2))), lengths)


def _head_chain(seq, w_hidden, b_hidden, w_out, b_out):
    """The head's probabilities and a function from their gradient to each
    input's gradient, in the op order of the chain ``classifier_head``
    replaced: an affine layer, a leaky ReLU, an affine layer, a reshape and
    a sigmoid, with their backward in reverse."""
    z = seq @ w_hidden.T + b_hidden
    hidden = np.where(z > 0, z, 0.01 * z)
    logits = hidden @ w_out.T + b_out
    probs = _sigmoid(logits.reshape(logits.shape[0]))

    def backward(g):
        d_logits = (g * probs * (1.0 - probs)).reshape(logits.shape)
        d_z = (d_logits @ w_out) * np.where(z > 0, 1.0, 0.01).astype(z.dtype)
        return {
            "w_out": [(hidden.T @ d_logits).T], "b_out": [d_logits.sum(axis=0)],
            "seq": [d_z @ w_hidden], "w_hidden": [(seq.T @ d_z).T], "b_hidden": [d_z.sum(axis=0)],
        }

    return probs, backward


class TestClassifierNodesExact:
    """The Bi-LSTM layer and the head against numpy in the op order of the
    nodes they replaced: each direction's ``seq @ w_x + b`` over the whole
    input, the packed-gate scan of ``bilstm_reference`` over each
    utterance alone, and the head's chain. Output, dtype and every gradient must match bit for bit, also
    after a second ``backward`` accumulates into the same leaves, where
    ``seq`` takes the forward direction's contribution first. The layer's
    per-block projections round as the whole-input one at these shapes
    (H of 8 and 64) with OpenBLAS."""

    LAYER_NAMES = ("seq", "w_x_f", "w_h_f", "b_f", "w_x_b", "w_h_b", "b_b")

    @pytest.mark.parametrize(
        "lengths",
        # one utterance of one row, within one block, one step past a
        # block, the default length, and past several blocks; a ragged
        # batch whose last block has one row
        [[1], [7], [65], [575], [577], [2998], [65, 1, 30, 64]],
    )
    @pytest.mark.parametrize("in_dim, h_dim", [(16, 8), (128, 64)])
    @pytest.mark.parametrize("dtype, b_dtype", DENSE_DTYPES)
    def test_bilstm_layer(self, dtype, b_dtype, in_dim, h_dim, lengths):
        rng = np.random.default_rng(h_dim + len(lengths))
        seq = rng.normal(size=(sum(lengths), in_dim)).astype(dtype)
        seq_t = Tensor(seq, requires_grad=True)
        dirs = [
            (w_x, w_h, Tensor(b.data.astype(b_dtype), requires_grad=True))
            for w_x, w_h, b in (_lstm_direction(rng, in_dim, h_dim, dtype) for _ in range(2))
        ]
        tensors = [seq_t, *dirs[0], *dirs[1]]
        ws = [w_h.data for _, w_h, _ in dirs]
        expected = {}
        for _ in range(2):
            out = ad.bilstm_layer(seq_t, *dirs, lengths=lengths)
            g = _backward_with(out, rng)
            # each utterance a lane: its reference alone, the lanes'
            # parameter gradients summed in order
            outs, d_seq, grads = [], [[], []], {}
            for rows in np.split(np.arange(sum(lengths)), np.cumsum(lengths)[:-1]):
                xs = [seq[rows] @ w_x.data + b.data for w_x, _, b in dirs]
                out_ref, dx_f, dx_b, dw_f, dw_b = bilstm_reference(xs, ws, [rows.size], g[rows])
                outs.append(out_ref)
                for d, (tag, dx, dw) in enumerate((("f", dx_f, dw_f), ("b", dx_b, dw_b))):
                    d_seq[d].append(dx @ dirs[d][0].data.T)
                    for name, part in ((f"w_x_{tag}", seq[rows].T @ dx), (f"w_h_{tag}", dw), (f"b_{tag}", dx.sum(axis=0))):
                        grads.setdefault(name, []).append(part)
            assert out.dtype == dtype
            np.testing.assert_array_equal(out.data, np.concatenate(outs))
            grads["seq"] = [np.concatenate(parts) for parts in d_seq]
            _accumulate(expected, grads)
        for t, name in zip(tensors, self.LAYER_NAMES, strict=True):
            assert t.grad.dtype == dtype
            np.testing.assert_array_equal(t.grad, expected[name], err_msg=name)

    @pytest.mark.parametrize("dtype, b_dtype", DENSE_DTYPES)
    def test_classifier_head(self, dtype, b_dtype):
        rng = np.random.default_rng(39)
        arrays = [
            rng.normal(size=(37, 12)).astype(dtype),
            rng.normal(size=(9, 12)).astype(dtype), rng.normal(size=9).astype(b_dtype),
            rng.normal(size=(1, 9)).astype(dtype), rng.normal(size=1).astype(b_dtype),
        ]
        arrays[0][3] *= 1000.0  # a frame whose probability saturates
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        names = ("seq", "w_hidden", "b_hidden", "w_out", "b_out")
        expected = {}
        for _ in range(2):
            out = ad.classifier_head(*tensors)
            g = _backward_with(out, rng)
            probs, chain_backward = _head_chain(*arrays)
            assert out.dtype == probs.dtype == dtype
            np.testing.assert_array_equal(out.data, probs)
            _accumulate(expected, chain_backward(g))
        assert out.data[3] in (0.0, 1.0)
        for t, name in zip(tensors, names, strict=True):
            assert t.grad.dtype == expected[name].dtype
            np.testing.assert_array_equal(t.grad, expected[name], err_msg=name)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_classifier_head_lanes_equal_single_calls(self, dtype):
        # with a graph, each utterance's GEMMs run over its own rows; the
        # parameters sum the utterances' gradients in order
        rng = np.random.default_rng(41)
        lengths = [65, 1, 30, 64]
        seq = rng.normal(size=(sum(lengths), 12)).astype(dtype)
        head = [Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True) for shape in ((9, 12), (9,), (1, 9), (1,))]
        g = rng.normal(size=sum(lengths)).astype(dtype)
        packed = Tensor(seq, requires_grad=True)
        out = ad.classifier_head(packed, *head, lengths=lengths)
        (out * Tensor(g)).sum().backward()
        packed_grads = [t.grad for t in head]
        ad.zero_grads(head)
        rows = np.split(np.arange(sum(lengths)), np.cumsum(lengths)[:-1])
        singles = [Tensor(seq[r], requires_grad=True) for r in rows]
        probs = []
        for single, r in zip(singles, rows):
            probs.append(ad.classifier_head(single, *head))
            (probs[-1] * Tensor(g[r])).sum().backward()
        np.testing.assert_array_equal(out.data, np.concatenate([p.data for p in probs]))
        np.testing.assert_array_equal(packed.grad, np.concatenate([t.grad for t in singles]))
        for t, grad in zip(head, packed_grads):
            np.testing.assert_array_equal(grad, t.grad)
        with ad.no_grad():
            np.testing.assert_array_equal(
                ad.classifier_head(packed, *head, lengths=lengths).data, ad.classifier_head(packed, *head).data
            )
