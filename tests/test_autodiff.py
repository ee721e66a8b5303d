"""Compute-core tests: forward values, backward rules, graph semantics."""

import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mlnetvad.autodiff as ad
from helpers import bilstm_reference, numeric_grad, rel_error
from mlnetvad.autodiff import Tensor
from mlnetvad.errors import GraphError, NonFiniteError, ShapeMismatch


class TestForwardValues:
    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(Tensor(0.0)).item() == 0.5

    def test_tanh_at_zero(self):
        assert ad.tanh(Tensor(0.0)).item() == 0.0

    def test_sigmoid_stable_at_extremes(self):
        out = ad.sigmoid(Tensor(np.array([-500.0, 500.0], dtype=np.float64)))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_leaky_relu_slope(self):
        x = Tensor(np.array([-2.0, 3.0]))
        np.testing.assert_allclose(ad.leaky_relu(x).data, [-0.02, 3.0], rtol=1e-6)

    def test_input_projection_shapes(self):
        w = Tensor(np.ones((4, 2)))
        b = Tensor(np.ones(2))
        assert ad.input_projection(Tensor(np.ones((3, 4))), w, b).shape == (3, 2)
        assert ad.input_projection(Tensor(np.ones((1, 4))), w, b).shape == (1, 2)

    @pytest.mark.parametrize("shapes", [((4,), (4, 2)), ((3, 4), (4,)), ((4,), (4,)), ((2, 3, 4), (4, 2))])
    def test_input_projection_non_2d_operand_rejected(self, shapes):
        x, w = (Tensor(np.ones(shape)) for shape in shapes)
        with pytest.raises(ShapeMismatch, match="input_projection"):
            ad.input_projection(x, w, Tensor(np.ones(shapes[1][-1])))


class TestBackwardRules:
    def test_sigmoid_derivative_at_zero(self):
        x = Tensor(0.0, requires_grad=True)
        ad.sigmoid(x).backward()
        assert abs(x.grad.item() - 0.25) < 1e-7

    def test_linear_loss_gradient_is_input(self):
        rng = np.random.default_rng(0)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        x = Tensor(rng.normal(size=(1, 4)))
        ad.affine(x, w, Tensor(np.zeros(3))).sum().backward()
        np.testing.assert_allclose(w.grad, np.tile(x.data, (3, 1)), rtol=1e-6)

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

    def test_broadcast_add_bias(self):
        m = Tensor(np.zeros((5, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        (m + b).sum().backward()
        np.testing.assert_allclose(b.grad, [5.0, 5.0, 5.0])
        np.testing.assert_allclose(m.grad, np.ones((5, 3)))


def _random_composite(rng):
    """A three-layer mix of the op set on small float64 tensors: the dense
    layers, the activations, the attention nodes, the reductions and both
    losses."""
    x = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
    w1 = Tensor(rng.normal(size=(4, 6)) * 0.5, requires_grad=True)
    b1 = Tensor(rng.normal(size=4) * 0.1, requires_grad=True)
    w2 = Tensor(rng.normal(size=(4, 6)) * 0.5, requires_grad=True)
    b2 = Tensor(rng.normal(size=6) * 0.1, requires_grad=True)
    attn = [Tensor(rng.normal(size=shape), requires_grad=True) for shape in [(4, 3), (4,), (3, 4), (3,)]]
    w3 = Tensor(rng.normal(size=(2, 10)) * 0.5, requires_grad=True)
    b3 = Tensor(rng.normal(size=2) * 0.1, requires_grad=True)
    labels = np.array([1.0, 0.0, 0.0, 1.0, 1.0])
    k = np.array([0, 2, 1, 1, 0])

    def forward():
        h = ad.tanh(ad.affine(x, w1, b1))  # (5, 4)
        stack = ad.sigmoid(ad.input_projection(h, w2, b2)).reshape(5, 3, 2)
        weights = ad.branch_weights(stack, *attn)  # (5, 3)
        fused = ad.branch_fusion(weights, stack)  # (5, 2)
        z = ad.leaky_relu(ad.affine(fused.reshape(1, 10), w3, b3))  # (1, 2)
        probs = ad.sigmoid(fused.mean(axis=1) * 4.0)
        nll = ad.selected_nll(weights, k) + ad.cross_entropy(probs, labels, 1e-7)
        return (z * z).sum() + 0.5 * nll

    return forward, [x, w1, b1, w2, b2, *attn, w3, b3]


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
        x = Tensor(np.ones((2, 3)))
        w = Tensor(np.ones((4, 5)))
        with pytest.raises(ShapeMismatch, match=r"\(2, 3\)"):
            ad.input_projection(x, w, Tensor(np.ones(5)))

    def test_affine_shape_mismatch_rejected(self):
        for x, w, b in [
            ((4, 3), (2, 5), (2,)),  # x width differs from w's
            ((4, 3), (2, 3), (3,)),  # bias does not match the output width
            ((3,), (2, 3), (2,)),  # x not 2-D
            ((4, 3), (3,), (3,)),  # w not 2-D
        ]:
            with pytest.raises(ShapeMismatch, match="affine"):
                ad.affine(*(Tensor(np.ones(shape)) for shape in (x, w, b)))

    def test_non_finite_forward_trips(self):
        weights = Tensor(np.array([[0.0, 1.0]]))
        with pytest.raises(NonFiniteError):
            ad.selected_nll(weights, [0])  # log(0)

    def test_non_finite_constructor_trips(self):
        with pytest.raises(NonFiniteError):
            Tensor(np.array([1.0, np.nan]))

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
        y = ad.tanh(x) + 1.0
        assert y.dtype == np.float64
        y.sum().backward()
        assert x.grad.dtype == np.float64


@given(st.integers(1, 40), st.integers(1, 8))
def test_reshape_roundtrip_preserves_gradient(n, m):
    x = Tensor(np.arange(float(n * m)).reshape(n, m), requires_grad=True)
    x.reshape(m * n).reshape(n, m).sum().backward()
    np.testing.assert_allclose(x.grad, np.ones((n, m)))


# float32, float64, and a float64 bias on float32 operands, whose sum the
# nodes must keep in float64 as ``x @ w + b`` does
DENSE_DTYPES = [
    (np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64),
]


def _backward_with(out: Tensor, rng) -> np.ndarray:
    """Run backward from ``sum(out * g)`` for a random ``g`` in out's dtype,
    so that ``g`` is exactly the gradient the node receives; returns g."""
    g = rng.normal(size=out.shape).astype(out.dtype)
    (out * Tensor(g)).sum().backward()
    return g


class TestDenseNodesExact:
    """The dense nodes against numpy in the op order they replaced: ``x @ w
    + b`` and ``x @ w.T + b`` with their bias added in a new array, and the
    gated units through ``np.tanh``, ``1 / (1 + exp(-z))`` and ``np.stack``.
    Output, dtype and every gradient must match bit for bit."""

    def _tensors(self, *arrays):
        return [Tensor(a, requires_grad=True) for a in arrays]

    def _assert_exact(self, tensors, out, expected, grads):
        assert out.dtype == expected.dtype
        np.testing.assert_array_equal(out.data, expected)
        for t, grad in zip(tensors, grads, strict=True):
            assert t.grad.dtype == grad.dtype
            np.testing.assert_array_equal(t.grad, grad)

    @pytest.mark.parametrize("dtype, b_dtype", DENSE_DTYPES)
    def test_input_projection(self, dtype, b_dtype):
        rng = np.random.default_rng(31)
        x, w = rng.normal(size=(37, 12)).astype(dtype), rng.normal(size=(12, 20)).astype(dtype)
        b = rng.normal(size=20).astype(b_dtype)
        tensors = self._tensors(x, w, b)
        out = ad.input_projection(*tensors)
        g = _backward_with(out, rng)
        self._assert_exact(tensors, out, x @ w + b, [g @ w.T, x.T @ g, g.sum(axis=0)])

    @pytest.mark.parametrize("dtype, b_dtype", DENSE_DTYPES)
    def test_affine(self, dtype, b_dtype):
        rng = np.random.default_rng(32)
        x, w = rng.normal(size=(37, 12)).astype(dtype), rng.normal(size=(20, 12)).astype(dtype)
        b = rng.normal(size=20).astype(b_dtype)
        tensors = self._tensors(x, w, b)
        out = ad.affine(*tensors)
        g = _backward_with(out, rng)
        self._assert_exact(tensors, out, x @ w.T + b, [g @ w, (x.T @ g).T, g.sum(axis=0)])

    @pytest.mark.parametrize("dtype, b_dtype", DENSE_DTYPES)
    def test_gated_units(self, dtype, b_dtype):
        rng = np.random.default_rng(33)
        d, t_len = 7, 29
        inputs = [rng.normal(size=(t_len, k)).astype(dtype) for k in (6, 10)]
        inputs[1][3] *= 1000.0  # saturates a frame's gates: exp(-z) overflows
        arrays = [
            (rng.normal(size=(d, x.shape[1])).astype(dtype), rng.normal(size=d).astype(b_dtype))
            for x in inputs for _ in range(2)
        ]
        units = [(*arrays[2 * i], *arrays[2 * i + 1]) for i in range(len(inputs))]
        tensors = self._tensors(*(a for unit in units for a in unit))
        out = ad.gated_units(inputs, [tuple(tensors[4 * i : 4 * i + 4]) for i in range(len(inputs))])
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


def _per_frame(xproj: np.ndarray, w_h: np.ndarray, reverse: bool) -> np.ndarray:
    """One direction of a Bi-LSTM layer, one frame at a time in numpy: its
    (T, H) hidden states in time order, from the (T, 4H) input rows."""
    t_len, h_dim = xproj.shape[0], w_h.shape[0]
    h = np.zeros((1, h_dim))
    c = np.zeros((1, h_dim))
    rows = np.empty((t_len, h_dim))
    for t in (range(t_len - 1, -1, -1) if reverse else range(t_len)):
        z = xproj[t : t + 1] + h @ w_h
        i, f, _, o = np.split(1.0 / (1.0 + np.exp(-z)), 4, axis=1)
        g = np.tanh(z[:, 2 * h_dim : 3 * h_dim])
        c = f * c + i * g
        h = o * np.tanh(c)
        rows[t] = h[0]
    return rows


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
        w_x = [Tensor(rng.normal(size=(3, 4 * h_dim)), requires_grad=True) for _ in range(2)]
        w_h = [
            Tensor(rng.normal(size=(h_dim, 4 * h_dim)) * 0.5, requires_grad=True) for _ in range(2)
        ]
        b = [Tensor(rng.normal(size=4 * h_dim) * 0.1, requires_grad=True) for _ in range(2)]
        x = Tensor(rng.normal(size=(t_len, 3)))
        d = int(reverse)  # the direction under test; the other one gets no loss
        cols = slice(d * h_dim, (d + 1) * h_dim)
        coeffs = rng.normal(size=(t_len, h_dim))

        def per_frame() -> np.ndarray:
            return _per_frame(x.data @ w_x[d].data + b[d].data, w_h[d].data, reverse)

        xproj = [ad.input_projection(x, w_x[e], b[e]) for e in range(2)]
        out = ad.bilstm_layer(*xproj, w_h[0], w_h[1])
        np.testing.assert_array_equal(out.data[:, cols], per_frame())
        weighted = np.zeros((t_len, 2 * h_dim))
        weighted[:, cols] = coeffs
        (out * Tensor(weighted)).sum().backward()
        for p in (w_x[1 - d], w_h[1 - d], b[1 - d]):
            np.testing.assert_array_equal(p.grad, 0.0)
        params = [w_x[d], w_h[d], b[d]]
        numeric = numeric_grad(lambda: float((per_frame() * coeffs).sum()), params)
        for p, n in zip(params, numeric):
            assert rel_error(p.grad, n) <= 1e-5


class TestBilstmLayer:
    def test_no_grad_gives_the_same_states(self):
        rng = np.random.default_rng(4)
        args = [Tensor(rng.normal(size=(6, 8)), requires_grad=True) for _ in range(2)]
        args += [Tensor(rng.normal(size=(2, 8)), requires_grad=True) for _ in range(2)]
        tracked = ad.bilstm_layer(*args)
        with ad.no_grad():
            untracked = ad.bilstm_layer(*args)
        assert untracked._backward is None
        np.testing.assert_array_equal(tracked.data, untracked.data)

    def test_shape_mismatch_rejected(self):
        for shapes in [
            ((3, 12), (3, 12), (4, 16), (4, 16)),  # xproj narrower than 4H
            ((3, 16), (2, 16), (4, 16), (4, 16)),  # directions of different lengths
            ((3, 16), (3, 16), (4, 16), (3, 12)),  # directions of different widths
        ]:
            with pytest.raises(ShapeMismatch):
                ad.bilstm_layer(*(Tensor(np.zeros(shape)) for shape in shapes))

    @pytest.mark.parametrize("lengths", [[5, 1, 9], [70, 1, 130, 64, 2]])
    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_packed_batch_matches_single_calls(self, lengths, dtype, tol):
        # ragged lengths, one of 1 frame, some longer than one scan block
        rng = np.random.default_rng(len(lengths))
        h_dim = 4
        xs = [rng.normal(size=(sum(lengths), 4 * h_dim)).astype(dtype) for _ in range(2)]
        ws = [(rng.normal(size=(h_dim, 4 * h_dim)) * 0.5).astype(dtype) for _ in range(2)]
        with ad.no_grad():
            packed = ad.bilstm_layer(*map(Tensor, xs + ws), lengths=lengths).data
            bounds = np.cumsum(lengths)[:-1]
            singles = [
                ad.bilstm_layer(Tensor(xf), Tensor(xb), *map(Tensor, ws)).data
                for xf, xb in zip(np.split(xs[0], bounds), np.split(xs[1], bounds))
            ]
        assert packed.dtype == dtype
        np.testing.assert_allclose(packed, np.concatenate(singles), rtol=0, atol=tol)

    def test_packed_gradients_match_single_calls(self):
        rng = np.random.default_rng(9)
        h_dim, lengths = 3, [6, 1, 70]
        xs = [rng.normal(size=(sum(lengths), 4 * h_dim)) for _ in range(2)]
        ws = [rng.normal(size=(h_dim, 4 * h_dim)) * 0.5 for _ in range(2)]
        coeffs = rng.normal(size=(sum(lengths), 2 * h_dim))
        packed = [Tensor(a, requires_grad=True) for a in xs + ws]
        (ad.bilstm_layer(*packed, lengths=lengths) * Tensor(coeffs)).sum().backward()

        w_single = [Tensor(w, requires_grad=True) for w in ws]
        dx = [[], []]
        lo = 0
        for t_len in lengths:
            rows = slice(lo, lo + t_len)
            x_single = [Tensor(a[rows], requires_grad=True) for a in xs]
            (ad.bilstm_layer(*x_single, *w_single) * Tensor(coeffs[rows])).sum().backward()
            for d in range(2):
                dx[d].append(x_single[d].grad)
            lo += t_len
        for d in range(2):
            np.testing.assert_allclose(packed[d].grad, np.concatenate(dx[d]), rtol=0, atol=1e-10)
            np.testing.assert_allclose(packed[2 + d].grad, w_single[d].grad, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("graph", [False, True])
    @pytest.mark.parametrize("lengths", [[70], [9, 1, 100, 64]])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("h_dim", [5, 16, 64])
    def test_matches_the_packed_gate_reference_bit_for_bit(self, h_dim, dtype, lengths, graph):
        # float32 gradients equal bit for bit are what a retrained model's
        # first step relies on; the longest utterance spans two scan blocks
        rng = np.random.default_rng(h_dim)
        xs = [rng.normal(size=(sum(lengths), 4 * h_dim)).astype(dtype) for _ in range(2)]
        ws = [rng.normal(size=(h_dim, 4 * h_dim)).astype(dtype) / h_dim**0.5 for _ in range(2)]
        coeffs = rng.normal(size=(sum(lengths), 2 * h_dim)).astype(dtype)
        expected = bilstm_reference(xs, ws, lengths, coeffs)
        args = [Tensor(a, requires_grad=True) for a in xs + ws]
        if not graph:
            with ad.no_grad():
                out = ad.bilstm_layer(*args, lengths=lengths)
            np.testing.assert_array_equal(out.data, expected[0])
            return
        out = ad.bilstm_layer(*args, lengths=lengths)
        (out * Tensor(coeffs)).sum().backward()
        assert out.dtype == dtype and all(a.grad.dtype == dtype for a in args)
        np.testing.assert_array_equal(out.data, expected[0])
        for a, grad in zip(args, expected[1:]):
            np.testing.assert_array_equal(a.grad, grad)

    @pytest.mark.parametrize("lengths", [[2, 2], [4, 4], [3, 2, 0], [4, 3, -1], [3, 0, 4], []])
    def test_lengths_that_do_not_split_the_rows_rejected(self, lengths):
        args = [Tensor(np.zeros((7, 8))) for _ in range(2)] + [Tensor(np.zeros((2, 8))) for _ in range(2)]
        with pytest.raises(ShapeMismatch, match="lengths"):
            ad.bilstm_layer(*args, lengths=lengths)

    def test_no_grad_memory_is_the_output_plus_scratch(self):
        # without a graph the op keeps per-step scratch only: a stacked copy
        # of the two inputs alone would be four times the output
        rng = np.random.default_rng(5)
        t_len, h_dim = 2000, 8
        args = [Tensor(rng.normal(size=(t_len, 4 * h_dim))) for _ in range(2)]
        args += [Tensor(rng.normal(size=(h_dim, 4 * h_dim)) * 0.5) for _ in range(2)]
        tracemalloc.start()
        try:
            with ad.no_grad():
                out = ad.bilstm_layer(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * out.data.nbytes + 64 * 1024

    def test_graph_memory_is_the_output_plus_kept_buffers(self):
        # with a graph the op holds, per step and direction, seven H-wide
        # rows: the output, the four gate activations, the cell state and
        # its tanh; anything more per step shows here
        rng = np.random.default_rng(5)
        t_len, h_dim = 2000, 8
        args = [Tensor(rng.normal(size=(t_len, 4 * h_dim)), requires_grad=True) for _ in range(2)]
        args += [
            Tensor(rng.normal(size=(h_dim, 4 * h_dim)) * 0.5, requires_grad=True) for _ in range(2)
        ]
        tracemalloc.start()
        try:
            out = ad.bilstm_layer(*args)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        row = 2 * h_dim * out.data.itemsize  # one H-wide row for each direction
        assert held < 7 * t_len * row + 32 * 1024
