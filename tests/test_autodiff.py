"""Compute-core tests: forward values, backward rules, graph semantics."""

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

    def test_matmul_shapes(self):
        a = Tensor(np.ones((3, 4)))
        b = Tensor(np.ones((4, 2)))
        assert (a @ b).shape == (3, 2)
        assert (Tensor(np.ones((1, 4))) @ b).shape == (1, 2)

    @pytest.mark.parametrize("shapes", [((4,), (4, 2)), ((3, 4), (4,)), ((4,), (4,)), ((2, 3, 4), (4, 2))])
    def test_matmul_non_2d_operand_rejected(self, shapes):
        a, b = (Tensor(np.ones(shape)) for shape in shapes)
        with pytest.raises(ShapeMismatch, match="2-D operands only"):
            a @ b

    def test_clip_values(self):
        x = Tensor(np.array([-1.0, 0.5, 2.0]))
        np.testing.assert_allclose(x.clip(0.0, 1.0).data, [0.0, 0.5, 1.0])


class TestBackwardRules:
    def test_sigmoid_derivative_at_zero(self):
        x = Tensor(0.0, requires_grad=True)
        ad.sigmoid(x).backward()
        assert abs(x.grad.item() - 0.25) < 1e-7

    def test_linear_loss_gradient_is_input(self):
        rng = np.random.default_rng(0)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        x = Tensor(rng.normal(size=(4, 1)))
        (w @ x).sum().backward()
        np.testing.assert_allclose(w.grad, np.tile(x.data.T, (3, 1)), rtol=1e-6)

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

    def test_max_routes_to_first_argmax(self):
        x = Tensor(np.array([[1.0, 3.0, 3.0], [2.0, 0.0, 2.0]]), requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0, 1, 0], [1, 0, 0]])

    def test_slice_gradient_scatters(self):
        x = Tensor(np.zeros(5), requires_grad=True)
        (x[1:4].sum() * 2.0).backward()
        np.testing.assert_allclose(x.grad, [0, 2, 2, 2, 0])

    def test_clip_blocks_gradient_outside_range(self):
        x = Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True)
        x.clip(0.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])


def _random_composite(rng):
    """A three-layer mix of the op set on small float64 tensors."""
    x = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
    w1 = Tensor(rng.normal(size=(4, 6)) * 0.5, requires_grad=True)
    b1 = Tensor(rng.normal(size=4) * 0.1, requires_grad=True)
    w2 = Tensor(rng.normal(size=(4, 3)) * 0.5, requires_grad=True)
    w3 = Tensor(rng.normal(size=(2, 5)) * 0.5, requires_grad=True)

    def forward():
        h = ad.tanh(ad.affine(x, w1, b1))              # (5, 4)
        g = ad.sigmoid(h @ w2)                         # (5, 3)
        pooled = g.mean(axis=1, keepdims=True) * g.max(axis=1, keepdims=True)  # (5, 1)
        z = ad.leaky_relu(w3 @ pooled)                 # (2, 1)
        return (z * z).sum() + g.reshape(15)[2:9].sum()

    return forward, [x, w1, b1, w2, w3]


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

    def test_division_gradients(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(0.5, 2.0, size=(3, 1)), requires_grad=True)

        def forward():
            return ((a / b) * (a / b)).sum()

        forward().backward()
        with ad.no_grad():
            numeric = numeric_grad(lambda: forward().item(), [a, b])
        assert rel_error(a.grad, numeric[0]) <= 1e-5
        assert rel_error(b.grad, numeric[1]) <= 1e-5


class TestGraphSemantics:
    def test_backward_on_non_scalar_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(GraphError):
            (x * 2.0).backward()

    def test_shape_mismatch_reports_shapes(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.ones((4, 5)))
        with pytest.raises(ShapeMismatch, match=r"\(2, 3\)"):
            a @ b

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
        x = Tensor(np.array([0.0, 1.0]))
        with pytest.raises(NonFiniteError):
            ad.log(x)

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
        y = x.tanh() + 1.0
        assert y.dtype == np.float64
        y.sum().backward()
        assert x.grad.dtype == np.float64


@given(st.integers(1, 40), st.integers(1, 8))
def test_reshape_roundtrip_preserves_gradient(n, m):
    x = Tensor(np.arange(float(n * m)).reshape(n, m), requires_grad=True)
    x.reshape(m * n).reshape(n, m).sum().backward()
    np.testing.assert_allclose(x.grad, np.ones((n, m)))


def _per_frame(xproj: Tensor, w_h: Tensor, reverse: bool) -> list[Tensor]:
    """One direction as a graph of elementary ops: its (1, H) hidden-state
    rows in time order."""
    t_len, h_dim = xproj.shape[0], w_h.shape[0]
    h = Tensor(np.zeros((1, h_dim)))
    c = Tensor(np.zeros((1, h_dim)))
    rows = [None] * t_len
    for t in (range(t_len - 1, -1, -1) if reverse else range(t_len)):
        gates = xproj[t : t + 1] + h @ w_h
        i = ad.sigmoid(gates[:, 0:h_dim])
        f = ad.sigmoid(gates[:, h_dim : 2 * h_dim])
        g = ad.tanh(gates[:, 2 * h_dim : 3 * h_dim])
        o = ad.sigmoid(gates[:, 3 * h_dim :])
        c = f * c + i * g
        h = o * ad.tanh(c)
        rows[t] = h
    return rows


class TestLstmSequence:
    """Each direction of the layer op must be exactly the per-frame composite
    of elementary ops: forward in time for the first half of its columns,
    backward in time for the second."""

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("t_len", [1, 2, 7])
    def test_matches_per_frame_composite(self, t_len, reverse):
        rng = np.random.default_rng(100 * t_len + reverse)
        h_dim = 5
        w_x = [Tensor(rng.normal(size=(3, 4 * h_dim)), requires_grad=True) for _ in range(2)]
        w_h = [
            Tensor(rng.normal(size=(h_dim, 4 * h_dim)) * 0.5, requires_grad=True) for _ in range(2)
        ]
        x = Tensor(rng.normal(size=(t_len, 3)))
        d = int(reverse)  # the direction under test; the other one gets no loss
        cols = slice(d * h_dim, (d + 1) * h_dim)
        coeffs = np.zeros((t_len, 2 * h_dim))
        coeffs[:, cols] = rng.normal(size=(t_len, h_dim))

        out = ad.bilstm_layer(x @ w_x[0], x @ w_x[1], w_h[0], w_h[1])
        (out * Tensor(coeffs)).sum().backward()
        rows = _per_frame(x @ w_x[d], w_h[d], reverse)
        np.testing.assert_array_equal(out.data[:, cols], np.concatenate([r.data for r in rows]))
        for p in (w_x[1 - d], w_h[1 - d]):
            np.testing.assert_array_equal(p.grad, 0.0)

        grads_op = (w_x[d].grad.copy(), w_h[d].grad.copy())
        ad.zero_grads([w_x[d], w_h[d]])
        sum((r * Tensor(c)).sum() for r, c in zip(rows, coeffs[:, None, cols])).backward()
        np.testing.assert_allclose(grads_op[0], w_x[d].grad, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grads_op[1], w_h[d].grad, rtol=0, atol=1e-12)


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
