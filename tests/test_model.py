"""Model tests: gated units, attention block, classifier, variants."""

import tracemalloc

import numpy as np
import pytest

import mlnetvad.autodiff as ad
from helpers import numeric_grad, rel_error, scalar_attention_oracle
from mlnetvad import model
from mlnetvad.autodiff import Tensor, window_matrix
from mlnetvad.errors import ConfigError, ShapeMismatch
from mlnetvad.frontend import FrontendConfig, Waveform, featurize
from mlnetvad.model import (
    VARIANTS,
    ModelConfig,
    attention_forward,
    build_params,
    classifier_forward,
    init_params,
    mlnet_forward,
    non_attention_forward,
    replicate_pad,
)

SMALL = ModelConfig(
    receptive_fields=(1, 2, 3),
    n_mels=8,
    gated_dim=8,
    attn_hidden=8,
    lstm_hidden=8,
    fc_hidden=8,
)


def small_cfg(**kw) -> ModelConfig:
    base = dict(
        receptive_fields=(1, 2, 3),
        n_mels=8,
        gated_dim=8,
        attn_hidden=8,
        lstm_hidden=8,
        fc_hidden=8,
    )
    base.update(kw)
    return ModelConfig(**base)


class TestConfig:
    def test_default_context_window_is_19(self):
        assert ModelConfig().context_window == 19

    def test_non_increasing_fields_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(receptive_fields=(3, 1))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(variant="bigger")


class TestInitParams:
    def test_same_seed_identical(self):
        a = init_params(SMALL, seed=5)
        b = init_params(SMALL, seed=5)
        for (na, ta), (nb, tb) in zip(a.named().items(), b.named().items()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_biases_are_point_one(self):
        params = init_params(ModelConfig(), seed=0)
        for name, t in params.named().items():
            if name.endswith((".b", ".b_f", ".b_g", ".b0", ".b1")) or ".b_" in name or name.endswith("b_out") or name.endswith("b_hidden"):
                np.testing.assert_allclose(t.data, 0.1)

    def test_weight_mean_near_zero(self):
        params = init_params(ModelConfig(), seed=1)
        weights = np.concatenate(
            [t.data.ravel() for n, t in params.named().items() if "w" in n.split(".")[-1]]
        )
        assert weights.size >= 10_000
        assert abs(weights.mean()) < 0.005
        assert weights.min() >= -0.05 and weights.max() <= 0.05


def param_shapes_oracle(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, kind) of every tensor the variant owns, in checkpoint
    order, written out by hand for each group."""
    shapes: list[tuple[str, tuple[int, ...], str]] = []
    d, f = cfg.gated_dim, cfg.n_mels
    radii = {"bilstm_base": (), "gated_unit": (cfg.context_radius,)}.get(
        cfg.variant, cfg.receptive_fields
    )
    for r in radii:
        k = (2 * r + 1) * f
        prefix = f"branch_r{r}"
        shapes.append((f"{prefix}.w_f", (d, k), "weight"))
        shapes.append((f"{prefix}.b_f", (d,), "bias"))
        shapes.append((f"{prefix}.w_g", (d, k), "weight"))
        shapes.append((f"{prefix}.b_g", (d,), "bias"))
    if cfg.variant == "bilstm_base":
        shapes.append(("projection.w", (d, cfg.context_window * f), "weight"))
        shapes.append(("projection.b", (d,), "bias"))
    if cfg.variant == "full_attention":
        n = cfg.n_branches
        shapes.append(("attention.w0", (cfg.attn_hidden, n), "weight"))
        shapes.append(("attention.b0", (cfg.attn_hidden,), "bias"))
        shapes.append(("attention.w1", (n, cfg.attn_hidden), "weight"))
        shapes.append(("attention.b1", (n,), "bias"))
    h = cfg.lstm_hidden
    in_dim = d
    for layer in range(cfg.lstm_layers):
        for tag in ("fwd", "bwd"):
            shapes.append((f"lstm{layer}.{tag}.w_x", (in_dim, 4 * h), "weight"))
            shapes.append((f"lstm{layer}.{tag}.w_h", (h, 4 * h), "weight"))
            shapes.append((f"lstm{layer}.{tag}.b", (4 * h,), "bias"))
        in_dim = 2 * h
    shapes.append(("head.w_hidden", (cfg.fc_hidden, 2 * h), "weight"))
    shapes.append(("head.b_hidden", (cfg.fc_hidden,), "bias"))
    shapes.append(("head.w_out", (1, cfg.fc_hidden), "weight"))
    shapes.append(("head.b_out", (1,), "bias"))
    return shapes


BUILD_CONFIGS = [
    pytest.param(ModelConfig(variant=v, double_sigmoid=ds), id=f"{v}-double_sigmoid={ds}")
    for v in VARIANTS
    for ds in (True, False)
] + [
    pytest.param(ModelConfig(variant=v, receptive_fields=(0, 2, 4), lstm_layers=3), id=f"{v}-024x3")
    for v in VARIANTS
]


class TestBuildParams:
    @pytest.mark.parametrize("cfg", BUILD_CONFIGS)
    def test_factory_calls_match_the_shape_table(self, cfg):
        calls = []

        def factory(name, shape, kind):
            calls.append((name, shape, kind))
            return Tensor(np.zeros(shape))

        params = build_params(cfg, factory)
        assert calls == param_shapes_oracle(cfg)
        assert list(params.named()) == [name for name, _, _ in calls]

    @pytest.mark.parametrize("cfg", BUILD_CONFIGS)
    def test_groups_hold_every_tensor_once_in_checkpoint_order(self, cfg):
        # each group is the tuple its node takes; flattened, the groups are
        # the checkpoint order, so no tensor is missing, repeated or moved
        params = build_params(cfg, lambda name, shape, kind: Tensor(np.zeros(shape)))
        groups = [*params.branches, params.projection, params.attention]
        groups += [direction for layer in params.lstm for direction in layer] + [params.head]
        flat = [t for group in groups if group is not None for t in group]
        named = list(params.named().values())
        assert len(flat) == len(named)
        assert all(a is b for a, b in zip(flat, named))


def frame_windows(padded: np.ndarray, t_len: int, r: int, radius: int) -> np.ndarray:
    """(T, (2r+1)*F) windows built frame by frame: padded[t+R-r : t+R+r+1]."""
    return np.stack(
        [padded[t + radius - r : t + radius + r + 1].ravel() for t in range(t_len)]
    )


class TestGatedAffine:
    def test_zero_params_give_zero(self):
        params = init_params(small_cfg(variant="gated_unit"), seed=0)
        bp = params.branches[0]
        for t in bp:
            t.data[:] = 0.0
        padded = np.random.default_rng(0).normal(size=(4 + 6, 8)).astype(np.float32)
        out = ad.gated_units(padded, [bp])
        assert out.shape == (4, 1, 8)
        np.testing.assert_allclose(out.data, 0.0)

    def test_saturated_biases_give_one(self):
        params = init_params(small_cfg(variant="gated_unit"), seed=0)
        w_f, b_f, w_g, b_g = bp = params.branches[0]
        w_f.data[:] = 0.0
        w_g.data[:] = 0.0
        b_f.data[:] = 50.0
        b_g.data[:] = 50.0
        out = ad.gated_units(np.zeros((4 + 6, 8), np.float32), [bp])
        np.testing.assert_allclose(out.data, 1.0, atol=1e-6)

    @pytest.mark.parametrize("r", [1, 9])
    def test_output_size_constant_across_receptive_fields(self, r):
        cfg = ModelConfig(receptive_fields=(r,), variant="gated_unit")
        params = init_params(cfg, seed=2)
        padded = np.random.default_rng(1).normal(size=(5 + 2 * r, 40)).astype(np.float32)
        assert ad.gated_units(padded, [params.branches[0]]).shape == (5, 1, 64)

    def test_wrong_window_size_rejected(self):
        params = init_params(small_cfg(), seed=0)
        one = params.branches[0]  # radius 1: 3 frames of 8 bands
        f32 = np.float32
        for padded, weights in [
            (np.zeros((6, 7), f32), [one]),  # rows of 7 bands: no window is 24 wide
            (np.zeros((6, 12), f32), [one]),  # rows of 12 bands: a 2-frame window
            (np.zeros((2, 8), f32), [one]),  # no frame inside the padding
            (np.zeros((6, 8), f32), [one, one[:3]]),  # a unit without its last bias
            (np.zeros(3 * 8, f32), [one]),  # not 2-D
            (np.zeros((6, 8), f32), []),
        ]:
            with pytest.raises(ShapeMismatch, match="gated_units"):
                ad.gated_units(padded, weights)
        # both fusions take only the (T, n_branches, gated_dim) stack the units make
        for q in (Tensor(np.zeros((3, 8))), Tensor(np.zeros((2, 4, 3, 8)))):
            with pytest.raises(ShapeMismatch, match=r"\(T, n_branches, gated_dim\)"):
                attention_forward(q, params.attention)
            with pytest.raises(ShapeMismatch, match=r"\(T, n_branches, gated_dim\)"):
                non_attention_forward(q)

    def test_batched_path_matches_per_frame_op(self):
        # each branch's column slice of the widest window matrix, and its gated
        # output, against windows and the unit's formula taken one frame at a time
        rng = np.random.default_rng(3)
        cfg = small_cfg()
        params = init_params(cfg, seed=4, dtype=np.float64)
        t_len, radius, f = 5, cfg.context_radius, cfg.n_mels
        padded = replicate_pad(rng.normal(size=(t_len, f)), radius)
        widest = window_matrix(padded, radius)
        inputs = []
        for r in cfg.receptive_fields:
            windows = widest[:, (radius - r) * f : (radius + r + 1) * f]
            np.testing.assert_array_equal(windows, frame_windows(padded, t_len, r, radius))
            inputs.append(windows)
        batch = ad.gated_units(padded, params.branches)
        assert batch.shape == (t_len, cfg.n_branches, cfg.gated_dim)
        for i, (bp, windows) in enumerate(zip(params.branches, inputs)):
            w_f, b_f, w_g, b_g = (t.data for t in bp)
            for t in range(t_len):
                v = windows[t]
                single = np.tanh(w_f @ v + b_f) / (1.0 + np.exp(-(w_g @ v + b_g)))
                np.testing.assert_allclose(batch.data[t, i], single, rtol=0, atol=1e-12)


class TestReplicatePadding:
    def test_edge_frames_replicated(self):
        x = np.arange(12.0).reshape(3, 4)
        padded = replicate_pad(x, 2)
        np.testing.assert_array_equal(padded[0], x[0])
        np.testing.assert_array_equal(padded[1], x[0])
        np.testing.assert_array_equal(padded[-1], x[-1])

    def test_window_matrix_time_major(self):
        x = np.arange(12.0).reshape(3, 4)
        padded = replicate_pad(x, 1)
        w = window_matrix(padded, 1)
        # middle frame window = [x0, x1, x2] flattened
        np.testing.assert_array_equal(w[1], np.concatenate([x[0], x[1], x[2]]))
        # first frame replicates the first row on the left
        np.testing.assert_array_equal(w[0], np.concatenate([x[0], x[0], x[1]]))

    def test_narrower_windows_are_column_slices_of_the_widest(self):
        x = np.arange(40.0).reshape(5, 8)
        radius, f = 3, 8
        padded = replicate_pad(x, radius)
        widest = window_matrix(padded, radius)
        for r in range(radius + 1):
            np.testing.assert_array_equal(
                widest[:, (radius - r) * f : (radius + r + 1) * f],
                frame_windows(padded, 5, r, radius),
            )


def symmetric_attention(cfg: ModelConfig) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """Attention parameters (w0, b0, w1, b1) that always yield equal branch scores."""
    rng = np.random.default_rng(0)
    n, h = cfg.n_branches, cfg.attn_hidden
    return (
        Tensor(rng.normal(size=(h, n)), requires_grad=True),
        Tensor(np.full(h, 0.1), requires_grad=True),
        Tensor(np.zeros((n, h)), requires_grad=True),
        Tensor(np.full(n, 0.3), requires_grad=True),
    )


class TestAttention:
    def test_symmetric_params_give_uniform_weights(self):
        cfg = small_cfg()
        rng = np.random.default_rng(1)
        v = rng.normal(size=8)
        q = Tensor(np.tile(v, (1, 3, 1)))
        fused, weights = attention_forward(q, symmetric_attention(cfg))
        np.testing.assert_allclose(weights.data, 1.0 / 3.0, atol=1e-9)
        np.testing.assert_allclose(fused.data[0], v, atol=1e-9)

    def test_one_hot_weights_select_branch(self):
        rng = np.random.default_rng(2)
        q = Tensor(rng.normal(size=(1, 4, 6)))
        p = Tensor(np.array([[0.0, 0.0, 1.0, 0.0]]))
        np.testing.assert_allclose(ad.branch_fusion(p, q).data[0], q.data[0, 2], atol=1e-12)

    def test_weights_sum_to_one_and_positive(self):
        rng = np.random.default_rng(3)
        cfg = small_cfg()
        params = init_params(cfg, seed=1, dtype=np.float64)
        for _ in range(50):
            q = Tensor(rng.normal(size=(1, 3, 8)))
            _, weights = attention_forward(q, params.attention)
            assert abs(weights.data.sum() - 1.0) <= 1e-6
            assert (weights.data > 0).all()

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_double_sigmoid_bounds_every_weight(self, n):
        # each raw score lies in [0, 1], so its second sigmoid lies in
        # [s(0), s(1)]: no weight can leave the closed interval below,
        # and saturated scores reach both of its ends
        s0, s1 = 0.5, 1.0 / (1.0 + np.exp(-1.0))
        lo, hi = s0 / (s0 + (n - 1) * s1), s1 / (s1 + (n - 1) * s0)
        slack = 1e-15  # the sum of n terms may round in another order than the bound's
        cfg = small_cfg(receptive_fields=tuple(range(n)))
        rng = np.random.default_rng(20 + n)
        seen = []
        for scale in (0.1, 1.0, 10.0):
            params = init_params(cfg, seed=n, dtype=np.float64)
            at = params.attention
            for t in at:
                t.data[:] = rng.normal(scale=scale, size=t.shape)
            q = Tensor(rng.normal(size=(50, n, 8)))
            seen.append(attention_forward(q, at)[1].data)
        # saturating inputs: raw scores of exactly 0 and 1, whose weights
        # are the second sigmoids s(0) and s(1) normalized
        _, _, w1, b1 = at
        w1.data[:] = 0.0
        for one_hot in np.eye(n):
            for raw in (one_hot, 1.0 - one_hot):
                b1.data[:] = np.where(raw > 0, 800.0, -800.0)
                _, weights = attention_forward(Tensor(rng.normal(size=(4, n, 8))), at)
                num = np.where(raw > 0, s1, s0)
                np.testing.assert_allclose(
                    weights.data, np.broadcast_to(num / num.sum(), (4, n)), rtol=1e-15
                )
                seen.append(weights.data)
        p = np.concatenate([w.reshape(-1) for w in seen])
        assert p.min() >= lo - slack and p.max() <= hi + slack
        np.testing.assert_allclose([p.min(), p.max()], [lo, hi], rtol=1e-15)
        if n == 5:
            np.testing.assert_allclose([lo, hi], [0.146, 0.268], atol=5e-4)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(4)
        cfg = small_cfg()
        params = init_params(cfg, seed=2, dtype=np.float64)
        at = params.attention
        for double in (True, False):
            for _ in range(10):
                q = rng.normal(size=(3, 8))
                fused, weights = attention_forward(Tensor(q[None]), at, double_sigmoid=double)
                _, p, want = scalar_attention_oracle(q, *(t.data for t in at), double)
                np.testing.assert_allclose(weights.data[0], p, atol=1e-6)
                np.testing.assert_allclose(fused.data[0], want, atol=1e-6)

    def test_fusion_is_convex_combination(self):
        rng = np.random.default_rng(5)
        params = init_params(small_cfg(), seed=3, dtype=np.float64)
        q = rng.normal(size=(7, 3, 8))
        fused, _ = attention_forward(Tensor(q), params.attention)
        lo, hi = q.min(axis=1), q.max(axis=1)
        assert (fused.data >= lo - 1e-9).all()
        assert (fused.data <= hi + 1e-9).all()

    def test_single_sigmoid_weights_are_the_normalized_raw_scores(self):
        # without the second sigmoid the weights are the raw scores over
        # their row sum: a positive rescaling of the raw scores moves no
        # weight, and the winning branch is the highest-scoring one
        rng = np.random.default_rng(6)
        cfg = small_cfg(receptive_fields=(0, 1, 2, 3, 4))
        params = init_params(cfg, seed=6, dtype=np.float64)
        at = params.attention
        for t in at:
            t.data[:] = rng.normal(size=t.shape)
        for _ in range(20):
            q = rng.normal(size=(4, 5, 8))
            _, weights = attention_forward(Tensor(q), at, double_sigmoid=False)
            raw = np.array([
                scalar_attention_oracle(v, *(t.data for t in at), False)[0]
                for v in q
            ])
            np.testing.assert_allclose(weights.data, raw / raw.sum(axis=1, keepdims=True), rtol=1e-12)
            np.testing.assert_array_equal(np.argmax(weights.data, axis=1), np.argmax(raw, axis=1))

    def test_non_attention_identity_on_equal_branches(self):
        v = np.arange(6.0)
        q = Tensor(np.tile(v, (1, 4, 1)))
        np.testing.assert_allclose(non_attention_forward(q).data[0], v)

    def test_non_attention_two_branch_average(self):
        v = np.arange(6.0)
        q = Tensor(np.stack([np.zeros(6), 2.0 * v])[None])
        np.testing.assert_allclose(non_attention_forward(q).data[0], v)

    def test_non_attention_equals_uniform_fusion(self):
        rng = np.random.default_rng(7)
        q = Tensor(rng.normal(size=(5, 3, 8)))
        p = Tensor(np.full((5, 3), 1.0 / 3.0))
        np.testing.assert_allclose(
            non_attention_forward(q).data, ad.branch_fusion(p, q).data, atol=1e-12
        )


class TestClassifier:
    def test_single_frame_sequence(self):
        params = init_params(small_cfg(), seed=0)
        out = classifier_forward(Tensor(np.random.default_rng(0).normal(size=(1, 8)).astype(np.float32)), params)
        assert out.shape == (1,)
        assert 0.0 < out.data[0] < 1.0

    def test_zero_params_give_half(self):
        params = init_params(small_cfg(), seed=0)
        for t in params.tensors():
            t.data[:] = 0.0
        out = classifier_forward(Tensor(np.ones((4, 8), dtype=np.float32)), params)
        np.testing.assert_allclose(out.data, 0.5)

    def test_reversed_sequence_with_swapped_directions(self):
        cfg = small_cfg()
        params = init_params(cfg, seed=9, dtype=np.float64)
        swapped = params.copy()
        h = cfg.lstm_hidden
        # swap the direction parameters of every layer
        for layer in range(cfg.lstm_layers):
            fwd, bwd = swapped.lstm[layer]
            swapped.lstm[layer] = (bwd, fwd)
        # consumers of a [fwd, bwd] concat must swap their input halves
        for layer in range(1, cfg.lstm_layers):
            for w_x, _, _ in swapped.lstm[layer]:
                w_x.data[:] = np.vstack([w_x.data[h:], w_x.data[:h]])
        wh = swapped.head[0].data
        wh[:] = np.hstack([wh[:, h:], wh[:, :h]])

        rng = np.random.default_rng(10)
        m = rng.normal(size=(6, 8))
        out = classifier_forward(Tensor(m), params)
        out_rev = classifier_forward(Tensor(m[::-1].copy()), swapped)
        np.testing.assert_array_equal(out_rev.data[::-1], out.data)


class TestMlnetForward:
    @pytest.mark.parametrize("variant", ["bilstm_base", "gated_unit", "non_attention", "full_attention"])
    def test_output_length_and_range(self, variant):
        rng = np.random.default_rng(11)
        cfg = small_cfg(variant=variant)
        params = init_params(cfg, seed=1)
        for t_len in (1, 3, 17):
            x = rng.normal(size=(t_len, 8))
            out = mlnet_forward(x, params)
            assert out.probs.shape == (t_len,)
            assert (out.probs.data > 0).all() and (out.probs.data < 1).all()

    def test_empty_sequence_rejected(self):
        params = init_params(small_cfg(), seed=0)
        with pytest.raises(ShapeMismatch):
            mlnet_forward(np.zeros((0, 8)), params)
        with ad.no_grad(), pytest.raises(ShapeMismatch):
            mlnet_forward([np.ones((3, 8)), np.zeros((0, 8))], params)
        with pytest.raises(ShapeMismatch):
            mlnet_forward([], params)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_packed_batch_matches_single_calls(self, variant, dtype, tol):
        rng = np.random.default_rng(16)
        params = init_params(small_cfg(variant=variant), seed=4, dtype=dtype)
        seqs = [rng.normal(size=(t_len, 8)) for t_len in (9, 1, 70, 4)]
        with ad.no_grad():
            batch = mlnet_forward(seqs, params)
            singles = [mlnet_forward(x, params) for x in seqs]
        np.testing.assert_array_equal(batch.lengths, [9, 1, 70, 4])
        assert batch.probs.dtype == dtype
        np.testing.assert_allclose(
            batch.probs.data, np.concatenate([o.probs.data for o in singles]), rtol=0, atol=tol
        )
        if variant == "full_attention":
            np.testing.assert_array_equal(
                batch.branch_weights.data,
                np.concatenate([o.branch_weights.data for o in singles]),
            )
        else:
            assert batch.branch_weights is None

    def test_batch_of_one_is_the_single_call(self):
        params = init_params(small_cfg(), seed=5)
        x = np.random.default_rng(17).normal(size=(12, 8))
        one, single = mlnet_forward([x], params), mlnet_forward(x, params)
        np.testing.assert_array_equal(one.probs.data, single.probs.data)
        np.testing.assert_array_equal(one.branch_weights.data, single.branch_weights.data)
        np.testing.assert_array_equal(single.lengths, [12])
        assert one.branch_weights._backward is not None  # the graph is kept

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_packed_graph_matches_single_graphs_bit_for_bit(self, variant, dtype):
        # with a graph, the classifier runs the utterances as lanes: each
        # gets its single graph's probabilities and branch weights, and one
        # backward gives every parameter the gradients of one backward per
        # utterance in turn
        rng = np.random.default_rng(18)
        params = init_params(small_cfg(variant=variant), seed=6, dtype=dtype)
        seqs = [rng.normal(size=(t_len, 8)) for t_len in (9, 1, 70, 65)]
        coeffs = [rng.normal(size=x.shape[0]).astype(dtype) for x in seqs]
        singles = []
        for x, c in zip(seqs, coeffs):
            out = mlnet_forward(x, params)
            singles.append(out)
            (out.probs * Tensor(c)).sum().backward()
        expected = {name: t.grad for name, t in params.named().items()}
        params.zero_grads()
        batch = mlnet_forward(seqs, params)
        parts = ad.split_rows(batch.probs, batch.lengths)
        total = (parts[0] * Tensor(coeffs[0])).sum()
        for part, c in zip(parts[1:], coeffs[1:]):
            total = total + (part * Tensor(c)).sum()
        total.backward()
        np.testing.assert_array_equal(batch.lengths, [9, 1, 70, 65])
        np.testing.assert_array_equal(batch.probs.data, np.concatenate([o.probs.data for o in singles]))
        if variant == "full_attention":
            np.testing.assert_array_equal(
                batch.branch_weights.data, np.concatenate([o.branch_weights.data for o in singles])
            )
        for name, t in params.named().items():
            assert t.grad.dtype == dtype
            np.testing.assert_array_equal(t.grad, expected[name], err_msg=name)

    # packed batches of two and of several: pairs that put a 1-frame
    # utterance with a short and a long one, and the ragged lengths all at
    # once; and each utterance alone
    BATCHINGS = (
        (0, 1, 2, 3, 4, 5), (0, 1), (2, 3), (4, 5), (1, 3), (5, 0), (2, 4), (3, 5, 0),
        (0,), (1,), (2,), (3,), (4,), (5,),
    )

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("h_dim", [5, 16, 64])
    def test_packed_scores_do_not_depend_on_the_batch_mates(self, variant, dtype, h_dim):
        # without a graph every GEMM but the recurrent product runs over one
        # utterance's rows, and the rows of that product do not depend on a
        # row count of two or more, which a lone utterance's states have
        # too: each utterance gets the same bits alone and in every packed
        # batch
        rng = np.random.default_rng(h_dim)
        params = init_params(small_cfg(variant=variant, gated_dim=16, lstm_hidden=h_dim, fc_hidden=16), 7, dtype)
        for t in params.tensors():
            t.data *= 4.0  # probabilities that spread over (0, 1)
        seqs = [rng.normal(size=(t_len, 8)) for t_len in (9, 1, 70, 130, 65, 33)]
        seen = {}
        with ad.no_grad():
            for batch in self.BATCHINGS:
                out = mlnet_forward([seqs[i] for i in batch], params)
                probs = np.split(out.probs.data, np.cumsum(out.lengths)[:-1])
                weights = [None] * len(batch)
                if out.branch_weights is not None:
                    weights = np.split(out.branch_weights.data, np.cumsum(out.lengths)[:-1])
                for i, p, w in zip(batch, probs, weights):
                    seen.setdefault(i, []).append((batch, p, w))
        for i, [(_, p0, w0), *others] in seen.items():
            assert others, i
            for batch, p, w in others:
                np.testing.assert_array_equal(p, p0, err_msg=f"utterance {i} in {batch}")
                np.testing.assert_array_equal(w, w0, err_msg=f"utterance {i} in {batch}")

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_graph_changes_no_value(self, variant, dtype):
        # one utterance and three, each forward with a graph and under
        # no_grad: a graph decides only what the nodes keep, so the
        # probabilities and branch weights are the same bits
        rng = np.random.default_rng(31)
        params = init_params(small_cfg(variant=variant, gated_dim=16, lstm_hidden=64, fc_hidden=16), 8, dtype)
        for t in params.tensors():
            t.data *= 4.0  # probabilities that spread over (0, 1)
        seqs = [rng.normal(size=(t_len, 8)) for t_len in (130, 1, 70)]
        for batch in (seqs[:1], seqs):
            tracked = mlnet_forward(batch, params)
            with ad.no_grad():
                untracked = mlnet_forward(batch, params)
            assert tracked.probs._backward is not None and untracked.probs._backward is None
            np.testing.assert_array_equal(tracked.probs.data, untracked.probs.data)
            if variant == "full_attention":
                np.testing.assert_array_equal(tracked.branch_weights.data, untracked.branch_weights.data)
            else:
                assert tracked.branch_weights is untracked.branch_weights is None

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_branch_weights_only_for_attention_variant(self, variant):
        rng = np.random.default_rng(12)
        params = init_params(small_cfg(variant=variant), seed=1)
        x = rng.normal(size=(4, 8))
        with ad.no_grad():
            outs = [mlnet_forward(x, params), mlnet_forward([x, rng.normal(size=(7, 8))], params)]
        for out, total in zip(outs, (4, 11)):
            if variant == "full_attention":
                assert out.branch_weights.shape == (total, 3)
            else:
                assert out.branch_weights is None

    def test_uniform_attention_equals_non_attention(self):
        cfg_full = small_cfg(variant="full_attention")
        cfg_mean = small_cfg(variant="non_attention")
        full = init_params(cfg_full, seed=3, dtype=np.float64)
        # force equal scores for every input: zero last layer, constant bias
        _, _, w1, b1 = full.attention
        w1.data[:] = 0.0
        b1.data[:] = 0.3
        named = {k: v.data for k, v in full.named().items()}
        mean = build_params(
            cfg_mean,
            lambda name, shape, kind: Tensor(named[name].copy(), requires_grad=True),
        )
        x = np.random.default_rng(13).normal(size=(9, 8))
        out_full = mlnet_forward(x, full)
        out_mean = mlnet_forward(x, mean)
        np.testing.assert_allclose(out_full.probs.data, out_mean.probs.data, atol=1e-6)

    def test_gated_unit_is_its_one_branch(self):
        # the one widest gated branch in numpy, fed to the shared classifier:
        # same probabilities and gradients as the variant's mean-fusion path
        cfg = small_cfg(variant="gated_unit")
        params = init_params(cfg, seed=6, dtype=np.float64)
        rng = np.random.default_rng(14)
        t_len, radius = 7, cfg.context_radius
        x = rng.normal(size=(t_len, 8))
        weights = Tensor(rng.normal(size=t_len))
        out = mlnet_forward(x, params)
        (out.probs * weights).sum().backward()

        w_f, b_f, w_g, b_g = params.branches[0]
        windows = frame_windows(replicate_pad(x, radius), t_len, radius, radius)
        th = np.tanh(windows @ w_f.data.T + b_f.data)
        sg = 1.0 / (1.0 + np.exp(-(windows @ w_g.data.T + b_g.data)))
        m = Tensor(th * sg, requires_grad=True)
        rest = params.copy()
        probs = classifier_forward(m, rest)
        (probs * weights).sum().backward()
        np.testing.assert_allclose(out.probs.data, probs.data, rtol=0, atol=1e-12)
        for (name, t), ref in zip(params.named().items(), rest.named().values()):
            if not name.startswith("branch_"):
                np.testing.assert_allclose(t.grad, ref.grad, rtol=1e-10, atol=1e-14, err_msg=name)

        d_f = m.grad * sg * (1.0 - th**2)
        d_g = m.grad * th * sg * (1.0 - sg)
        for got, want in [
            (w_f, d_f.T @ windows), (b_f, d_f.sum(axis=0)),
            (w_g, d_g.T @ windows), (b_g, d_g.sum(axis=0)),
        ]:
            np.testing.assert_allclose(got.grad, want, rtol=1e-10, atol=1e-14)

    def test_gated_units_are_the_units_formula(self):
        # three branches of different widths, as mlnet_forward feeds them: the
        # stack is the unit's formula in numpy exactly, and every gradient its
        # derivative in numpy
        cfg = small_cfg(variant="non_attention")
        params = init_params(cfg, seed=8, dtype=np.float64)
        rng = np.random.default_rng(15)
        t_len, radius, f = 7, cfg.context_radius, cfg.n_mels
        padded = replicate_pad(rng.normal(size=(t_len, f)), radius)
        widest = window_matrix(padded, radius)
        inputs = [widest[:, (radius - r) * f : (radius + r + 1) * f] for r in cfg.receptive_fields]
        assert len({x.shape[1] for x in inputs}) == 3
        coeffs = rng.normal(size=(t_len, 3, cfg.gated_dim))
        out = ad.gated_units(padded, params.branches)
        (out * Tensor(coeffs)).sum().backward()
        for i, ((w_f, b_f, w_g, b_g), x) in enumerate(zip(params.branches, inputs)):
            th = np.tanh(x @ w_f.data.T + b_f.data)
            sg = 1.0 / (1.0 + np.exp(-(x @ w_g.data.T + b_g.data)))
            np.testing.assert_array_equal(out.data[:, i], th * sg)
            d_f = coeffs[:, i] * sg * (1.0 - th**2)
            d_g = coeffs[:, i] * th * sg * (1.0 - sg)
            for got, want in [
                (w_f, d_f.T @ x), (b_f, d_f.sum(axis=0)),
                (w_g, d_g.T @ x), (b_g, d_g.sum(axis=0)),
            ]:
                np.testing.assert_allclose(got.grad, want, rtol=0, atol=1e-12)

    def test_gradients_flow_to_every_parameter(self):
        for variant in ("bilstm_base", "gated_unit", "non_attention", "full_attention"):
            params = init_params(small_cfg(variant=variant), seed=2)
            out = mlnet_forward(np.random.default_rng(1).normal(size=(4, 8)), params)
            out.probs.sum().backward()
            for name, t in params.named().items():
                assert t.grad is not None, f"{variant}: no gradient for {name}"

    def test_quick_finite_difference_check(self):
        # full four-variant element-wise check lives in the acceptance
        # suite; this is a fast regression guard on one variant
        cfg = ModelConfig(
            receptive_fields=(1, 2),
            n_mels=4,
            gated_dim=4,
            attn_hidden=4,
            lstm_hidden=3,
            lstm_layers=1,
            fc_hidden=4,
        )
        params = init_params(cfg, seed=7, dtype=np.float64)
        x = np.random.default_rng(2).normal(size=(3, 4))
        y = np.array([1.0, 0.0, 1.0])

        def loss_tensor():
            probs = mlnet_forward(x, params).probs
            error = probs + Tensor(-y)
            return (error * error).sum()

        loss_tensor().backward()
        tensors = params.tensors()
        with ad.no_grad():
            numeric = numeric_grad(lambda: loss_tensor().item(), tensors)
        for t, n in zip(tensors, numeric):
            assert rel_error(t.grad, n) <= 1e-5


class TestBlockedFrontEnd:
    """Without a graph, an utterance of more than ``FRONT_BLOCK`` frames
    runs the branches and the fusion, or ``bilstm_base``'s projection, in
    time blocks with a halo of the widest radius. Every block is long
    enough that each row keeps the bits of the one-block front end."""

    @staticmethod
    def block_rows(monkeypatch, cfg) -> list[int]:
        """Records the frames that each front-end call covers."""
        rows = []
        name = "projection" if cfg.variant == "bilstm_base" else "gated_units"
        op = getattr(ad, name)

        def recording(padded, *args):
            rows.append(padded.shape[0] - 2 * cfg.context_radius)
            return op(padded, *args)

        monkeypatch.setattr(ad, name, recording)
        return rows

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocks_match_one_block_bit_for_bit(self, monkeypatch, variant, dtype):
        cfg = ModelConfig(variant=variant, lstm_hidden=8, lstm_layers=1, fc_hidden=8)
        params = init_params(cfg, seed=3, dtype=dtype)
        rng = np.random.default_rng(19)
        rows = self.block_rows(monkeypatch, cfg)
        for t_len in (model.FRONT_BLOCK, model.FRONT_BLOCK + 1, 1537, 2998):
            x = 4.0 * rng.normal(size=(t_len, cfg.n_mels))
            rows.clear()
            with ad.no_grad():
                blocked = mlnet_forward(x, params)
                sizes = list(rows)
                with monkeypatch.context() as m:
                    m.setattr(model, "FRONT_BLOCK", t_len)
                    whole = mlnet_forward(x, params)
            n_blocks = -(-t_len // model.FRONT_BLOCK)
            assert len(sizes) == n_blocks and sum(sizes) == t_len
            assert max(sizes) <= model.FRONT_BLOCK and max(sizes) - min(sizes) <= 1
            np.testing.assert_array_equal(blocked.probs.data, whole.probs.data)
            if variant == "full_attention":
                np.testing.assert_array_equal(blocked.branch_weights.data, whole.branch_weights.data)

    def test_graph_keeps_one_block(self, monkeypatch):
        cfg = small_cfg()
        params = init_params(cfg, seed=2)
        rows = self.block_rows(monkeypatch, cfg)
        out = mlnet_forward(np.random.default_rng(20).normal(size=(model.FRONT_BLOCK + 1, 8)), params)
        assert rows == [model.FRONT_BLOCK + 1]
        assert out.branch_weights._backward is not None

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_scoring_memory_grows_by_under_2kb_per_frame(self, variant):
        # between 1500 and 3000 frames the scoring peak grows by the
        # features, the float32 frames and their padding, and the fused
        # rows: about 0.9 KB per frame (1.2 for bilstm_base). A
        # whole-utterance front end adds its window matrix, its branch
        # outputs and their stack, 3.9 to 7.5 KB per frame in all.
        params = init_params(ModelConfig(variant=variant), seed=0)
        frontend = FrontendConfig(normalize=True)
        rng = np.random.default_rng(21)
        peaks = []
        for t_len in (1500, 3000):
            w = Waveform(rng.uniform(-0.5, 0.5, 160 * (t_len - 1) + 400))
            tracemalloc.start()
            try:
                with ad.no_grad():
                    mlnet_forward(featurize(w, frontend), params)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 1500 < 2000
