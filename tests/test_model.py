"""Model tests: gated units, attention block, classifier, variants."""

import numpy as np
import pytest

import mlnetvad.autodiff as ad
from helpers import numeric_grad, rel_error, scalar_attention_oracle
from mlnetvad.autodiff import Tensor
from mlnetvad.errors import ConfigError, GraphError, ShapeMismatch
from mlnetvad.model import (
    VARIANTS,
    AttentionParams,
    ModelConfig,
    attention_forward,
    build_params,
    classifier_forward,
    fuse_branches,
    init_params,
    mlnet_forward,
    non_attention_forward,
    normalize_branch_weights,
    replicate_pad,
    window_matrix,
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


def frame_windows(padded: np.ndarray, t_len: int, r: int, radius: int) -> np.ndarray:
    """(T, (2r+1)*F) windows built frame by frame: padded[t+R-r : t+R+r+1]."""
    return np.stack(
        [padded[t + radius - r : t + radius + r + 1].ravel() for t in range(t_len)]
    )


def units(bp):
    return (bp.w_f, bp.b_f, bp.w_g, bp.b_g)


class TestGatedAffine:
    def test_zero_params_give_zero(self):
        params = init_params(small_cfg(variant="gated_unit"), seed=0)
        bp = params.branches[0]
        for t in units(bp):
            t.data[:] = 0.0
        windows = np.random.default_rng(0).normal(size=(4, 7 * 8))
        out = ad.gated_units([windows], [units(bp)])
        np.testing.assert_allclose(out.data, 0.0)

    def test_saturated_biases_give_one(self):
        params = init_params(small_cfg(variant="gated_unit"), seed=0)
        bp = params.branches[0]
        bp.w_f.data[:] = 0.0
        bp.w_g.data[:] = 0.0
        bp.b_f.data[:] = 50.0
        bp.b_g.data[:] = 50.0
        out = ad.gated_units([np.zeros((4, 7 * 8), np.float32)], [units(bp)])
        np.testing.assert_allclose(out.data, 1.0, atol=1e-6)

    @pytest.mark.parametrize("r", [1, 9])
    def test_output_size_constant_across_receptive_fields(self, r):
        cfg = ModelConfig(receptive_fields=(r,), variant="gated_unit")
        params = init_params(cfg, seed=2)
        windows = np.random.default_rng(1).normal(size=(5, (2 * r + 1) * 40))
        assert ad.gated_units([windows], [units(params.branches[0])]).shape == (5, 1, 64)

    def test_wrong_window_size_rejected(self):
        params = init_params(small_cfg(), seed=0)
        one = units(params.branches[0])  # radius 1: 3 frames of 8 bands
        for inputs, weights in [
            ([np.zeros((4, 5 * 8))], [one]),  # window wider than the unit
            ([np.zeros((4, 3 * 8)), np.zeros((5, 5 * 8))], [one, units(params.branches[1])]),
            ([np.zeros((4, 3 * 8))], [one, one]),  # one input for two units
            ([np.zeros(3 * 8)], [one]),  # not 2-D
            ([], []),
        ]:
            with pytest.raises(ShapeMismatch):
                ad.gated_units(inputs, weights)
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
        widest = window_matrix(padded, t_len, radius)
        inputs = []
        for bp in params.branches:
            r = bp.receptive_field
            windows = widest[:, (radius - r) * f : (radius + r + 1) * f]
            np.testing.assert_array_equal(windows, frame_windows(padded, t_len, r, radius))
            inputs.append(windows)
        batch = ad.gated_units(inputs, [units(bp) for bp in params.branches])
        assert batch.shape == (t_len, cfg.n_branches, cfg.gated_dim)
        for i, (bp, windows) in enumerate(zip(params.branches, inputs)):
            for t in range(t_len):
                v = windows[t]
                single = np.tanh(bp.w_f.data @ v + bp.b_f.data) / (
                    1.0 + np.exp(-(bp.w_g.data @ v + bp.b_g.data))
                )
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
        w = window_matrix(padded, 3, 1)
        # middle frame window = [x0, x1, x2] flattened
        np.testing.assert_array_equal(w[1], np.concatenate([x[0], x[1], x[2]]))
        # first frame replicates the first row on the left
        np.testing.assert_array_equal(w[0], np.concatenate([x[0], x[0], x[1]]))

    def test_narrower_windows_are_column_slices_of_the_widest(self):
        x = np.arange(40.0).reshape(5, 8)
        radius, f = 3, 8
        padded = replicate_pad(x, radius)
        widest = window_matrix(padded, 5, radius)
        for r in range(radius + 1):
            np.testing.assert_array_equal(
                widest[:, (radius - r) * f : (radius + r + 1) * f],
                frame_windows(padded, 5, r, radius),
            )


def symmetric_attention(cfg: ModelConfig) -> AttentionParams:
    """Attention parameters that always yield equal branch scores."""
    rng = np.random.default_rng(0)
    n, h = cfg.n_branches, cfg.attn_hidden
    return AttentionParams(
        w0=Tensor(rng.normal(size=(h, n)), requires_grad=True),
        b0=Tensor(np.full(h, 0.1), requires_grad=True),
        w1=Tensor(np.zeros((n, h)), requires_grad=True),
        b1=Tensor(np.full(n, 0.3), requires_grad=True),
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
        q = Tensor(rng.normal(size=(4, 6)))
        p = Tensor(np.array([0.0, 0.0, 1.0, 0.0]))
        np.testing.assert_allclose(fuse_branches(p, q).data, q.data[2], atol=1e-12)

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
            for t in (at.w0, at.b0, at.w1, at.b1):
                t.data[:] = rng.normal(scale=scale, size=t.shape)
            q = Tensor(rng.normal(size=(50, n, 8)))
            seen.append(attention_forward(q, at)[1].data)
        # saturating inputs: raw scores of exactly 0 and 1, whose weights
        # are the second sigmoids s(0) and s(1) normalized
        at.w1.data[:] = 0.0
        for one_hot in np.eye(n):
            for raw in (one_hot, 1.0 - one_hot):
                at.b1.data[:] = np.where(raw > 0, 800.0, -800.0)
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
                _, p, want = scalar_attention_oracle(
                    q, at.w0.data, at.b0.data, at.w1.data, at.b1.data, double
                )
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

    def test_argmax_stable_under_scaling_single_sigmoid(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = Tensor(rng.uniform(0.05, 0.95, size=(4, 5)))
            p1 = normalize_branch_weights(a, double_sigmoid=False)
            p2 = normalize_branch_weights(a * 3.7, double_sigmoid=False)
            np.testing.assert_array_equal(
                np.argmax(p1.data, axis=1), np.argmax(p2.data, axis=1)
            )

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
            non_attention_forward(q).data, fuse_branches(p, q).data, atol=1e-12
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
            for d in swapped.lstm[layer]:
                d.w_x.data[:] = np.vstack([d.w_x.data[h:], d.w_x.data[:h]])
        wh = swapped.head.w_hidden.data
        swapped.head.w_hidden.data[:] = np.hstack([wh[:, h:], wh[:, :h]])

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

    def test_several_sequences_with_a_graph_rejected(self):
        params = init_params(small_cfg(), seed=0)
        with pytest.raises(GraphError, match="no_grad"):
            mlnet_forward([np.ones((3, 8)), np.ones((4, 8))], params)

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
        full.attention.w1.data[:] = 0.0
        full.attention.b1.data[:] = 0.3
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

        bp = params.branches[0]
        windows = frame_windows(replicate_pad(x, radius), t_len, radius, radius)
        th = np.tanh(windows @ bp.w_f.data.T + bp.b_f.data)
        sg = 1.0 / (1.0 + np.exp(-(windows @ bp.w_g.data.T + bp.b_g.data)))
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
            (bp.w_f, d_f.T @ windows), (bp.b_f, d_f.sum(axis=0)),
            (bp.w_g, d_g.T @ windows), (bp.b_g, d_g.sum(axis=0)),
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
        widest = window_matrix(replicate_pad(rng.normal(size=(t_len, f)), radius), t_len, radius)
        inputs = [
            widest[:, (radius - bp.receptive_field) * f : (radius + bp.receptive_field + 1) * f]
            for bp in params.branches
        ]
        assert len({x.shape[1] for x in inputs}) == 3
        coeffs = rng.normal(size=(t_len, 3, cfg.gated_dim))
        out = ad.gated_units(inputs, [units(bp) for bp in params.branches])
        (out * Tensor(coeffs)).sum().backward()
        for i, (bp, x) in enumerate(zip(params.branches, inputs)):
            th = np.tanh(x @ bp.w_f.data.T + bp.b_f.data)
            sg = 1.0 / (1.0 + np.exp(-(x @ bp.w_g.data.T + bp.b_g.data)))
            np.testing.assert_array_equal(out.data[:, i], th * sg)
            d_f = coeffs[:, i] * sg * (1.0 - th**2)
            d_g = coeffs[:, i] * th * sg * (1.0 - sg)
            for got, want in [
                (bp.w_f, d_f.T @ x), (bp.b_f, d_f.sum(axis=0)),
                (bp.w_g, d_g.T @ x), (bp.b_g, d_g.sum(axis=0)),
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
            return ((probs - Tensor(y)) * (probs - Tensor(y))).sum()

        loss_tensor().backward()
        tensors = params.tensors()
        with ad.no_grad():
            numeric = numeric_grad(lambda: loss_tensor().item(), tensors)
        for t, n in zip(tensors, numeric):
            assert rel_error(t.grad, n) <= 1e-5
