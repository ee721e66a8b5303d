"""Training tests: losses, Adam with clipping, loop determinism and sanity."""

import math
import tracemalloc

import numpy as np
import pytest

import mlnetvad.autodiff as ad
import mlnetvad.training
from helpers import numeric_grad, rel_error, toy_corpus
from mlnetvad.autodiff import Tensor
from mlnetvad.corpus import LabeledUtterance
from mlnetvad.errors import ConfigError, NonFiniteError, ShapeMismatch, TrainingError
from mlnetvad.frontend import FeatureSequence
from mlnetvad.model import ModelConfig, attention_forward, init_params, mlnet_forward
from mlnetvad.training import (
    AdamState,
    TrainConfig,
    adam_step,
    attention_loss,
    cross_entropy_loss,
    lane_losses,
    train,
    utterance_loss,
)

SR = 16000


def tiny_model(**kw) -> ModelConfig:
    base = dict(
        receptive_fields=(1, 3),
        n_mels=40,
        gated_dim=16,
        attn_hidden=16,
        lstm_hidden=16,
        fc_hidden=16,
    )
    base.update(kw)
    return ModelConfig(**base)


class TestCrossEntropy:
    def test_perfect_prediction_near_zero(self):
        y = np.array([1, 0, 1, 1], dtype=float)
        loss = cross_entropy_loss(Tensor(y), y)
        assert abs(loss.item() - 4 * math.log(1.0 / (1.0 - 1e-7))) < 1e-9
        assert loss.item() < 1e-5

    def test_half_everywhere_is_t_ln2(self):
        t_len = 37
        loss = cross_entropy_loss(
            Tensor(np.full(t_len, 0.5)), np.random.default_rng(0).integers(0, 2, t_len)
        )
        assert abs(loss.item() - t_len * math.log(2.0)) < 1e-6

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 50))
            probs = rng.uniform(0.01, 0.99, n)
            labels = rng.integers(0, 2, n)
            expected = 0.0
            for p, y in zip(probs, labels):
                pc = min(max(p, 1e-7), 1 - 1e-7)
                expected -= y * math.log(pc) + (1 - y) * math.log(1 - pc)
            got = cross_entropy_loss(Tensor(probs), labels).item()
            assert abs(got - expected) < 1e-9

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            cross_entropy_loss(Tensor(np.full(3, 0.5)), np.ones(4))


class TestAttentionLoss:
    def test_one_hot_contributes_zero(self):
        p = Tensor(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]))
        assert attention_loss(p).item() == 0.0

    def test_uniform_contributes_ln_n(self):
        p = Tensor(np.full((4, 5), 0.2))
        assert abs(attention_loss(p).item() - 4 * math.log(5.0)) < 1e-6

    def test_first_index_wins_ties(self):
        p = Tensor(np.array([[0.4, 0.4, 0.2]]))
        k = np.argmax(p.data, axis=1)
        assert k[0] == 0
        assert abs(attention_loss(p).item() + math.log(0.4)) < 1e-6

    def test_gradient_matches_finite_differences_with_frozen_k(self):
        cfg = tiny_model(n_mels=8, gated_dim=8, attn_hidden=8)
        params = init_params(cfg, seed=3, dtype=np.float64)
        q_np = np.random.default_rng(4).normal(size=(5, 2, 8))
        _, base = attention_forward(Tensor(q_np), params.attention, cfg.double_sigmoid)
        frozen_k = np.argmax(base.data, axis=1)

        def loss_fn() -> Tensor:
            _, weights = attention_forward(Tensor(q_np), params.attention, cfg.double_sigmoid)
            return attention_loss(weights, k=frozen_k)

        loss_fn().backward()
        tensors = list(params.attention)
        with ad.no_grad():
            numeric = numeric_grad(lambda: loss_fn().item(), tensors)
        for t, n in zip(tensors, numeric):
            assert rel_error(t.grad, n) <= 1e-5

    @pytest.mark.parametrize(
        "k",
        [
            pytest.param(np.full(4, -1), id="minus-one"),
            pytest.param(np.full(4, 3), id="n"),
            pytest.param(np.full(4, 1.9), id="non-integer"),
            pytest.param(np.zeros(3, dtype=np.int64), id="short"),
        ],
    )
    def test_k_that_picks_no_branch_rejected(self, k):
        p = Tensor(np.full((4, 3), 1.0 / 3.0), requires_grad=True)
        with pytest.raises(ShapeMismatch):
            attention_loss(p, k=k)


class TestNonFiniteAttention:
    """Where the attention or its loss cannot stay finite, the only error
    is NonFiniteError; the suite turns numpy's RuntimeWarnings into
    errors, so a warning escaping first fails here."""

    def _setup(self, dtype=np.float64):
        cfg = tiny_model(receptive_fields=(1, 2, 3), n_mels=8, gated_dim=8)
        params = init_params(cfg, seed=5, dtype=dtype)
        q = np.random.default_rng(6).normal(size=(4, 3, 8)).astype(dtype)
        return params.attention, Tensor(q, requires_grad=True)

    def test_single_sigmoid_with_every_score_zero(self):
        attn, q = self._setup()
        _, _, w1, b1 = attn
        w1.data[:] = 0.0
        b1.data[:] = -800.0  # sigmoid(-1600) is 0: every row of scores sums to 0
        with pytest.raises(NonFiniteError):
            attention_forward(q, attn, double_sigmoid=False)

    def test_overflowing_float32_scores(self):
        attn, q = self._setup(np.float32)
        _, _, w1, _ = attn
        w1.data[:] = 3e38
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            attention_forward(q, attn)

    def test_frozen_k_on_a_zero_weight(self):
        attn, q = self._setup()
        _, _, w1, b1 = attn
        w1.data[:] = 0.0
        b1.data[:] = [800.0, -800.0, 800.0]  # branch 1's raw score, and weight, is 0
        _, weights = attention_forward(q, attn, double_sigmoid=False)
        np.testing.assert_array_equal(weights.data[:, 1], 0.0)
        with pytest.raises(NonFiniteError):
            attention_loss(weights, k=np.ones(4, dtype=np.int64))


class TestDtypes:
    @pytest.mark.parametrize("variant", ["full_attention", "bilstm_base"])
    def test_float32_model_keeps_loss_and_gradients_float32(self, variant):
        params = init_params(tiny_model(variant=variant), seed=2, dtype=np.float32)
        loss, _, _ = utterance_loss(toy_corpus(1, seed=4)[0], params, TrainConfig())
        loss.backward()
        assert loss.dtype == np.float32
        for name, t in params.named().items():
            assert t.grad is not None and t.grad.dtype == np.float32, name


def _graph_tensors(loss: Tensor) -> tuple[int, int]:
    """The tensors reachable from ``loss`` through the graph, the loss and
    the leaves included, and how many of them are op nodes."""
    seen = {id(loss): loss}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return len(seen), sum(t._backward is not None for t in seen.values())


class TestGraphSize:
    """The training graph of one default-sized utterance of 575 frames: how
    many tensors and op nodes it has, for each variant, and what the
    ``full_attention`` graph holds once the forward pass is built. A node
    or a kept buffer more per layer shows here."""

    T_LEN = 575

    def _setup(self, variant="full_attention"):
        rng = np.random.default_rng(0)
        frames = rng.normal(size=(self.T_LEN, 40))
        feats = FeatureSequence(frames, np.arange(self.T_LEN) * 0.01)
        utt = LabeledUtterance(feats, rng.random(self.T_LEN) > 0.5, "probe")
        return utt, init_params(ModelConfig(variant=variant), seed=0)

    # (tensors, op nodes). Every variant has 4 op nodes in common: one
    # bilstm_layer per Bi-LSTM layer, the classifier_head and
    # cross_entropy. bilstm_base adds its projection, gated_unit and
    # non_attention their gated_units and mean, and full_attention its
    # gated_units, branch_weights, branch_fusion, selected_nll and the
    # weighted loss's mul and add. The other tensors are parameters and
    # full_attention's loss weight, a constant.
    GRAPH_SIZES = {
        "bilstm_base": (23, 5),
        "gated_unit": (26, 6),
        "non_attention": (42, 6),
        "full_attention": (51, 10),
    }

    @pytest.mark.parametrize("variant", sorted(GRAPH_SIZES))
    def test_graph_tensor_count(self, variant):
        utt, params = self._setup(variant)
        loss, _, _ = utterance_loss(utt, params, TrainConfig())
        assert _graph_tensors(loss) == self.GRAPH_SIZES[variant]

    def test_memory_held_after_the_forward_pass_and_peak_in_backward(self):
        # 11.5 and 15.5 KB per frame: the window matrix is rebuilt in the
        # backward rather than kept, tanh(cell) is computed again, the BPTT
        # makes its factors one scan block at a time, and the Bi-LSTM's kept
        # gates and cell states go before its gradient GEMMs
        utt, params = self._setup()
        utterance_loss(utt, params, TrainConfig())[0].backward()  # first-call allocations
        params.zero_grads()
        tracemalloc.start()
        try:
            loss, _, _ = utterance_loss(utt, params, TrainConfig())
            held = tracemalloc.get_traced_memory()[0]
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loss.item() > 0.0
        assert held < 12 * 1024 * self.T_LEN
        assert peak < 16 * 1024 * self.T_LEN


def _raw_toy_corpus(n: int, seed: int) -> list[LabeledUtterance]:
    """The toy corpus on raw log-mel features, shifted to the -23 silence
    floor's scale so that the gates saturate, as in criterion 6."""
    return [
        LabeledUtterance(FeatureSequence(u.features.frames * 8.0 - 15.0, u.features.frame_times), u.labels, u.source_id)
        for u in toy_corpus(n, seed)
    ]


class TestLanes:
    """Two or more utterances in one graph, the classifier running them as
    lanes, must give every parameter the gradient of one backward per
    utterance in turn, bit for bit, and ``train`` the same checkpoints."""

    @pytest.mark.parametrize("raw", [False, True])
    @pytest.mark.parametrize("variant", ["bilstm_base", "gated_unit", "non_attention", "full_attention"])
    def test_lane_losses_equal_one_utterance_at_a_time(self, variant, raw):
        corpus = _raw_toy_corpus(5, seed=21) if raw else toy_corpus(5, seed=21)
        cfg = TrainConfig(attention_loss_weight=0.7)
        params = init_params(tiny_model(variant=variant), seed=3)
        for u in corpus[:1]:  # a gradient already in the leaves
            utterance_loss(u, params, cfg)[0].backward()
        values = []
        for u in corpus[1:]:
            loss, _, _ = utterance_loss(u, params, cfg)
            loss.backward()
            values.append(loss.item())
        expected = {name: t.grad.copy() for name, t in params.named().items()}
        params.zero_grads()
        utterance_loss(corpus[0], params, cfg)[0].backward()
        lanes = []
        for group in (corpus[1:3], corpus[3:5]):
            total, group_values = lane_losses(group, params, cfg)
            total.backward()
            lanes += group_values
        assert lanes == values
        for name, t in params.named().items():
            assert t.grad.tobytes() == expected[name].tobytes(), name  # signed zeros too

    @pytest.mark.parametrize("batch_size", [2, 3])
    def test_train_steps_as_one_utterance_at_a_time(self, batch_size):
        # train() against its own loop written one utterance at a time
        corpus, dev = toy_corpus(7, seed=22), toy_corpus(2, seed=23)
        cfg = TrainConfig(lr=0.01, epochs=2, batch_size=batch_size, seed=4)
        model_cfg = tiny_model()
        result = train(corpus, cfg, model_cfg, dev=dev)
        seeds = np.random.SeedSequence(cfg.seed).spawn(3)
        params = init_params(model_cfg, np.random.default_rng(seeds[0]))
        state, shuffle = AdamState.for_params(params), np.random.default_rng(seeds[1])
        losses = []
        for _ in range(cfg.epochs):
            order, total = shuffle.permutation(len(corpus)), 0.0
            for start in range(0, len(order), batch_size):
                for i in order[start : start + batch_size]:
                    loss, _, _ = utterance_loss(corpus[i], params, cfg)
                    loss.backward()
                    total += loss.item()
                adam_step(params, state, cfg)
                params.zero_grads()
            losses.append(total / len(corpus))
        assert [r.train_loss for r in result.history] == losses
        for (name, got), want in zip(result.params.named().items(), params.tensors()):
            np.testing.assert_array_equal(got.data, want.data, err_msg=name)

    def test_lane_losses_reaches_the_graph(self):
        corpus = toy_corpus(2, seed=24)
        total, _ = lane_losses(corpus, init_params(tiny_model(), seed=0), TrainConfig())
        assert len(total._parents) == 2 and all(p._parents for p in total._parents)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("lr", math.nan, "lr must be finite"),
            ("lr", math.inf, "lr must be finite"),
            ("lr", 0.0, "lr must be positive"),
            ("eps", math.nan, "eps must be finite"),
            ("eps", math.inf, "eps must be finite"),
            ("eps", 0.0, "eps must be positive"),  # Adam's 0 / 0 at a zero gradient
            ("eps", -1e-8, "eps must be positive"),
            ("attention_loss_weight", math.nan, "attention_loss_weight must be finite"),
            ("attention_loss_weight", math.inf, "attention_loss_weight must be finite"),
            ("attention_loss_weight", -1.0, "attention_loss_weight must be >= 0"),
        ],
    )
    def test_value_outside_its_range_rejected(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            TrainConfig(**{field: value})

    def test_zero_attention_loss_weight_is_valid(self):
        assert TrainConfig(attention_loss_weight=0.0).attention_loss_weight == 0.0


class TestAdam:
    def _scalar_param(self, value=0.0):
        cfg = TrainConfig(seed=0)
        params = init_params(
            ModelConfig(
                receptive_fields=(1,),
                n_mels=2,
                gated_dim=1,
                attn_hidden=1,
                lstm_hidden=1,
                lstm_layers=1,
                fc_hidden=1,
                variant="gated_unit",
            ),
            seed=0,
        )
        return params, AdamState.for_params(params), cfg

    def test_first_step_is_minus_lr(self):
        params, state, cfg = self._scalar_param()
        before = {k: t.data.copy() for k, t in params.named().items()}
        for t in params.tensors():
            t.grad = np.full_like(t.data, 0.5)
        adam_step(params, state, cfg)
        for name, t in params.named().items():
            delta = t.data - before[name]
            np.testing.assert_allclose(delta, -cfg.lr, rtol=1e-4)

    def test_huge_gradient_clipped_to_one(self):
        params, state, cfg = self._scalar_param()
        before = {k: t.data.copy() for k, t in params.named().items()}
        for t in params.tensors():
            t.grad = np.full_like(t.data, 10.0)
        adam_step(params, state, cfg)
        for name, t in params.named().items():
            delta = np.abs(t.data - before[name])
            # clipped gradient of 1.0 behaves exactly like gradient 1.0
            np.testing.assert_allclose(delta, cfg.lr, rtol=1e-4)
            assert (delta <= cfg.lr * 1.001).all()

    def test_zero_gradient_keeps_params_and_decays_moments(self):
        params, state, cfg = self._scalar_param()
        name = "head.w_out"
        state.m[name][:] = 1.0
        state.v[name][:] = 1.0
        before = {k: t.data.copy() for k, t in params.named().items()}
        adam_step(params, state, cfg)  # all grads missing -> zeros
        np.testing.assert_allclose(state.m[name], 0.9)
        np.testing.assert_allclose(state.v[name], 0.999)
        for k, t in params.named().items():
            if k != name:
                np.testing.assert_array_equal(t.data, before[k])

    def test_nan_gradient_aborts(self):
        params, state, cfg = self._scalar_param()
        params.named()["head.w_out"].grad = np.array([[np.nan]], dtype=np.float32)
        with pytest.raises(TrainingError, match="head.w_out"):
            adam_step(params, state, cfg)

    def test_step_counter_increments_once_per_call(self):
        params, state, cfg = self._scalar_param()
        adam_step(params, state, cfg)
        adam_step(params, state, cfg)
        assert state.step == 2


class TestTrainLoop:
    def test_fixed_seed_reproduces_epoch_losses_and_params(self):
        corpus = toy_corpus(8, seed=5)
        cfg = TrainConfig(epochs=2, batch_size=4, seed=11)
        r1 = train(corpus, cfg, tiny_model())
        r2 = train(corpus, cfg, tiny_model())
        assert r1.history[0].train_loss == r2.history[0].train_loss
        for (na, ta), (nb, tb) in zip(r1.params.named().items(), r2.params.named().items()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_attention_loss_gated_off(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("attention loss must not be evaluated")

        monkeypatch.setattr(mlnetvad.training, "attention_loss", boom)
        corpus = toy_corpus(4, seed=6)
        train(
            corpus,
            TrainConfig(epochs=1, batch_size=4, seed=0),
            tiny_model(variant="non_attention"),
        )
        train(
            corpus,
            TrainConfig(epochs=1, batch_size=4, seed=0, attention_loss_weight=0.0),
            tiny_model(variant="full_attention"),
        )

    def test_one_step_decreases_loss_on_tiny_batch(self):
        corpus = toy_corpus(2, seed=7)
        cfg = TrainConfig(lr=1e-4, epochs=1, batch_size=2)
        model_cfg = tiny_model()
        failures = 0
        for trial in range(10):
            params = init_params(model_cfg, seed=100 + trial)
            state = AdamState.for_params(params)

            def batch_loss() -> float:
                with ad.no_grad():
                    return sum(
                        utterance_loss(u, params, cfg)[0].item() for u in corpus
                    )

            before = batch_loss()
            for u in corpus:
                loss, _, _ = utterance_loss(u, params, cfg)
                loss.backward()
            adam_step(params, state, cfg)
            params.zero_grads()
            if batch_loss() >= before:
                failures += 1
        assert failures <= 1

    def test_separable_corpus_reaches_high_f1(self):
        corpus = toy_corpus(16, seed=8)
        cfg = TrainConfig(lr=0.01, epochs=5, batch_size=2, seed=3, dev_fraction=0.2)
        result = train(corpus, cfg, tiny_model())
        assert max(r.dev_f1 for r in result.history) >= 0.99

    def test_empty_corpus_rejected(self):
        with pytest.raises(TrainingError):
            train([], TrainConfig(epochs=1), tiny_model())

    def test_single_class_corpus_rejected(self):
        utt = toy_corpus(2, seed=9)[0]
        silent = LabeledUtterance(utt.features, np.zeros_like(utt.labels), "all-zero")
        with pytest.raises(TrainingError, match="both classes"):
            train([silent, silent], TrainConfig(epochs=1), tiny_model(), dev=[silent])

    def test_checkpoints_and_log_written(self, tmp_path):
        corpus = toy_corpus(6, seed=10)
        cfg = TrainConfig(epochs=2, batch_size=4, seed=1, dev_fraction=0.2)
        lines = []
        result = train(
            corpus, cfg, tiny_model(), out_dir=tmp_path, log_fn=lines.append
        )
        assert (tmp_path / "epoch_1.mlnt").exists()
        assert (tmp_path / "epoch_2.mlnt").exists()
        assert (tmp_path / "best.mlnt").exists()
        assert (tmp_path / "train.log").read_text().splitlines() == [
            r.line() for r in result.history
        ]
        assert len(lines) == 2
        for line in lines:
            assert len(line.split("\t")) == 4

    def test_large_attention_weight_sharpens_branch_choice(self):
        corpus = toy_corpus(8, seed=12)
        model_cfg = tiny_model()
        probe = corpus[0]

        def mean_max_weight(result) -> float:
            with ad.no_grad():
                out = mlnet_forward(probe.features, result.params)
            return float(out.branch_weights.data.max(axis=1).mean())

        sharp = train(
            corpus,
            TrainConfig(epochs=5, batch_size=4, seed=2, attention_loss_weight=10.0),
            model_cfg,
        )
        flat = train(
            corpus,
            TrainConfig(epochs=5, batch_size=4, seed=2, attention_loss_weight=0.0),
            model_cfg,
        )
        assert mean_max_weight(sharp) > mean_max_weight(flat)
