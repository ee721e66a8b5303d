"""Training tests: losses, Adam with clipping, loop determinism and sanity."""

import math

import numpy as np
import pytest

import mlnetvad.autodiff as ad
import mlnetvad.training
from helpers import numeric_grad, rel_error, toy_corpus
from mlnetvad.autodiff import Tensor
from mlnetvad.corpus import LabeledUtterance
from mlnetvad.errors import ShapeMismatch, TrainingError
from mlnetvad.model import ModelConfig, attention_forward, init_params, mlnet_forward
from mlnetvad.training import (
    AdamState,
    TrainConfig,
    adam_step,
    attention_loss,
    cross_entropy_loss,
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
        tensors = [
            params.attention.w0,
            params.attention.b0,
            params.attention.w1,
            params.attention.b1,
        ]
        with ad.no_grad():
            numeric = numeric_grad(lambda: loss_fn().item(), tensors)
        for t, n in zip(tensors, numeric):
            assert rel_error(t.grad, n) <= 1e-5


class TestDtypes:
    @pytest.mark.parametrize("variant", ["full_attention", "bilstm_base"])
    def test_float32_model_keeps_loss_and_gradients_float32(self, variant):
        params = init_params(tiny_model(variant=variant), seed=2, dtype=np.float32)
        loss, _, _ = utterance_loss(toy_corpus(1, seed=4)[0], params, TrainConfig())
        loss.backward()
        assert loss.dtype == np.float32
        for name, t in params.named().items():
            assert t.grad is not None and t.grad.dtype == np.float32, name


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
        params.head.w_out.grad = np.array([[np.nan]], dtype=np.float32)
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
