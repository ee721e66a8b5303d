"""Acceptance suite: one test per release criterion, slowest last.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. Every tolerance is fixed here; the two training
criteria pin their corpus seeds and training budgets so results are
bit-reproducible on one machine.
"""

import contextlib
import math
import time

import numpy as np
import pytest

import mlnetvad.autodiff as ad
from helpers import (
    numeric_grad,
    reference_loss,
    rel_error,
    scalar_attention_oracle,
    toy_corpus,
)
from mlnetvad.autodiff import Tensor
from mlnetvad.checkpoint import load_checkpoint, save_checkpoint
from mlnetvad.corpus import (
    MixSpec,
    mix_noise,
    noise_surrogate,
    pad_silence,
    speech_surrogate,
    split_train_dev,
    synth_corpus,
    synth_raw_corpus,
    utterance_from_raw,
)
from mlnetvad.frontend import FrontendConfig, Waveform, featurize, frame_signal, num_frames
from mlnetvad.metrics import confusion, dcf, evaluate, f1
from mlnetvad.model import ModelConfig, attention_forward, init_params, mlnet_forward
from mlnetvad.training import TrainConfig, attention_loss, cross_entropy_loss, train


@contextlib.contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE CRITERION {number} [{title}]: FAIL")
        raise
    print(f"\nACCEPTANCE CRITERION {number} [{title}]: PASS")


GRADCHECK_DIMS = dict(
    receptive_fields=(1, 2, 3),
    n_mels=8,
    gated_dim=8,       # pinned by the criterion
    attn_hidden=8,
    lstm_hidden=8,     # pinned by the criterion
    lstm_layers=2,
    fc_hidden=8,
)


def test_criterion_1_gradient_correctness():
    with criterion(1, "gradient correctness, all variants, 64-bit"):
        started = time.perf_counter()
        rng = np.random.default_rng(101)
        t_len = 6
        x = rng.normal(size=(t_len, 8))
        y = rng.integers(0, 2, t_len).astype(np.float64)
        for variant in ("bilstm_base", "gated_unit", "non_attention", "full_attention"):
            cfg = ModelConfig(variant=variant, **GRADCHECK_DIMS)
            params = init_params(cfg, seed=7, dtype=np.float64)
            frozen_k = None
            if variant == "full_attention":
                with ad.no_grad():
                    base = mlnet_forward(x, params)
                frozen_k = np.argmax(base.branch_weights.data, axis=1)

            def loss_tensor() -> Tensor:
                out = mlnet_forward(x, params)
                loss = cross_entropy_loss(out.probs, y)
                if frozen_k is not None:
                    loss = loss + attention_loss(out.branch_weights, k=frozen_k)
                return loss

            # the finite-difference oracle runs over an independently
            # written numpy forward; pin the two paths to each other first
            named = {k: t.data for k, t in params.named().items()}
            loss = loss_tensor()
            assert abs(loss.item() - reference_loss(x, y, cfg, named, frozen_k)) <= 1e-9
            loss.backward()
            tensors = params.tensors()
            numeric = numeric_grad(
                lambda: reference_loss(x, y, cfg, named, frozen_k), tensors, eps=1e-4
            )
            for (name, t), n in zip(params.named().items(), numeric):
                err = rel_error(t.grad, n)
                assert err <= 1e-4, f"{variant}/{name}: rel err {err:.2e}"
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"


def test_criterion_2_attention_invariants():
    with criterion(2, "attention weight and fusion invariants, 1000 calls"):
        rng = np.random.default_rng(202)
        cfg = ModelConfig(gated_dim=16, attn_hidden=16, lstm_hidden=8, fc_hidden=8)
        params = init_params(cfg, seed=0, dtype=np.float64)
        for call in range(1000):
            if call % 100 == 0:
                params = init_params(cfg, seed=call, dtype=np.float64)
            q = rng.normal(scale=rng.uniform(0.1, 3.0), size=(5, 16))
            fused, weights = attention_forward(
                Tensor(q[None]), params.attention, double_sigmoid=bool(call % 2)
            )
            p = weights.data[0]
            assert abs(p.sum() - 1.0) <= 1e-6
            assert (p > 0).all()
            assert (fused.data[0] >= q.min(axis=0) - 1e-9).all()
            assert (fused.data[0] <= q.max(axis=0) + 1e-9).all()


def test_criterion_3_oracle_equivalence():
    with criterion(3, "metrics vs loop oracles; attention vs scalar oracle"):
        rng = np.random.default_rng(303)
        for _ in range(1000):
            n = int(rng.integers(1, 50))
            probs = rng.random(n)
            labels = rng.integers(0, 2, n)
            theta = float(rng.random())
            c = confusion(probs, labels, theta)
            tp = fp = fn = tn = 0
            for p_val, y_val in zip(probs, labels):
                pred = 1 if p_val >= theta else 0
                if pred and y_val:
                    tp += 1
                elif pred:
                    fp += 1
                elif y_val:
                    fn += 1
                else:
                    tn += 1
            assert (c.tp, c.fp, c.fn, c.tn) == (tp, fp, fn, tn)
            denom = 2 * tp + fp + fn
            f1_oracle = 1.0 if denom == 0 else 2.0 * tp / denom
            p_fn = fn / (tp + fn) if (tp + fn) else 0.0
            p_fp = fp / (fp + tn) if (fp + tn) else 0.0
            assert f1(c) == f1_oracle
            assert dcf(c) == 0.75 * p_fn + 0.25 * p_fp

        cfg = ModelConfig(gated_dim=16, attn_hidden=16, lstm_hidden=8, fc_hidden=8)
        params = init_params(cfg, seed=5, dtype=np.float64)
        at = params.attention
        for call in range(200):
            q = rng.normal(size=(5, 16))
            double = bool(call % 2)
            fused, weights = attention_forward(Tensor(q[None]), at, double_sigmoid=double)
            _, p, want = scalar_attention_oracle(
                q, at.w0.data, at.b0.data, at.w1.data, at.b1.data, double
            )
            np.testing.assert_allclose(weights.data[0], p, atol=1e-6)
            np.testing.assert_allclose(fused.data[0], want, atol=1e-6)


def test_criterion_4_snr_fidelity():
    with criterion(4, "200 random mixes within 0.1 dB of target SNR"):
        rng = np.random.default_rng(404)
        kinds = ("white", "pink", "babble")
        for i in range(200):
            sr = 16000
            speech = Waveform(speech_surrogate(rng, sr, rng.uniform(0.3, 1.0)), sr)
            padded, mask = pad_silence(speech, MixSpec(silence_pad_s=0.2))
            noise = Waveform(noise_surrogate(rng, sr, len(padded), kinds[i % 3]), sr)
            target = float(rng.uniform(-5.0, 20.0))
            res = mix_noise(padded, noise, target, mask)
            active = mask > 0
            measured = 10.0 * math.log10(
                np.mean(res.clean_scaled[active] ** 2)
                / np.mean(res.noise_scaled[active] ** 2)
            )
            assert abs(measured - target) <= 0.1, f"mix {i}: {measured:.3f} vs {target:.3f}"


def test_criterion_7_determinism_and_persistence(tmp_path):
    with criterion(7, "bit-identical retraining and checkpoint round-trip"):
        corpus = toy_corpus(8, seed=17)
        model_cfg = ModelConfig(
            receptive_fields=(1, 3), gated_dim=16, attn_hidden=16, lstm_hidden=16, fc_hidden=16
        )
        train_cfg = TrainConfig(lr=0.01, epochs=2, batch_size=4, seed=23, dev_fraction=0.25)
        r1 = train(corpus, train_cfg, model_cfg)
        r2 = train(corpus, train_cfg, model_cfg)
        p1, p2 = tmp_path / "run1.mlnt", tmp_path / "run2.mlnt"
        save_checkpoint(p1, r1.params)
        save_checkpoint(p2, r2.params)
        assert p1.read_bytes() == p2.read_bytes()

        loaded = load_checkpoint(p1)
        probe = corpus[0].features
        with ad.no_grad():
            before = mlnet_forward(probe, r1.params).probs.data
            after = mlnet_forward(probe, loaded).probs.data
        np.testing.assert_array_equal(before, after)


def test_criterion_8_frontend_formula_and_silence():
    with criterion(8, "frame-count formula and silence floor"):
        cfg = FrontendConfig()
        rng = np.random.default_rng(808)
        for _ in range(400):
            n = int(rng.integers(0, 10 * 16000))
            w = Waveform(np.zeros(n))
            assert frame_signal(w, cfg).shape[0] == num_frames(n, 400, 160)
        feats = featurize(Waveform(np.zeros(16000)), cfg)
        assert feats.frames.shape == (98, 40)
        np.testing.assert_allclose(feats.frames, math.log(1e-10), atol=1e-12)


@pytest.mark.slow
def test_criterion_5_desk_scale_end_to_end():
    with criterion(5, "200-utterance end-to-end training"):
        started = time.perf_counter()
        spec = MixSpec()  # 2 s pads, SNR uniform in [-5, 20]
        raws = synth_raw_corpus(200, spec, seed=20240817)
        snrs = [r.snr_db for r in raws]
        assert abs(float(np.mean(snrs)) - 7.5) <= 1.0, f"mean SNR {np.mean(snrs):.2f}"
        frontend = FrontendConfig(normalize=True)
        corpus = [utterance_from_raw(r, frontend) for r in raws]
        train_utts, dev_utts = split_train_dev(corpus, 0.05, seed=13)
        assert len(dev_utts) == 10
        model_cfg = ModelConfig(
            gated_dim=32, attn_hidden=32, lstm_hidden=32, fc_hidden=32,
            variant="full_attention",
        )
        result = train(
            train_utts,
            TrainConfig(lr=0.01, epochs=3, batch_size=8, seed=1),
            model_cfg,
            dev=dev_utts,
        )
        report = evaluate(dev_utts, result.best_params, theta=0.5)
        elapsed = time.perf_counter() - started
        print(
            f"\n  held-out f1={report.macro_f1:.4f} dcf={report.macro_dcf:.4f} "
            f"runtime={elapsed:.0f}s"
        )
        assert report.macro_f1 >= 0.90, f"held-out F1 {report.macro_f1:.4f}"
        assert report.macro_dcf <= 0.10, f"held-out DCF {report.macro_dcf:.4f}"
        assert elapsed <= 900.0, f"end-to-end took {elapsed:.0f}s"


@pytest.mark.slow
def test_criterion_6_ablation_direction():
    with criterion(6, "full_attention >= bilstm_base dev F1 on >= 7/10 seeds"):
        # default (raw log-mel) frontend: the gated-unit variants cope with
        # the feature scale, the flattened-affine baseline mostly cannot;
        # identical corpus and budget for both variants on every seed
        frontend = FrontendConfig()
        corpus = synth_corpus(30, MixSpec(), seed=777, cfg=frontend)
        train_utts, dev_utts = split_train_dev(corpus, 0.25, seed=5)

        def best_dev_f1(variant: str, seed: int) -> float:
            model_cfg = ModelConfig(
                variant=variant, gated_dim=16, attn_hidden=16, lstm_hidden=16, fc_hidden=16
            )
            result = train(
                train_utts,
                TrainConfig(lr=0.01, epochs=3, batch_size=1, seed=seed),
                model_cfg,
                dev=dev_utts,
            )
            return max(h.dev_f1 for h in result.history)

        wins = 0
        for seed in range(10):
            full = best_dev_f1("full_attention", seed)
            base = best_dev_f1("bilstm_base", seed)
            wins += full >= base
            print(f"\n  seed {seed}: full={full:.4f} base={base:.4f}")
        assert wins >= 7, f"full_attention won only {wins}/10 seeds"
