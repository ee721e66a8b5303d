"""Metric tests against brute-force loop oracles."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mlnetvad.autodiff as ad
from mlnetvad.corpus import LabeledUtterance
from mlnetvad.errors import ShapeMismatch
from mlnetvad.frontend import FeatureSequence
from mlnetvad.metrics import (
    SCORE_BATCH,
    ConfusionCounts,
    confusion,
    dcf,
    evaluate_scored,
    f1,
    score_utterances,
)
from mlnetvad.model import VARIANTS, ModelConfig, init_params, mlnet_forward


def loop_confusion(probs, labels, theta):
    tp = fp = fn = tn = 0
    for p, y in zip(probs, labels):
        pred = 1 if p >= theta else 0
        if pred == 1 and y == 1:
            tp += 1
        elif pred == 1 and y == 0:
            fp += 1
        elif pred == 0 and y == 1:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


class TestConfusion:
    def test_perfect_hard_predictions(self):
        y = np.array([1, 0, 1, 1, 0])
        c = confusion(y.astype(float), y, 0.5)
        assert (c.fp, c.fn) == (0, 0)
        assert (c.tp, c.tn) == (3, 2)

    def test_all_positive_on_all_negative(self):
        c = confusion(np.ones(7), np.zeros(7), 0.5)
        assert c.fp == 7 and c.tp == 0

    def test_tie_predicts_positive(self):
        c = confusion(np.array([0.5]), np.array([1]), 0.5)
        assert c.tp == 1

    def test_matches_loop_oracle_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            probs = rng.random(n)
            labels = rng.integers(0, 2, n)
            theta = float(rng.random())
            c = confusion(probs, labels, theta)
            assert (c.tp, c.fp, c.fn, c.tn) == loop_confusion(probs, labels, theta)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            confusion(np.ones(3), np.ones(4))


class TestF1:
    def test_perfect(self):
        assert f1(ConfusionCounts(10, 0, 0, 5)) == 1.0

    def test_all_wrong(self):
        assert f1(ConfusionCounts(0, 5, 5, 0)) == 0.0

    def test_direct_arithmetic(self):
        assert abs(f1(ConfusionCounts(8, 2, 4, 0)) - 16.0 / 22.0) < 1e-12

    def test_empty_positive_class(self):
        assert f1(ConfusionCounts(0, 0, 0, 9)) == 1.0


class TestDcf:
    def test_perfect_is_zero(self):
        assert dcf(ConfusionCounts(5, 0, 0, 5)) == 0.0

    def test_all_speech_prediction_on_balanced(self):
        # P_FN = 0, P_FP = 1 -> 0.25
        assert dcf(ConfusionCounts(5, 5, 0, 0)) == 0.25

    def test_direct_arithmetic(self):
        assert abs(dcf(ConfusionCounts(9, 2, 1, 8)) - 0.125) < 1e-12

    def test_degenerate_flag(self):
        assert ConfusionCounts(0, 1, 0, 9).degenerate
        assert not ConfusionCounts(1, 1, 1, 1).degenerate


@given(
    st.integers(0, 50), st.integers(0, 50), st.integers(0, 50), st.integers(0, 50)
)
def test_metric_ranges(tp, fp, fn, tn):
    c = ConfusionCounts(tp, fp, fn, tn)
    assert 0.0 <= f1(c) <= 1.0
    assert 0.0 <= dcf(c) <= 1.0


@given(st.data())
def test_threshold_monotonicity(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    probs = rng.random(40)
    labels = rng.integers(0, 2, 40)
    lo = data.draw(st.floats(0.0, 1.0))
    hi = data.draw(st.floats(0.0, 1.0))
    lo, hi = min(lo, hi), max(lo, hi)
    c_lo, c_hi = confusion(probs, labels, lo), confusion(probs, labels, hi)
    assert c_hi.fn >= c_lo.fn
    assert c_hi.fp <= c_lo.fp


class TestEvaluate:
    def test_macro_is_mean_of_recordings(self):
        scored = [
            ("a", np.array([1.0, 0.0]), np.array([1, 0])),   # F1 1.0
            ("b", np.array([0.0, 1.0, 1.0]), np.array([1, 1, 0])),  # TP1 FP1 FN1 -> 0.5
        ]
        report = evaluate_scored(scored, 0.5)
        assert abs(report.macro_f1 - 0.75) < 1e-12

    def test_single_recording_macro_equals_it(self):
        scored = [("a", np.array([0.9, 0.1]), np.array([1, 0]))]
        report = evaluate_scored(scored)
        assert report.macro_f1 == report.recordings[0].f1
        assert report.macro_dcf == report.recordings[0].dcf

    def test_macro_differs_from_micro_on_imbalance(self):
        # small recording scored perfectly, large one badly: the macro
        # average weights them equally, pooled counts do not
        big_probs = np.concatenate([np.zeros(50), np.ones(50)])
        big_labels = np.concatenate([np.ones(50), np.zeros(50)])
        scored = [
            ("small", np.array([1.0]), np.array([1])),
            ("big", big_probs, big_labels.astype(int)),
        ]
        report = evaluate_scored(scored)
        assert abs(report.macro_f1 - 0.5) < 1e-12
        assert abs(report.micro_f1 - (2 * 1) / (2 * 1 + 50 + 50)) < 1e-12
        assert report.macro_f1 != report.micro_f1

    def test_json_round_trip(self):
        scored = [("a", np.array([0.9, 0.2]), np.array([1, 0]))]
        report = evaluate_scored(scored)
        doc = json.loads(report.to_json())
        assert doc["macro"]["f1"] == report.macro_f1
        assert doc["recordings"][0]["id"] == "a"

    def test_tsv_percentages(self):
        scored = [("a", np.array([0.9, 0.2]), np.array([1, 0]))]
        text = evaluate_scored(scored).to_tsv()
        assert "100.0000" in text
        assert text.startswith("#eval-report\tv1\n")


class TestScoreUtterances:
    # unsorted, one of 1 frame, more utterances than one batch holds
    LENGTHS = (5, 1, 30, 12, 7, 3, 22, 9, 15, 2, 40)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_batched_scores_match_single_calls_in_input_order(self, variant, dtype, tol):
        assert len(self.LENGTHS) > SCORE_BATCH
        cfg = ModelConfig(receptive_fields=(1, 2), n_mels=8, gated_dim=8, attn_hidden=8,
                          lstm_hidden=8, fc_hidden=8, variant=variant)
        params = init_params(cfg, seed=3, dtype=dtype)
        rng = np.random.default_rng(21)
        utts = [
            LabeledUtterance(
                FeatureSequence(rng.normal(size=(t_len, 8)), np.arange(t_len) * 0.01),
                rng.integers(0, 2, size=t_len),
                f"utt-{i}",
            )
            for i, t_len in enumerate(self.LENGTHS)
        ]
        scored = score_utterances(utts, params)
        assert [rec_id for rec_id, _, _ in scored] == [u.source_id for u in utts]
        with ad.no_grad():
            for utt, (_, probs, labels) in zip(utts, scored):
                single = mlnet_forward(utt.features, params).probs.data
                assert probs.dtype == dtype and probs.shape == single.shape
                np.testing.assert_allclose(probs, single, rtol=0, atol=tol)
                np.testing.assert_array_equal(labels, utt.labels)

    def test_no_utterance_is_scored_alone_among_several(self):
        # 9 utterances split 5 and 4, not 8 and 1: each gets the bits it
        # gets in a packed batch of two. Scored alone, the longest would take
        # a 1-row recurrent product, which rounds differently at H = 64
        cfg = ModelConfig(receptive_fields=(1, 2), n_mels=8, gated_dim=16, attn_hidden=8,
                          lstm_hidden=64, fc_hidden=16)
        params = init_params(cfg, seed=5)
        for t in params.tensors():
            t.data *= 4.0  # probabilities that spread over (0, 1)
        rng = np.random.default_rng(23)
        lengths = (40, 75, 12, 130, 66, 3, 90, 64, 150)
        assert len(lengths) == SCORE_BATCH + 1
        feats = [FeatureSequence(rng.normal(size=(t_len, 8)), np.arange(t_len) * 0.01) for t_len in lengths]
        utts = [LabeledUtterance(f, np.zeros(len(f), np.int8), f"utt-{i}") for i, f in enumerate(feats)]
        scored = score_utterances(utts, params)
        with ad.no_grad():
            for i, (_, probs, _) in enumerate(scored):
                pair = mlnet_forward([feats[i], feats[i - 1]], params)
                np.testing.assert_array_equal(probs, pair.probs.data[: lengths[i]], err_msg=f"utt-{i}")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("h_dim", [5, 16, 64])
def test_recurrent_product_rows_do_not_depend_on_the_row_count(h_dim, dtype):
    # the Bi-LSTM's no-graph recurrent product (2, B, H) @ (2, H, 4H), the one
    # GEMM of packed scoring over more than one utterance's rows: each row
    # gets the same bits at any B from 2 to SCORE_BATCH. This is a property
    # of the BLAS, which score_utterances relies on, so a BLAS that breaks it
    # fails here first
    rng = np.random.default_rng(h_dim)
    h = rng.normal(size=(2, SCORE_BATCH, h_dim)).astype(dtype)
    w = rng.normal(size=(2, h_dim, 4 * h_dim)).astype(dtype)
    full = h @ w
    for rows in range(2, SCORE_BATCH):
        for first in range(SCORE_BATCH - rows + 1):
            part = np.ascontiguousarray(h[:, first : first + rows]) @ w
            np.testing.assert_array_equal(part, full[:, first : first + rows], err_msg=f"{rows} rows")


def test_a_one_row_recurrent_product_rounds_differently():
    # why a lone utterance can still differ from the same utterance among others
    rng = np.random.default_rng(64)
    h = rng.normal(size=(2, SCORE_BATCH, 64)).astype(np.float32)
    w = rng.normal(size=(2, 64, 256)).astype(np.float32)
    full = h @ w
    singles = [np.ascontiguousarray(h[:, i : i + 1]) @ w for i in range(SCORE_BATCH)]
    assert any(not np.array_equal(one, full[:, i : i + 1]) for i, one in enumerate(singles))
