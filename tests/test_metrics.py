"""Metric tests against brute-force loop oracles."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mlnetvad.errors import ShapeMismatch
from mlnetvad.metrics import (
    ConfusionCounts,
    confusion,
    dcf,
    evaluate_scored,
    f1,
)


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
