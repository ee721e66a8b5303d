"""Correctness checks on the program's outputs, against the reference.

Every check returns a list of error strings; an empty list is a pass.
None of them compares with a stored copy of earlier output.
"""

from __future__ import annotations

import json

import numpy as np

import reference as ref
from mlnetvad import training

# The program runs in float32 and the reference in float64. On the
# benchmark's inputs the two agree within 1e-6 per probability and branch
# weight as predict prints them; 1e-4 leaves room while still catching a
# shifted probability.
PROB_TOL = 1e-4
# predict prints probabilities and weights with 6 decimals
PRINT_TOL = 1e-6
# train() takes one Adam step in float32; its moved parameters agree with
# lr * g / (|g| + eps) to float32 rounding of the parameters (about 5e-9)
STEP_TOL = 1e-7
# the Adam epsilon train() steps with
ADAM_EPS = training.TrainConfig().eps
# central-difference step and the relative tolerance of the gradient check
FD_STEP = 1e-6
FD_RTOL = 1e-5


def check_predict_tsv(text: str, probs: np.ndarray, weights: np.ndarray, theta: float) -> list[str]:
    """A `predict --dump-attention` TSV against the reference output."""
    lines = text.splitlines()
    n_branches = weights.shape[1]
    header = "\t".join(["time_s", "prob", "label"] + [f"p{i}" for i in range(n_branches)])
    if lines[:2] != ["#predictions\tv1", header]:
        return [f"unexpected header lines {lines[:2]!r}"]
    try:
        rows = np.array([line.split("\t") for line in lines[2:]], dtype=np.float64)
    except ValueError as e:  # a ragged or non-numeric row
        return [f"malformed prediction rows: {e}"]
    if rows.shape != (probs.size, 3 + n_branches):
        return [f"rows of shape {rows.shape}, expected {probs.size} frames of {3 + n_branches} fields"]
    errors = []
    times, got_probs, labels, got_weights = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3:]
    if np.abs(times - 0.01 * np.arange(probs.size)).max() > 5e-4 + 1e-9:
        errors.append("frame times are not 10 ms apart from 0")
    if (diff := np.abs(got_probs - probs).max()) > PROB_TOL:
        errors.append(f"probabilities differ from the reference by up to {diff:.3g}")
    if (diff := np.abs(got_weights - weights).max()) > PROB_TOL:
        errors.append(f"attention weights differ from the reference by up to {diff:.3g}")
    if (got_weights <= 0).any():
        errors.append("an attention weight is not positive")
    if (diff := np.abs(got_weights.sum(axis=1) - 1.0).max()) > n_branches * PRINT_TOL:
        errors.append(f"attention rows sum to 1 only within {diff:.3g}")
    if not np.isin(labels, (0, 1)).all():
        errors.append("labels are not 0/1")
    wrong = (labels != (got_probs >= theta)) & (np.abs(got_probs - theta) > PRINT_TOL)
    if wrong.any():
        errors.append(f"{int(wrong.sum())} labels disagree with prob >= {theta}")
    return errors


def check_eval_report(
    json_text: str, tsv_text: str, refs: dict[str, tuple[np.ndarray, np.ndarray]], theta: float
) -> list[str]:
    """An `eval --report-out` pair against reference (probs, labels) per id.

    A frame's prediction is fixed unless its reference probability lies
    within PROB_TOL of theta; the reported counts may split those frames
    either way, but nothing else.
    """
    try:
        return _check_eval_report(json.loads(json_text), tsv_text, refs, theta)
    except (ValueError, KeyError, TypeError) as e:  # not JSON, or not the report's layout
        return [f"malformed JSON report: {e!r}"]


def _check_eval_report(doc: dict, tsv_text: str, refs: dict, theta: float) -> list[str]:
    recs = doc["recordings"]
    if sorted(r["id"] for r in recs) != sorted(refs):
        return [f"report covers {len(recs)} recordings, expected {len(refs)}"]
    errors = []
    pooled = dict(tp=0, fp=0, fn=0, tn=0)
    for r in recs:
        probs, labels = refs[r["id"]]
        counts = {k: r[k] for k in pooled}
        sure = np.abs(probs - theta) > PROB_TOL
        fixed = ref.confusion(probs[sure] >= theta, labels[sure])
        open_pos = int(np.sum(~sure & (labels > 0)))
        open_neg = int(np.sum(~sure & (labels == 0)))
        if counts["tp"] + counts["fn"] != int(np.sum(labels > 0)) or counts["fp"] + counts["tn"] != int(
            np.sum(labels == 0)
        ):
            errors.append(f"{r['id']}: speech/non-speech frame totals differ from the reference labels")
        elif not (0 <= counts["tp"] - fixed["tp"] <= open_pos and 0 <= counts["fp"] - fixed["fp"] <= open_neg):
            errors.append(f"{r['id']}: counts {counts} differ from the reference {fixed} beyond frames near theta")
        if abs(r["f1"] - ref.f1(counts)) > 1e-12 or abs(r["dcf"] - ref.dcf(counts)) > 1e-12:
            errors.append(f"{r['id']}: f1/dcf do not follow from the reported counts")
        if r["degenerate"] != (counts["tp"] + counts["fn"] == 0 or counts["fp"] + counts["tn"] == 0):
            errors.append(f"{r['id']}: wrong degenerate flag")
        for k in pooled:
            pooled[k] += counts[k]
    summary = {
        "macro": (float(np.mean([r["f1"] for r in recs])), float(np.mean([r["dcf"] for r in recs]))),
        "micro": (ref.f1(pooled), ref.dcf(pooled)),
    }
    for key, (want_f1, want_dcf) in summary.items():
        if abs(doc[key]["f1"] - want_f1) > 1e-12 or abs(doc[key]["dcf"] - want_dcf) > 1e-12:
            errors.append(f"{key} averages do not follow from the per-recording rows")
    if doc["theta"] != theta:
        errors.append(f"report theta {doc['theta']} != {theta}")
    want_tsv = ["#eval-report\tv1", "id\tf1\tdcf\tdegenerate"]
    for r in recs:
        want_tsv.append(
            f"{r['id']}\t{100 * r['f1']:.4f}\t{100 * r['dcf']:.4f}\t{'yes' if r['degenerate'] else 'no'}"
        )
    for key in ("macro", "micro"):
        want_tsv.append(f"{key}\t{100 * doc[key]['f1']:.4f}\t{100 * doc[key]['dcf']:.4f}\t-")
    if tsv_text.splitlines() != want_tsv:
        errors.append("TSV report disagrees with the JSON report")
    return errors


def clipped_adam_first_step(before: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
    """Parameters after Adam's first step from zero moments: the bias
    corrections make m_hat = g and v_hat = g*g, so the step is
    lr * g / (|g| + eps) with g clipped to [-1, 1]."""
    g = np.clip(grad, -1.0, 1.0)
    return before - lr * g / (np.abs(g) + ADAM_EPS)


def check_first_step(
    before: dict[str, np.ndarray], after: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float
) -> list[str]:
    errors = []
    if set(after) != set(before):
        return ["the checkpoint after the first step holds other parameters"]
    for name, p0 in before.items():
        dev = np.abs(after[name] - clipped_adam_first_step(p0, grads[name], lr)).max()
        if dev > STEP_TOL:
            errors.append(f"{name}: first step is off the clipped-Adam update by {dev:.3g}")
    return errors


def check_loss_decrease(losses: list[float]) -> list[str]:
    """The last epoch's loss is below the first's."""
    first, last = losses[0], losses[-1]
    return [] if last < first else [f"loss did not decrease: {first:.6g} -> {last:.6g}"]


def check_directional_derivative(numeric: float, analytic: float) -> list[str]:
    scale = max(1.0, abs(numeric), abs(analytic))
    if abs(numeric - analytic) <= FD_RTOL * scale:
        return []
    return [f"gradient along a random direction is {analytic:.9g}, finite difference {numeric:.9g}"]
