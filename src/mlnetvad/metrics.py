"""Frame-level F1 and detection-cost scoring, per recording and averaged.

The headline numbers are macro averages: each recording is scored on
its own and the per-recording values are averaged with equal weight.
Pooled (micro) counts are also available for comparison since the two
disagree on imbalanced recordings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ShapeMismatch
from .model import MlnetParams, mlnet_forward

DCF_MISS_WEIGHT = 0.75
DCF_FALSE_ALARM_WEIGHT = 0.25
SCORE_BATCH = 8  # most utterances per packed forward in score_utterances


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp, self.fp + other.fp, self.fn + other.fn, self.tn + other.tn
        )

    @property
    def degenerate(self) -> bool:
        """True when a miss or false-alarm rate is undefined (a class is absent)."""
        return (self.tp + self.fn) == 0 or (self.fp + self.tn) == 0


def confusion(probs: np.ndarray, labels: np.ndarray, theta: float = 0.5) -> ConfusionCounts:
    """Threshold probabilities at theta (ties predict speech) and count."""
    probs = np.asarray(probs)
    labels = np.asarray(labels)
    if probs.shape != labels.shape:
        raise ShapeMismatch(
            f"probs shape {probs.shape} does not match labels shape {labels.shape}"
        )
    pred = probs >= theta
    truth = labels > 0
    tp = int(np.count_nonzero(pred & truth))
    fp = int(np.count_nonzero(pred & ~truth))
    fn = int(np.count_nonzero(~pred & truth))
    tn = int(np.count_nonzero(~pred & ~truth))
    return ConfusionCounts(tp, fp, fn, tn)


def f1(c: ConfusionCounts) -> float:
    denom = 2 * c.tp + c.fp + c.fn
    if denom == 0:
        return 1.0 if c.fp == 0 and c.fn == 0 else 0.0
    return 2.0 * c.tp / denom


def dcf(c: ConfusionCounts) -> float:
    """0.75 * miss rate + 0.25 * false-alarm rate; an undefined rate
    (class absent from the recording) contributes 0."""
    p_fn = c.fn / (c.tp + c.fn) if (c.tp + c.fn) > 0 else 0.0
    p_fp = c.fp / (c.fp + c.tn) if (c.fp + c.tn) > 0 else 0.0
    return DCF_MISS_WEIGHT * p_fn + DCF_FALSE_ALARM_WEIGHT * p_fp


@dataclass
class RecordingScore:
    recording_id: str
    f1: float
    dcf: float
    counts: ConfusionCounts


@dataclass
class EvalReport:
    theta: float
    recordings: list[RecordingScore]
    macro_f1: float
    macro_dcf: float
    micro_f1: float
    micro_dcf: float

    def to_json(self) -> str:
        doc = {
            "theta": self.theta,
            "macro": {"f1": self.macro_f1, "dcf": self.macro_dcf},
            "micro": {"f1": self.micro_f1, "dcf": self.micro_dcf},
            "recordings": [
                {
                    "id": r.recording_id,
                    "f1": r.f1,
                    "dcf": r.dcf,
                    "tp": r.counts.tp,
                    "fp": r.counts.fp,
                    "fn": r.counts.fn,
                    "tn": r.counts.tn,
                    "degenerate": r.counts.degenerate,
                }
                for r in self.recordings
            ],
        }
        return json.dumps(doc, indent=2)

    def to_tsv(self) -> str:
        """Tab-separated report; metric columns as percentages."""
        lines = ["#eval-report\tv1", "id\tf1\tdcf\tdegenerate"]
        for r in self.recordings:
            lines.append(
                f"{r.recording_id}\t{r.f1 * 100:.4f}\t{r.dcf * 100:.4f}\t"
                f"{'yes' if r.counts.degenerate else 'no'}"
            )
        lines.append(f"macro\t{self.macro_f1 * 100:.4f}\t{self.macro_dcf * 100:.4f}\t-")
        lines.append(f"micro\t{self.micro_f1 * 100:.4f}\t{self.micro_dcf * 100:.4f}\t-")
        return "\n".join(lines) + "\n"


def evaluate_scored(
    scored: list[tuple[str, np.ndarray, np.ndarray]], theta: float = 0.5
) -> EvalReport:
    """Score (id, probs, labels) triples and macro/micro average them."""
    if not scored:
        raise ValueError("nothing to evaluate")
    recordings = []
    pooled = ConfusionCounts(0, 0, 0, 0)
    for rec_id, probs, labels in scored:
        c = confusion(probs, labels, theta)
        recordings.append(RecordingScore(rec_id, f1(c), dcf(c), c))
        pooled = pooled + c
    macro_f1 = float(np.mean([r.f1 for r in recordings]))
    macro_dcf = float(np.mean([r.dcf for r in recordings]))
    return EvalReport(theta, recordings, macro_f1, macro_dcf, f1(pooled), dcf(pooled))


def score_utterances(utts, params: MlnetParams) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """Run inference (no graph) over labeled utterances; returns (id,
    probs, labels) in input order.

    The utterances are sorted by length and split into ⌈n /
    ``SCORE_BATCH``⌉ groups of near-equal size, each one packed
    ``mlnet_forward`` call, so one Bi-LSTM scan serves a group and similar
    lengths keep padded steps few. Only the recurrent product runs over
    several utterances' rows, and its rows round alike for 2 to
    ``SCORE_BATCH`` rows, as does a lone utterance's (pinned in
    ``tests/test_metrics.py``): each utterance gets the same bits in any
    group, whatever else the corpus holds, and those that ``predict``
    gives it alone.
    """
    utts = list(utts)
    order = sorted(range(len(utts)), key=lambda i: len(utts[i].features))
    probs: list[np.ndarray | None] = [None] * len(utts)
    n_groups = -(-len(order) // SCORE_BATCH)
    with ad.no_grad():
        for group in np.array_split(order, n_groups) if n_groups else ():
            out = mlnet_forward([utts[i].features for i in group], params)
            bounds = np.cumsum(out.lengths)[:-1]
            for i, p in zip(group, np.split(out.probs.data, bounds)):
                probs[i] = p
    return [(u.source_id, p, np.asarray(u.labels)) for u, p in zip(utts, probs)]


def evaluate(utts, params: MlnetParams, theta: float = 0.5) -> EvalReport:
    """Per-recording metrics for a labeled corpus under one model."""
    return evaluate_scored(score_utterances(utts, params), theta)
