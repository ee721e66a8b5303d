"""Joint-loss training: frame cross-entropy plus an attention loss that
sharpens the dominant branch, optimized with Adam under per-element
gradient clipping to [-1, 1].

Batches are whole utterances. Two utterances at a time share one graph
whose classifier runs them as lanes (``lane_losses``); a batch's odd
utterance is a group of one. Gradients accumulate across the batch, bit
for bit as one utterance at a time would, before a single optimizer step.
Everything is deterministic for a fixed TrainConfig seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import save_checkpoint
from .corpus import LabeledUtterance, split_train_dev
from .errors import ConfigError, ShapeMismatch, TrainingError, require_finite
from .metrics import evaluate
from .model import MlnetParams, ModelConfig, init_params, mlnet_forward

PROB_CLAMP = 1e-7
# Utterances per graph in train(), run as lanes of one Bi-LSTM scan.
# Each lane holds a whole utterance graph, about 12 KB per frame or 8 MB
# at 700 frames, and more through backward; four lanes would cut the
# scan's time per frame further, but a step's memory grows by a graph
# per lane.
LANES = 2
# Adam's elementwise gradient clamp and moment decay rates
CLIP_LO, CLIP_HI = -1.0, 1.0
BETA1, BETA2 = 0.9, 0.999


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.001
    batch_size: int = 32
    epochs: int = 150
    eps: float = 1e-8
    attention_loss_weight: float = 1.0
    dev_fraction: float = 0.05
    seed: int = 0

    def __post_init__(self):
        require_finite(self, "lr", "eps", "attention_loss_weight")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.eps <= 0:
            raise ConfigError("eps must be positive")
        if self.attention_loss_weight < 0:
            raise ConfigError("attention_loss_weight must be >= 0")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be >= 1")


def cross_entropy_loss(probs: Tensor, labels: np.ndarray) -> Tensor:
    """Summed negative log-likelihood of per-frame Bernoulli labels.

    Probabilities are clamped to [1e-7, 1 - 1e-7] before the logs.
    """
    return ad.cross_entropy(probs, labels, PROB_CLAMP)


def attention_loss(branch_weights: Tensor, k: np.ndarray | None = None) -> Tensor:
    """Negative log weight of the dominant branch, summed over frames.

    ``k`` is the per-frame winning branch; by default the argmax of the
    current weights (first index on ties). The selection is treated as
    a constant, so no gradient flows through the argmax itself. A ``k``
    that is not one integer in [0, n_branches) per frame raises
    ``ShapeMismatch``.
    """
    p = branch_weights
    if p.ndim != 2:
        raise ShapeMismatch(f"branch weights must be (T, n_branches), got {p.shape}")
    if k is None:
        k = np.argmax(p.data, axis=1)
    return ad.selected_nll(p, k)


def _joint_loss(
    probs: Tensor, branch_weights: Tensor | None, labels: np.ndarray, cfg: TrainConfig
) -> tuple[Tensor, float, float]:
    ce = cross_entropy_loss(probs, labels)
    att_value = 0.0
    loss = ce
    if branch_weights is not None and cfg.attention_loss_weight > 0.0:
        att = attention_loss(branch_weights)
        att_value = att.item()
        loss = ce + cfg.attention_loss_weight * att
    return loss, ce.item(), att_value


def utterance_loss(
    utt: LabeledUtterance, params: MlnetParams, cfg: TrainConfig
) -> tuple[Tensor, float, float]:
    """Total loss for one utterance; returns (loss, ce value, att value)."""
    out = mlnet_forward(utt.features, params)
    return _joint_loss(out.probs, out.branch_weights, utt.labels, cfg)


def lane_losses(
    utts: list[LabeledUtterance], params: MlnetParams, cfg: TrainConfig
) -> tuple[Tensor, list[float]]:
    """The losses of one or more utterances in one graph, whose
    classifier runs them as lanes: returns their sum and each one's
    value.

    A backward from the sum gives every parameter, bit for bit, the
    gradient of one ``utterance_loss`` backward per utterance in turn.
    The classifier's nodes add the lanes' contributions in lane order.
    Each front-end node reads the parameters for one utterance, and
    ``backward`` runs them in utterance order: its depth-first walk
    enters the front ends through ``concat_rows``, visiting its last
    parent first, and runs nodes in the reverse of the order it finishes
    them. A tensor that two nodes of one utterance feed takes their
    contributions in the order of a single graph, or, where the walk
    cannot fix it, into a gradient that starts at -0.0, the additive
    identity, so that either order gives the same bits."""
    out = mlnet_forward([u.features for u in utts], params)
    weights = [None] * len(utts)
    if out.branch_weights is not None and cfg.attention_loss_weight > 0.0:
        weights = ad.split_rows(out.branch_weights, out.lengths)
    probs = ad.split_rows(out.probs, out.lengths)
    losses = [_joint_loss(p, w, u.labels, cfg)[0] for p, w, u in zip(probs, weights, utts)]
    total = losses[0]
    for loss in losses[1:]:
        total = total + loss
    return total, [loss.item() for loss in losses]


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: MlnetParams) -> "AdamState":
        named = params.named()
        return cls(
            m={k: np.zeros_like(t.data) for k, t in named.items()},
            v={k: np.zeros_like(t.data) for k, t in named.items()},
        )


def adam_step(params: MlnetParams, state: AdamState, cfg: TrainConfig) -> None:
    """One Adam update; gradients are clamped elementwise to
    [CLIP_LO, CLIP_HI] before the moment updates. Missing gradients are
    treated as zero (moments still decay)."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for name, tensor in params.named().items():
        grad = tensor.grad
        if grad is None:
            grad = np.zeros_like(tensor.data)
        elif not np.isfinite(grad).all():
            raise TrainingError(f"non-finite gradient in {name} at step {t}")
        grad = np.clip(grad, CLIP_LO, CLIP_HI)
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * grad
        v *= BETA2
        v += (1.0 - BETA2) * grad * grad
        m_hat = m / bc1
        v_hat = v / bc2
        tensor.data -= (cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)).astype(
            tensor.data.dtype, copy=False
        )


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    dev_f1: float
    dev_dcf: float

    def line(self) -> str:
        return f"{self.epoch}\t{self.train_loss:.6f}\t{self.dev_f1:.6f}\t{self.dev_dcf:.6f}"


@dataclass
class TrainResult:
    params: MlnetParams
    best_params: MlnetParams
    best_epoch: int
    history: list[EpochRecord]


def train(
    corpus: list[LabeledUtterance],
    cfg: TrainConfig,
    model_cfg: ModelConfig,
    dev: list[LabeledUtterance] | None = None,
    out_dir: str | Path | None = None,
    log_fn=None,
    theta: float = 0.5,
) -> TrainResult:
    """Train on a labeled corpus.

    When ``dev`` is not given, 5% of ``corpus`` is held out
    deterministically. Per epoch: seeded shuffle, utterance batches with
    summed loss and accumulated gradients, one Adam step per batch, dev
    F1/DCF at ``theta``, and (with ``out_dir``) an ``epoch_{n}.mlnt``
    checkpoint. The best-dev-F1 parameters are kept and written as
    ``best.mlnt``; training always runs the full epoch budget.
    """
    if not corpus:
        raise TrainingError("training corpus is empty")
    seeds = np.random.SeedSequence(cfg.seed).spawn(3)
    if dev is None:
        split_seed = int(seeds[2].generate_state(1)[0])
        corpus, dev = split_train_dev(corpus, cfg.dev_fraction, seed=split_seed)
    if not corpus or not dev:
        raise TrainingError("need non-empty train and dev sets")
    all_labels = np.concatenate([u.labels for u in corpus])
    if all_labels.all() or not all_labels.any():
        raise TrainingError("training corpus must contain both classes")

    params = init_params(model_cfg, np.random.default_rng(seeds[0]))
    state = AdamState.for_params(params)
    shuffle_rng = np.random.default_rng(seeds[1])
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    history: list[EpochRecord] = []
    best_params = params.copy()
    best_epoch = 0
    best_f1 = -1.0
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(len(corpus))
        epoch_loss = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            for lane in range(0, len(batch), LANES):
                loss, values = lane_losses([corpus[i] for i in batch[lane : lane + LANES]], params, cfg)
                loss.backward()
                for value in values:
                    epoch_loss += value
            adam_step(params, state, cfg)
            params.zero_grads()
        report = evaluate(dev, params, theta)
        record = EpochRecord(
            epoch, epoch_loss / len(corpus), report.macro_f1, report.macro_dcf
        )
        history.append(record)
        if log_fn is not None:
            log_fn(record.line())
        if out_path is not None:
            save_checkpoint(out_path / f"epoch_{epoch}.mlnt", params)
        if record.dev_f1 > best_f1:
            best_f1 = record.dev_f1
            best_epoch = epoch
            best_params = params.copy()
    if out_path is not None:
        save_checkpoint(out_path / "best.mlnt", best_params)
        log_path = out_path / "train.log"
        log_path.write_text(
            "\n".join(r.line() for r in history) + "\n", encoding="utf-8"
        )
    return TrainResult(params, best_params, best_epoch, history)
