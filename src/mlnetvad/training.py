"""Joint-loss training: frame cross-entropy plus an attention loss that
sharpens the dominant branch, optimized with Adam under per-element
gradient clipping to [-1, 1].

Batches are whole utterances; each utterance builds its own graph and
gradients accumulate across the batch before a single optimizer step.
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
from .errors import ConfigError, ShapeMismatch, TrainingError
from .metrics import evaluate
from .model import MlnetParams, ModelConfig, init_params, mlnet_forward

PROB_CLAMP = 1e-7
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
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.attention_loss_weight < 0:
            raise ConfigError("attention_loss_weight must be >= 0")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be >= 1")


def cross_entropy_loss(probs: Tensor, labels: np.ndarray) -> Tensor:
    """Summed negative log-likelihood of per-frame Bernoulli labels.

    Probabilities are clamped to [1e-7, 1 - 1e-7] before the logs.
    """
    labels = np.asarray(labels)
    if probs.shape != labels.shape:
        raise ShapeMismatch(
            f"probs shape {probs.shape} does not match labels shape {labels.shape}"
        )
    y = Tensor(labels.astype(probs.dtype.type))
    p = probs.clip(PROB_CLAMP, 1.0 - PROB_CLAMP)
    term = y * p.log() + (1.0 - y) * (1.0 - p).log()
    return -term.sum()


def attention_loss(branch_weights: Tensor, k: np.ndarray | None = None) -> Tensor:
    """Negative log weight of the dominant branch, summed over frames.

    ``k`` is the per-frame winning branch; by default the argmax of the
    current weights (first index on ties). The selection is treated as
    a constant, so no gradient flows through the argmax itself.
    """
    p = branch_weights
    if p.ndim != 2:
        raise ShapeMismatch(f"branch weights must be (T, n_branches), got {p.shape}")
    if k is None:
        k = np.argmax(p.data, axis=1)
    return -ad.take_rows(p, k).log().sum()


def utterance_loss(
    utt: LabeledUtterance, params: MlnetParams, cfg: TrainConfig
) -> tuple[Tensor, float, float]:
    """Total loss for one utterance; returns (loss, ce value, att value)."""
    out = mlnet_forward(utt.features, params)
    ce = cross_entropy_loss(out.probs, utt.labels)
    att_value = 0.0
    loss = ce
    if out.branch_weights is not None and cfg.attention_loss_weight > 0.0:
        att = attention_loss(out.branch_weights)
        att_value = att.item()
        loss = ce + cfg.attention_loss_weight * att
    return loss, ce.item(), att_value


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
            for idx in batch:
                loss, _, _ = utterance_loss(corpus[idx], params, cfg)
                loss.backward()
                epoch_loss += loss.item()
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
