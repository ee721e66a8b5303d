"""The VAD network: multi-receptive-field gated branches, channel
attention over branches, stacked Bi-LSTM, sigmoid head.

Every branch sees a window of 2*r+1 frames around the current frame
(replicate-padded at utterance edges) and compresses it to a fixed
``gated_dim`` vector through a gated affine unit, so the attention
block can weigh branches of different receptive fields against each
other. Four variants are supported for component ablations:

  bilstm_base     flatten the widest window, plain tanh projection
  gated_unit      a single gated branch at the widest receptive field,
                  fused as the mean of that one branch
  non_attention   all branches, uniform 1/n fusion
  full_attention  all branches, learned channel-attention fusion

The attention variant also returns its per-frame branch weights,
``ModelOutput.branch_weights``: the attention loss reads them in the
graph, and ``predict --dump-attention`` writes their values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, GraphError, ShapeMismatch
from .frontend import FeatureSequence

VARIANTS = ("bilstm_base", "gated_unit", "non_attention", "full_attention")


@dataclass(frozen=True)
class ModelConfig:
    receptive_fields: tuple[int, ...] = (1, 3, 5, 7, 9)
    n_mels: int = 40
    gated_dim: int = 64
    attn_hidden: int = 64
    lstm_hidden: int = 64
    lstm_layers: int = 2
    fc_hidden: int = 64
    variant: str = "full_attention"
    double_sigmoid: bool = True

    def __post_init__(self):
        object.__setattr__(self, "receptive_fields", tuple(int(r) for r in self.receptive_fields))
        rf = self.receptive_fields
        if not rf or any(r < 0 for r in rf) or any(a >= b for a, b in zip(rf, rf[1:])):
            raise ConfigError(
                f"receptive_fields must be strictly increasing and >= 0, got {rf}"
            )
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        for name in ("n_mels", "gated_dim", "attn_hidden", "lstm_hidden", "lstm_layers", "fc_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")

    @property
    def n_branches(self) -> int:
        return len(self.receptive_fields)

    @property
    def context_radius(self) -> int:
        return max(self.receptive_fields)

    @property
    def context_window(self) -> int:
        return 2 * self.context_radius + 1


@dataclass
class BranchParams:
    receptive_field: int
    w_f: Tensor
    b_f: Tensor
    w_g: Tensor
    b_g: Tensor


@dataclass
class ProjectionParams:
    w: Tensor
    b: Tensor


@dataclass
class AttentionParams:
    w0: Tensor
    b0: Tensor
    w1: Tensor
    b1: Tensor


@dataclass
class LstmDirectionParams:
    # w_x: (input_dim, 4H), w_h: (H, 4H), b: (4H,); gate packing [i, f, g, o]
    w_x: Tensor
    w_h: Tensor
    b: Tensor


@dataclass
class HeadParams:
    w_hidden: Tensor
    b_hidden: Tensor
    w_out: Tensor
    b_out: Tensor


class MlnetParams:
    """All trainable tensors for one configuration, with stable naming."""

    def __init__(
        self,
        config: ModelConfig,
        named: dict[str, Tensor],
        branches: list[BranchParams],
        projection: ProjectionParams | None,
        attention: AttentionParams | None,
        lstm: list[tuple[LstmDirectionParams, LstmDirectionParams]],
        head: HeadParams,
    ):
        self.config = config
        self._named = named
        self.branches = branches
        self.projection = projection
        self.attention = attention
        self.lstm = lstm
        self.head = head

    def named(self) -> dict[str, Tensor]:
        """Name -> tensor mapping in ``build_params`` order (not a copy)."""
        return self._named

    def tensors(self) -> list[Tensor]:
        return list(self.named().values())

    @property
    def dtype(self) -> np.dtype:
        return self.head.w_out.dtype

    def zero_grads(self) -> None:
        ad.zero_grads(self.tensors())

    def copy(self) -> "MlnetParams":
        """Deep copy of parameter values (gradients are not copied)."""
        data = {k: v.data.copy() for k, v in self.named().items()}
        return build_params(
            self.config, lambda name, shape, kind: Tensor(data[name], requires_grad=True)
        )


def _branch_radii(cfg: ModelConfig) -> tuple[int, ...]:
    """The receptive-field radius of each gated branch the variant owns."""
    if cfg.variant == "bilstm_base":
        return ()
    if cfg.variant == "gated_unit":
        return (cfg.context_radius,)
    return cfg.receptive_fields


def build_params(cfg: ModelConfig, factory) -> MlnetParams:
    """Assemble an MlnetParams whose tensors come from ``factory(name,
    shape, kind)``; shared by the initializer and the checkpoint loader.

    Each group names its fields and shapes once, in checkpoint order;
    ``kind`` is ``"bias"`` for a 1-D shape and ``"weight"`` otherwise.
    """
    named: dict[str, Tensor] = {}

    def group(prefix: str, **shapes: tuple[int, ...]) -> dict[str, Tensor]:
        made = {}
        for field, shape in shapes.items():
            name = f"{prefix}.{field}"
            kind = "bias" if len(shape) == 1 else "weight"
            made[field] = named[name] = factory(name, shape, kind)
        return made

    d, f, h = cfg.gated_dim, cfg.n_mels, cfg.lstm_hidden
    branches = []
    for r in _branch_radii(cfg):
        k = (2 * r + 1) * f
        gated = group(f"branch_r{r}", w_f=(d, k), b_f=(d,), w_g=(d, k), b_g=(d,))
        branches.append(BranchParams(r, **gated))
    projection = attention = None
    if cfg.variant == "bilstm_base":
        projection = ProjectionParams(**group("projection", w=(d, cfg.context_window * f), b=(d,)))
    if cfg.variant == "full_attention":
        n, a = cfg.n_branches, cfg.attn_hidden
        attention = AttentionParams(**group("attention", w0=(a, n), b0=(a,), w1=(n, a), b1=(n,)))
    lstm = []
    in_dim = d
    for layer in range(cfg.lstm_layers):
        shapes = dict(w_x=(in_dim, 4 * h), w_h=(h, 4 * h), b=(4 * h,))
        lstm.append(tuple(
            LstmDirectionParams(**group(f"lstm{layer}.{tag}", **shapes)) for tag in ("fwd", "bwd")
        ))
        in_dim = 2 * h
    fc = cfg.fc_hidden
    head = HeadParams(
        **group("head", w_hidden=(fc, 2 * h), b_hidden=(fc,), w_out=(1, fc), b_out=(1,))
    )
    return MlnetParams(cfg, named, branches, projection, attention, lstm, head)


def init_params(
    cfg: ModelConfig,
    seed: int | np.random.Generator = 0,
    dtype=np.float32,
) -> MlnetParams:
    """Fresh parameters: weights ~ U(-0.05, 0.05), all biases 0.1."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    def factory(name: str, shape: tuple[int, ...], kind: str) -> Tensor:
        if kind == "bias":
            data = np.full(shape, 0.1, dtype=dtype)
        else:
            data = rng.uniform(-0.05, 0.05, size=shape).astype(dtype)
        return Tensor(data, requires_grad=True)

    return build_params(cfg, factory)


# -- forward passes -------------------------------------------------------


def replicate_pad(x: np.ndarray, radius: int) -> np.ndarray:
    return np.pad(x, ((radius, radius), (0, 0)), mode="edge")


def window_matrix(padded: np.ndarray, t_len: int, radius: int) -> np.ndarray:
    """(T, (2*radius+1)*F) windows of a radius-padded sequence, time-major:
    frame -radius first, +radius last."""
    cols = [padded[k : k + t_len] for k in range(2 * radius + 1)]
    return np.concatenate(cols, axis=1)


def normalize_branch_weights(a: Tensor, double_sigmoid: bool) -> Tensor:
    """Turn raw branch scores (last axis) into positive weights summing to one.

    ``double_sigmoid`` (the default) applies a second sigmoid before the
    ratio; without it the scores are normalized directly, which leaves
    the weight vector invariant to positive rescaling of the scores.
    """
    num = ad.sigmoid(a) if double_sigmoid else a
    return num / num.sum(axis=-1, keepdims=True)


def fuse_branches(p: Tensor, q: Tensor) -> Tensor:
    """Convex combination of branch vectors: sum_i p[..., i] * q[..., i, :]."""
    return (p.reshape(p.shape + (1,)) * q).sum(axis=p.ndim - 1)


def attention_forward(
    q: Tensor, attn: AttentionParams, double_sigmoid: bool = True
) -> tuple[Tensor, Tensor]:
    """Channel attention over branches; returns ``(fused, weights)``.

    ``q`` is the (T, n_branches, gated_dim) branch stack of a sequence.
    Average- and max-pooled branch descriptors go through a shared
    two-layer net (leaky_relu hidden); the two outputs are summed before
    the sigmoid. The normalized (T, n_branches) weights combine the
    branch vectors into a convex fusion of shape (T, gated_dim).
    """
    if q.ndim != 3:
        raise ShapeMismatch(f"attention input must be (T, n_branches, gated_dim), got {q.shape}")
    d_avg = q.mean(axis=2)
    d_max = q.max(axis=2)

    def shared_net(d: Tensor) -> Tensor:
        return ad.affine(ad.leaky_relu(ad.affine(d, attn.w0, attn.b0)), attn.w1, attn.b1)

    a = ad.sigmoid(shared_net(d_avg) + shared_net(d_max))
    p = normalize_branch_weights(a, double_sigmoid)
    return fuse_branches(p, q), p


def non_attention_forward(q: Tensor) -> Tensor:
    """Uniform 1/n fusion of a (T, n_branches, gated_dim) branch stack
    (ablation of the attention)."""
    if q.ndim != 3:
        raise ShapeMismatch(f"branch stack must be (T, n_branches, gated_dim), got {q.shape}")
    return q.mean(axis=1)


def classifier_forward(m: Tensor, params: MlnetParams, lengths=None) -> Tensor:
    """Stacked Bi-LSTM over the fused sequences, then leaky_relu FC and a
    sigmoid unit; returns per-frame speech probabilities.

    ``m`` is a packed batch: the (ΣT, gated_dim) fused rows of B
    utterances, one after another, with ``lengths`` their frame counts
    (None for one utterance). The probabilities (ΣT,) are packed the same
    way. Every layer runs the whole batch as one ``bilstm_layer`` node.
    """
    seq = m
    for fwd, bwd in params.lstm:
        seq = ad.bilstm_layer(
            seq @ fwd.w_x + fwd.b, seq @ bwd.w_x + bwd.b, fwd.w_h, bwd.w_h, lengths
        )
    hidden = ad.leaky_relu(ad.affine(seq, params.head.w_hidden, params.head.b_hidden))
    logits = ad.affine(hidden, params.head.w_out, params.head.b_out)
    return ad.sigmoid(logits.reshape(logits.shape[0]))


@dataclass
class ModelOutput:
    """``probs`` (and ``branch_weights``, for the attention variant) hold
    the frames of every utterance packed one after another; ``lengths``
    gives each utterance's frame count. ``branch_weights`` is the one
    record of the attention: the loss reads it as a Tensor and
    ``predict --dump-attention`` reads its ``data``."""

    probs: Tensor
    lengths: np.ndarray
    branch_weights: Tensor | None = None


def _fused_sequence(features, params: MlnetParams) -> tuple[Tensor, Tensor | None]:
    """One utterance through the windows, the branches and the fusion:
    the (T, gated_dim) fused rows and, for the attention variant, the
    (T, n_branches) branch weights."""
    cfg = params.config
    x = features.frames if isinstance(features, FeatureSequence) else np.asarray(features)
    if x.ndim != 2 or x.shape[1] != cfg.n_mels:
        raise ShapeMismatch(f"expected (T, {cfg.n_mels}) features, got {x.shape}")
    t_len = x.shape[0]
    if t_len == 0:
        raise ShapeMismatch("cannot run the model on an empty feature sequence")
    x = x.astype(params.dtype, copy=False)
    radius = cfg.context_radius
    padded = replicate_pad(x, radius)

    # one window matrix at the widest radius: the windows are time-major and
    # nested, so a radius-r branch's window is a column slice of it
    windows = window_matrix(padded, t_len, radius)

    if cfg.variant == "bilstm_base":
        m = ad.tanh(ad.affine(Tensor(windows), params.projection.w, params.projection.b))
        return m, None
    # gated_unit's one branch takes this path too: the mean of one branch is that branch
    f = cfg.n_mels
    inputs, weights = [], []
    for bp in params.branches:
        r = bp.receptive_field
        inputs.append(windows[:, (radius - r) * f : (radius + r + 1) * f])
        weights.append((bp.w_f, bp.b_f, bp.w_g, bp.b_g))
    stack = ad.gated_units(inputs, weights)
    if cfg.variant == "full_attention":
        return attention_forward(stack, params.attention, cfg.double_sigmoid)
    return non_attention_forward(stack), None


def mlnet_forward(features, params: MlnetParams) -> ModelOutput:
    """Run the configured variant over one feature sequence or a batch.

    ``features`` is a FeatureSequence or a (T, n_mels) array, or a list
    or tuple of them. Edge frames see replicate-padded context. The
    windows, branches and attention run one utterance at a time, so the
    front end's memory stays that of one utterance; their fused rows are
    packed and the classifier runs the batch at once. Returns per-frame
    probabilities in (0, 1), packed in input order, with each
    utterance's length, plus, for the attention variant, the normalized
    branch weights, packed the same way. For one sequence they stay in
    the graph for the attention loss; ``predict --dump-attention`` writes
    their ``data``.

    A graph covers one utterance: several sequences need ``no_grad``.
    """
    seqs = list(features) if isinstance(features, (list, tuple)) else [features]
    if not seqs:
        raise ShapeMismatch("cannot run the model on an empty batch")
    if len(seqs) > 1 and ad.grad_enabled():
        raise GraphError(f"a graph covers one utterance; run {len(seqs)} sequences under no_grad")
    fused = [_fused_sequence(x, params) for x in seqs]
    lengths = np.array([m.shape[0] for m, _ in fused], dtype=np.int64)
    if len(fused) == 1:
        m, branch_weights = fused[0]
    else:
        m = Tensor(np.concatenate([m.data for m, _ in fused]))
        branch_weights = None
        if params.config.variant == "full_attention":
            branch_weights = Tensor(np.concatenate([bw.data for _, bw in fused]))
    probs = classifier_forward(m, params, lengths)
    return ModelOutput(probs=probs, lengths=lengths, branch_weights=branch_weights)
