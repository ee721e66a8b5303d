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

``build_params`` states each parameter group once, as the tuple of
tensors its node takes, in that node's argument order, which is also the
checkpoint order: a branch is ``(w_f, b_f, w_g, b_g)``, the projection
``(w, b)``, the attention ``(w0, b0, w1, b1)``, each Bi-LSTM direction
``(w_x, w_h, b)`` and the head ``(w_hidden, b_hidden, w_out, b_out)``.
Only ``build_params`` reads the variant; the forward pass runs the
groups that are present.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeMismatch
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


@dataclass(eq=False)
class MlnetParams:
    """All trainable tensors for one configuration, with stable naming.

    Each group is the tuple of tensors its node takes, in that argument
    order, which is also the group's checkpoint order:

      branches    one ``(w_f, b_f, w_g, b_g)`` per branch radius, for
                  ``autodiff.gated_units``; none for ``bilstm_base``
      projection  ``(w, b)`` for ``autodiff.projection``; ``bilstm_base``
                  only, else None
      attention   ``(w0, b0, w1, b1)`` for ``autodiff.branch_weights``;
                  ``full_attention`` only, else None
      lstm        per layer, a ``(fwd, bwd)`` pair of ``(w_x, w_h, b)``
                  for ``autodiff.bilstm_layer``; w_x: (input_dim, 4H),
                  w_h: (H, 4H), b: (4H,), gate packing [i, f, g, o]
      head        ``(w_hidden, b_hidden, w_out, b_out)`` for
                  ``autodiff.classifier_head``

    The forward pass decides what runs from which groups are present.
    """

    config: ModelConfig
    _named: dict[str, Tensor]
    branches: list[tuple[Tensor, Tensor, Tensor, Tensor]]
    projection: tuple[Tensor, Tensor] | None
    attention: tuple[Tensor, Tensor, Tensor, Tensor] | None
    lstm: list[tuple[tuple[Tensor, Tensor, Tensor], tuple[Tensor, Tensor, Tensor]]]
    head: tuple[Tensor, Tensor, Tensor, Tensor]

    def named(self) -> dict[str, Tensor]:
        """Name -> tensor mapping in ``build_params`` order (not a copy)."""
        return self._named

    def tensors(self) -> list[Tensor]:
        return list(self.named().values())

    @property
    def dtype(self) -> np.dtype:
        return self.head[0].dtype

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

    Each group names its fields and shapes once, in the order that is
    both its checkpoint order and its node's argument order; ``kind`` is
    ``"bias"`` for a 1-D shape and ``"weight"`` otherwise. Only here, and
    in ``_branch_radii``, does the variant decide which groups exist.
    """
    named: dict[str, Tensor] = {}

    def group(prefix: str, **shapes: tuple[int, ...]) -> tuple[Tensor, ...]:
        for field, shape in shapes.items():
            name = f"{prefix}.{field}"
            named[name] = factory(name, shape, "bias" if len(shape) == 1 else "weight")
        return tuple(named[f"{prefix}.{field}"] for field in shapes)

    d, f, h = cfg.gated_dim, cfg.n_mels, cfg.lstm_hidden
    branches = []
    for r in _branch_radii(cfg):
        k = (2 * r + 1) * f
        branches.append(group(f"branch_r{r}", w_f=(d, k), b_f=(d,), w_g=(d, k), b_g=(d,)))
    projection = attention = None
    if cfg.variant == "bilstm_base":
        projection = group("projection", w=(d, cfg.context_window * f), b=(d,))
    if cfg.variant == "full_attention":
        n, a = cfg.n_branches, cfg.attn_hidden
        attention = group("attention", w0=(a, n), b0=(a,), w1=(n, a), b1=(n,))
    lstm = []
    in_dim = d
    for layer in range(cfg.lstm_layers):
        shapes = dict(w_x=(in_dim, 4 * h), w_h=(h, 4 * h), b=(4 * h,))
        lstm.append(tuple(group(f"lstm{layer}.{tag}", **shapes) for tag in ("fwd", "bwd")))
        in_dim = 2 * h
    fc = cfg.fc_hidden
    head = group("head", w_hidden=(fc, 2 * h), b_hidden=(fc,), w_out=(1, fc), b_out=(1,))
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


def attention_forward(
    q: Tensor, attn: tuple[Tensor, Tensor, Tensor, Tensor], double_sigmoid: bool = True
) -> tuple[Tensor, Tensor]:
    """Channel attention over branches; returns ``(fused, weights)``.

    ``q`` is the (T, n_branches, gated_dim) branch stack of a sequence,
    ``attn`` the ``(w0, b0, w1, b1)`` attention group.
    Average- and max-pooled branch descriptors go through a shared
    two-layer net (leaky_relu hidden); the two outputs are summed before
    the sigmoid. The normalized (T, n_branches) weights combine the
    branch vectors into a convex fusion of shape (T, gated_dim). Two
    nodes: ``autodiff.branch_weights`` and ``autodiff.branch_fusion``.
    """
    if q.ndim != 3:
        raise ShapeMismatch(f"attention input must be (T, n_branches, gated_dim), got {q.shape}")
    weights = ad.branch_weights(q, *attn, double_sigmoid)
    return ad.branch_fusion(weights, q), weights


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
    way. Each Bi-LSTM layer runs the whole batch as one
    ``autodiff.bilstm_layer`` node, and the head is one
    ``autodiff.classifier_head`` node.
    """
    seq = m
    for fwd, bwd in params.lstm:
        seq = ad.bilstm_layer(seq, fwd, bwd, lengths)
    return ad.classifier_head(seq, *params.head, lengths)


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


FRONT_BLOCK = 768  # most frames per time block of the front end without a graph


def _front_end(padded: np.ndarray, params: MlnetParams) -> tuple[Tensor, Tensor | None]:
    """The branches and the fusion, or ``bilstm_base``'s projection, over
    frames replicate-padded at the widest radius: the fused rows and, for
    the attention variant, the branch weights."""
    if params.projection is not None:
        return ad.projection(padded, *params.projection), None
    # gated_unit's one branch takes this path too: the mean of one branch is that branch
    stack = ad.gated_units(padded, params.branches)
    if params.attention is not None:
        return attention_forward(stack, params.attention, params.config.double_sigmoid)
    return non_attention_forward(stack), None


def _fused_sequence(features, params: MlnetParams) -> tuple[Tensor, Tensor | None]:
    """One utterance through the windows, the branches and the fusion:
    the (T, gated_dim) fused rows and, for the attention variant, the
    (T, n_branches) branch weights.

    Without a graph, an utterance of more than ``FRONT_BLOCK`` frames runs
    in n = ceil(T / FRONT_BLOCK) time blocks whose sizes differ by at most
    one frame; each reads its frames and the R-frame halo around them from
    the padded frames, so no whole-utterance window matrix or branch stack
    is built. A block spans at least ``FRONT_BLOCK / 2`` rows; on OpenBLAS
    every GEMM that long rounds each row as the whole-utterance GEMM does,
    while a GEMM over a few rows can round differently. With a graph the
    front end is one block."""
    cfg = params.config
    x = features.frames if isinstance(features, FeatureSequence) else np.asarray(features)
    if x.ndim != 2 or x.shape[1] != cfg.n_mels:
        raise ShapeMismatch(f"expected (T, {cfg.n_mels}) features, got {x.shape}")
    t_len = x.shape[0]
    if t_len == 0:
        raise ShapeMismatch("cannot run the model on an empty feature sequence")
    x = x.astype(params.dtype, copy=False)
    # the frames replicate-padded at the widest radius: a radius-r branch's
    # window at frame t is padded rows t + R - r to t + R + r
    radius = cfg.context_radius
    padded = replicate_pad(x, radius)
    n_blocks = -(-t_len // FRONT_BLOCK)
    if ad.grad_enabled() or n_blocks == 1:
        return _front_end(padded, params)
    fused = np.empty((t_len, cfg.gated_dim), params.dtype)
    weights = None if params.attention is None else np.empty((t_len, cfg.n_branches), params.dtype)
    bounds = [k * t_len // n_blocks for k in range(n_blocks + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        m, bw = _front_end(padded[lo : hi + 2 * radius], params)
        fused[lo:hi] = m.data
        if weights is not None:
            weights[lo:hi] = bw.data
    return Tensor(fused), None if weights is None else Tensor(weights)


def mlnet_forward(features, params: MlnetParams) -> ModelOutput:
    """Run the configured variant over one feature sequence or a batch.

    ``features`` is a FeatureSequence or a (T, n_mels) array, or a list
    or tuple of them. Edge frames see replicate-padded context. The
    branches and attention run one utterance at a time, and without a
    graph in time blocks of at most ``FRONT_BLOCK`` frames, so the front
    end's memory stays that of one block; their fused rows are packed
    and the classifier runs the batch at once. Returns per-frame
    probabilities in (0, 1), packed in input order, with each
    utterance's length, plus, for the attention variant, the normalized
    branch weights, packed the same way; ``predict --dump-attention``
    writes their ``data``.

    In the classifier too, every GEMM but the Bi-LSTM's recurrent product
    runs over one utterance's rows. With a graph, both outputs stay in it
    for the losses, and the utterances are lanes: each gets exactly the
    bits and the gradients it gets alone (``autodiff.bilstm_layer``).
    ``autodiff.split_rows`` gives the per-utterance parts. Without one,
    the recurrent product runs over the packed rows, so each utterance
    gets the same bits in every batch of two or more, and a call on one
    utterance can differ from them in the last bits.
    """
    seqs = list(features) if isinstance(features, (list, tuple)) else [features]
    if not seqs:
        raise ShapeMismatch("cannot run the model on an empty batch")
    fused = [_fused_sequence(x, params) for x in seqs]
    lengths = np.array([m.shape[0] for m, _ in fused], dtype=np.int64)
    if len(fused) == 1:
        m, branch_weights = fused[0]
    else:
        m = ad.concat_rows([m for m, _ in fused])
        branch_weights = None if params.attention is None else ad.concat_rows([bw for _, bw in fused])
    probs = classifier_forward(m, params, lengths)
    return ModelOutput(probs=probs, lengths=lengths, branch_weights=branch_weights)
