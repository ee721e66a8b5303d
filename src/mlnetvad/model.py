"""The VAD network: multi-receptive-field gated branches, channel
attention over branches, stacked Bi-LSTM, sigmoid head.

Every branch sees a window of 2*r+1 frames around the current frame
(replicate-padded at utterance edges) and compresses it to a fixed
``gated_dim`` vector through a gated affine unit, so the attention
block can weigh branches of different receptive fields against each
other. Four variants are supported for component ablations:

  bilstm_base     flatten the widest window, plain tanh projection
  gated_unit      a single gated branch at the widest receptive field
  non_attention   all branches, uniform 1/n fusion
  full_attention  all branches, learned channel-attention fusion
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


@dataclass
class AttentionTrace:
    """Per-frame branch weights: raw sigmoid outputs and normalized p."""

    raw: np.ndarray
    weights: np.ndarray


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
        branches: list[BranchParams],
        projection: ProjectionParams | None,
        attention: AttentionParams | None,
        lstm: list[tuple[LstmDirectionParams, LstmDirectionParams]],
        head: HeadParams,
    ):
        self.config = config
        self.branches = branches
        self.projection = projection
        self.attention = attention
        self.lstm = lstm
        self.head = head

    def named(self) -> dict[str, Tensor]:
        """Deterministically ordered name -> tensor mapping."""
        out: dict[str, Tensor] = {}
        for bp in self.branches:
            prefix = f"branch_r{bp.receptive_field}"
            out[f"{prefix}.w_f"] = bp.w_f
            out[f"{prefix}.b_f"] = bp.b_f
            out[f"{prefix}.w_g"] = bp.w_g
            out[f"{prefix}.b_g"] = bp.b_g
        if self.projection is not None:
            out["projection.w"] = self.projection.w
            out["projection.b"] = self.projection.b
        if self.attention is not None:
            out["attention.w0"] = self.attention.w0
            out["attention.b0"] = self.attention.b0
            out["attention.w1"] = self.attention.w1
            out["attention.b1"] = self.attention.b1
        for layer, (fwd, bwd) in enumerate(self.lstm):
            for tag, d in (("fwd", fwd), ("bwd", bwd)):
                out[f"lstm{layer}.{tag}.w_x"] = d.w_x
                out[f"lstm{layer}.{tag}.w_h"] = d.w_h
                out[f"lstm{layer}.{tag}.b"] = d.b
        out["head.w_hidden"] = self.head.w_hidden
        out["head.b_hidden"] = self.head.b_hidden
        out["head.w_out"] = self.head.w_out
        out["head.b_out"] = self.head.b_out
        return out

    def tensors(self) -> list[Tensor]:
        return list(self.named().values())

    @property
    def dtype(self) -> np.dtype:
        return self.head.w_out.dtype

    def zero_grads(self) -> None:
        ad.zero_grads(self.tensors())

    def n_parameters(self) -> int:
        return sum(t.data.size for t in self.tensors())

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


def _param_shapes(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, kind) for every tensor the variant owns, in order."""
    shapes: list[tuple[str, tuple[int, ...], str]] = []
    d, f = cfg.gated_dim, cfg.n_mels
    for r in _branch_radii(cfg):
        k = (2 * r + 1) * f
        prefix = f"branch_r{r}"
        shapes.append((f"{prefix}.w_f", (d, k), "weight"))
        shapes.append((f"{prefix}.b_f", (d,), "bias"))
        shapes.append((f"{prefix}.w_g", (d, k), "weight"))
        shapes.append((f"{prefix}.b_g", (d,), "bias"))
    if cfg.variant == "bilstm_base":
        shapes.append(("projection.w", (d, cfg.context_window * f), "weight"))
        shapes.append(("projection.b", (d,), "bias"))
    if cfg.variant == "full_attention":
        n = cfg.n_branches
        shapes.append(("attention.w0", (cfg.attn_hidden, n), "weight"))
        shapes.append(("attention.b0", (cfg.attn_hidden,), "bias"))
        shapes.append(("attention.w1", (n, cfg.attn_hidden), "weight"))
        shapes.append(("attention.b1", (n,), "bias"))
    h = cfg.lstm_hidden
    in_dim = d
    for layer in range(cfg.lstm_layers):
        for tag in ("fwd", "bwd"):
            shapes.append((f"lstm{layer}.{tag}.w_x", (in_dim, 4 * h), "weight"))
            shapes.append((f"lstm{layer}.{tag}.w_h", (h, 4 * h), "weight"))
            shapes.append((f"lstm{layer}.{tag}.b", (4 * h,), "bias"))
        in_dim = 2 * h
    shapes.append(("head.w_hidden", (cfg.fc_hidden, 2 * h), "weight"))
    shapes.append(("head.b_hidden", (cfg.fc_hidden,), "bias"))
    shapes.append(("head.w_out", (1, cfg.fc_hidden), "weight"))
    shapes.append(("head.b_out", (1,), "bias"))
    return shapes


def build_params(cfg: ModelConfig, factory) -> MlnetParams:
    """Assemble an MlnetParams whose tensors come from ``factory(name,
    shape, kind)``; shared by the initializer and the checkpoint loader."""
    made = {name: factory(name, shape, kind) for name, shape, kind in _param_shapes(cfg)}

    def take(name: str) -> Tensor:
        return made[name]

    branches = []
    for r in _branch_radii(cfg):
        p = f"branch_r{r}"
        branches.append(
            BranchParams(r, take(f"{p}.w_f"), take(f"{p}.b_f"), take(f"{p}.w_g"), take(f"{p}.b_g"))
        )
    projection = None
    if cfg.variant == "bilstm_base":
        projection = ProjectionParams(take("projection.w"), take("projection.b"))
    attention = None
    if cfg.variant == "full_attention":
        attention = AttentionParams(
            take("attention.w0"), take("attention.b0"), take("attention.w1"), take("attention.b1")
        )
    lstm = []
    for layer in range(cfg.lstm_layers):
        pair = tuple(
            LstmDirectionParams(
                take(f"lstm{layer}.{tag}.w_x"),
                take(f"lstm{layer}.{tag}.w_h"),
                take(f"lstm{layer}.{tag}.b"),
            )
            for tag in ("fwd", "bwd")
        )
        lstm.append(pair)
    head = HeadParams(
        take("head.w_hidden"), take("head.b_hidden"), take("head.w_out"), take("head.b_out")
    )
    return MlnetParams(cfg, branches, projection, attention, lstm, head)


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


def window_matrix(padded: np.ndarray, t_len: int, r: int, radius: int) -> np.ndarray:
    """(T, (2r+1)*F) windows, time-major: frame -r first, +r last."""
    cols = [padded[radius - r + k : radius - r + k + t_len] for k in range(2 * r + 1)]
    return np.concatenate(cols, axis=1)


def gated_affine_forward(window, branch: BranchParams) -> Tensor:
    """One frame's gated affine unit: tanh(Wf v + bf) * sigmoid(Wg v + bg)
    where v is the window flattened time-major. Output size is gated_dim
    regardless of the receptive field."""
    w = window if isinstance(window, Tensor) else Tensor(np.asarray(window))
    vec = w.reshape(int(np.prod(w.shape)))
    k = branch.w_f.shape[1]
    if vec.shape != (k,):
        raise ShapeMismatch(
            f"branch r={branch.receptive_field} expects a window of {k} values, "
            f"got shape {window.shape if hasattr(window, 'shape') else '?'}"
        )
    return ad.tanh(branch.w_f @ vec + branch.b_f) * ad.sigmoid(branch.w_g @ vec + branch.b_g)


def _gated_affine_batch(windows: Tensor, branch: BranchParams) -> Tensor:
    """(T, K) pre-flattened windows -> (T, gated_dim)."""
    lin_f = windows @ branch.w_f.T + branch.b_f
    lin_g = windows @ branch.w_g.T + branch.b_g
    return ad.tanh(lin_f) * ad.sigmoid(lin_g)


@dataclass
class AttentionResult:
    weights: Tensor
    fused: Tensor
    trace: AttentionTrace


def normalize_branch_weights(a: Tensor, double_sigmoid: bool, axis: int = -1) -> Tensor:
    """Turn raw branch scores into positive weights summing to one.

    ``double_sigmoid`` (the default) applies a second sigmoid before the
    ratio; without it the scores are normalized directly, which leaves
    the weight vector invariant to positive rescaling of the scores.
    """
    num = ad.sigmoid(a) if double_sigmoid else a
    return num / num.sum(axis=axis, keepdims=True)


def fuse_branches(p: Tensor, q: Tensor) -> Tensor:
    """Convex combination of branch vectors: sum_i p[..., i] * q[..., i, :]."""
    return (p.reshape(p.shape + (1,)) * q).sum(axis=p.ndim - 1)


def attention_forward(
    q: Tensor, attn: AttentionParams, double_sigmoid: bool = True
) -> AttentionResult:
    """Channel attention over branches.

    ``q`` is (n_branches, gated_dim) for one frame or (T, n_branches,
    gated_dim) for a sequence. Average- and max-pooled branch
    descriptors go through a shared two-layer net (leaky_relu hidden);
    the two outputs are summed before the sigmoid. The normalized
    weights combine the branch vectors into a convex fusion.
    """
    single = q.ndim == 2
    if single:
        q = q.reshape((1,) + q.shape)
    if q.ndim != 3:
        raise ShapeMismatch(f"attention input must be 2-D or 3-D, got {q.shape}")
    d_avg = q.mean(axis=2)
    d_max = q.max(axis=2)

    def shared_net(d: Tensor) -> Tensor:
        return ad.leaky_relu(d @ attn.w0.T + attn.b0) @ attn.w1.T + attn.b1

    a = ad.sigmoid(shared_net(d_avg) + shared_net(d_max))
    p = normalize_branch_weights(a, double_sigmoid, axis=1)
    fused = fuse_branches(p, q)
    if single:
        a_out, p_out, fused = a.reshape(a.shape[1]), p.reshape(p.shape[1]), fused.reshape(fused.shape[1])
    else:
        a_out, p_out = a, p
    trace = AttentionTrace(raw=a_out.data.copy(), weights=p_out.data.copy())
    return AttentionResult(weights=p_out, fused=fused, trace=trace)


def non_attention_forward(q: Tensor) -> Tensor:
    """Uniform 1/n fusion of branch outputs (ablation of the attention)."""
    if q.ndim not in (2, 3):
        raise ShapeMismatch(f"branch stack must be 2-D or 3-D, got {q.shape}")
    return q.mean(axis=q.ndim - 2)


def classifier_forward(m: Tensor, params: MlnetParams) -> Tensor:
    """Stacked Bi-LSTM over the fused sequence, then leaky_relu FC and a
    sigmoid unit; returns per-frame speech probabilities (T,)."""
    seq = m
    for fwd, bwd in params.lstm:
        out_f = ad.lstm_sequence(seq @ fwd.w_x + fwd.b, fwd.w_h)
        out_b = ad.lstm_sequence((seq @ bwd.w_x + bwd.b)[::-1], bwd.w_h)[::-1]
        seq = ad.concat([out_f, out_b], axis=1)
    hidden = ad.leaky_relu(seq @ params.head.w_hidden.T + params.head.b_hidden)
    logits = hidden @ params.head.w_out.T + params.head.b_out
    return ad.sigmoid(logits.reshape(logits.shape[0]))


@dataclass
class ModelOutput:
    probs: Tensor
    branch_weights: Tensor | None = None
    trace: AttentionTrace | None = None


def mlnet_forward(features, params: MlnetParams, collect_trace: bool = True) -> ModelOutput:
    """Run the configured variant over a feature sequence.

    ``features`` is a FeatureSequence or a (T, n_mels) array. Edge
    frames see replicate-padded context. Returns per-frame
    probabilities in (0, 1) plus, for the attention variant, the
    normalized branch weights (kept in the graph for the attention
    loss) and a numpy trace.
    """
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

    branch_weights = None
    trace = None
    if cfg.variant == "bilstm_base":
        windows = Tensor(window_matrix(padded, t_len, radius, radius))
        assert params.projection is not None
        m = ad.tanh(windows @ params.projection.w.T + params.projection.b)
    elif cfg.variant == "gated_unit":
        windows = Tensor(window_matrix(padded, t_len, radius, radius))
        m = _gated_affine_batch(windows, params.branches[0])
    else:
        qs = []
        for bp in params.branches:
            windows = Tensor(window_matrix(padded, t_len, bp.receptive_field, radius))
            qs.append(_gated_affine_batch(windows, bp))
        stack = ad.concat([q.reshape(t_len, 1, cfg.gated_dim) for q in qs], axis=1)
        if cfg.variant == "non_attention":
            m = non_attention_forward(stack)
        else:
            assert params.attention is not None
            result = attention_forward(stack, params.attention, cfg.double_sigmoid)
            m = result.fused
            branch_weights = result.weights
            trace = result.trace if collect_trace else None
    probs = classifier_forward(m, params)
    return ModelOutput(probs=probs, branch_weights=branch_weights, trace=trace)
