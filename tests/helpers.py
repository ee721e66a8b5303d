"""Shared oracles for the test suite.

``frame_signal`` and ``logmel`` are the frontend one frame at a time:
the references that ``featurize``'s blocks are checked against. They
reach the frontend's tables through the module, so a test that patches
``frontend._analysis_tables`` patches them too. ``read_features`` reads
the feature dump that ``mlnetvad featurize`` writes.

The gradient oracle is central finite differences evaluated through a
caller-supplied loss closure; it never touches the backward pass it is
checking. ``rel_error`` guards the denominator with a magnitude floor:
below the floor, finite differences themselves are noise-limited and a
raw relative error would measure the oracle, not the implementation.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from mlnetvad import frontend
from mlnetvad.autodiff import Tensor
from mlnetvad.cli import FEATURE_MAGIC, FEATURE_VERSION
from mlnetvad.corpus import LabeledUtterance, MixSpec, label_frames, pad_silence
from mlnetvad.errors import FormatError, ShapeMismatch
from mlnetvad.frontend import DEFAULT_SAMPLE_RATE, FrontendConfig, Waveform, featurize, num_frames


def frame_signal(w: Waveform, cfg: FrontendConfig) -> np.ndarray:
    """Hop-spaced frames of the pre-emphasized signal.

    Returns a read-only (T, frame_len_samples) strided view of one
    pre-emphasized copy of the signal, not a copy per frame; T = 0 when
    the signal is shorter than one frame.
    """
    cfg.validate_for(w.sample_rate)
    flen = cfg.frame_len_samples(w.sample_rate)
    hop = cfg.hop_samples(w.sample_rate)
    t = num_frames(len(w), flen, hop)
    if t == 0:
        return np.empty((0, flen), dtype=np.float64)
    y = frontend.preemphasize(w.samples, cfg.preemphasis)
    return sliding_window_view(y, flen)[::hop][:t]


def logmel(frame: np.ndarray, cfg: FrontendConfig, sample_rate: int = DEFAULT_SAMPLE_RATE) -> np.ndarray:
    """Log-mel energies of one frame: Hann window, zero-padded FFT,
    power spectrum, triangular mel filterbank, natural log with floor."""
    frame = np.asarray(frame, dtype=np.float64)
    flen = cfg.frame_len_samples(sample_rate)
    if frame.shape != (flen,):
        raise ShapeMismatch(f"expected frame of {flen} samples, got shape {frame.shape}")
    cfg.validate_for(sample_rate)
    return frontend._logmel_rows(frame[None], *frontend._analysis_tables(sample_rate, cfg), cfg)[0]


def read_features(path) -> np.ndarray:
    """The (T, n_mels) float32 frames of a ``cli.write_features`` dump."""
    blob = Path(path).read_bytes()
    if blob[:4] != FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic, not a feature dump")
    if len(blob) < 16:
        raise FormatError(f"{path}: truncated header, {len(blob)} of 16 bytes")
    version, t_len, n_mels = struct.unpack("<III", blob[4:16])
    if version != FEATURE_VERSION:
        raise FormatError(f"{path}: unsupported feature dump version {version}")
    expected = 16 + 4 * t_len * n_mels
    if len(blob) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {len(blob)}")
    return np.frombuffer(blob[16:], dtype="<f4").reshape(t_len, n_mels)


# raw log-mel puts the silence floor at ln(1e-10) = -23, which saturates
# the gated units at init scale, so the toy corpora train with
# per-utterance normalization on
TOY_FRONTEND = FrontendConfig(normalize=True)


def tone_silence_utterance(idx: int, rng: np.random.Generator) -> LabeledUtterance:
    """Loud tone between silence stretches: linearly separable by energy."""
    sr = 16000
    dur = rng.uniform(0.3, 0.6)
    t = np.arange(int(dur * sr)) / sr
    freq = rng.uniform(200, 1200)
    tone = Waveform(0.5 * np.sin(2 * np.pi * freq * t), sr)
    padded, mask = pad_silence(tone, MixSpec(silence_pad_s=0.3))
    feats = featurize(padded, TOY_FRONTEND, source_id=f"toy-{idx}")
    labels = label_frames(mask, TOY_FRONTEND, sr)
    return LabeledUtterance(feats, labels, f"toy-{idx}")


def toy_corpus(n: int, seed: int = 0) -> list[LabeledUtterance]:
    rng = np.random.default_rng(seed)
    return [tone_silence_utterance(i, rng) for i in range(n)]


def rel_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-2) -> float:
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom))


def scalar_attention_oracle(
    q: np.ndarray,
    w0: np.ndarray,
    b0: np.ndarray,
    w1: np.ndarray,
    b1: np.ndarray,
    double_sigmoid: bool,
) -> tuple[list, list, list]:
    """Naive per-scalar reimplementation of the channel-attention block.

    Pure Python loops over one frame's (n_branches, gated_dim) matrix;
    returns (raw scores a, weights p, fused Q) as plain float lists.
    """
    import math

    n, dim = q.shape
    hidden_n = w0.shape[0]
    d_avg = [sum(float(v) for v in q[i]) / dim for i in range(n)]
    d_max = [max(float(v) for v in q[i]) for i in range(n)]

    def net(d):
        hidden = []
        for j in range(hidden_n):
            s = float(b0[j]) + sum(float(w0[j, i]) * d[i] for i in range(n))
            hidden.append(s if s > 0 else 0.01 * s)
        return [
            float(b1[i]) + sum(float(w1[i, j]) * hidden[j] for j in range(hidden_n))
            for i in range(n)
        ]

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    scores = [x + y for x, y in zip(net(d_avg), net(d_max))]
    a = [sig(v) for v in scores]
    num = [sig(v) for v in a] if double_sigmoid else list(a)
    total = sum(num)
    p = [v / total for v in num]
    fused = [sum(p[i] * float(q[i, d]) for i in range(n)) for d in range(dim)]
    return a, p, fused


# one errstate per call, not per sigmoid: entering it on every sigmoid
# took about half of criterion 1's finite-difference time
@np.errstate(over="ignore")
def reference_loss(
    x: np.ndarray,
    y: np.ndarray,
    cfg,
    named: dict[str, np.ndarray],
    frozen_k: np.ndarray | None = None,
    lam: float = 1.0,
) -> float:
    """Plain-numpy reimplementation of the full forward pass plus losses.

    Written independently of the tensor engine so finite differences over
    it are fast and the two forward paths can be cross-checked. Matches
    the production semantics: replicate padding, time-major windows,
    gated affine branches, shared-net channel attention with the double
    sigmoid option, [input, forget, candidate, output] LSTM gate packing,
    leaky_relu(0.01) head, clamped cross-entropy, and the attention loss
    at a caller-frozen winning branch.
    """

    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    def lrelu(v):
        return np.where(v > 0, v, 0.01 * v)

    t_len = x.shape[0]
    radius = max(cfg.receptive_fields)
    padded = np.pad(x, ((radius, radius), (0, 0)), mode="edge")

    def windows(r):
        cols = [padded[radius - r + k : radius - r + k + t_len] for k in range(2 * r + 1)]
        return np.concatenate(cols, axis=1)

    def gated(r):
        w = windows(r)
        pre = f"branch_r{r}"
        return np.tanh(w @ named[f"{pre}.w_f"].T + named[f"{pre}.b_f"]) * sigmoid(
            w @ named[f"{pre}.w_g"].T + named[f"{pre}.b_g"]
        )

    att_p = None
    if cfg.variant == "bilstm_base":
        m = np.tanh(windows(radius) @ named["projection.w"].T + named["projection.b"])
    elif cfg.variant == "gated_unit":
        m = gated(radius)
    else:
        q = np.stack([gated(r) for r in cfg.receptive_fields], axis=1)  # (T, n, D)
        if cfg.variant == "non_attention":
            m = q.mean(axis=1)
        else:
            d_avg = q.mean(axis=2)
            d_max = q.max(axis=2)

            def net(d):
                hidden = lrelu(d @ named["attention.w0"].T + named["attention.b0"])
                return hidden @ named["attention.w1"].T + named["attention.b1"]

            a = sigmoid(net(d_avg) + net(d_max))
            num = sigmoid(a) if cfg.double_sigmoid else a
            att_p = num / num.sum(axis=1, keepdims=True)
            m = (att_p[:, :, None] * q).sum(axis=1)

    seq = m
    h_dim = cfg.lstm_hidden
    for layer in range(cfg.lstm_layers):
        outputs = []
        for tag, reverse in (("fwd", False), ("bwd", True)):
            w_x = named[f"lstm{layer}.{tag}.w_x"]
            w_h = named[f"lstm{layer}.{tag}.w_h"]
            bias = named[f"lstm{layer}.{tag}.b"]
            xproj = seq @ w_x + bias
            h = np.zeros(h_dim)
            c = np.zeros(h_dim)
            out = np.zeros((t_len, h_dim))
            steps = range(t_len - 1, -1, -1) if reverse else range(t_len)
            for t in steps:
                z = xproj[t] + h @ w_h
                i = sigmoid(z[0:h_dim])
                f = sigmoid(z[h_dim : 2 * h_dim])
                g = np.tanh(z[2 * h_dim : 3 * h_dim])
                o = sigmoid(z[3 * h_dim :])
                c = f * c + i * g
                h = o * np.tanh(c)
                out[t] = h
            outputs.append(out)
        seq = np.concatenate(outputs, axis=1)
    hidden = lrelu(seq @ named["head.w_hidden"].T + named["head.b_hidden"])
    probs = sigmoid((hidden @ named["head.w_out"].T + named["head.b_out"]).ravel())

    clamped = np.clip(probs, 1e-7, 1.0 - 1e-7)
    loss = -float(np.sum(y * np.log(clamped) + (1.0 - y) * np.log(1.0 - clamped)))
    if frozen_k is not None and att_p is not None:
        loss += lam * -float(np.sum(np.log(att_p[np.arange(t_len), frozen_k])))
    return loss


def numeric_grad(
    loss_fn: Callable[[], float],
    tensors: Sequence[Tensor],
    eps: float = 1e-4,
) -> list[np.ndarray]:
    """Central-difference gradient of ``loss_fn`` w.r.t. each tensor's data.

    ``loss_fn`` must read the tensors' current ``data`` buffers; they are
    perturbed in place and restored exactly.
    """
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data, dtype=np.float64)
        flat = t.data.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = loss_fn()
            flat[i] = orig - eps
            f_minus = loss_fn()
            flat[i] = orig
            gf[i] = (f_plus - f_minus) / (2.0 * eps)
        grads.append(g)
    return grads


def bilstm_reference(
    xs: Sequence[np.ndarray], ws: Sequence[np.ndarray], lengths: Sequence[int], grad: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Plain-numpy Bi-LSTM layer and its BPTT, with no graph.

    ``xs`` are the forward and backward directions' packed (ΣT, 4H) input
    rows, ``ws`` their (H, 4H) recurrent weights, ``grad`` the (ΣT, 2H)
    gradient of the output. Returns (out, dx_f, dx_b, dw_f, dw_b).

    Each step works on (2, B, 4H) rows with the gates packed [input,
    forget, candidate, output] along the last axis, and every sum and
    product is the one ``autodiff.bilstm_layer`` must round the same way:
    the (2, B, H) @ (2, H, 4H) recurrent matmul, a sigmoid over all four
    gates as 1 / (1 + exp(-z)) with the candidate's tanh in its slot, the
    BPTT factors in their operand order, the (2, B, 4H) @ (2, 4H, H)
    recurrent gradient and one batched GEMM for both weight gradients. A
    shorter utterance's padded steps reread its last real row and get a
    zero gradient.
    """
    h_dim = ws[0].shape[0]
    lengths = np.asarray(lengths)
    n_utts, t_max = lengths.size, int(lengths.max())
    steps = np.arange(t_max)[:, None]
    offsets = np.cumsum(lengths) - lengths
    last = lengths - 1
    fwd = offsets + np.minimum(steps, last)
    bwd = offsets + np.maximum(last - steps, 0)
    real = steps < lengths
    w = np.stack(ws)
    dtype = w.dtype
    gates = [slice(k * h_dim, (k + 1) * h_dim) for k in range(4)]

    acts = np.empty((t_max, 2, n_utts, 4 * h_dim), dtype)
    cs = np.zeros((t_max + 1, 2, n_utts, h_dim), dtype)
    tcs = np.empty((t_max, 2, n_utts, h_dim), dtype)
    hs = np.empty((t_max, 2, n_utts, h_dim), dtype)
    h = np.zeros((2, n_utts, h_dim), dtype)
    with np.errstate(over="ignore"):
        for s in range(t_max):
            z = h @ w
            z += np.stack([xs[0][fwd[s]], xs[1][bwd[s]]])
            a = 1.0 / (1.0 + np.exp(-z))
            a[..., gates[2]] = np.tanh(z[..., gates[2]])
            i, f, g, o = (a[..., k] for k in gates)
            cs[s + 1] = cs[s] * f + i * g
            tcs[s] = np.tanh(cs[s + 1])
            h = hs[s] = o * tcs[s]
            acts[s] = a
    out = np.empty((lengths.sum(), 2 * h_dim), dtype)
    out[fwd[real], :h_dim] = hs[:, 0][real]
    out[bwd[real], h_dim:] = hs[:, 1][real]

    i, f, g, o = (acts[..., k] for k in gates)
    dc_factors = [g * i * (1.0 - i), cs[:-1] * f * (1.0 - f), i * (1.0 - g * g)]
    do_factor = tcs * o * (1.0 - o)
    dh_to_dc = o * (1.0 - tcs * tcs)
    grads = np.zeros((t_max, 2, n_utts, h_dim), dtype)
    grads[:, 0][real] = grad[fwd[real], :h_dim]
    grads[:, 1][real] = grad[bwd[real], h_dim:]
    w_t = np.ascontiguousarray(w.transpose(0, 2, 1))
    dz = np.empty((t_max, 2, n_utts, 4 * h_dim), dtype)
    dh = np.zeros((2, n_utts, h_dim), dtype)
    dc_next = np.zeros_like(dh)
    for s in range(t_max - 1, -1, -1):
        dh += grads[s]
        dc = dh * dh_to_dc[s] + dc_next
        for k in range(3):
            dz[s][..., gates[k]] = dc * dc_factors[k][s]
        dz[s][..., gates[3]] = dh * do_factor[s]
        dc_next = dc * f[s]
        dh = dz[s] @ w_t
    dx = [np.zeros((lengths.sum(), 4 * h_dim), dtype) for _ in range(2)]
    dx[0][fwd[real]] = dz[:, 0][real]
    dx[1][bwd[real]] = dz[:, 1][real]
    h_prev = np.stack([out[fwd[:-1], :h_dim], out[bwd[:-1], h_dim:]])
    dz_dirs = dz[1:].transpose(1, 0, 2, 3).reshape(2, -1, 4 * h_dim)
    dw = h_prev.reshape(2, -1, h_dim).transpose(0, 2, 1) @ dz_dirs
    return out, dx[0], dx[1], dw[0], dw[1]
