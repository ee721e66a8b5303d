"""Independent float64 reference for the benchmark's correctness checks.

Nothing here imports the package under test. Each piece is written from
the documented behaviour in the project README and the file formats:

- WAV reading with the stdlib ``wave`` module (16-bit PCM mono, /32767);
- a log-mel frontend: pre-emphasis 0.97, 25 ms Hann frames at a 10 ms hop
  cut with one strided view, a 512-point rFFT, a triangular mel bank on
  the 2595*log10(1 + f/700) scale, natural log with a 1e-10 floor and
  optional per-utterance mean/variance normalization;
- the frame-label rule: a frame is speech iff more than half of its
  samples are speech;
- readers for the run-length mask and the MLNT checkpoint, keeping only
  the configuration block and the parameter arrays;
- the full_attention network in float64: gated branches over
  replicate-padded windows, channel attention with a double sigmoid,
  stacked Bi-LSTM, leaky_relu head and sigmoid;
- confusion counts, F1 and detection cost.
"""

from __future__ import annotations

import struct
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SAMPLE_RATE = 16000
FRAME_LEN = 400  # 25 ms at 16 kHz
HOP = 160  # 10 ms at 16 kHz
FFT_SIZE = 512
N_MELS = 40
PREEMPHASIS = 0.97
LOG_FLOOR = 1e-10
LEAKY_SLOPE = 0.01
DCF_MISS_WEIGHT = 0.75
DCF_FALSE_ALARM_WEIGHT = 0.25


def n_frames(n_samples: int) -> int:
    """Frame count 1 + (n - 400) // 160, or 0 below one frame."""
    return 0 if n_samples < FRAME_LEN else 1 + (n_samples - FRAME_LEN) // HOP


def read_wav(path) -> np.ndarray:
    with wave.open(str(path), "rb") as fh:
        if fh.getnchannels() != 1 or fh.getsampwidth() != 2 or fh.getframerate() != SAMPLE_RATE:
            raise ValueError(f"{path}: expected 16 kHz mono 16-bit PCM")
        raw = fh.readframes(fh.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32767.0


def mel_bank() -> np.ndarray:
    def to_mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)

    mels = np.linspace(to_mel(0.0), to_mel(SAMPLE_RATE / 2.0), N_MELS + 2)
    edges = 700.0 * (10.0 ** (mels / 2595.0) - 1.0)
    freqs = np.arange(FFT_SIZE // 2 + 1) * SAMPLE_RATE / FFT_SIZE
    left, center, right = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    up = (freqs - left) / (center - left)
    down = (right - freqs) / (right - center)
    return np.maximum(0.0, np.minimum(up, down))


def logmel(samples: np.ndarray, normalize: bool = True) -> np.ndarray:
    """(T, 40) log-mel features of a 16 kHz signal."""
    t = n_frames(samples.size)
    y = np.concatenate([samples[:1], samples[1:] - PREEMPHASIS * samples[:-1]])
    frames = np.lib.stride_tricks.sliding_window_view(y, FRAME_LEN)[::HOP][:t]
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(FRAME_LEN) / (FRAME_LEN - 1))
    power = np.abs(np.fft.rfft(frames * hann, n=FFT_SIZE, axis=1)) ** 2
    feats = np.log(np.maximum(power @ mel_bank().T, LOG_FLOOR))
    if normalize:
        feats = (feats - feats.mean(axis=0)) / np.maximum(feats.std(axis=0), 1e-8)
    return feats


def frame_labels(mask: np.ndarray) -> np.ndarray:
    """1 where more than half of a frame's samples are speech."""
    t = n_frames(mask.size)
    csum = np.concatenate([[0], np.cumsum(np.asarray(mask, dtype=np.int64))])
    starts = np.arange(t) * HOP
    speech = csum[starts + FRAME_LEN] - csum[starts]
    return (2 * speech > FRAME_LEN).astype(np.int8)


def read_mask(path) -> np.ndarray:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "#mask-rle\tv1":
        raise ValueError(f"{path}: not a v1 run-length mask")
    runs = [line.split() for line in lines[1:] if line.strip()]
    return np.concatenate([np.full(int(n), int(v), dtype=np.int8) for v, n in runs])


@dataclass
class Checkpoint:
    config: dict[str, str]
    params: dict[str, np.ndarray]


def read_checkpoint(path) -> Checkpoint:
    """Parse the MLNT layout: magic, u32 version, config block, then
    (name, rank, dims, float32 values) records until the end."""
    buf = Path(path).read_bytes()
    if buf[:4] != b"MLNT":
        raise ValueError(f"{path}: bad magic")
    pos = 8
    (cfg_len,) = struct.unpack_from("<I", buf, pos)
    pos += 4
    config = dict(
        line.split("=", 1) for line in buf[pos : pos + cfg_len].decode("utf-8").splitlines() if line
    )
    pos += cfg_len
    params = {}
    while pos < len(buf):
        (name_len,) = struct.unpack_from("<I", buf, pos)
        name = buf[pos + 4 : pos + 4 + name_len].decode("utf-8")
        pos += 4 + name_len
        (rank,) = struct.unpack_from("<I", buf, pos)
        dims = struct.unpack_from(f"<{rank}I", buf, pos + 4)
        pos += 4 + 4 * rank
        count = int(np.prod(dims)) if dims else 1
        values = np.frombuffer(buf, dtype="<f4", count=count, offset=pos)
        params[name] = values.reshape(dims).astype(np.float64)
        pos += 4 * count
    return Checkpoint(config, params)


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _leaky_relu(x):
    return np.where(x > 0, x, LEAKY_SLOPE * x)


def lstm(x: np.ndarray, w_x: np.ndarray, w_h: np.ndarray, b: np.ndarray, reverse: bool) -> np.ndarray:
    """One LSTM direction, zero initial state, gates packed [i, f, g, o]."""
    hid = w_h.shape[0]
    xproj = x @ w_x + b
    h = np.zeros(hid)
    c = np.zeros(hid)
    out = np.empty((x.shape[0], hid))
    for t in range(x.shape[0] - 1, -1, -1) if reverse else range(x.shape[0]):
        z = xproj[t] + h @ w_h
        i, f, g, o = _sigmoid(z[:hid]), _sigmoid(z[hid : 2 * hid]), np.tanh(z[2 * hid : 3 * hid]), _sigmoid(z[3 * hid :])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[t] = h
    return out


def mlnet_forward(feats: np.ndarray, ckpt: Checkpoint) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame speech probabilities (T,) and branch weights (T, n)."""
    cfg, p = ckpt.config, ckpt.params
    if cfg["variant"] != "full_attention" or cfg["double_sigmoid"] != "true":
        raise ValueError("the reference covers the full_attention variant with a double sigmoid")
    fields = [int(r) for r in cfg["receptive_fields"].split(",")]
    radius = max(fields)
    t_len = feats.shape[0]
    padded = np.concatenate([np.repeat(feats[:1], radius, 0), feats, np.repeat(feats[-1:], radius, 0)])
    branches = []
    for r in fields:
        window = np.concatenate([padded[radius + k : radius + k + t_len] for k in range(-r, r + 1)], axis=1)
        pre = f"branch_r{r}"
        lin_f = window @ p[f"{pre}.w_f"].T + p[f"{pre}.b_f"]
        lin_g = window @ p[f"{pre}.w_g"].T + p[f"{pre}.b_g"]
        branches.append(np.tanh(lin_f) * _sigmoid(lin_g))
    q = np.stack(branches, axis=1)  # (T, n, D)

    def shared(d):
        hidden = _leaky_relu(d @ p["attention.w0"].T + p["attention.b0"])
        return hidden @ p["attention.w1"].T + p["attention.b1"]

    raw = _sigmoid(shared(q.mean(axis=2)) + shared(q.max(axis=2)))
    num = _sigmoid(raw)
    weights = num / num.sum(axis=1, keepdims=True)
    seq = np.einsum("tn,tnd->td", weights, q)
    for layer in range(int(cfg["lstm_layers"])):
        dirs = [
            lstm(seq, p[f"lstm{layer}.{tag}.w_x"], p[f"lstm{layer}.{tag}.w_h"], p[f"lstm{layer}.{tag}.b"], tag == "bwd")
            for tag in ("fwd", "bwd")
        ]
        seq = np.concatenate(dirs, axis=1)
    hidden = _leaky_relu(seq @ p["head.w_hidden"].T + p["head.b_hidden"])
    logits = (hidden @ p["head.w_out"].T + p["head.b_out"])[:, 0]
    return _sigmoid(logits), weights


def confusion(pred: np.ndarray, labels: np.ndarray) -> dict[str, int]:
    pred = np.asarray(pred, dtype=bool)
    truth = np.asarray(labels) > 0
    return {
        "tp": int(np.sum(pred & truth)),
        "fp": int(np.sum(pred & ~truth)),
        "fn": int(np.sum(~pred & truth)),
        "tn": int(np.sum(~pred & ~truth)),
    }


def f1(c: dict[str, int]) -> float:
    denom = 2 * c["tp"] + c["fp"] + c["fn"]
    if denom == 0:
        return 1.0
    return 2.0 * c["tp"] / denom


def dcf(c: dict[str, int]) -> float:
    """0.75 * miss rate + 0.25 * false-alarm rate; an absent class adds 0."""
    pos, neg = c["tp"] + c["fn"], c["fp"] + c["tn"]
    miss = c["fn"] / pos if pos else 0.0
    false_alarm = c["fp"] / neg if neg else 0.0
    return DCF_MISS_WEIGHT * miss + DCF_FALSE_ALARM_WEIGHT * false_alarm
