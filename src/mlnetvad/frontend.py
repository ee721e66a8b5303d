"""Log-mel feature frontend: 25 ms frames, 10 ms hop, 40 mel bands.

Pure functions over numpy arrays; identical input yields bit-identical
output. The frontend is offline only: the whole waveform is framed at
once and inputs must already be at the configured sample rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ShapeMismatch

DEFAULT_SAMPLE_RATE = 16000
# frames per rFFT and mel GEMM in featurize; one FFT of the whole utterance peaks higher
FEATURE_BLOCK = 256


@dataclass
class Waveform:
    """Mono PCM samples in [-1, 1] plus their sample rate."""

    samples: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ConfigError(f"waveform must be 1-D, got shape {self.samples.shape}")
        if self.sample_rate <= 0:
            raise ConfigError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.samples.size and not np.isfinite(self.samples).all():
            raise ConfigError("waveform contains non-finite samples")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass(frozen=True)
class FrontendConfig:
    """Feature extraction parameters.

    ``mel_fmax=None`` means Nyquist. ``normalize`` applies per-utterance
    mean/variance normalization of each mel band; off by default because
    it erases absolute level information.
    """

    frame_len_ms: float = 25.0
    hop_ms: float = 10.0
    n_mels: int = 40
    fft_size: int = 512
    preemphasis: float = 0.97
    log_floor: float = 1e-10
    mel_fmin: float = 0.0
    mel_fmax: float | None = None
    normalize: bool = False

    def __post_init__(self):
        if self.frame_len_ms <= 0 or self.hop_ms <= 0:
            raise ConfigError("frame_len_ms and hop_ms must be positive")
        if self.n_mels < 1:
            raise ConfigError(f"n_mels must be >= 1, got {self.n_mels}")
        if not 0.0 <= self.preemphasis < 1.0:
            raise ConfigError(f"preemphasis must be in [0, 1), got {self.preemphasis}")
        if self.log_floor <= 0:
            raise ConfigError("log_floor must be positive")

    def frame_len_samples(self, sample_rate: int) -> int:
        return int(round(sample_rate * self.frame_len_ms / 1000.0))

    def hop_samples(self, sample_rate: int) -> int:
        return int(round(sample_rate * self.hop_ms / 1000.0))

    def validate_for(self, sample_rate: int) -> None:
        flen, hop = self.frame_len_samples(sample_rate), self.hop_samples(sample_rate)
        if flen < 1 or hop < 1:
            raise ConfigError(
                f"frame length {self.frame_len_ms} ms and hop {self.hop_ms} ms must each "
                f"span at least one sample at {sample_rate} Hz"
            )
        if self.fft_size < flen:
            raise ConfigError(f"fft_size {self.fft_size} smaller than frame length {flen} samples")


@dataclass
class FeatureSequence:
    """T x n_mels log-mel matrix with per-frame start times in seconds,
    and the length of the audio it came from, when known."""

    frames: np.ndarray
    frame_times: np.ndarray
    source_id: str = ""
    duration_s: float | None = None

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        self.frame_times = np.asarray(self.frame_times, dtype=np.float64)
        if self.frames.ndim != 2:
            raise ShapeMismatch(f"frames must be 2-D, got {self.frames.shape}")
        if self.frame_times.shape != (self.frames.shape[0],):
            raise ShapeMismatch("frame_times length must equal frame count")
        if self.frames.size and not np.isfinite(self.frames).all():
            raise ConfigError("feature matrix contains non-finite entries")

    def __len__(self) -> int:
        return self.frames.shape[0]


def num_frames(n_samples: int, frame_len: int, hop: int) -> int:
    """Frame count for a signal of ``n_samples``: 0 if shorter than one frame."""
    if n_samples < frame_len:
        return 0
    return 1 + (n_samples - frame_len) // hop


def preemphasize(x: np.ndarray, coeff: float) -> np.ndarray:
    """First-order high-pass y[n] = x[n] - coeff * x[n-1], y[0] = x[0]."""
    if x.size == 0 or coeff == 0.0:
        return x.astype(np.float64, copy=True)
    # written into y in place: the formula's two full-length temporaries
    # would set the frontend's memory peak
    y = np.empty_like(x, dtype=np.float64)
    y[0] = x[0]
    np.multiply(x[:-1], -coeff, out=y[1:])
    y[1:] += x[1:]
    return y


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
    y = preemphasize(w.samples, cfg.preemphasis)
    return sliding_window_view(y, flen)[::hop][:t]


def hz_to_mel(f) -> np.ndarray:
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m) -> np.ndarray:
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(sample_rate: int, cfg: FrontendConfig) -> np.ndarray:
    """Triangular mel filterbank, (n_mels, fft_size // 2 + 1).

    Filters span [mel_fmin, mel_fmax] on the 2595 * log10(1 + f/700)
    scale, with continuous-frequency triangle weights so every FFT bin
    inside the band lands on at most two adjacent filters.
    """
    fmax = cfg.mel_fmax if cfg.mel_fmax is not None else sample_rate / 2.0
    if not 0.0 <= cfg.mel_fmin < fmax:
        raise ConfigError(f"invalid mel band edges [{cfg.mel_fmin}, {fmax}]")
    n_bins = cfg.fft_size // 2 + 1
    bin_freqs = np.arange(n_bins) * sample_rate / cfg.fft_size
    edges = mel_to_hz(np.linspace(hz_to_mel(cfg.mel_fmin), hz_to_mel(fmax), cfg.n_mels + 2))
    bank = np.zeros((cfg.n_mels, n_bins), dtype=np.float64)
    for m in range(cfg.n_mels):
        left, center, right = edges[m], edges[m + 1], edges[m + 2]
        up = (bin_freqs - left) / max(center - left, 1e-12)
        down = (right - bin_freqs) / max(right - center, 1e-12)
        bank[m] = np.maximum(0.0, np.minimum(up, down))
    return bank


def _logmel_rows(frames: np.ndarray, bank: np.ndarray, window: np.ndarray, cfg: FrontendConfig,
                 out: np.ndarray | None = None) -> np.ndarray:
    """(B, n_mels) log-mel rows of a (B, frame_len) block: one rFFT, one mel GEMM."""
    spectrum = np.fft.rfft(frames * window, n=cfg.fft_size)
    energies = (spectrum.real**2 + spectrum.imag**2) @ bank.T
    return np.log(np.maximum(energies, cfg.log_floor, out=energies), out=out)


def logmel(frame: np.ndarray, cfg: FrontendConfig, sample_rate: int = DEFAULT_SAMPLE_RATE) -> np.ndarray:
    """Log-mel energies of one frame: Hann window, zero-padded FFT,
    power spectrum, triangular mel filterbank, natural log with floor."""
    frame = np.asarray(frame, dtype=np.float64)
    flen = cfg.frame_len_samples(sample_rate)
    if frame.shape != (flen,):
        raise ShapeMismatch(f"expected frame of {flen} samples, got shape {frame.shape}")
    cfg.validate_for(sample_rate)
    return _logmel_rows(frame[None], mel_filterbank(sample_rate, cfg), np.hanning(flen), cfg)[0]


def featurize(w: Waveform, cfg: FrontendConfig, source_id: str = "") -> FeatureSequence:
    """Full frontend: framing + log-mel in blocks of frames, with frame timing."""
    frames = frame_signal(w, cfg)
    t = frames.shape[0]
    if t == 0:
        return FeatureSequence(np.empty((0, cfg.n_mels)), np.empty(0), source_id, w.duration_s)
    bank = mel_filterbank(w.sample_rate, cfg)
    window = np.hanning(frames.shape[1])
    feats = np.empty((t, cfg.n_mels), dtype=np.float64)
    for lo in range(0, t, FEATURE_BLOCK):
        _logmel_rows(frames[lo : lo + FEATURE_BLOCK], bank, window, cfg, feats[lo : lo + FEATURE_BLOCK])
    if cfg.normalize:
        mean = feats.mean(axis=0)
        std = feats.std(axis=0)
        feats = (feats - mean) / np.maximum(std, 1e-8)
    times = np.arange(t) * (cfg.hop_ms / 1000.0)
    return FeatureSequence(feats, times, source_id, w.duration_s)
