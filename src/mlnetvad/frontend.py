"""Log-mel feature frontend: 25 ms frames, 10 ms hop, 40 mel bands.

Pure functions over numpy arrays; identical input yields bit-identical
output. The frontend is offline only: inputs must already be at the
configured sample rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ShapeMismatch, require_finite

DEFAULT_SAMPLE_RATE = 16000
# frames per pre-emphasis, rFFT and mel GEMM in featurize; one FFT of the whole
# utterance peaks higher
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
        require_finite(self, "frame_len_ms", "hop_ms", "log_floor", "mel_fmin")
        if self.mel_fmax is not None:
            require_finite(self, "mel_fmax")
        if self.frame_len_ms <= 0 or self.hop_ms <= 0:
            raise ConfigError("frame_len_ms and hop_ms must be positive")
        if self.n_mels < 1:
            raise ConfigError(f"n_mels must be >= 1, got {self.n_mels}")
        if not 0.0 <= self.preemphasis < 1.0:
            raise ConfigError(f"preemphasis must be in [0, 1), got {self.preemphasis}")
        if self.log_floor <= 0:
            raise ConfigError("log_floor must be positive")
        if self.mel_fmin < 0:
            raise ConfigError(f"mel_fmin must be >= 0, got {self.mel_fmin}")
        if self.mel_fmax is not None and self.mel_fmax <= self.mel_fmin:
            raise ConfigError(f"mel_fmax must be above mel_fmin, got {self.mel_fmax} <= {self.mel_fmin}")

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


def hz_to_mel(f) -> np.ndarray:
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m) -> np.ndarray:
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(sample_rate: int, cfg: FrontendConfig) -> np.ndarray:
    """Triangular mel filterbank, (n_mels, fft_size // 2 + 1).

    Filters span [mel_fmin, mel_fmax] on the 2595 * log10(1 + f/700)
    scale, with continuous-frequency triangle weights so every FFT bin
    inside the band lands on at most two adjacent filters. Edges that
    leave a filter with no FFT bin (above Nyquist, or bands narrower than
    the bin spacing) raise ``ConfigError``: that band would be constant.
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
    empty = int((~bank.any(axis=1)).sum())
    if empty:
        raise ConfigError(
            f"{empty} of {cfg.n_mels} mel bands between {cfg.mel_fmin} and {fmax} Hz cover no FFT bin "
            f"at {sample_rate} Hz with fft_size {cfg.fft_size}"
        )
    return bank


@lru_cache(maxsize=16)
def _analysis_tables(sample_rate: int, cfg: FrontendConfig) -> tuple[np.ndarray, np.ndarray]:
    """The mel filterbank and the Hann window for ``(sample_rate, cfg)``,
    built once and shared read-only by every later call."""
    bank = mel_filterbank(sample_rate, cfg)
    window = np.hanning(cfg.frame_len_samples(sample_rate))
    bank.flags.writeable = window.flags.writeable = False
    return bank, window


def _logmel_rows(frames: np.ndarray, bank: np.ndarray, window: np.ndarray, cfg: FrontendConfig,
                 out: np.ndarray | None = None) -> np.ndarray:
    """(B, n_mels) log-mel rows of a (B, frame_len) block: one rFFT, one mel GEMM."""
    spectrum = np.fft.rfft(frames * window, n=cfg.fft_size)
    energies = (spectrum.real**2 + spectrum.imag**2) @ bank.T
    return np.log(np.maximum(energies, cfg.log_floor, out=energies), out=out)


def featurize(w: Waveform, cfg: FrontendConfig, source_id: str = "") -> FeatureSequence:
    """Full frontend: pre-emphasis, hop-spaced frames, Hann window,
    zero-padded FFT, power spectrum, triangular mel filterbank and natural
    log with floor, then optional per-utterance normalization; T = 0 when
    the signal is shorter than one frame.

    Works in blocks of ``FEATURE_BLOCK`` frames. Each block is
    pre-emphasized from its own slice of samples, with the sample before
    the slice as its halo, so no whole-signal copy is made, and every
    sample gets the bits of pre-emphasizing the whole signal once."""
    cfg.validate_for(w.sample_rate)
    flen, hop = cfg.frame_len_samples(w.sample_rate), cfg.hop_samples(w.sample_rate)
    t = num_frames(len(w), flen, hop)
    if t == 0:
        return FeatureSequence(np.empty((0, cfg.n_mels)), np.empty(0), source_id, w.duration_s)
    bank, window = _analysis_tables(w.sample_rate, cfg)
    feats = np.empty((t, cfg.n_mels), dtype=np.float64)
    for lo in range(0, t, FEATURE_BLOCK):
        hi = min(lo + FEATURE_BLOCK, t)
        first = lo * hop
        halo = 1 if first else 0
        y = preemphasize(w.samples[first - halo : (hi - 1) * hop + flen], cfg.preemphasis)[halo:]
        _logmel_rows(sliding_window_view(y, flen)[::hop], bank, window, cfg, feats[lo:hi])
    if cfg.normalize:
        mean = feats.mean(axis=0)
        std = feats.std(axis=0)
        feats = (feats - mean) / np.maximum(std, 1e-8)
    times = np.arange(t) * (cfg.hop_ms / 1000.0)
    return FeatureSequence(feats, times, source_id, w.duration_s)
