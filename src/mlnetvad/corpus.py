"""Labeled corpus construction: silence pads, SNR mixing, synthetic data.

Real corpora are supported through the WAV + per-sample-mask path; the
synthetic generator stands in for them at desk scale. Everything is
deterministic given a seed, with per-utterance seeds spawned from a
single seed sequence so utterances are independent of each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, CorpusError, FormatError
from .frontend import FeatureSequence, FrontendConfig, Waveform, featurize, num_frames
from .wavio import read_wav, write_wav

MASK_HEADER = "#mask-rle\tv1"
MANIFEST_HEADER = "#manifest\tv1"


@dataclass(frozen=True)
class MixSpec:
    """Noise-mixing parameters: SNR range in dB and silence pad length."""

    snr_db_min: float = -5.0
    snr_db_max: float = 20.0
    silence_pad_s: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.snr_db_min > self.snr_db_max:
            raise ConfigError(
                f"snr_db_min {self.snr_db_min} exceeds snr_db_max {self.snr_db_max}"
            )
        if self.silence_pad_s < 0:
            raise ConfigError("silence_pad_s must be >= 0")


@dataclass
class LabeledUtterance:
    """Feature sequence plus per-frame binary speech labels."""

    features: FeatureSequence
    labels: np.ndarray
    source_id: str

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int8)
        if self.labels.shape != (len(self.features),):
            raise CorpusError(
                f"{self.source_id}: {self.labels.shape[0]} labels for "
                f"{len(self.features)} frames"
            )
        if self.labels.size and not np.isin(self.labels, (0, 1)).all():
            raise CorpusError(f"{self.source_id}: labels must be 0/1")


@dataclass
class MixResult:
    """Mixed waveform plus the exact scaled components that produced it."""

    mixed: Waveform
    clean_scaled: np.ndarray
    noise_scaled: np.ndarray
    gain: float
    rescale: float


@dataclass
class RawUtterance:
    """A generated recording before feature extraction."""

    waveform: Waveform
    speech_mask: np.ndarray
    snr_db: float
    source_id: str
    noise_kind: str


def pad_silence(
    w: Waveform, spec: MixSpec, speech_mask: np.ndarray | None = None
) -> tuple[Waveform, np.ndarray]:
    """Prepend and append silence pads; returns the padded waveform and a
    per-sample speech mask (pads 0, middle inherited or all-1)."""
    if len(w) == 0:
        raise CorpusError("cannot pad an empty waveform")
    if speech_mask is None:
        speech_mask = np.ones(len(w), dtype=np.int8)
    else:
        speech_mask = np.asarray(speech_mask, dtype=np.int8)
        if speech_mask.shape != (len(w),):
            raise CorpusError("speech mask length must match waveform")
    n_pad = int(round(spec.silence_pad_s * w.sample_rate))
    pad = np.zeros(n_pad)
    samples = np.concatenate([pad, w.samples, pad])
    mask = np.concatenate(
        [np.zeros(n_pad, dtype=np.int8), speech_mask, np.zeros(n_pad, dtype=np.int8)]
    )
    return Waveform(samples, w.sample_rate), mask


def mix_noise(
    clean: Waveform,
    noise: Waveform,
    snr_db: float,
    speech_mask: np.ndarray | None = None,
) -> MixResult:
    """Scale noise so the clean/noise power ratio over the speech-active
    region equals ``snr_db``, then sum.

    Noise shorter than the clean signal is tiled. If the sum would clip,
    both components are rescaled together so the peak lands at 0.99,
    which preserves the SNR exactly.
    """
    if noise.sample_rate != clean.sample_rate:
        raise CorpusError(
            f"sample-rate mismatch: clean {clean.sample_rate}, noise {noise.sample_rate}"
        )
    n = len(clean)
    if n == 0:
        raise CorpusError("cannot mix an empty clean signal")
    noise_samples = noise.samples
    if noise_samples.size < n:
        reps = -(-n // noise_samples.size)
        noise_samples = np.tile(noise_samples, reps)
    noise_samples = noise_samples[:n]
    if speech_mask is None:
        active = slice(None)
    else:
        speech_mask = np.asarray(speech_mask)
        if speech_mask.shape != (n,):
            raise CorpusError("speech mask length must match clean waveform")
        active = speech_mask > 0
    p_clean = float(np.mean(clean.samples[active] ** 2))
    p_noise = float(np.mean(noise_samples[active] ** 2))
    if p_clean <= 0.0:
        raise CorpusError("clean signal has zero power over the speech region")
    if p_noise <= 0.0:
        raise CorpusError("noise signal has zero power over the speech region")
    gain = math.sqrt(p_clean / (p_noise * 10.0 ** (snr_db / 10.0)))
    clean_part = clean.samples.copy()
    noise_part = gain * noise_samples
    mixed = clean_part + noise_part
    rescale = 1.0
    peak = float(np.max(np.abs(mixed))) if mixed.size else 0.0
    if peak > 0.99:
        rescale = 0.99 / peak
        clean_part *= rescale
        noise_part *= rescale
        mixed = clean_part + noise_part
    return MixResult(
        Waveform(mixed, clean.sample_rate), clean_part, noise_part, gain, rescale
    )


def label_frames(
    speech_mask: np.ndarray, cfg: FrontendConfig, sample_rate: int = 16000
) -> np.ndarray:
    """Per-frame labels from a per-sample mask: 1 iff strictly more than
    half of the frame's samples are speech."""
    cfg.validate_for(sample_rate)
    mask = np.asarray(speech_mask)
    flen = cfg.frame_len_samples(sample_rate)
    hop = cfg.hop_samples(sample_rate)
    cs = np.concatenate(([0], np.cumsum(mask, dtype=np.int64)))
    start = np.arange(num_frames(mask.size, flen, hop)) * hop
    counts = cs[start + flen] - cs[start]
    return (2 * counts > flen).astype(np.int8)


# -- synthetic signal surrogates ----------------------------------------


def speech_surrogate(rng: np.random.Generator, sample_rate: int, duration_s: float) -> np.ndarray:
    """Harmonic stack with slow amplitude modulation, peak 0.5."""
    n = int(round(duration_s * sample_rate))
    t = np.arange(n) / sample_rate
    f0 = rng.uniform(80.0, 300.0)
    n_harmonics = int(rng.integers(3, 6))
    sig = np.zeros(n)
    for k in range(1, n_harmonics + 1):
        amp = rng.uniform(0.5, 1.0) / k
        phase = rng.uniform(0.0, 2.0 * np.pi)
        sig += amp * np.sin(2.0 * np.pi * k * f0 * t + phase)
    am_rate = rng.uniform(2.0, 8.0)
    am_phase = rng.uniform(0.0, 2.0 * np.pi)
    sig *= 0.55 + 0.45 * np.sin(2.0 * np.pi * am_rate * t + am_phase)
    peak = np.max(np.abs(sig))
    return 0.5 * sig / peak


NOISE_KINDS = ("white", "pink", "babble")


def _fast_fft_len(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n.

    numpy's FFT runs such lengths as radix-2, 3 and 5 passes; a length with
    a large prime factor goes to Bluestein's algorithm at up to ten times
    the cost.
    """
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power of two that lifts p35 to n or past it
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def noise_surrogate(rng: np.random.Generator, sample_rate: int, n: int, kind: str) -> np.ndarray:
    """Broadband noise shaped per ``kind``, RMS-normalized to 0.1.

    Pink and babble noise are shaped in the frequency domain at the
    5-smooth length m = _fast_fft_len(n): the n normals drawn are
    zero-padded to m and the first n shaped samples are kept, so the
    generator draws n normals (and, for babble, two uniforms) whatever m is.
    Raises CorpusError for n < 1, and for shaped noise left with zero
    power (babble when no FFT bin of length m lies in its band).
    """
    if n < 1:
        raise CorpusError(f"cannot make {kind} noise of n={n} samples at {sample_rate} Hz")
    base = rng.standard_normal(n)
    if kind == "white":
        out = base
    elif kind in ("pink", "babble"):
        m = _fast_fft_len(n)
        freqs = np.fft.rfftfreq(m, d=1.0 / sample_rate)
        if kind == "pink":
            # bin 0 is DC; the first nonzero bin, if m has one, is the reference
            scale = np.ones_like(freqs)
            scale[1:] = 1.0 / np.sqrt(freqs[1:] / freqs[1:2])
        else:
            scale = ((freqs >= 150.0) & (freqs <= 3500.0)).astype(float)
        out = np.fft.irfft(np.fft.rfft(base, n=m) * scale, n=m)[:n]
        if kind == "babble":
            t = np.arange(n) / sample_rate
            env = 1.0 + 0.5 * np.sin(
                2.0 * np.pi * rng.uniform(1.0, 4.0) * t + rng.uniform(0, 2 * np.pi)
            )
            out = out * env
    else:
        raise ConfigError(f"unknown noise kind {kind!r}")
    rms = float(np.sqrt(np.mean(out**2)))
    if rms == 0.0:
        raise CorpusError(f"{kind} noise of n={n} samples at {sample_rate} Hz has zero power")
    return 0.1 * out / rms


def synth_utterance(
    rng: np.random.Generator, spec: MixSpec, sample_rate: int, source_id: str
) -> RawUtterance:
    """One padded, noise-mixed utterance with its sample mask and SNR."""
    duration = rng.uniform(0.5, 3.0)
    speech = Waveform(speech_surrogate(rng, sample_rate, duration), sample_rate)
    padded, mask = pad_silence(speech, spec)
    kind = NOISE_KINDS[int(rng.integers(0, len(NOISE_KINDS)))]
    noise = Waveform(noise_surrogate(rng, sample_rate, len(padded), kind), sample_rate)
    snr_db = float(rng.uniform(spec.snr_db_min, spec.snr_db_max))
    mixed = mix_noise(padded, noise, snr_db, mask)
    return RawUtterance(mixed.mixed, mask, snr_db, source_id, kind)


def synth_raw_corpus(
    n_utts: int, spec: MixSpec, seed: int | None = None, sample_rate: int = 16000
) -> list[RawUtterance]:
    """Generate raw recordings with per-utterance spawned seeds."""
    if n_utts < 1:
        raise CorpusError(f"n_utts must be >= 1, got {n_utts}")
    root = np.random.SeedSequence(spec.seed if seed is None else seed)
    raws = []
    for i, child in enumerate(root.spawn(n_utts)):
        rng = np.random.default_rng(child)
        raws.append(synth_utterance(rng, spec, sample_rate, f"synth-{i:04d}"))
    return raws


def utterance_from_raw(raw: RawUtterance, cfg: FrontendConfig) -> LabeledUtterance:
    feats = featurize(raw.waveform, cfg, source_id=raw.source_id)
    labels = label_frames(raw.speech_mask, cfg, raw.waveform.sample_rate)
    return LabeledUtterance(feats, labels, raw.source_id)


def synth_corpus(
    n_utts: int,
    spec: MixSpec,
    seed: int | None = None,
    cfg: FrontendConfig | None = None,
    sample_rate: int = 16000,
) -> list[LabeledUtterance]:
    """Featurized, frame-labeled synthetic corpus; deterministic per seed."""
    cfg = cfg or FrontendConfig()
    return [
        utterance_from_raw(raw, cfg)
        for raw in synth_raw_corpus(n_utts, spec, seed, sample_rate)
    ]


def split_train_dev(items: list, dev_fraction: float = 0.05, seed: int = 0) -> tuple[list, list]:
    """Deterministic shuffle split; dev gets at least one item."""
    if not items:
        raise CorpusError("cannot split an empty corpus")
    if not 0.0 < dev_fraction < 1.0:
        raise ConfigError(f"dev_fraction must be in (0, 1), got {dev_fraction}")
    n_dev = max(1, int(round(len(items) * dev_fraction)))
    perm = np.random.default_rng(seed).permutation(len(items))
    dev_idx = set(perm[:n_dev].tolist())
    train = [items[i] for i in range(len(items)) if i not in dev_idx]
    dev = [items[i] for i in range(len(items)) if i in dev_idx]
    return train, dev


# -- on-disk corpus: masks and manifest ----------------------------------


def write_mask(path, mask: np.ndarray) -> None:
    """Run-length encode a 0/1 per-sample mask as '<value> <count>' lines."""
    mask = np.asarray(mask, dtype=np.int8)
    lines = [MASK_HEADER]
    if mask.size:
        boundaries = np.flatnonzero(np.diff(mask)) + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [mask.size]])
        for s, e in zip(starts, ends):
            lines.append(f"{int(mask[s])} {int(e - s)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_text_lines(path) -> list[str]:
    try:
        return Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from None


# the most samples a 16-bit WAV can hold: its data chunk size is a u32
_MAX_MASK_SAMPLES = 2**31


def read_mask(path) -> np.ndarray:
    text = _read_text_lines(path)
    if not text or text[0] != MASK_HEADER:
        raise FormatError(f"{path}: missing mask header {MASK_HEADER!r}")
    values, counts = [], []
    for line in text[1:]:
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 2:
            raise FormatError(f"{path}: expected '<value> <count>', got {line!r}")
        value, count = fields
        if value not in ("0", "1"):
            raise FormatError(f"{path}: mask values must be 0/1, got {value!r}")
        if not (count.isascii() and count.isdigit()):
            raise FormatError(f"{path}: run length must be a non-negative integer, got {count!r}")
        values.append(int(value))
        counts.append(int(count))
    if sum(counts) > _MAX_MASK_SAMPLES:
        raise FormatError(f"{path}: mask of {sum(counts)} samples is longer than any WAV")
    return np.repeat(np.array(values, dtype=np.int8), counts)


@dataclass
class ManifestEntry:
    utt_id: str
    wav_path: str
    mask_path: str
    split: str
    snr_db: float


def write_manifest(path, entries: list[ManifestEntry]) -> None:
    lines = [MANIFEST_HEADER, "id\twav\tmask\tsplit\tsnr_db"]
    for e in entries:
        lines.append(f"{e.utt_id}\t{e.wav_path}\t{e.mask_path}\t{e.split}\t{e.snr_db:.6f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path) -> list[ManifestEntry]:
    lines = _read_text_lines(path)
    if not lines or lines[0] != MANIFEST_HEADER:
        raise FormatError(f"{path}: missing manifest header {MANIFEST_HEADER!r}")
    if len(lines) < 2 or lines[1] != "id\twav\tmask\tsplit\tsnr_db":
        raise FormatError(f"{path}: malformed manifest column header")
    entries = []
    for ln in lines[2:]:
        if not ln.strip():
            continue
        parts = ln.split("\t")
        if len(parts) != 5:
            raise FormatError(f"{path}: expected 5 tab-separated fields, got {len(parts)}")
        try:
            snr_db = float(parts[4])
        except ValueError:
            raise FormatError(f"{path}: snr_db must be a number, got {parts[4]!r}") from None
        entries.append(ManifestEntry(parts[0], parts[1], parts[2], parts[3], snr_db))
    return entries


def write_corpus_dir(
    out_dir,
    raws: list[RawUtterance],
    dev_fraction: float = 0.05,
    split_seed: int = 0,
    eval_raws: list[RawUtterance] | None = None,
) -> Path:
    """Write WAVs, RLE masks and the manifest; returns the manifest path."""
    out = Path(out_dir)
    (out / "wav").mkdir(parents=True, exist_ok=True)
    (out / "mask").mkdir(parents=True, exist_ok=True)
    train, dev = split_train_dev(raws, dev_fraction, split_seed)
    dev_ids = {r.source_id for r in dev}
    eval_ids = {id(r) for r in (eval_raws or [])}
    entries = []
    for raw in raws + list(eval_raws or []):
        wav_rel = f"wav/{raw.source_id}.wav"
        mask_rel = f"mask/{raw.source_id}.mask"
        write_wav(out / wav_rel, raw.waveform)
        write_mask(out / mask_rel, raw.speech_mask)
        if id(raw) in eval_ids:
            split = "eval"
        else:
            split = "dev" if raw.source_id in dev_ids else "train"
        entries.append(ManifestEntry(raw.source_id, wav_rel, mask_rel, split, raw.snr_db))
    manifest = out / "manifest.tsv"
    write_manifest(manifest, entries)
    return manifest


def load_manifest_utterances(
    manifest_path, cfg: FrontendConfig | None = None, split: str | None = None
) -> list[LabeledUtterance]:
    """Load, featurize and frame-label the recordings listed in a manifest;
    a recording shorter than one frame is a FormatError."""
    cfg = cfg or FrontendConfig()
    base = Path(manifest_path).parent
    utts = []
    for entry in read_manifest(manifest_path):
        if split is not None and entry.split != split:
            continue
        w = read_wav(base / entry.wav_path)
        mask = read_mask(base / entry.mask_path)
        if mask.size != len(w):
            raise FormatError(
                f"{entry.utt_id}: mask has {mask.size} samples, wav has {len(w)}"
            )
        feats = featurize(w, cfg, source_id=entry.utt_id)
        if len(feats) == 0:
            raise FormatError(f"{entry.utt_id}: {base / entry.wav_path} is shorter than one frame")
        labels = label_frames(mask, cfg, w.sample_rate)
        utts.append(LabeledUtterance(feats, labels, entry.utt_id))
    return utts
