"""16-bit PCM mono WAV reading and writing via the stdlib RIFF parser."""

from __future__ import annotations

import wave

import numpy as np

from .errors import FormatError
from .frontend import Waveform

_SCALE = 32767.0


def read_wav(path) -> Waveform:
    """Load a mono 16-bit PCM WAV; anything else is rejected with a reason."""
    try:
        with wave.open(str(path), "rb") as fh:
            channels = fh.getnchannels()
            width = fh.getsampwidth()
            rate = fh.getframerate()
            raw = fh.readframes(fh.getnframes())
    except (wave.Error, EOFError) as exc:
        raise FormatError(f"{path}: not a readable PCM WAV file ({exc})") from exc
    except RuntimeError as exc:  # wave's bare error for a chunk that runs past the end
        raise FormatError(f"{path}: a chunk runs past the end of the file") from exc
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if channels != 1:
        raise FormatError(f"{path}: expected mono audio, found {channels} channels")
    if width != 2:
        raise FormatError(f"{path}: expected 16-bit PCM, found {8 * width}-bit samples")
    if rate < 1:
        raise FormatError(f"{path}: bad sample rate {rate}")
    if len(raw) % 2:
        raise FormatError(f"{path}: data chunk ends inside a sample ({len(raw)} bytes)")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / _SCALE
    return Waveform(samples, sample_rate=rate)


def write_wav(path, w: Waveform) -> None:
    """Write samples as mono 16-bit PCM, clipping to [-1, 1]."""
    pcm = np.clip(w.samples, -1.0, 1.0)
    ints = np.round(pcm * _SCALE).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(w.sample_rate)
        fh.writeframes(ints.tobytes())
