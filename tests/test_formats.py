"""Malformed input files: every reader raises FormatError, never anything
else, and the CLI turns that into exit code 2."""

import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import read_features
from mlnetvad.checkpoint import load_checkpoint, save_checkpoint
from mlnetvad.cli import main, write_features
from mlnetvad.corpus import (
    MASK_HEADER,
    ManifestEntry,
    read_manifest,
    read_mask,
    write_manifest,
    write_mask,
)
from mlnetvad.errors import FormatError
from mlnetvad.frontend import Waveform
from mlnetvad.model import ModelConfig, init_params
from mlnetvad.wavio import read_wav, write_wav

TINY = ModelConfig(
    receptive_fields=(0, 1),
    n_mels=2,
    gated_dim=2,
    attn_hidden=2,
    lstm_hidden=2,
    lstm_layers=1,
    fc_hidden=2,
)


def valid_wav(path) -> bytes:
    write_wav(path, Waveform(np.linspace(-0.5, 0.5, 64), 16000))
    return path.read_bytes()


def valid_mask(path) -> bytes:
    write_mask(path, np.repeat(np.array([0, 1, 0], dtype=np.int8), [30, 40, 30]))
    return path.read_bytes()


def valid_manifest(path) -> bytes:
    write_manifest(
        path,
        [
            ManifestEntry("a", "wav/a.wav", "mask/a.mask", "train", 5.0),
            ManifestEntry("b", "wav/b.wav", "mask/b.mask", "dev", -2.5),
        ],
    )
    return path.read_bytes()


def valid_features(path) -> bytes:
    write_features(path, np.arange(12, dtype=np.float32).reshape(3, 4))
    return path.read_bytes()


def valid_checkpoint(path) -> bytes:
    save_checkpoint(path, init_params(TINY, seed=0))
    return path.read_bytes()


def with_config(blob: bytes, old: bytes, new: bytes) -> bytes:
    """The checkpoint ``blob`` with ``old`` replaced by ``new`` in its config block."""
    (n,) = struct.unpack("<I", blob[8:12])
    cfg = blob[12 : 12 + n].replace(old, new)
    return blob[:8] + struct.pack("<I", len(cfg)) + cfg + blob[12 + n :]


def overstate_data_size(blob: bytes) -> bytes:
    """The WAV ``blob`` with its data chunk declaring 10^6 bytes, more than it holds."""
    return blob[:40] + struct.pack("<I", 10**6) + blob[44:]


def mask_text(*lines: str) -> bytes:
    return "\n".join([MASK_HEADER, *lines, ""]).encode()


# (reader, valid-file writer, fault builder from the valid bytes, message pattern)
FAULTS = {
    "mask-count-not-integer": (read_mask, valid_mask, lambda b: mask_text("1 abc"), "integer"),
    "mask-count-negative": (read_mask, valid_mask, lambda b: mask_text("0 5", "1 -3"), "integer"),
    "mask-three-fields": (read_mask, valid_mask, lambda b: mask_text("1 5 7"), "expected"),
    "mask-one-field": (read_mask, valid_mask, lambda b: mask_text("1"), "expected"),
    "mask-not-utf8": (read_mask, valid_mask, lambda b: b + b"\xff\xfe\n", "UTF-8"),
    "manifest-snr-not-numeric": (
        read_manifest,
        valid_manifest,
        lambda b: b.replace(b"5.000000", b"loud"),
        "snr_db",
    ),
    "manifest-snr-nan": (
        read_manifest,
        valid_manifest,
        lambda b: b.replace(b"5.000000", b"nan"),
        "a: snr_db must be finite, got 'nan'",
    ),
    "manifest-snr-infinite": (
        read_manifest,
        valid_manifest,
        lambda b: b.replace(b"-2.500000", b"-inf"),
        "b: snr_db must be finite, got '-inf'",
    ),
    "manifest-repeated-id": (
        read_manifest,
        valid_manifest,
        lambda b: b.replace(b"b\twav/b.wav", b"a\twav/b.wav"),
        "utterance id 'a' appears more than once",
    ),
    "manifest-not-utf8": (read_manifest, valid_manifest, lambda b: b"\xc3" + b, "UTF-8"),
    "manifest-empty-id": (
        read_manifest,
        valid_manifest,
        lambda b: b.replace(b"a\twav/a.wav", b"\twav/a.wav"),
        "line 3: id is empty",
    ),
    "manifest-empty-wav": (
        read_manifest,
        valid_manifest,
        lambda b: b.replace(b"wav/b.wav", b""),
        "b: wav path is empty",
    ),
    "manifest-empty-mask": (
        read_manifest,
        valid_manifest,
        lambda b: b.replace(b"mask/a.mask", b""),
        "a: mask path is empty",
    ),
    "manifest-blank-id": (
        read_manifest,
        valid_manifest,
        lambda b: b.replace(b"a\twav/a.wav", b" \twav/a.wav"),
        "line 3: id ' ' has leading or trailing whitespace",
    ),
    "manifest-padded-id": (
        read_manifest,
        valid_manifest,
        lambda b: b.replace(b"b\twav/b.wav", b"b \twav/b.wav"),
        "line 4: id 'b ' has leading or trailing whitespace",
    ),
    "manifest-blank-wav": (
        read_manifest,
        valid_manifest,
        lambda b: b.replace(b"wav/a.wav", b"  "),
        "a: wav path '  ' has leading or trailing whitespace",
    ),
    "manifest-padded-mask": (
        read_manifest,
        valid_manifest,
        lambda b: b.replace(b"mask/b.mask", b" mask/b.mask"),
        "b: mask path ' mask/b.mask' has leading or trailing whitespace",
    ),
    "manifest-unknown-split": (
        read_manifest,
        valid_manifest,
        lambda b: b.replace(b"\ttrain\t", b"\ttrian\t"),
        "a: split must be one of train/dev/eval, got 'trian'",
    ),
    "features-short-header": (read_features, valid_features, lambda b: b[:4], "truncated"),
    "checkpoint-config-not-utf8": (
        load_checkpoint,
        valid_checkpoint,
        lambda b: with_config(b, b"variant=", b"variant=\xff"),
        "UTF-8",
    ),
    "checkpoint-field-not-integer": (
        load_checkpoint,
        valid_checkpoint,
        lambda b: with_config(b, b"n_mels=2", b"n_mels=two"),
        "invalid",
    ),
    "checkpoint-config-invalid": (
        load_checkpoint,
        valid_checkpoint,
        lambda b: with_config(b, b"lstm_hidden=2", b"lstm_hidden=0"),
        "invalid",
    ),
    "checkpoint-non-finite-value": (
        load_checkpoint,
        valid_checkpoint,
        lambda b: b[:-4] + struct.pack("<f", float("nan")),
        "non-finite",
    ),
    "wav-odd-data-chunk": (read_wav, valid_wav, lambda b: b[:-1], "inside a sample"),
    "wav-data-past-end": (read_wav, valid_wav, overstate_data_size, "truncated"),
    "wav-chunk-past-end": (
        read_wav,
        valid_wav,
        lambda b: b[:16] + struct.pack("<I", 10**6) + b[20:],
        "past the end",
    ),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_raises_format_error(tmp_path, fault):
    reader, write_valid, corrupt, pattern = FAULTS[fault]
    path = tmp_path / "input"
    path.write_bytes(corrupt(write_valid(path)))
    with pytest.raises(FormatError, match=pattern):
        reader(path)


@st.composite
def mutated(draw, blob: bytes) -> bytes:
    """``blob`` with up to four bytes overwritten, then maybe truncated."""
    data = bytearray(blob)
    edits = st.tuples(st.integers(0, len(data) - 1), st.integers(0, 255))
    for pos, byte in draw(st.lists(edits, min_size=1, max_size=4)):
        data[pos] = byte
    if draw(st.booleans()):
        data = data[: draw(st.integers(0, len(data)))]
    return bytes(data)


READERS = {
    "wav": (read_wav, valid_wav),
    "mask": (read_mask, valid_mask),
    "manifest": (read_manifest, valid_manifest),
    "features": (read_features, valid_features),
    "checkpoint": (load_checkpoint, valid_checkpoint),
}


@pytest.mark.parametrize("kind", sorted(READERS))
def test_mutated_file_is_read_or_rejected(tmp_path_factory, kind):
    reader, write_valid = READERS[kind]
    path = tmp_path_factory.mktemp(kind) / "input"
    blob = write_valid(path)

    @given(mutated(blob))
    def check(data):
        path.write_bytes(data)
        try:
            reader(path)
        except FormatError:
            pass

    check()


def eval_with_mask(tmp_path, mask_runs: str, n_samples: int = 1600) -> int:
    """``mlnetvad eval`` on one recording of ``n_samples`` zeros whose mask holds ``mask_runs``."""
    (tmp_path / "wav").mkdir()
    (tmp_path / "mask").mkdir()
    write_wav(tmp_path / "wav/a.wav", Waveform(np.zeros(n_samples), 16000))
    (tmp_path / "mask/a.mask").write_text(f"{MASK_HEADER}\n{mask_runs}\n", encoding="utf-8")
    manifest = tmp_path / "manifest.tsv"
    write_manifest(manifest, [ManifestEntry("a", "wav/a.wav", "mask/a.mask", "dev", 0.0)])
    ckpt = tmp_path / "m.mlnt"
    save_checkpoint(ckpt, init_params(ModelConfig(receptive_fields=(1,), lstm_layers=1), seed=0))
    return main(["eval", "--manifest", str(manifest), "--checkpoint", str(ckpt)])


def write_corpus(root) -> Path:
    """``valid_manifest``'s corpus under ``root``: two recordings of 1600
    zeros with their masks, ``a`` tagged train and ``b`` dev."""
    (root / "wav").mkdir()
    (root / "mask").mkdir()
    for utt in "ab":
        write_wav(root / f"wav/{utt}.wav", Waveform(np.zeros(1600), 16000))
        write_mask(root / f"mask/{utt}.mask", np.zeros(1600, dtype=np.int8))
    manifest = root / "manifest.tsv"
    valid_manifest(manifest)
    return manifest


def edit(name: str, change):
    """A fault that replaces the bytes of the corpus file ``name`` by ``change(bytes)``."""

    def apply(root):
        path = root / name
        path.write_bytes(change(path.read_bytes()))

    return apply


def repoint(old: str, new: str):
    """A fault that makes the manifest name ``new`` where it named ``old``."""
    return edit("manifest.tsv", lambda b: b.replace(old.encode(), new.encode()))


def recording_b(samples: int, mask_samples: int, rate: int = 16000):
    """A fault that rewrites ``b`` as ``samples`` zeros at ``rate`` Hz with a mask of ``mask_samples``."""

    def apply(root):
        write_wav(root / "wav/b.wav", Waveform(np.zeros(samples), rate))
        write_mask(root / "mask/b.mask", np.zeros(mask_samples, dtype=np.int8))

    return apply


# faults in the files of ``b``, the dev utterance that every command loads:
# (the fault, the file the error must name, a part of its message)
LOAD_FAULTS = {
    "wav-missing": (repoint("wav/b.wav", "wav/missing.wav"), "wav/missing.wav", "No such file"),
    "mask-missing": (repoint("mask/b.mask", "mask/missing.mask"), "mask/missing.mask", "No such file"),
    "wav-is-a-directory": (repoint("wav/b.wav", "wav"), "wav", "Is a directory"),
    "mask-is-a-wav": (repoint("mask/b.mask", "wav/b.wav"), "wav/b.wav", "not UTF-8 text"),
    "wav-truncated": (edit("wav/b.wav", overstate_data_size), "wav/b.wav", "truncated"),
    "mask-malformed": (edit("mask/b.mask", lambda b: mask_text("1 abc")), "mask/b.mask", "integer"),
    "mask-length-mismatch": (recording_b(1600, 1599), "mask/b.mask", "has 1599 samples"),
    "wav-shorter-than-one-frame": (recording_b(100, 100), "wav/b.wav", "shorter than one frame"),
    "wav-empty": (recording_b(0, 0), "wav/b.wav", "shorter than one frame"),
    "mask-header-only": (edit("mask/b.mask", lambda b: mask_text()), "mask/b.mask", "has 0 samples"),
    "wav-48khz": (recording_b(4800, 4800, 48000), "wav/b.wav", "fft_size 512 smaller than frame length 1200"),
    "wav-other-rate": (recording_b(800, 800, 8000), "wav/b.wav", "at 8000 Hz, but the first utterance, 'a', is at 16000 Hz"),
}


@pytest.mark.parametrize("command", ["eval", "train", "ablate"])
@pytest.mark.parametrize(
    "fault",
    [
        "manifest-snr-nan",
        "manifest-repeated-id",
        "manifest-empty-id",
        "manifest-blank-id",
        "manifest-blank-wav",
        "manifest-unknown-split",
        *sorted(LOAD_FAULTS),
    ],
)
def test_malformed_manifest_exits_2(tmp_path, capsys, command, fault):
    # a fault in a manifest row or in a file it lists: one error line that
    # names the manifest reaches stderr, and for a file the utterance and
    # the file too
    manifest = write_corpus(tmp_path)
    if fault in LOAD_FAULTS:
        apply, name, pattern = LOAD_FAULTS[fault]
        parts = [f"{manifest}: b: ", str(tmp_path / name), pattern]
    else:
        apply, parts = edit("manifest.tsv", FAULTS[fault][2]), [FAULTS[fault][3]]
    apply(tmp_path)
    ckpt = tmp_path / "m.mlnt"
    save_checkpoint(ckpt, init_params(ModelConfig(receptive_fields=(1,), lstm_layers=1), seed=0))
    extra = {"eval": ["--checkpoint", str(ckpt)], "train": ["--out-dir", str(tmp_path / "run")], "ablate": []}
    assert main([command, "--manifest", str(manifest), *extra[command]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: ") and err.count("\n") == 1
    assert all(part in err for part in parts), (parts, err)


def test_eval_with_malformed_mask_exits_2(tmp_path, capsys):
    assert eval_with_mask(tmp_path, "1 abc") == 2
    assert "a.mask" in capsys.readouterr().err


def test_eval_with_mask_and_wav_of_different_lengths_exits_2(tmp_path, capsys):
    assert eval_with_mask(tmp_path, "0 1599") == 2
    err = capsys.readouterr().err
    assert f"a: mask {tmp_path / 'mask/a.mask'} has 1599 samples, wav {tmp_path / 'wav/a.wav'} has 1600" in err


def test_eval_with_wav_shorter_than_one_frame_exits_2(tmp_path, capsys):
    assert eval_with_mask(tmp_path, "0 100", n_samples=100) == 2
    assert f"a: {tmp_path / 'wav/a.wav'} is shorter than one frame" in capsys.readouterr().err


def test_predict_on_truncated_wav_exits_2(tmp_path, capsys):
    wav = tmp_path / "cut.wav"
    write_wav(wav, Waveform(np.zeros(16000), 16000))
    wav.write_bytes(overstate_data_size(wav.read_bytes()))
    ckpt = tmp_path / "m.mlnt"
    save_checkpoint(ckpt, init_params(ModelConfig(), seed=0))
    code = main(["predict", "--wav", str(wav), "--checkpoint", str(ckpt)])
    assert code == 2
    assert "truncated" in capsys.readouterr().err
