"""Malformed input files: every reader raises FormatError, never anything
else, and the CLI turns that into exit code 2."""

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mlnetvad.checkpoint import load_checkpoint, save_checkpoint
from mlnetvad.cli import main, read_features, write_features
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
    "manifest-not-utf8": (read_manifest, valid_manifest, lambda b: b"\xc3" + b, "UTF-8"),
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


def test_eval_with_malformed_mask_exits_2(tmp_path, capsys):
    (tmp_path / "wav").mkdir()
    (tmp_path / "mask").mkdir()
    write_wav(tmp_path / "wav/a.wav", Waveform(np.zeros(1600), 16000))
    (tmp_path / "mask/a.mask").write_text(f"{MASK_HEADER}\n1 abc\n", encoding="utf-8")
    manifest = tmp_path / "manifest.tsv"
    write_manifest(manifest, [ManifestEntry("a", "wav/a.wav", "mask/a.mask", "dev", 0.0)])
    ckpt = tmp_path / "m.mlnt"
    save_checkpoint(ckpt, init_params(ModelConfig(receptive_fields=(1,), lstm_layers=1), seed=0))
    code = main(["eval", "--manifest", str(manifest), "--checkpoint", str(ckpt)])
    assert code == 2
    assert "a.mask" in capsys.readouterr().err
