"""Checkpoint format tests: round-trips, the config block, corruption."""

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mlnetvad.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from mlnetvad.errors import FormatError
from mlnetvad.model import VARIANTS, ModelConfig, init_params, mlnet_forward

CFG = ModelConfig(
    receptive_fields=(1, 2),
    n_mels=6,
    gated_dim=8,
    attn_hidden=8,
    lstm_hidden=8,
    fc_hidden=8,
)


class TestRoundTrip:
    def test_values_bit_exact(self, tmp_path):
        params = init_params(CFG, seed=3)
        path = tmp_path / "m.mlnt"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert loaded.config == CFG
        for (na, ta), (nb, tb) in zip(params.named().items(), loaded.named().items()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_predictions_bit_exact(self, tmp_path):
        params = init_params(CFG, seed=4)
        x = np.random.default_rng(0).normal(size=(11, 6)).astype(np.float32)
        before = mlnet_forward(x, params).probs.data.copy()
        path = tmp_path / "m.mlnt"
        save_checkpoint(path, params)
        after = mlnet_forward(x, load_checkpoint(path)).probs.data
        np.testing.assert_array_equal(before, after)

    @pytest.mark.parametrize("variant", ["bilstm_base", "gated_unit", "non_attention"])
    def test_all_variants_round_trip(self, tmp_path, variant):
        cfg = ModelConfig(
            receptive_fields=(1, 2),
            n_mels=6,
            gated_dim=8,
            attn_hidden=8,
            lstm_hidden=8,
            fc_hidden=8,
            variant=variant,
        )
        params = init_params(cfg, seed=5)
        path = tmp_path / "v.mlnt"
        save_checkpoint(path, params)
        assert load_checkpoint(path).config.variant == variant


class TestValidation:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.mlnt"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.mlnt"
        path.write_bytes(MAGIC + struct.pack("<I", VERSION + 9) + b"\x00" * 8)
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "m.mlnt"
        save_checkpoint(path, init_params(CFG, seed=1))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_missing_parameter_rejected(self, tmp_path):
        path = tmp_path / "m.mlnt"
        params = init_params(CFG, seed=1)
        save_checkpoint(path, params)
        blob = path.read_bytes()
        # chop the final parameter record (head.b_out: name + rank + dim + value)
        name = b"head.b_out"
        record = struct.pack("<I", len(name)) + name + struct.pack("<II", 1, 1) + b"\x00" * 4
        assert blob.endswith(record[: len(record) - 4] + params.named()["head.b_out"].data.astype("<f4").tobytes())
        path.write_bytes(blob[: len(blob) - len(record)])
        with pytest.raises(FormatError, match="missing parameter"):
            load_checkpoint(path)

    def test_repeated_parameter_rejected(self, tmp_path):
        path = tmp_path / "m.mlnt"
        save_checkpoint(path, init_params(CFG, seed=1))
        # a second head.b_out record, which a reader keeping the last copy would load as 7.0
        name = b"head.b_out"
        record = struct.pack("<I", len(name)) + name + struct.pack("<II", 1, 1) + struct.pack("<f", 7.0)
        path.write_bytes(path.read_bytes() + record)
        with pytest.raises(FormatError, match="repeats parameter 'head.b_out'"):
            load_checkpoint(path)


def hand_written_config_block(cfg: ModelConfig) -> bytes:
    """The config block as the format defines it, field by field."""
    lines = [
        "receptive_fields=" + ",".join(str(r) for r in cfg.receptive_fields),
        f"n_mels={cfg.n_mels}",
        f"gated_dim={cfg.gated_dim}",
        f"attn_hidden={cfg.attn_hidden}",
        f"lstm_hidden={cfg.lstm_hidden}",
        f"lstm_layers={cfg.lstm_layers}",
        f"fc_hidden={cfg.fc_hidden}",
        f"variant={cfg.variant}",
        f"double_sigmoid={'true' if cfg.double_sigmoid else 'false'}",
    ]
    return "\n".join(lines).encode("utf-8")


def config_block(blob: bytes) -> bytes:
    (n,) = struct.unpack("<I", blob[8:12])
    return blob[12 : 12 + n]


def with_config_block(blob: bytes, cfg: bytes) -> bytes:
    (n,) = struct.unpack("<I", blob[8:12])
    return blob[:8] + struct.pack("<I", len(cfg)) + cfg + blob[12 + n :]


class TestConfigBlock:
    @pytest.mark.parametrize("double_sigmoid", [True, False])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_hand_written_encoder(self, tmp_path, variant, double_sigmoid):
        cfg = ModelConfig(
            receptive_fields=(0, 2, 5),
            n_mels=7,
            gated_dim=3,
            attn_hidden=4,
            lstm_hidden=5,
            lstm_layers=1,
            fc_hidden=6,
            variant=variant,
            double_sigmoid=double_sigmoid,
        )
        path = tmp_path / "m.mlnt"
        save_checkpoint(path, init_params(cfg, seed=0))
        assert config_block(path.read_bytes()) == hand_written_config_block(cfg)
        assert load_checkpoint(path).config == cfg

    @pytest.mark.parametrize(
        "edit, pattern",
        [
            (lambda lines: lines[:-1], "missing fields \\['double_sigmoid'\\]"),
            (lambda lines: lines + [b"dropout=0"], "unknown fields \\['dropout'\\]"),
            (lambda lines: lines[:-1] + [b"double_sigmoid=yes"], "double_sigmoid='yes'"),
            (lambda lines: [b"receptive_fields=1,x"] + lines[1:], "invalid"),
            (lambda lines: lines[:7] + [b"variant=bigger"] + lines[8:], "invalid"),
            (lambda lines: lines + [b"no equals sign"], "malformed config line"),
            (lambda lines: lines[:1] + [b"n_mels=40"] * 2 + lines[2:], "repeats field 'n_mels'"),
        ],
    )
    def test_bad_config_block_rejected(self, tmp_path, edit, pattern):
        path = tmp_path / "m.mlnt"
        save_checkpoint(path, init_params(CFG, seed=1))
        blob = path.read_bytes()
        lines = config_block(blob).split(b"\n")
        path.write_bytes(with_config_block(blob, b"\n".join(edit(lines))))
        with pytest.raises(FormatError, match=pattern):
            load_checkpoint(path)


@st.composite
def model_configs(draw) -> ModelConfig:
    small = st.integers(1, 4)
    return ModelConfig(
        receptive_fields=tuple(sorted(draw(st.sets(st.integers(0, 4), min_size=1, max_size=3)))),
        n_mels=draw(small),
        gated_dim=draw(small),
        attn_hidden=draw(small),
        lstm_hidden=draw(small),
        lstm_layers=draw(st.integers(1, 2)),
        fc_hidden=draw(small),
        variant=draw(st.sampled_from(VARIANTS)),
        double_sigmoid=draw(st.booleans()),
    )


def test_random_configs_round_trip(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "m.mlnt"

    @given(model_configs(), st.integers(0, 2**32 - 1))
    def check(cfg, seed):
        params = init_params(cfg, seed=seed)
        save_checkpoint(path, params)
        assert config_block(path.read_bytes()) == hand_written_config_block(cfg)
        loaded = load_checkpoint(path)
        assert loaded.config == cfg
        assert list(loaded.named()) == list(params.named())
        for a, b in zip(params.named().values(), loaded.named().values()):
            assert a.data.dtype == b.data.dtype == np.float32
            np.testing.assert_array_equal(a.data, b.data)

    check()
