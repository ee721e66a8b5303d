"""Binary checkpoint format.

Layout (all integers little-endian u32):

    magic   b"MLNT"
    u32     format version (currently 1)
    u32     config block length, then that many UTF-8 bytes of
            "key=value" lines covering every ModelConfig field
    then, until EOF, one record per parameter:
    u32     name length, name UTF-8
    u32     rank, u32 dims[rank]
    f32[]   little-endian values, row-major

Values are stored as 32-bit floats, so a float32-trained model round
trips bit-exactly. Loading validates shapes against the config and can
reject a checkpoint whose config differs from an expected one.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, FormatError
from .model import ModelConfig, MlnetParams, build_params

MAGIC = b"MLNT"
VERSION = 1


def _encode_config(cfg: ModelConfig) -> bytes:
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


_CONFIG_KEYS = (
    "receptive_fields",
    "n_mels",
    "gated_dim",
    "attn_hidden",
    "lstm_hidden",
    "lstm_layers",
    "fc_hidden",
    "variant",
    "double_sigmoid",
)


def _decode_config(blob: bytes) -> ModelConfig:
    values: dict[str, str] = {}
    for line in _utf8(blob, "config block").splitlines():
        if not line.strip():
            continue
        if "=" not in line:
            raise FormatError(f"malformed config line {line!r}")
        key, _, value = line.partition("=")
        values[key] = value
    missing = [k for k in _CONFIG_KEYS if k not in values]
    if missing:
        raise FormatError(f"checkpoint config missing fields {missing}")
    extra = sorted(set(values) - set(_CONFIG_KEYS))
    if extra:
        raise FormatError(f"checkpoint config has unknown fields {extra}")
    if values["double_sigmoid"] not in ("true", "false"):
        raise FormatError(f"checkpoint config double_sigmoid={values['double_sigmoid']!r}")
    try:
        return ModelConfig(
            receptive_fields=tuple(int(r) for r in values["receptive_fields"].split(",")),
            n_mels=int(values["n_mels"]),
            gated_dim=int(values["gated_dim"]),
            attn_hidden=int(values["attn_hidden"]),
            lstm_hidden=int(values["lstm_hidden"]),
            lstm_layers=int(values["lstm_layers"]),
            fc_hidden=int(values["fc_hidden"]),
            variant=values["variant"],
            double_sigmoid=values["double_sigmoid"] == "true",
        )
    except ValueError as exc:  # a field that is not an integer, or a ConfigError
        raise FormatError(f"checkpoint config is invalid: {exc}") from None


def _utf8(blob: bytes, what: str) -> str:
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"checkpoint {what} is not UTF-8") from None


def save_checkpoint(path, params: MlnetParams) -> None:
    cfg_blob = _encode_config(params.config)
    chunks = [MAGIC, struct.pack("<I", VERSION), struct.pack("<I", len(cfg_blob)), cfg_blob]
    for name, tensor in params.named().items():
        name_b = name.encode("utf-8")
        dims = tensor.shape
        chunks.append(struct.pack("<I", len(name_b)))
        chunks.append(name_b)
        chunks.append(struct.pack("<I", len(dims)))
        chunks.append(struct.pack(f"<{len(dims)}I", *dims))
        chunks.append(np.ascontiguousarray(tensor.data, dtype="<f4").tobytes())
    Path(path).write_bytes(b"".join(chunks))


class _Reader:
    def __init__(self, buf: bytes, path):
        self.buf = buf
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise FormatError(f"{self.path}: truncated checkpoint")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.buf)


def load_checkpoint(path, expect_config: ModelConfig | None = None) -> MlnetParams:
    """Read a checkpoint; optionally require its config to match."""
    reader = _Reader(Path(path).read_bytes(), path)
    if reader.take(4) != MAGIC:
        raise FormatError(f"{path}: bad magic, not a checkpoint file")
    version = reader.u32()
    if version != VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    cfg = _decode_config(reader.take(reader.u32()))
    if expect_config is not None and cfg != expect_config:
        raise ConfigError(
            "checkpoint config does not match the requested config:\n"
            f"  checkpoint: {cfg}\n"
            f"  requested:  {expect_config}"
        )
    loaded: dict[str, np.ndarray] = {}
    while not reader.exhausted:
        name = _utf8(reader.take(reader.u32()), "parameter name")
        rank = reader.u32()
        dims = struct.unpack(f"<{rank}I", reader.take(4 * rank))
        values = np.frombuffer(reader.take(4 * math.prod(dims)), dtype="<f4").reshape(dims)
        if not np.isfinite(values).all():
            raise FormatError(f"{path}: parameter {name!r} holds non-finite values")
        loaded[name] = values.astype(np.float32)

    def factory(name: str, shape: tuple[int, ...], kind: str) -> Tensor:
        if name not in loaded:
            raise FormatError(f"{path}: checkpoint missing parameter {name!r}")
        data = loaded.pop(name)
        if data.shape != shape:
            raise FormatError(
                f"{path}: parameter {name!r} has shape {data.shape}, config implies {shape}"
            )
        return Tensor(data, requires_grad=True)

    params = build_params(cfg, factory)
    if loaded:
        raise FormatError(f"{path}: checkpoint has unexpected parameters {sorted(loaded)}")
    return params
