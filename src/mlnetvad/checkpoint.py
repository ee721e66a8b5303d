"""Binary checkpoint format.

Layout (all integers little-endian u32):

    magic   b"MLNT"
    u32     format version (currently 1)
    u32     config block length, then that many UTF-8 bytes of
            "name=value" lines, one per ModelConfig field in
            declaration order
    then, until EOF, one record per parameter:
    u32     name length, name UTF-8
    u32     rank, u32 dims[rank]
    f32[]   little-endian values, row-major

Values are stored as 32-bit floats, so a float32-trained model round
trips bit-exactly. Loading validates shapes against the config.
"""

from __future__ import annotations

import math
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .errors import FormatError
from .model import ModelConfig, MlnetParams, build_params

MAGIC = b"MLNT"
VERSION = 1


# how a ModelConfig field is written and read, by the type of its default
_CODECS = {
    int: (str, int),
    str: (str, str),
    tuple: (lambda v: ",".join(str(r) for r in v), lambda s: tuple(int(r) for r in s.split(","))),
    bool: (lambda v: "true" if v else "false", lambda s: s == "true"),
}


def _encode_config(cfg: ModelConfig) -> bytes:
    lines = [
        f"{f.name}={_CODECS[type(f.default)][0](getattr(cfg, f.name))}" for f in fields(cfg)
    ]
    return "\n".join(lines).encode("utf-8")


def _decode_config(blob: bytes) -> ModelConfig:
    values: dict[str, str] = {}
    for line in _utf8(blob, "config block").splitlines():
        if not line.strip():
            continue
        if "=" not in line:
            raise FormatError(f"malformed config line {line!r}")
        key, _, value = line.partition("=")
        if key in values:
            raise FormatError(f"checkpoint config repeats field {key!r}")
        values[key] = value
    kinds = {f.name: type(f.default) for f in fields(ModelConfig)}
    missing = [k for k in kinds if k not in values]
    if missing:
        raise FormatError(f"checkpoint config missing fields {missing}")
    extra = sorted(set(values) - set(kinds))
    if extra:
        raise FormatError(f"checkpoint config has unknown fields {extra}")
    for name, kind in kinds.items():
        if kind is bool and values[name] not in ("true", "false"):
            raise FormatError(f"checkpoint config {name}={values[name]!r}")
    try:
        return ModelConfig(**{name: _CODECS[kind][1](values[name]) for name, kind in kinds.items()})
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


def load_checkpoint(path) -> MlnetParams:
    """Read a checkpoint: its config, then every parameter that config implies."""
    reader = _Reader(Path(path).read_bytes(), path)
    if reader.take(4) != MAGIC:
        raise FormatError(f"{path}: bad magic, not a checkpoint file")
    version = reader.u32()
    if version != VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    cfg = _decode_config(reader.take(reader.u32()))
    loaded: dict[str, np.ndarray] = {}
    while not reader.exhausted:
        name = _utf8(reader.take(reader.u32()), "parameter name")
        if name in loaded:
            raise FormatError(f"{path}: checkpoint repeats parameter {name!r}")
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
