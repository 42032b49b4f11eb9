"""Binary tensor and checkpoint formats, plus flat key=value run configs.

BT1 tensor block: magic ``BEART1``, u32-LE rank, rank u32-LE extents, then
row-major IEEE-754 little-endian float32 elements.

BC1 checkpoint: magic ``BEARC1``, u32-LE header length, a UTF-8 header of
flat ``cfg.<key>=<value>`` and ``meta.<key>=<value>`` lines, then for each
parameter a u32-LE name length, the UTF-8 name, and a BT1 block, in
parameter-set order.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import IO, BinaryIO, Iterator, Mapping

import numpy as np

from .errors import ConfigError, FormatError
from .model import BearConfig, parameter_shapes
from .tensor import ParameterSet

BT1_MAGIC = b"BEART1"
BC1_MAGIC = b"BEARC1"


@contextmanager
def atomic_write(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Open a temporary sibling of ``path`` for writing ("w" for UTF-8 text
    with untranslated newlines, "wb" for bytes) and rename it over ``path``
    when the block succeeds. On failure the temporary file is removed, so
    ``path`` holds either its old contents or the complete new ones."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# BT1 tensors


def _check_left(fh: BinaryIO, count: int, what: str) -> None:
    """Fail unless ``count`` bytes are left in the stream, so a corrupt length
    fails here instead of allocating it."""
    offset = fh.tell()
    left = fh.seek(0, os.SEEK_END) - offset
    fh.seek(offset)
    if count > left:
        raise FormatError(f"truncated {what}: needed {count} bytes at byte offset {offset}, {left} remain")


def _read_exact(fh: BinaryIO, count: int, what: str) -> bytes:
    """Read ``count`` bytes, checked against the bytes left in the stream first."""
    _check_left(fh, count, what)
    return fh.read(count)


def _decode_utf8(raw: bytes, what: str, offset: int) -> str:
    """``raw`` as UTF-8 text; ``offset`` is where ``raw`` starts in its file."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} is not UTF-8 at byte offset {offset + exc.start}") from None


def write_bt1(fh: BinaryIO, arr: np.ndarray) -> None:
    """Write ``arr`` as a BT1 block. A contiguous little-endian float32 array
    is written from its own memory, without a bytes copy."""
    arr = np.ascontiguousarray(arr, dtype="<f4")
    fh.write(BT1_MAGIC)
    fh.write(struct.pack("<I", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(memoryview(arr).cast("B"))


def _read_bt1_header(fh: BinaryIO) -> tuple[int, ...]:
    """Read a BT1 block's magic, rank and extents, and check that its elements
    are all in the stream; the stream is left at the first element."""
    offset = fh.tell()
    magic = _read_exact(fh, len(BT1_MAGIC), "tensor magic")
    if magic != BT1_MAGIC:
        raise FormatError(f"bad tensor magic {magic!r} at byte offset {offset} (expected {BT1_MAGIC!r})")
    (rank,) = struct.unpack("<I", _read_exact(fh, 4, "tensor rank"))
    if rank == 0 or rank > 8:
        raise FormatError(f"unreasonable tensor rank {rank} at byte offset {offset + len(BT1_MAGIC)}")
    shape = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, "tensor extents"))
    if any(s == 0 for s in shape):
        raise FormatError(f"zero extent in tensor shape {shape} at byte offset {offset}")
    _check_left(fh, 4 * math.prod(shape), "tensor elements")
    return shape


def read_bt1(fh: BinaryIO) -> np.ndarray:
    """The next BT1 tensor as float32. On a little-endian machine the array
    is a read-only view of the bytes read, so reading costs no second copy."""
    shape = _read_bt1_header(fh)
    raw = fh.read(4 * math.prod(shape))
    return np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float32, copy=False)


# ---------------------------------------------------------------------------
# run configuration files (flat key=value)


def _field_types(cls) -> dict[str, type]:
    """Each dataclass field's name and the type of its default value."""
    return {f.name: type(f.default) for f in fields(cls)}


_BEAR_FIELDS = _field_types(BearConfig)


def parse_kv_text(text: str, label: str = "config") -> dict[str, str]:
    """Parse ``key=value`` lines; blank lines and ``#`` comments are skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{label} line {lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{label} line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"{label} line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _convert(key: str, value: str, kind: type, label: str):
    try:
        if kind is int:
            return int(value)
        if kind is float:
            return float(value)
        return value
    except ValueError:
        raise ConfigError(f"{label}: key {key!r} has invalid {kind.__name__} value {value!r}") from None


def split_run_config(mapping: Mapping[str, str], label: str = "config"):
    """Route flat keys into a (BearConfig, TrainConfig) pair.

    The single ``seed`` key feeds both the initializer and the training
    shuffles. Unknown keys are rejected by name.
    """
    from .train import TrainConfig  # local import to avoid a cycle

    train_fields = _field_types(TrainConfig)
    bear_kwargs: dict = {}
    train_kwargs: dict = {}
    for key, value in mapping.items():
        known = False
        if key in _BEAR_FIELDS:
            bear_kwargs[key] = _convert(key, value, _BEAR_FIELDS[key], label)
            known = True
        if key in train_fields:
            train_kwargs[key] = _convert(key, value, train_fields[key], label)
            known = True
        if not known:
            raise ConfigError(f"{label}: unknown config key {key!r}")
    return BearConfig(**bear_kwargs), TrainConfig(**train_kwargs)


def load_run_config(path: str | Path):
    text = _decode_utf8(Path(path).read_bytes(), str(path), 0)
    return split_run_config(parse_kv_text(text, label=str(path)), label=str(path))


def config_lines(cfg: BearConfig) -> list[str]:
    """Canonical serialization of a BearConfig, one key=value per field."""
    return [f"{f.name}={getattr(cfg, f.name)}" for f in fields(BearConfig)]


def config_hash(cfg: BearConfig) -> str:
    payload = "\n".join(config_lines(cfg)) + "\n"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def config_from_mapping(mapping: Mapping[str, str], label: str = "checkpoint header") -> BearConfig:
    kwargs: dict = {}
    for key, value in mapping.items():
        if key not in _BEAR_FIELDS:
            raise FormatError(f"{label}: unknown config key {key!r}")
        kwargs[key] = _convert(key, value, _BEAR_FIELDS[key], label)
    try:
        return BearConfig(**kwargs)
    except ConfigError as exc:
        raise FormatError(f"{label}: {exc}") from None


# ---------------------------------------------------------------------------
# BC1 checkpoints


@dataclass
class Checkpoint:
    """A trained (or freshly initialized) model: weights, config, metadata."""

    config: BearConfig
    params: ParameterSet
    metadata: dict[str, str]


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Write a BC1 file atomically (temp file then rename)."""
    header_lines = [f"cfg.{line}" for line in config_lines(ckpt.config)]
    header_lines += [f"meta.{k}={v}" for k, v in sorted(ckpt.metadata.items())]
    header = ("\n".join(header_lines) + "\n").encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(BC1_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for name, tensor in ckpt.params.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            write_bt1(fh, tensor.data)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a BC1 file."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = _read_exact(fh, len(BC1_MAGIC), "checkpoint magic")
        if magic != BC1_MAGIC:
            raise FormatError(f"bad checkpoint magic {magic!r} at byte offset 0 (expected {BC1_MAGIC!r})")
        (header_len,) = struct.unpack("<I", _read_exact(fh, 4, "header length"))
        header = _decode_utf8(_read_exact(fh, header_len, "checkpoint header"), "checkpoint header", len(BC1_MAGIC) + 4)
        raw = parse_kv_text(header, label=f"{path} header")
        cfg_map = {k[4:]: v for k, v in raw.items() if k.startswith("cfg.")}
        meta = {k[5:]: v for k, v in raw.items() if k.startswith("meta.")}
        stray = [k for k in raw if not (k.startswith("cfg.") or k.startswith("meta."))]
        if stray:
            raise FormatError(f"{path}: unexpected header key {stray[0]!r}")
        cfg = config_from_mapping(cfg_map, label=f"{path} header")
        shapes = parameter_shapes(cfg)
        # a header that declares more weights than the file holds fails before the arena is allocated
        _check_left(fh, 4 * sum(math.prod(shape) for shape in shapes.values()), "tensor elements")
        # the arena is the one copy of the weights: each BT1 block is read into its view
        params = ParameterSet.zeros(shapes)
        for expected_name, t in params.items():
            offset = fh.tell()
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4, "parameter name length"))
            name = _decode_utf8(_read_exact(fh, name_len, "parameter name"), "parameter name", offset + 4)
            if name != expected_name:
                raise FormatError(
                    f"unknown parameter name {name!r} at byte offset {offset} (expected {expected_name!r})"
                )
            shape = _read_bt1_header(fh)
            if shape != t.shape:
                raise FormatError(
                    f"parameter {name!r}: stored shape {shape} does not match configured {t.shape}"
                )
            fh.readinto(t.data)
            if not np.little_endian:
                t.data.byteswap(inplace=True)
        if fh.read(1):
            raise FormatError(f"trailing bytes after parameters at byte offset {fh.tell() - 1}")
    return Checkpoint(config=cfg, params=params, metadata=meta)
