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
from .model import BearConfig, encoder_shapes, parameter_shapes
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


def _build(classes: tuple[type, ...], values: Mapping[str, str], label: str) -> tuple:
    """One instance of each config dataclass in ``classes``, made from string
    values in their file order. A key sets the field of that name in every
    class that has one, converted to the type of that field's default, so the
    single ``seed`` key feeds both the initializer and the training shuffles.
    A key that no class has is rejected by name."""
    types = [{f.name: type(f.default) for f in fields(cls)} for cls in classes]
    kwargs: list[dict] = [{} for _ in classes]
    for key, value in values.items():
        owners = [(kinds[key], kw) for kinds, kw in zip(types, kwargs) if key in kinds]
        if not owners:
            raise ConfigError(f"{label}: unknown config key {key!r}")
        for kind, kw in owners:
            try:
                kw[key] = kind(value)
            except ValueError:
                raise ConfigError(f"{label}: key {key!r} has invalid {kind.__name__} value {value!r}") from None
    return tuple(cls(**kw) for cls, kw in zip(classes, kwargs))


def load_run_config(path: str | Path):
    """The (BearConfig, TrainConfig) pair of a run config file."""
    from .train import TrainConfig  # local import to avoid a cycle

    text = _decode_utf8(Path(path).read_bytes(), str(path), 0)
    return _build((BearConfig, TrainConfig), parse_kv_text(text, label=str(path)), str(path))


def config_lines(cfg: BearConfig) -> list[str]:
    """Canonical serialization of a BearConfig, one key=value per field."""
    return [f"{f.name}={getattr(cfg, f.name)}" for f in fields(BearConfig)]


def config_hash(cfg: BearConfig) -> str:
    payload = "\n".join(config_lines(cfg)) + "\n"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


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


def load_checkpoint(path: str | Path, encoder_only: bool = False) -> Checkpoint:
    """Read a BC1 file. With ``encoder_only`` the returned parameters are the
    encoder's alone (``encoder_shapes``): every decoder tensor's name, header
    and shape is still read and checked, but its elements are skipped."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = _read_exact(fh, len(BC1_MAGIC), "checkpoint magic")
        if magic != BC1_MAGIC:
            raise FormatError(f"bad checkpoint magic {magic!r} at byte offset 0 (expected {BC1_MAGIC!r})")
        (header_len,) = struct.unpack("<I", _read_exact(fh, 4, "header length"))
        header = _decode_utf8(_read_exact(fh, header_len, "checkpoint header"), "checkpoint header", len(BC1_MAGIC) + 4)
        try:
            raw = parse_kv_text(header, label="checkpoint header")
            cfg_map = {k[4:]: v for k, v in raw.items() if k.startswith("cfg.")}
            meta = {k[5:]: v for k, v in raw.items() if k.startswith("meta.")}
            stray = [k for k in raw if not (k.startswith("cfg.") or k.startswith("meta."))]
            if stray:
                raise FormatError(f"{path}: unexpected header key {stray[0]!r}")
            (cfg,) = _build((BearConfig,), cfg_map, "checkpoint header")
        except ConfigError as exc:
            # a malformed header is a fault of the file, not of the command line
            raise FormatError(f"{path}: {exc}") from None
        shapes = parameter_shapes(cfg)
        # a header that declares more weights than the file holds fails before the arena is allocated
        _check_left(fh, 4 * sum(math.prod(shape) for shape in shapes.values()), "tensor elements")
        # the arena is the one copy of the weights: each BT1 block is read into its view
        params = ParameterSet.zeros(encoder_shapes(cfg) if encoder_only else shapes)
        arena = dict(params.items())
        for expected_name, expected_shape in shapes.items():
            offset = fh.tell()
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4, "parameter name length"))
            name = _decode_utf8(_read_exact(fh, name_len, "parameter name"), "parameter name", offset + 4)
            if name != expected_name:
                raise FormatError(
                    f"unknown parameter name {name!r} at byte offset {offset} (expected {expected_name!r})"
                )
            shape = _read_bt1_header(fh)
            if shape != expected_shape:
                raise FormatError(
                    f"parameter {name!r}: stored shape {shape} does not match configured {expected_shape}"
                )
            if name not in arena:
                fh.seek(4 * math.prod(shape), os.SEEK_CUR)
                continue
            fh.readinto(arena[name].data)
            if not np.little_endian:
                arena[name].data.byteswap(inplace=True)
        if fh.read(1):
            raise FormatError(f"trailing bytes after parameters at byte offset {fh.tell() - 1}")
    return Checkpoint(config=cfg, params=params, metadata=meta)
