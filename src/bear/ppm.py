"""Binary PPM (P6, maxval 255) reading and writing, plus deterministic
resizing between image sizes.

Shrinking uses exact box averaging; where a factor divides an extent, that
is ``tensor.box_mean``, the same box mean as the model's average pools.
Enlarging replicates nearest source pixels. Non-square sources are squashed
per axis.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import FormatError, ShapeError
from .serialize import atomic_write
from .tensor import box_mean

_WHITESPACE = frozenset(b" \t\n\r\x0b\x0c")
_COMMENT = 0x23  # '#'


def _read_header_int(data: bytes, pos: int, what: str) -> tuple[int, int, int]:
    n = len(data)
    while pos < n:
        b = data[pos]
        if b in _WHITESPACE:
            pos += 1
        elif b == _COMMENT:
            while pos < n and data[pos] not in (0x0A, 0x0D):
                pos += 1
        else:
            break
    start = pos
    while pos < n and 0x30 <= data[pos] <= 0x39:
        pos += 1
    if pos == start:
        raise FormatError(f"expected {what} at byte offset {start}")
    try:
        return int(data[start:pos]), start, pos
    except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
        raise FormatError(f"{what} at byte offset {start} has too many digits ({pos - start})") from None


def parse_ppm(data: bytes, label: str = "ppm") -> np.ndarray:
    """Decode P6 bytes into a (H, W, 3) uint8 array."""
    if data[:2] != b"P6":
        raise FormatError(f"{label}: bad magic {data[:2]!r} at byte offset 0 (expected b'P6')")
    if len(data) < 3 or (data[2] not in _WHITESPACE and data[2] != _COMMENT):
        raise FormatError(f"{label}: expected whitespace after magic at byte offset 2")
    width, at, pos = _read_header_int(data, 2, "width")
    if width < 1:
        raise FormatError(f"{label}: width must be positive at byte offset {at}")
    height, at, pos = _read_header_int(data, pos, "height")
    if height < 1:
        raise FormatError(f"{label}: height must be positive at byte offset {at}")
    maxval, at, pos = _read_header_int(data, pos, "maxval")
    if maxval != 255:
        raise FormatError(f"{label}: unsupported maxval {maxval} at byte offset {at} (expected 255)")
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise FormatError(f"{label}: expected single whitespace after maxval at byte offset {pos}")
    pos += 1
    need = width * height * 3
    if len(data) - pos < need:
        raise FormatError(
            f"{label}: truncated pixel data at byte offset {len(data)} "
            f"(need {need} bytes from offset {pos}, have {len(data) - pos})"
        )
    return np.frombuffer(data, dtype=np.uint8, count=need, offset=pos).reshape(height, width, 3).copy()


def read_ppm(path: str | Path) -> np.ndarray:
    path = Path(path)
    return parse_ppm(path.read_bytes(), label=str(path))


def write_ppm(path: str | Path, pixels: np.ndarray) -> None:
    pixels = np.asarray(pixels)
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ShapeError(f"write_ppm: pixels must be (H, W, 3), got {pixels.shape}")
    if pixels.dtype != np.uint8:
        raise ShapeError(f"write_ppm: pixels must be uint8, got {pixels.dtype}")
    h, w = pixels.shape[:2]
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    with atomic_write(path, "wb") as fh:
        fh.write(header + np.ascontiguousarray(pixels).tobytes())


def image_to_unit(pixels: np.ndarray) -> np.ndarray:
    """uint8 image to float32 in [0, 1]."""
    return (pixels.astype(np.float32)) / np.float32(255.0)


def unit_to_image(x: np.ndarray) -> np.ndarray:
    """Float image in (0, 1) to uint8, scaling by 255 with round half up."""
    scaled = np.floor(np.asarray(x, dtype=np.float64) * 255.0 + 0.5)
    return np.clip(scaled, 0, 255).astype(np.uint8)


def _resize_axis(x: np.ndarray, target: int, axis: int) -> np.ndarray:
    src = x.shape[axis]
    if src == target:
        return x
    if src % target == 0:
        r = src // target
        return box_mean(x, r, 1) if axis == 0 else box_mean(x, 1, r)
    if src > target:
        moved = np.moveaxis(x, axis, 0)
        weights = np.zeros((target, src), dtype=np.float64)
        span = src / target
        for i in range(target):
            lo = i * span
            hi = (i + 1) * span
            j = int(np.floor(lo))
            while j < src and j < hi:
                weights[i, j] = min(hi, j + 1) - max(lo, j)
                j += 1
            weights[i] /= span
        out = np.tensordot(weights, moved, axes=(1, 0))
        return np.moveaxis(out, 0, axis).astype(x.dtype)
    idx = (np.arange(target) * src) // target
    return np.take(x, idx, axis=axis)


def resize_unit(x: np.ndarray, n: int) -> np.ndarray:
    """Resize a float (H, W, C) image to (n, n, C)."""
    if x.ndim != 3:
        raise ShapeError(f"resize_unit: expected rank 3, got rank {x.ndim}")
    h, w = x.shape[:2]
    if h == n and w == n:
        return x
    if h % n == 0 and w % n == 0:
        return box_mean(x, h // n, w // n)
    out = _resize_axis(x, n, axis=0)
    return _resize_axis(out, n, axis=1)
