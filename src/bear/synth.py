"""Seeded synthetic image corpus for desk-scale experiments.

Images mix three pattern families (gradients, disks, stripes) over a palette
biased away from mid gray, with light noise. Values are quantized to the 256
levels a PPM round trip would produce, so training through the file pipeline
and training on these arrays see identical data.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

PATTERNS = ("gradient", "disk", "stripes")


def _palette_color(rng: np.random.Generator) -> np.ndarray:
    base = np.where(rng.integers(2, size=3) == 1, 0.8, 0.2)
    return base + rng.uniform(-0.12, 0.12, size=3)


def synthetic_images(count: int, size: int, seed: int = 0) -> list[np.ndarray]:
    """Generate ``count`` float32 RGB images of shape (size, size, 3) in [0, 1]."""
    if count < 1:
        raise ConfigError(f"count must be positive, got {count}")
    if size < 2:
        raise ConfigError(f"size must be at least 2, got {size}")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64) / max(size - 1, 1)
    images: list[np.ndarray] = []
    for _ in range(count):
        kind = PATTERNS[int(rng.integers(len(PATTERNS)))]
        c0 = _palette_color(rng)
        c1 = _palette_color(rng)
        if kind == "gradient":
            direction = int(rng.integers(3))
            t = xx if direction == 0 else yy if direction == 1 else (xx + yy) / 2.0
        elif kind == "disk":
            cy, cx = rng.uniform(0.25, 0.75, size=2)
            radius = rng.uniform(0.18, 0.38)
            t = (((yy - cy) ** 2 + (xx - cx) ** 2) <= radius * radius).astype(np.float64)
        else:
            period = int(rng.integers(max(2, size // 8), max(3, size // 3)))
            along = int(rng.integers(2))
            coords = np.mgrid[0:size, 0:size][along]
            t = ((coords // period) % 2).astype(np.float64)
        img = c0[None, None, :] * (1.0 - t[..., None]) + c1[None, None, :] * t[..., None]
        img += rng.normal(0.0, 0.02, size=img.shape)
        img = np.clip(img, 0.0, 1.0)
        img = np.floor(img * 255.0 + 0.5) / 255.0  # byte-exact like the PPM path
        images.append(img.astype(np.float32))
    return images
