"""The autoencoder: configuration, parameter construction, and the encoder
and decoder stage pipeline.

Stage layout (square input of extent n, depth d, latent width m):

    encoder  n -> n/4 (pfe) -> n/4 (rfe x2) -> m (bfe)
    decoder  m -> n/4 (dd) -> n/2 -> n (pd x2) -> n (pf)

A residual copy of the input, average-pooled by the factor r, is injected
into both entanglement stages and the bottleneck alongside learned features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import convlstm_over_channels, mean_conv
from .errors import ConfigError, ShapeError
from .tensor import (
    CHUNK,
    ParameterSet,
    Tensor,
    concat_channels,
    conv2d,
    dense,
    downsample_avg,
    reshape,
    sigmoid,
    tanh,
    upsample_nearest,
)

PD_KERNEL_EXTENTS = (1, 3, 5)


@dataclass(frozen=True)
class BearConfig:
    """Architecture hyperparameters.

    n: square input extent; d: input depth; r: residual downsample factor
    (4, so that the residual copy matches pfe's output extent);
    m: latent width; f_pfe / f_rfe / f_bfe: encoder stage filter counts
    (f_rfe must equal f_pfe because the entanglement stages preserve the
    encoder channel width); f_dec: decoder channel width; pf_branches:
    output-stage branch count with kernel extents drawn from (1, 3, 5);
    kernel_size: cell and entanglement kernel extent; seed: init seed.
    """

    n: int = 128
    d: int = 3
    r: int = 4
    m: int = 256
    f_pfe: int = 16
    f_rfe: int = 16
    f_bfe: int = 16
    f_dec: int = 32
    pf_branches: int = 3
    kernel_size: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 8:
            raise ConfigError(f"n must be at least 8, got {self.n}")
        if self.n % 8:
            raise ConfigError(f"n must be divisible by 8 (the encoder halves extents three times), got {self.n}")
        if self.r != 4:
            raise ConfigError(f"the residual factor r must be 4, the downsampling of pfe's two pools, got {self.r}")
        if self.d < 1:
            raise ConfigError(f"d must be at least 1, got {self.d}")
        if self.m < 1:
            raise ConfigError(f"m must be at least 1, got {self.m}")
        for field_name in ("f_pfe", "f_rfe", "f_bfe", "f_dec"):
            if getattr(self, field_name) < 1:
                raise ConfigError(f"{field_name} must be at least 1, got {getattr(self, field_name)}")
        if self.f_rfe != self.f_pfe:
            raise ConfigError(
                f"f_rfe={self.f_rfe} must equal f_pfe={self.f_pfe}: "
                "the entanglement stages preserve the encoder channel width"
            )
        if not 1 <= self.pf_branches <= len(PD_KERNEL_EXTENTS):
            raise ConfigError(f"pf_branches must be in [1, {len(PD_KERNEL_EXTENTS)}], got {self.pf_branches}")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ConfigError(f"kernel_size must be odd and positive, got {self.kernel_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")

    @property
    def compression_ratio(self) -> float:
        """Input elements per latent element, n*n*d / m."""
        return (self.n * self.n * self.d) / self.m

    @property
    def forward_chunk(self) -> int:
        """Images per graph: 16384 pixels' worth, so one image at n=128
        (whose forward pass alone peaks near 44 MB of allocations) and 16 at
        n=32. Validation and encoding run forward-only chunks of this many
        images, and training runs each batch as micro-batches of this many,
        so training memory follows the micro-batch, not the batch."""
        return max(1, 16384 // (self.n * self.n))


def encoder_shapes(cfg: BearConfig) -> dict[str, tuple[int, ...]]:
    """The encoder's parameter names and shapes (pfe, rfe1, rfe2, bfe): the
    leading block of ``parameter_shapes``, in checkpoint order."""
    k = cfg.kernel_size
    shapes: dict[str, tuple[int, ...]] = {}

    def cell(stage: str, filters: int) -> None:
        shapes[f"{stage}/input-kernels"] = (k, k, 1, 4 * filters)
        shapes[f"{stage}/recurrent-kernels"] = (k, k, filters, 4 * filters)
        shapes[f"{stage}/biases"] = (4 * filters,)

    cell("pfe/convlstm1", cfg.f_pfe)
    cell("pfe/convlstm2", cfg.f_pfe)
    for stage in ("rfe1", "rfe2"):
        shapes[f"{stage}/conv/kernel"] = (k, k, cfg.f_pfe + cfg.d, cfg.f_rfe)
        shapes[f"{stage}/conv/bias"] = (cfg.f_rfe,)
    cell("bfe/convlstm", cfg.f_bfe)
    s8 = cfg.n // 8
    shapes["bfe/dense/weights"] = (s8 * s8 * cfg.f_bfe, cfg.m)
    shapes["bfe/dense/bias"] = (cfg.m,)
    return shapes


def parameter_shapes(cfg: BearConfig) -> dict[str, tuple[int, ...]]:
    """Canonical parameter names and shapes, in checkpoint order: the
    encoder's, then the decoder's (dd, pd1, pd2, pf)."""
    shapes = encoder_shapes(cfg)
    s4 = cfg.n // 4
    shapes["dd/dense/weights"] = (cfg.m, s4 * s4 * cfg.f_dec)
    shapes["dd/dense/bias"] = (s4 * s4 * cfg.f_dec,)
    for stage in ("pd1", "pd2"):
        for ke in PD_KERNEL_EXTENTS:
            shapes[f"{stage}/conv{ke}x{ke}/kernel"] = (ke, ke, cfg.f_dec, cfg.f_dec)
            shapes[f"{stage}/conv{ke}x{ke}/bias"] = (cfg.f_dec,)
    for ke in PD_KERNEL_EXTENTS[: cfg.pf_branches]:
        shapes[f"pf/conv{ke}x{ke}/kernel"] = (ke, ke, cfg.f_dec, cfg.d)
        shapes[f"pf/conv{ke}x{ke}/bias"] = (cfg.d,)
    return shapes


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) == 2:
        return shape[0], shape[1]
    kh, kw, cin, cout = shape
    return kh * kw * cin, kh * kw * cout


def init_params(cfg: BearConfig, dtype=np.float32) -> ParameterSet:
    """Seeded initialization: kernels uniform in +-sqrt(6/(fan_in+fan_out)),
    biases zero except the forget-gate slice of each cell at +1.

    Each kernel is drawn in blocks of ``CHUNK`` elements. The generator
    hands out one double per element in row-major order, so the blocks hold
    the same values as one draw of the whole kernel, without its float64
    temporary (67 MB for dd's weights at n=128)."""
    rng = np.random.default_rng(cfg.seed)
    params = ParameterSet.zeros(parameter_shapes(cfg), dtype)  # filled in place
    for name, t in params.items():
        if name.endswith("bias") or name.endswith("biases"):
            if name.endswith("/biases"):
                f = t.shape[0] // 4
                t.data[f : 2 * f] = 1.0
        else:
            fan_in, fan_out = _fans(t.shape)
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            flat = t.data.reshape(-1)
            for start in range(0, flat.size, CHUNK):
                block = flat[start : start + CHUNK]
                block[...] = rng.uniform(-limit, limit, size=block.size)
    return params


def _cell(params: ParameterSet, stage: str) -> tuple[Tensor, Tensor, Tensor]:
    return params[f"{stage}/input-kernels"], params[f"{stage}/recurrent-kernels"], params[f"{stage}/biases"]


def _branches(params: ParameterSet, stage: str, extents) -> list[tuple[Tensor, Tensor]]:
    return [(params[f"{stage}/conv{k}x{k}/kernel"], params[f"{stage}/conv{k}x{k}/bias"]) for k in extents]


# ---------------------------------------------------------------------------
# encoder stages


def residual_input(x: Tensor, cfg: BearConfig) -> Tensor:
    """The input average-pooled by r per spatial axis, depth unchanged."""
    if x.shape[-3:] != (cfg.n, cfg.n, cfg.d):
        raise ShapeError(f"residual_input: expected shape (..., {cfg.n}, {cfg.n}, {cfg.d}), got {x.shape}")
    return downsample_avg(x, cfg.r)


def pfe(x: Tensor, params: ParameterSet, cfg: BearConfig) -> Tensor:
    """Two cell blocks, each followed by a 2x average pool.

    The first block scans the input channels as a sequence; its output maps
    become the second block's sequence. Net spatial reduction is 4x, so the
    output aligns with the residual copy.
    """
    z = convlstm_over_channels(x, *_cell(params, "pfe/convlstm1"))
    z = downsample_avg(z, 2)
    z = convlstm_over_channels(z, *_cell(params, "pfe/convlstm2"))
    return downsample_avg(z, 2)


def rfe(z: Tensor, residual: Tensor, params: ParameterSet, stage: str = "rfe1") -> Tensor:
    """Entangle features with the residual copy, preserving the input shape.

    The residual channels are concatenated onto the feature channels, then a
    same-padding convolution maps back to the incoming channel count.
    """
    if z.shape[-3:-1] != residual.shape[-3:-1]:
        raise ShapeError(f"rfe: spatial extents {z.shape[-3:-1]} and {residual.shape[-3:-1]} differ")
    h = concat_channels(z, residual)
    h = conv2d(h, params[f"{stage}/conv/kernel"], params[f"{stage}/conv/bias"])
    return tanh(h)


def bfe(z: Tensor, residual: Tensor, params: ParameterSet, cfg: BearConfig) -> Tensor:
    """Bottleneck: residual concat, cell scan, 2x pool, flatten, dense to m."""
    if z.shape[-3:-1] != residual.shape[-3:-1]:
        raise ShapeError(f"bfe: spatial extents {z.shape[-3:-1]} and {residual.shape[-3:-1]} differ")
    h = concat_channels(z, residual)
    h = convlstm_over_channels(h, *_cell(params, "bfe/convlstm"))
    h = downsample_avg(h, 2)
    h = reshape(h, (*h.shape[:-3], math.prod(h.shape[-3:])))
    h = dense(h, params["bfe/dense/weights"], params["bfe/dense/bias"])
    return tanh(h)


# ---------------------------------------------------------------------------
# decoder stages


def dd(z: Tensor, params: ParameterSet, cfg: BearConfig) -> Tensor:
    """Dense expansion of the latent vector into an n/4 feature map."""
    s4 = cfg.n // 4
    h = dense(z, params["dd/dense/weights"], params["dd/dense/bias"])
    h = reshape(h, (*z.shape[:-1], s4, s4, cfg.f_dec))
    return tanh(h)


def pd(z: Tensor, params: ParameterSet, cfg: BearConfig, stage: str = "pd1") -> Tensor:
    """The mean of 1x1, 3x3 and 5x5 same-padding convolution branches, then
    tanh and a 2x nearest upsample. The branches run as one 5x5 convolution
    whose kernel is the mean of the centred branch kernels; the checkpoint
    still stores every branch kernel."""
    h = tanh(mean_conv(z, _branches(params, stage, PD_KERNEL_EXTENTS)))
    return upsample_nearest(h, 2)


def pf_reconstruct(z: Tensor, params: ParameterSet, cfg: BearConfig) -> Tensor:
    """Output stage: the first ``pf_branches`` branches averaged before the
    sigmoid, so the mean is taken in pre-activation space and every pixel
    lands in (0, 1). The branches run as one convolution of the largest
    branch extent, folded as in ``pd``; the checkpoint stores every branch."""
    return sigmoid(mean_conv(z, _branches(params, "pf", PD_KERNEL_EXTENTS[: cfg.pf_branches])))


# ---------------------------------------------------------------------------
# full pipelines


def encode(x: Tensor, params: ParameterSet, cfg: BearConfig) -> Tensor:
    """Images (..., n, n, d) to latent vectors (..., m)."""
    residual = residual_input(x, cfg)
    z = pfe(x, params, cfg)
    z = rfe(z, residual, params, "rfe1")
    z = rfe(z, residual, params, "rfe2")
    return bfe(z, residual, params, cfg)


def decode(z: Tensor, params: ParameterSet, cfg: BearConfig) -> Tensor:
    """Latent vectors (..., m) back to (..., n, n, d) images with elements in (0, 1)."""
    if z.shape[-1:] != (cfg.m,):
        raise ShapeError(f"decode: expected latent shape (..., {cfg.m}), got {z.shape}")
    h = dd(z, params, cfg)
    h = pd(h, params, cfg, "pd1")
    h = pd(h, params, cfg, "pd2")
    return pf_reconstruct(h, params, cfg)


def forward(x: Tensor, params: ParameterSet, cfg: BearConfig) -> Tensor:
    """Full reconstruction pass, decode(encode(x))."""
    return decode(encode(x, params, cfg), params, cfg)


def param_count(params: ParameterSet) -> tuple[dict[str, int], int]:
    """Element counts grouped by stage (first name segment), plus the total."""
    stages: dict[str, int] = {}
    for name, t in params.items():
        stage = name.split("/", 1)[0]
        stages[stage] = stages.get(stage, 0) + t.size
    return stages, sum(stages.values())
