"""Analytic cost model of the BEAR autoencoder: multiply-accumulates (MACs)
per stage and the parameter count, for any architecture configuration.

Only the products inside convolutions and dense layers are counted;
elementwise work (gates, pooling, activations) is not. A same-padding,
stride-1 convolution of an H x W x C map with a k x k x C x F kernel costs
H*W*k*k*C*F MACs. A ConvLSTM cell step costs one input convolution (one
channel in) plus one recurrent convolution (F channels in), each producing
the 4F stacked gates, and the cell takes one step per input channel.

``cfg`` is any object with the BearConfig fields (n, d, m, f_pfe, f_rfe,
f_bfe, f_dec, pf_branches, kernel_size).
"""

from __future__ import annotations

STAGES = ("pfe", "rfe1", "rfe2", "bfe", "dd", "pd1", "pd2", "pf")

# kernel extents of the parallel decoder branches, in branch order
BRANCH_EXTENTS = (1, 3, 5)

# parameter count of the paper's full-scale model (n=128, d=3, m=256)
PAPER_PARAMS = 9_580_521


def _convlstm_macs(steps: int, extent: int, k: int, filters: int) -> int:
    return steps * extent * extent * k * k * 4 * filters * (1 + filters)


def stage_macs(cfg) -> dict[str, int]:
    """Forward MACs of one image, per stage, in pipeline order."""
    n, d, k, m = cfg.n, cfg.d, cfg.kernel_size, cfg.m
    q, e = n // 4, n // 8
    fd = cfg.f_dec
    rfe = q * q * k * k * (cfg.f_pfe + d) * cfg.f_rfe
    pd_taps = sum(x * x for x in BRANCH_EXTENTS)
    pf_taps = sum(x * x for x in BRANCH_EXTENTS[: cfg.pf_branches])
    return {
        "pfe": _convlstm_macs(d, n, k, cfg.f_pfe) + _convlstm_macs(cfg.f_pfe, n // 2, k, cfg.f_pfe),
        "rfe1": rfe,
        "rfe2": rfe,
        "bfe": _convlstm_macs(cfg.f_rfe + d, q, k, cfg.f_bfe) + e * e * cfg.f_bfe * m,
        "dd": m * q * q * fd,
        "pd1": q * q * fd * fd * pd_taps,
        "pd2": (n // 2) ** 2 * fd * fd * pd_taps,
        "pf": n * n * fd * d * pf_taps,
    }


def param_count(cfg) -> int:
    """Trainable parameter count, as ``bear info`` reports it in ``total=``."""
    k, d, m, fd = cfg.kernel_size, cfg.d, cfg.m, cfg.f_dec

    def cell(f: int) -> int:
        return k * k * 4 * f + k * k * f * 4 * f + 4 * f

    q, e = cfg.n // 4, cfg.n // 8
    rfe = k * k * (cfg.f_pfe + d) * cfg.f_rfe + cfg.f_rfe
    pd = sum(x * x * fd * fd + fd for x in BRANCH_EXTENTS)
    pf = sum(x * x * fd * d + d for x in BRANCH_EXTENTS[: cfg.pf_branches])
    return (
        2 * cell(cfg.f_pfe)
        + 2 * rfe
        + cell(cfg.f_bfe)
        + e * e * cfg.f_bfe * m
        + m
        + m * q * q * fd
        + q * q * fd
        + 2 * pd
        + pf
    )
