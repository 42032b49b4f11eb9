"""Neural building blocks: a convolutional LSTM cell driven over the channel
axis, the mean of multi-scale convolution branches run as one folded
convolution, and the recurrent-kernel penalty used to regularize the cells.
The fold happens at forward time, so callers keep, train and store every
branch kernel."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ShapeError
from .tensor import (
    Tensor,
    add,
    add_n,
    conv2d,
    custom_op,
    mul,
    scale,
    sigmoid,
    slice_channels,
    sum_squares,
    tanh,
)

# Gate slices along the stacked filter axis, each `filters` wide.
GATE_ORDER = ("input", "forget", "candidate", "output")


@dataclass
class ConvLstmParams:
    """Weights of one convolutional LSTM cell.

    The cell is driven over single-channel slices of its input, so the input
    kernels consume exactly one channel. Gate kernels are stacked along the
    last axis in GATE_ORDER, each ``filters`` wide.
    """

    input_kernels: Tensor  # (k, k, 1, 4F)
    recurrent_kernels: Tensor  # (k, k, F, 4F)
    biases: Tensor  # (4F,)

    def __post_init__(self) -> None:
        ik, rk, b = self.input_kernels, self.recurrent_kernels, self.biases
        if ik.ndim != 4 or ik.shape[2] != 1:
            raise ShapeError(f"input kernels must be (k, k, 1, 4F), got {ik.shape}")
        if rk.ndim != 4:
            raise ShapeError(f"recurrent kernels must be (k, k, F, 4F), got {rk.shape}")
        k = ik.shape[0]
        if ik.shape[1] != k or rk.shape[0] != k or rk.shape[1] != k:
            raise ShapeError(f"kernel extents disagree: {ik.shape} vs {rk.shape}")
        if k % 2 == 0:
            raise ShapeError(f"kernel extent must be odd, got {k}")
        f = rk.shape[2]
        if rk.shape[3] != 4 * f or ik.shape[3] != 4 * f:
            raise ShapeError(f"stacked gate axis must be 4F={4 * f}, got {ik.shape[3]} and {rk.shape[3]}")
        if b.ndim != 1 or b.shape[0] != 4 * f:
            raise ShapeError(f"biases must have extent {4 * f}, got shape {b.shape}")

    @property
    def filters(self) -> int:
        return self.recurrent_kernels.shape[2]

    @property
    def kernel_extent(self) -> int:
        return self.input_kernels.shape[0]


def convlstm_step(x_t: Tensor, h_prev: Tensor, c_prev: Tensor, p: ConvLstmParams) -> tuple[Tensor, Tensor]:
    """One cell update over a single-channel input slice.

    i = sig(conv(x; Wi) + conv(h; Ui) + bi), f and o likewise,
    g = tanh(conv(x; Wg) + conv(h; Ug) + bg),
    c = f * c_prev + i * g,  h = o * tanh(c).
    Spatial extents are preserved (same padding).
    """
    F = p.filters
    if x_t.ndim != 3 or x_t.shape[2] != 1:
        raise ShapeError(f"convlstm_step: input slice must be (H, W, 1), got {x_t.shape}")
    expected = (x_t.shape[0], x_t.shape[1], F)
    if h_prev.shape != expected:
        raise ShapeError(f"convlstm_step: hidden state shape {h_prev.shape} does not match {expected}")
    if c_prev.shape != expected:
        raise ShapeError(f"convlstm_step: cell state shape {c_prev.shape} does not match {expected}")
    zero_bias = Tensor(np.zeros(4 * F, dtype=p.biases.data.dtype))
    gates = add(
        conv2d(x_t, p.input_kernels, p.biases),
        conv2d(h_prev, p.recurrent_kernels, zero_bias),
    )
    i = sigmoid(slice_channels(gates, 0, F))
    f = sigmoid(slice_channels(gates, F, 2 * F))
    g = tanh(slice_channels(gates, 2 * F, 3 * F))
    o = sigmoid(slice_channels(gates, 3 * F, 4 * F))
    c_t = add(mul(f, c_prev), mul(i, g))
    h_t = mul(o, tanh(c_t))
    return h_t, c_t


def convlstm_over_channels(x: Tensor, p: ConvLstmParams) -> Tensor:
    """Run the cell across the channel axis as a sequence, zero initial state.

    Channel order matters: slices are consumed in storage order, and the final
    hidden state is returned.
    """
    if x.ndim != 3:
        raise ShapeError(f"convlstm_over_channels: input must be rank 3, got rank {x.ndim}")
    H, W, depth = x.shape
    F = p.filters
    state_dtype = p.biases.data.dtype
    h = Tensor(np.zeros((H, W, F), dtype=state_dtype))
    c = Tensor(np.zeros((H, W, F), dtype=state_dtype))
    for t in range(depth):
        h, c = convlstm_step(slice_channels(x, t, t + 1), h, c, p)
    return h


def _centred_mean(parts: Sequence[Tensor]) -> Tensor:
    """Mean of ``parts``, each zero-padded about its centre to the largest
    extent along every axis, as one tape node. The backward pass hands each
    part its centre slice of the output gradient, divided by the part count."""
    shape = tuple(max(extents) for extents in zip(*(t.shape for t in parts)))
    windows = [tuple(slice((s - e) // 2, (s - e) // 2 + e) for s, e in zip(shape, t.shape)) for t in parts]
    weight = 1.0 / len(parts)
    out = np.zeros(shape, dtype=np.result_type(*(t.data for t in parts)))
    for t, window in zip(parts, windows):
        out[window] += t.data
    out *= weight

    def backward(g: np.ndarray) -> None:
        for t, window in zip(parts, windows):
            if t.requires_grad:
                t._accumulate(g[window] * weight)

    return custom_op(out, parts, backward)


def mean_conv(x: Tensor, branches: Sequence[tuple[Tensor, Tensor]]) -> Tensor:
    """Mean of same-padding, stride-1 convolution branches, run as one conv2d.

    Each branch is a (kernel (k, k, C, F), bias (F,)) pair with odd k. The
    convolution is linear in its kernel, so the mean of the branch outputs
    is one convolution by the mean of the kernels, each zero-padded about its
    centre to the largest extent, plus the mean of the biases.
    """
    if not branches:
        raise ShapeError("mean_conv: need at least one branch")
    first = branches[0][0]
    if first.ndim != 4:
        raise ShapeError(f"mean_conv: branch kernels must be rank 4, got rank {first.ndim}")
    c, f = first.shape[2], first.shape[3]
    for kernel, bias in branches:
        k = kernel.shape[0]
        if kernel.ndim != 4 or kernel.shape[1] != k or k % 2 == 0:
            raise ShapeError(f"mean_conv: branch kernel must be square with an odd extent, got {kernel.shape}")
        if kernel.shape[2] != c or kernel.shape[3] != f:
            raise ShapeError(f"mean_conv: branches disagree on channels/filters: {kernel.shape} vs {first.shape}")
        if bias.ndim != 1 or bias.shape[0] != f:
            raise ShapeError(f"mean_conv: branch bias must have extent {f}, got shape {bias.shape}")
    kernels = _centred_mean([kernel for kernel, _ in branches])
    biases = _centred_mean([bias for _, bias in branches])
    return conv2d(x, kernels, biases)


def l2_penalty(tensors: Iterable[Tensor], lam: float) -> Tensor:
    """lam times the summed squared elements of ``tensors``, as a scalar node."""
    lam = float(lam)
    if lam < 0:
        raise ValueError(f"l2_penalty: coefficient must be nonnegative, got {lam}")
    ts = list(tensors)
    if not ts:
        return Tensor(np.zeros((), dtype=np.float32))
    return scale(add_n([sum_squares(t) for t in ts]), lam)
