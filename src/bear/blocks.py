"""Neural building blocks: a convolutional LSTM cell scanned over the channel
axis, the mean of multi-scale convolution branches run as one folded
convolution, and the recurrent-kernel penalty used to regularize the cells.
Each scan is one tape node with a hand-written backward pass; it shares the
im2col window layout of ``tensor.conv2d``. The fold happens at forward time,
so callers keep, train and store every branch kernel."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, _col2im, _im2col, _pad_hw, _stable_sigmoid, add, conv2d, custom_op, scale, sum_squares


@dataclass
class ConvLstmParams:
    """Weights of one convolutional LSTM cell.

    The cell is driven over single-channel slices of its input, so the input
    kernels consume exactly one channel. Gate kernels are stacked along the
    last axis as (input, forget, candidate, output), each ``filters`` wide.
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


def convlstm_over_channels(x: Tensor, p: ConvLstmParams) -> Tensor:
    """Run the cell across the channel axis of an (..., H, W, T) input as a
    sequence of T single-channel steps from zero state, and return the final
    hidden state (..., H, W, F) as one tape node. Leading axes are scanned
    together, as independent maps.

    Per step, with same padding,
    i = sig(conv(x_t; Wi) + conv(h; Ui) + bi), f and o likewise,
    g = tanh(conv(x_t; Wg) + conv(h; Ug) + bg),
    c = f * c_prev + i * g,  h = o * tanh(c).
    Channel order matters: slices are consumed in storage order. The input
    kernels are shared by every step, so all input convolutions run as one
    GEMM before the loop. The backward pass runs the loop in reverse and
    rebuilds im2col columns instead of keeping them.
    """
    if x.ndim < 3:
        raise ShapeError(f"convlstm_over_channels: input must have rank 3 or more, got rank {x.ndim}")
    *lead, H, W, T = x.shape
    F, k = p.filters, p.kernel_extent
    s = k // 2
    ik = p.input_kernels.data.reshape(k * k, 4 * F)
    rk = p.recurrent_kernels.data.reshape(k * k * F, 4 * F)
    xp = _pad_hw(np.moveaxis(x.data.reshape(-1, H, W, T), -1, 0)[..., None], s, s)  # one map set per step
    N = xp.shape[1]
    inputs = (_im2col(xp, k, k) @ ik + p.biases.data).reshape(T, N * H * W, 4 * F)
    h = np.zeros((N, H, W, F), dtype=inputs.dtype)
    cells = [np.zeros((N * H * W, F), dtype=inputs.dtype)]
    hidden_padded, gates = [], []
    for t in range(T):
        pre = inputs[t]
        if t:  # the recurrent term of the zero initial state is zero
            hidden_padded.append(_pad_hw(h, s, s))
            pre = pre + _im2col(hidden_padded[-1], k, k) @ rk
        act = _stable_sigmoid(pre)
        act[:, 2 * F : 3 * F] = np.tanh(pre[:, 2 * F : 3 * F])
        i, f, g, o = np.split(act, 4, axis=1)
        cells.append(f * cells[-1] + i * g)
        h = (o * np.tanh(cells[-1])).reshape(N, H, W, F)
        gates.append(act)

    def backward(grad: np.ndarray) -> None:
        d_pre = np.empty((T, N * H * W, 4 * F), dtype=h.dtype)
        dh = grad.reshape(N * H * W, F)
        dc = np.zeros_like(dh)
        d_rk = np.zeros_like(rk)
        for t in reversed(range(T)):
            i, f, g, o = np.split(gates[t], 4, axis=1)
            tc = np.tanh(cells[t + 1])
            dc = dc + dh * o * (1.0 - tc * tc)
            d = d_pre[t]
            d[:, :F] = dc * g * i * (1.0 - i)
            d[:, F : 2 * F] = dc * cells[t] * f * (1.0 - f)
            d[:, 2 * F : 3 * F] = dc * i * (1.0 - g * g)
            d[:, 3 * F :] = dh * tc * o * (1.0 - o)
            dc = dc * f
            if t:
                hp = hidden_padded[t - 1]
                d_rk += _im2col(hp, k, k).T @ d
                dh = _col2im(d @ rk.T, hp.shape, k, k)[:, s : s + H, s : s + W].reshape(N * H * W, F)
        d_pre = d_pre.reshape(T * N * H * W, 4 * F)
        if p.biases.requires_grad:
            p.biases._accumulate(d_pre.sum(axis=0))
        if p.recurrent_kernels.requires_grad:
            p.recurrent_kernels._accumulate(d_rk.reshape(p.recurrent_kernels.shape))
        if p.input_kernels.requires_grad:
            p.input_kernels._accumulate((_im2col(xp, k, k).T @ d_pre).reshape(p.input_kernels.shape))
        if x.requires_grad:
            dxp = _col2im(d_pre @ ik.T, xp.shape, k, k)
            x._accumulate(np.moveaxis(dxp[:, :, s : s + H, s : s + W, 0], 0, -1).reshape(x.shape))

    return custom_op(h.reshape(*lead, H, W, F), (x, p.input_kernels, p.recurrent_kernels, p.biases), backward)


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
    return scale(functools.reduce(add, [sum_squares(t) for t in ts]), lam)
