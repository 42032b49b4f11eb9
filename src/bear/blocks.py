"""Neural building blocks: a convolutional LSTM cell scanned over the channel
axis, and the mean of multi-scale convolution branches run as one folded
convolution. Each scan is one tape node with a hand-written backward pass,
and runs channel-major on the zero-gutter grids and window matrices that
``conv2d`` uses too. The fold happens at forward time, so callers keep,
train and store every branch kernel."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, _channel_major, _give, _grid, _local, _records, _shift_add, _take, _windows, conv2d, custom_op


def convlstm_over_channels(x: Tensor, input_kernels: Tensor, recurrent_kernels: Tensor, biases: Tensor) -> Tensor:
    """Run the cell across the channel axis of an (..., H, W, T) input as a
    sequence of T single-channel steps from zero state, and return the final
    hidden state (..., H, W, F) as one tape node. Leading axes are scanned
    together, as independent maps. The input kernels (k, k, 1, 4F) read one
    channel, the recurrent kernels are (k, k, F, 4F) and the biases (4F,),
    with k odd; their gates are stacked along the last axis as (i, f, g, o),
    F each.

    Per step, with same padding,
    i = sig(conv(x_t; Wi) + conv(h; Ui) + bi), f and o likewise,
    g = tanh(conv(x_t; Wg) + conv(h; Ug) + bg),
    c = f * c_prev + i * g,  h = o * tanh(c).
    Channel order matters: slices are consumed in storage order.

    The scan runs channel-major on zero-gutter grids (``tensor._Grid``): a
    step's arrays have one row per channel and one column per window column,
    so each gate is a contiguous (F, P) block, and a step zeroes its hidden
    map's gutters once. A step's window matrix stacks the windows of h, the
    windows of x_t and a row of ones, so one GEMM, kernels.T @ windows, gives
    its whole (4F, P) pre-activation, bias included; one tanh pass computes
    the gates in place there, as the forward kernels have their i, f and o
    columns halved and sig(v) = (1 + tanh(v / 2)) / 2. Only when the tape
    records does the scan keep every step's gates, cells and hidden maps;
    otherwise it keeps the current step's. The backward pass runs the steps
    in reverse, overwrites each step's gates with their gradients, rebuilds
    window matrices, and per step gets all kernel gradients from one GEMM,
    windows @ gates.T, and the k*k tap planes of both map gradients from
    another, which it shift-adds back onto their grids; the hidden-map
    gradient's gutters are zeroed after each shift-add.

    Its large arrays come from ``tensor._take`` and go back through
    ``_give`` once dead, so inside a training run they may arrive holding an
    earlier scan's values: what the scan reads before writing (the initial
    cell, the hidden maps' margins, dc) it zeroes, and the output is copied
    out of the hidden maps.
    """
    if x.ndim < 3:
        raise ShapeError(f"convlstm_over_channels: input must have rank 3 or more, got rank {x.ndim}")
    ik, rk = input_kernels.shape, recurrent_kernels.shape
    if len(ik) != 4 or ik[2] != 1:
        raise ShapeError(f"input kernels must be (k, k, 1, 4F), got {ik}")
    if len(rk) != 4:
        raise ShapeError(f"recurrent kernels must be (k, k, F, 4F), got {rk}")
    k, F = ik[0], rk[2]
    if ik[1] != k or rk[0] != k or rk[1] != k:
        raise ShapeError(f"kernel extents disagree: {ik} vs {rk}")
    if k % 2 == 0:
        raise ShapeError(f"kernel extent must be odd, got {k}")
    if rk[3] != 4 * F or ik[3] != 4 * F:
        raise ShapeError(f"stacked gate axis must be 4F={4 * F}, got {ik[3]} and {rk[3]}")
    if biases.shape != (4 * F,):
        raise ShapeError(f"biases must have extent {4 * F}, got shape {biases.shape}")
    *lead, H, W, T = x.shape
    kk = k * k
    tail = kk * F  # the first input-window row; the hidden-map windows come before it
    parents = (x, input_kernels, recurrent_kernels, biases)
    keep = _records(parents)

    def slot(t: int) -> int:  # where step t's gates, cell and hidden map live
        return t if keep else 0

    grid = _grid(k, k, x.size // (H * W * T), H, W)
    P, in_grid = grid.cols, slice(grid.lead, grid.lead + grid.cols)  # window columns, and their place in a grid array
    xgrid = _channel_major(x.data.reshape(-1, T), grid)
    # one row per window row: the hidden-map taps, the input taps, the ones row
    kern = np.vstack([recurrent_kernels.data.reshape(tail, -1), input_kernels.data.reshape(kk, -1), biases.data])
    dtype = np.result_type(xgrid, kern)
    # halving is exact, so this copy's GEMM gives exactly v / 2 for the i, f
    # and o gates; the backward pass takes gradients with respect to v, so it
    # keeps kern
    kern_half = kern * np.repeat(np.array([0.5, 0.5, 1.0, 0.5], dtype), F)  # gates (i, f, g, o)
    gates = _take((slot(T - 1) + 1, 4 * F, P), dtype)  # rows (i, f, g, o), F each
    cells = _take((slot(T) + 1, F, P), dtype)
    cells[0] = 0  # the zero initial state
    hidden = _take((slot(T - 1) + 1, F, grid.length), dtype)  # grid arrays
    hidden[..., : grid.lead] = hidden[..., in_grid.stop :] = 0  # margins; each step writes in_grid
    windows = _take((tail + kk + 1, P), dtype)
    windows[-1] = 1
    work = _take((F, P), dtype)
    for t in range(T):
        pre = gates[slot(t)]
        first = 0 if t else tail  # the zero initial state has no recurrent term
        _windows(xgrid[t : t + 1], grid, windows[tail:])
        if t:
            _windows(hidden[slot(t - 1)], grid, windows)
        np.matmul(kern_half[first:].T, windows[first:], out=pre)
        np.tanh(pre, out=pre)
        for rows in (pre[: 2 * F], pre[3 * F :]):
            rows *= 0.5
            rows += 0.5
        i, f, g, o = pre[:F], pre[F : 2 * F], pre[2 * F : 3 * F], pre[3 * F :]
        c = cells[slot(t + 1)]
        np.multiply(f, cells[slot(t)], out=c)
        c += np.multiply(i, g, out=work)
        h = np.multiply(o, np.tanh(c, out=work), out=hidden[slot(t), :, in_grid])
        grid.zero_gutters(h)  # the GEMM computed the gutter columns too
    _give(windows, work)
    del windows, work, kern_half
    h = np.moveaxis(grid.maps(hidden[-1]), 0, -1).copy()  # out of hidden, which may be handed back
    if not keep:
        _give(gates, cells, hidden)

    def backward(grad: np.ndarray) -> None:
        nonlocal gates, cells, hidden  # one pass consumes them: it overwrites the gates
        if gates is None:
            raise RuntimeError("convlstm_over_channels: an earlier backward pass consumed the scan's saved state")
        dh = _channel_major(grad.reshape(-1, F), grid)  # a grid array: the planes shift-add onto it
        dhc = dh[:, in_grid]  # zero in the gutter columns, like dc and so every gate gradient
        dc = _take((F, P), dtype)
        dc[...] = 0
        # gate gradients run in place over reused scratch: the same formulas as
        # expressions allocate about 15 (F, P) temporaries a step, which raised
        # full-scale training's peak RSS by about 11 MB
        s1, s2, s3 = scratch = _take((3, F, P), dtype)
        windows = _take((tail + kk + 1, P), dtype)  # each step's window matrix, then its tap planes
        windows[-1] = 1  # the planes stop short of the ones row
        planes_stop = tail + kk if x.requires_grad else tail
        dx = _take((T, grid.length), dtype)
        d_kern = np.zeros((tail + kk + 1, 4 * F), dtype)  # kernel and bias gradients, kern's layout
        for t in reversed(range(T)):
            d = gates[t]  # this step's gates in, their gradients out
            i, f, g, o = d[:F], d[F : 2 * F], d[2 * F : 3 * F], d[3 * F :]
            tc = np.tanh(cells[t + 1], out=s1)
            # dc += dh * o * (1 - tc^2)
            np.multiply(tc, tc, out=s2)
            np.subtract(1.0, s2, out=s2)
            np.multiply(dhc, o, out=s3)
            s3 *= s2
            dc += s3
            # d_o = dh * tc * o * (1 - o)
            np.multiply(dhc, tc, out=s2)
            s2 *= o
            np.subtract(1.0, o, out=s3)
            np.multiply(s2, s3, out=o)
            # d_i = dc * g * i * (1 - i), held in s1 until d_g has read i
            np.multiply(dc, g, out=s1)
            s1 *= i
            np.subtract(1.0, i, out=s3)
            s1 *= s3
            # d_g = dc * i * (1 - g^2)
            np.multiply(g, g, out=s2)
            np.subtract(1.0, s2, out=s2)
            np.multiply(dc, i, out=s3)
            np.multiply(s3, s2, out=g)
            i[...] = s1
            # d_f = dc * c_prev * f * (1 - f), then dc carries back through f
            np.multiply(dc, cells[t], out=s1)
            s1 *= f
            np.subtract(1.0, f, out=s2)
            dc *= f
            np.multiply(s1, s2, out=f)
            first = 0 if t else tail
            _windows(xgrid[t : t + 1], grid, windows[tail:])
            if t:
                _windows(hidden[t - 1], grid, windows)
            d_kern[first:] += windows[first:] @ d.T
            if first < planes_stop:
                planes = np.matmul(kern[first:planes_stop], d, out=windows[first:planes_stop])
                if x.requires_grad:
                    _shift_add(planes[tail - first :], grid, dx[t : t + 1])
                if t:
                    _shift_add(planes[:tail], grid, dh)
                    grid.zero_gutters(dhc)
        _give(gates, cells, hidden, dc, scratch, windows)
        gates = cells = hidden = None  # so the next node's backward pass runs without them
        if recurrent_kernels.requires_grad:
            recurrent_kernels._accumulate(d_kern[:tail].reshape(rk))
        if input_kernels.requires_grad:
            input_kernels._accumulate(d_kern[tail:-1].reshape(ik))
        if biases.requires_grad:
            biases._accumulate(d_kern[-1])
        if x.requires_grad:
            x._accumulate(np.moveaxis(grid.maps(dx), 0, -1).reshape(x.shape))
        _give(dx)

    return custom_op(h.reshape(*lead, H, W, F), parents, backward)


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
    return _local(out, *((t, lambda g, window=window: g[window] * weight) for t, window in zip(parts, windows)))


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

