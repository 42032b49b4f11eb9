"""Shared fixtures and independent reference implementations (oracles).

Every oracle here is written as plainly as possible (nested loops, explicit
arithmetic) and never calls into the package's own compute paths, so the
tests compare two independent routes to the same numbers.
"""

from __future__ import annotations

import itertools
import math
import os
from pathlib import Path

import numpy as np
import pytest

import bear
from bear.model import BearConfig

# The CLI tests run `python -m bear` in child processes whose working
# directory is a temporary one, where a relative PYTHONPATH such as `src`
# resolves to nothing. Put the absolute location of the package this process
# imported first, so every child runs the same code under test.
_PACKAGE_ROOT = str(Path(bear.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(
    entry for entry in (_PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if entry
)
# The children run under the warning filters pyproject.toml gives this
# process, so a warning a command prints fails its test instead of passing.
os.environ["PYTHONWARNINGS"] = "error::RuntimeWarning,error::DeprecationWarning"


def naive_conv2d(x, kernel, bias, stride=1, padding="same"):
    """Direct six-loop reference convolution over (H, W, C) x (kh, kw, C, F)."""
    H, W, C = x.shape
    kh, kw, _, F = kernel.shape
    if padding == "same":
        out_h = math.ceil(H / stride)
        out_w = math.ceil(W / stride)
        pad_top = max((out_h - 1) * stride + kh - H, 0) // 2
        pad_left = max((out_w - 1) * stride + kw - W, 0) // 2
    else:
        out_h = (H - kh) // stride + 1
        out_w = (W - kw) // stride + 1
        pad_top = pad_left = 0
    out = np.zeros((out_h, out_w, F), dtype=np.float64)
    for oh in range(out_h):
        for ow in range(out_w):
            for f in range(F):
                acc = float(bias[f])
                for i in range(kh):
                    for j in range(kw):
                        iy = oh * stride + i - pad_top
                        ix = ow * stride + j - pad_left
                        if 0 <= iy < H and 0 <= ix < W:
                            for c in range(C):
                                acc += float(x[iy, ix, c]) * float(kernel[i, j, c, f])
                out[oh, ow, f] = acc
    return out


def naive_dense(x, weights, bias):
    """Matrix-vector product by explicit loops."""
    p, q = weights.shape
    out = np.zeros(q, dtype=np.float64)
    for j in range(q):
        acc = float(bias[j])
        for i in range(p):
            acc += float(x[i]) * float(weights[i, j])
        out[j] = acc
    return out


def scalar_bce(x, xhat, clamp=1e-7):
    """Elementwise-loop binary cross entropy with clamped logs."""
    total = 0.0
    xf = np.asarray(x, dtype=np.float64).reshape(-1)
    xh = np.asarray(xhat, dtype=np.float64).reshape(-1)
    for a, b in zip(xf, xh):
        b = min(max(b, clamp), 1.0 - clamp)
        total += a * math.log(b) + (1.0 - a) * math.log(1.0 - b)
    return -total / xf.size


def scalar_mse(x, xhat):
    total = 0.0
    xf = np.asarray(x, dtype=np.float64).reshape(-1)
    xh = np.asarray(xhat, dtype=np.float64).reshape(-1)
    for a, b in zip(xf, xh):
        total += (b - a) ** 2
    return total / xf.size


def reference_convlstm_step(x_t, h_prev, c_prev, input_kernels, recurrent_kernels, biases):
    """Cell update with one explicit convolution per gate (numpy only)."""

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    F = recurrent_kernels.shape[2]
    gates = []
    for g in range(4):
        ik = input_kernels[:, :, :, g * F : (g + 1) * F]
        rk = recurrent_kernels[:, :, :, g * F : (g + 1) * F]
        b = biases[g * F : (g + 1) * F]
        pre = naive_conv2d(x_t, ik, b) + naive_conv2d(h_prev, rk, np.zeros(F))
        gates.append(pre)
    i = sig(gates[0])
    f = sig(gates[1])
    g = np.tanh(gates[2])
    o = sig(gates[3])
    c_t = f * c_prev + i * g
    h_t = o * np.tanh(c_t)
    return h_t, c_t


def exhaustive_kmeans_inertia(X, k):
    """Global optimum of the within-cluster sum of squares by enumerating
    every assignment vector (only feasible for tiny N and k)."""
    best = math.inf
    X = np.asarray(X, dtype=np.float64)
    for assign in itertools.product(range(k), repeat=len(X)):
        a = np.array(assign)
        sse = 0.0
        for c in range(k):
            members = X[a == c]
            if len(members):
                mu = members.mean(axis=0)
                sse += float(((members - mu) ** 2).sum())
        if sse < best:
            best = sse
    return best


def scalar_adam_trace(w0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Plain-float Adam trajectory for one scalar parameter."""
    w = float(w0)
    m = v = 0.0
    values = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        w = w - lr * m_hat / (math.sqrt(v_hat) + eps)
        values.append(w)
    return values


def reference_adam_steps(value, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam over one parameter array, written as the whole-array formula with
    a new array per operation; returns the final value, m and v."""
    p = value.copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p, m, v


def assert_in_arena(params):
    """Every parameter's data and grad are views that tile the flat arena in
    insertion order."""
    start = 0
    for name, t in params.items():
        stop = start + t.size
        for view, flat in ((t.data, params.data), (t.grad, params.grad)):
            assert view.base is flat, name
            assert view.ctypes.data == flat[start:stop].ctypes.data, name
            assert view.flags.c_contiguous, name
        start = stop
    assert start == params.data.size == params.grad.size


@pytest.fixture
def desk_config():
    """Small 16x16 configuration used across unit tests."""
    return BearConfig(
        n=16, d=3, r=4, m=16, f_pfe=4, f_rfe=4, f_bfe=4, f_dec=4,
        pf_branches=3, kernel_size=3, seed=0,
    )
