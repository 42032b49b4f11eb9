"""Dense tensors with tape-based reverse-mode automatic differentiation.

Values are numpy arrays in channels-last layout (..., height, width,
channels), stored row-major. Like numpy, every op takes any number of
leading batch axes and treats each leading index as an independent item;
parameters carry no batch axis. float32 is the working precision; build
parameters as float64 when running finite-difference checks.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from contextlib import contextmanager
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ShapeError

Array = np.ndarray
BackwardFn = Callable[[Array], None]

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

# Elements per block of the passes over large arrays (the dense weight
# gradient, Adam's check and update, the initial draws), sized so a block's
# temporaries stay in cache.
CHUNK = 1 << 16

_grad_enabled = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Evaluate forward-only: operations inside record no tape nodes."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """A dense array plus its slot on the recording tape.

    ``grad`` accumulates d(loss)/d(self) additively across backward passes
    until the owner resets it, so fan-out contributions sum as required.
    The shape is fixed at creation; ``reshape`` returns a fresh tensor over
    the same elements.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: BackwardFn | None = None,
    ) -> None:
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        # ascontiguousarray would promote 0-d scalars to rank 1
        self.data: Array = arr if arr.ndim == 0 else np.ascontiguousarray(arr)
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item: tensor has {self.data.size} elements, expected 1")
        return float(self.data.reshape(()))

    def _accumulate(self, g: Array) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> None:
        """Populate gradients of every tape node this scalar depends on."""
        if self.data.size != 1:
            raise ShapeError(f"backward: loss must be a scalar, got shape {self.data.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


def custom_op(value, parents: Sequence[Tensor], backward: BackwardFn) -> Tensor:
    """Create a traced value from a hand-written forward result and backward rule.

    ``backward`` receives the output gradient and must accumulate into each
    parent that has ``requires_grad`` set. Only those parents are recorded,
    and nothing is recorded under ``no_grad``.
    """
    if _records(parents):
        recorded = tuple(p for p in parents if p.requires_grad)
        return Tensor(value, requires_grad=True, _parents=recorded, _backward=backward)
    return Tensor(value)


def _records(parents: Sequence[Tensor]) -> bool:
    """Whether ``custom_op`` records a node over ``parents``: the tape is on
    and at least one parent requires a gradient."""
    return _grad_enabled and any(p.requires_grad for p in parents)


# ---------------------------------------------------------------------------
# primitive operations


@functools.lru_cache(maxsize=64)
def _taps(kh: int, kw: int, H: int, W: int) -> tuple[tuple[int, slice, slice], ...]:
    """Each tap (i, j) of a same-padded kh x kw window over row-major H x W
    maps, in row-major tap order, memoized per shape. Window position p
    reads flat map position p + offset, with offset = (i - kh//2) * W +
    (j - kw//2). Gives the offset, the window positions whose read stays
    inside the flat map, and the columns whose read wraps into a
    neighbouring row instead of the zero padding."""
    taps = []
    for i in range(kh):
        for j in range(kw):
            dx = j - kw // 2
            offset = (i - kh // 2) * W + dx
            start = max(0, -offset)
            inside = slice(start, max(start, min(H * W, H * W - offset)))
            taps.append((offset, inside, slice(0, -dx) if dx < 0 else slice(max(0, W - dx), W)))
    return tuple(taps)


def _windows(maps: Array, kh: int, kw: int, buffer: Array) -> Array:
    """The window matrix of contiguous (C, ..., H, W) maps, written into the
    leading kh*kw*C rows of ``buffer``, a contiguous 2-D array with one column
    per position: row (tap, c) holds the tap's view of map c, zero where the
    tap falls outside it."""
    C, (H, W) = maps.shape[0], maps.shape[-2:]
    out = buffer[: kh * kw * C]
    source = maps.reshape(-1, H * W)
    for tap, (offset, inside, wrapped) in enumerate(_taps(kh, kw, H, W)):
        window = out[tap * C : (tap + 1) * C].reshape(-1, H * W)
        window[:, inside] = source[:, inside.start + offset : inside.stop + offset]
        window[:, : inside.start] = 0
        window[:, inside.stop :] = 0
        window.reshape(-1, H, W)[..., wrapped] = 0
    return out


def _shift_add(planes: Array, kh: int, kw: int, out: Array) -> Array:
    """Adjoint of ``_windows`` (a tap-major col2im): fill contiguous
    (C, ..., H, W) ``out`` with the sum over taps, in tap order from zero, of
    each tap's rows of the (kh*kw*C, positions) matrix ``planes`` moved back
    onto the maps. Zeroes the wrapped columns of ``planes`` in place."""
    C, (H, W) = out.shape[0], out.shape[-2:]
    target = out.reshape(-1, H * W)
    target[...] = 0
    for tap, (offset, inside, wrapped) in enumerate(_taps(kh, kw, H, W)):
        plane = planes[tap * C : (tap + 1) * C].reshape(-1, H * W)
        plane.reshape(-1, H, W)[..., wrapped] = 0
        target[:, inside.start + offset : inside.stop + offset] += plane[:, inside]
    return out


def _channel_major(rows: Array) -> Array:
    """The contiguous (C, positions) transpose of a (positions, C) matrix,
    copied 8192 elements at a time: numpy's one pass over a transposed
    matrix larger than the cache rereads it once per channel."""
    out = np.empty(rows.shape[::-1], rows.dtype)
    step = max(1, 8192 // rows.shape[1])
    for i in range(0, rows.shape[0], step):
        out[:, i : i + step] = rows[i : i + step].T
    return out


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Same-padding, stride-1 2-D convolution of an (..., H, W, C) input with
    a (kh, kw, C, F) kernel of odd extents, giving an (..., H, W, F) output.

    Leading axes fold into the positions of one GEMM. It uses the one
    window concept of the ConvLSTM scan: ``_windows`` of channel-major
    (C, positions) maps and its adjoint ``_shift_add``. The output
    shift-adds the tap planes of the tap-reversed kernel @ x.T; the backward
    pass builds windows(g) once and gets both gradients from it with one
    GEMM each.
    """
    if x.ndim < 3:
        raise ShapeError(f"conv2d: input must have rank 3 or more (..., H, W, C), got rank {x.ndim}")
    if kernel.ndim != 4:
        raise ShapeError(f"conv2d: kernel must be rank 4 (kh, kw, C, F), got rank {kernel.ndim}")
    *lead, H, W, C = x.shape
    kh, kw, kc, F = kernel.shape
    if kc != C:
        raise ShapeError(f"conv2d: kernel depth {kc} does not match input channel axis extent {C}")
    if bias.ndim != 1 or bias.shape[0] != F:
        raise ShapeError(f"conv2d: bias must have extent {F} along the filter axis, got shape {bias.shape}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"conv2d: same padding requires odd kernel extents, got {kh}x{kw}")
    kk = kh * kw
    xmat = x.data.reshape(-1, C)  # one row per position
    N, R = math.prod(lead), xmat.shape[0]
    # row (tap, f) holds the kernel at the reversed tap, so shift-adding
    # its planes gives output position p tap (i, j) of input p + offset
    krev = kernel.data[::-1, ::-1].transpose(0, 1, 3, 2).reshape(kk * F, C)
    planes = krev @ xmat.T
    out = _shift_add(planes, kh, kw, np.empty((F, N, H, W), planes.dtype)).reshape(F, R)
    out += bias.data[:, None]
    out = out.T.reshape(*lead, H, W, F)

    def backward(g: Array) -> None:
        gmat = g.reshape(-1, F)
        if bias.requires_grad:
            bias._accumulate(gmat.sum(axis=0))
        if kernel.requires_grad or x.requires_grad:
            # row (tap, f), column p holds g[f, p + offset]
            gmaps = _channel_major(gmat).reshape(F, N, H, W)
            gwin = _windows(gmaps, kh, kw, np.empty((kk * F, R), gmaps.dtype))
            if kernel.requires_grad:
                # x channel-major, as in the scan: row-major x drifted 4x
                # further from a float64 reference at 11 channels
                dkrev = (gwin @ _channel_major(xmat).T).reshape(kh, kw, F, C)
                kernel._accumulate(dkrev[::-1, ::-1].transpose(0, 1, 3, 2))
            if x.requires_grad:
                x._accumulate((gwin.T @ krev).reshape(x.shape))

    return custom_op(out, (x, kernel, bias), backward)


def dense(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """Affine map of the last axis: out[..., j] = sum_i x[..., i] w_ij + b_j.

    Each leading index is one matrix-vector product (GEMV), in the forward
    pass and for the input gradient. A GEMM over a few rows of a wide weight
    matrix packs the whole matrix and runs slower, and a GEMV gives a row
    the same bits whatever batch it comes in."""
    if x.ndim < 1:
        raise ShapeError(f"dense: input must have rank 1 or more (..., K), got rank {x.ndim}")
    if weights.ndim != 2 or weights.shape[0] != x.shape[-1]:
        raise ShapeError(
            f"dense: weights expect input extent {weights.shape[0] if weights.ndim == 2 else '?'}, "
            f"got {x.shape[-1]} along the input axis"
        )
    if bias.ndim != 1 or bias.shape[0] != weights.shape[1]:
        raise ShapeError(f"dense: bias must have extent {weights.shape[1]}, got shape {bias.shape}")
    out = (x.data[..., None, :] @ weights.data)[..., 0, :] + bias.data

    def backward(g: Array) -> None:
        gmat = g.reshape(-1, g.shape[-1])
        if bias.requires_grad:
            bias._accumulate(gmat.sum(axis=0))
        if weights.requires_grad:
            if weights.grad is None:
                weights.grad = np.zeros_like(weights.data)
            # row blocks of x.T @ g, leading axes folded into rows, added in
            # place: no full-size temporary. One row gives exact outer
            # products, which np.multiply forms in one reused block with the
            # bits of the K=1 GEMM and a fraction of its call cost.
            xmat = x.data.reshape(-1, x.shape[-1])
            rows = max(1, CHUNK // gmat.shape[1])
            outer = None
            if xmat.shape[0] == 1:
                outer = np.empty((min(rows, xmat.shape[1]), gmat.shape[1]), dtype=np.result_type(xmat, gmat))
            for i in range(0, xmat.shape[1], rows):
                if outer is None:
                    weights.grad[i : i + rows] += xmat[:, i : i + rows].T @ gmat
                else:
                    x_i = xmat[0, i : i + rows, None]
                    weights.grad[i : i + rows] += np.multiply(x_i, gmat[0], out=outer[: len(x_i)])
        if x.requires_grad:
            x._accumulate((g[..., None, :] @ weights.data.T)[..., 0, :])

    return custom_op(out, (x, weights, bias), backward)


def _stable_sigmoid(v: Array) -> Array:
    """1 / (1 + exp(-v)) without overflow or a select: exp never sees a
    positive argument. The numerator is exactly 1 for v >= 0 and exactly
    exp(-|v|) for v < 0, so this gives the bits of the masked form
    where(v >= 0, 1 / (1 + e), e / (1 + e)) with e = exp(-|v|).

    Unlike 0.5 * (1 + tanh(v / 2)), it keeps relative accuracy in the
    negative tail instead of rounding to 0 below about -17 in float32. The
    model's output map needs that: the BCE loss takes its log near the 1e-7
    clamp. The ConvLSTM gates only scale the cell and hidden state, so there
    an absolute error near one float32 ulp of 1 is harmless, and the scan
    uses the cheaper tanh form."""
    work = np.exp(np.minimum(v, 0))
    out = np.exp(np.negative(np.abs(v)))
    out += 1.0
    return np.divide(work, out, out=out)


def sigmoid(x: Tensor) -> Tensor:
    y = _stable_sigmoid(x.data)

    def backward(g: Array) -> None:
        if x.requires_grad:
            x._accumulate(g * y * (1.0 - y))

    return custom_op(y, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def backward(g: Array) -> None:
        if x.requires_grad:
            x._accumulate(g * (1.0 - y * y))

    return custom_op(y, (x,), backward)


def downsample_avg(x: Tensor, r: int) -> Tensor:
    """Mean over non-overlapping r x r spatial blocks of an (..., H, W, C)
    input, depth unchanged."""
    if x.ndim < 3:
        raise ShapeError(f"downsample_avg: input must have rank 3 or more, got rank {x.ndim}")
    if r < 1:
        raise ShapeError(f"downsample_avg: factor must be positive, got {r}")
    *lead, H, W, C = x.shape
    if H % r:
        raise ShapeError(f"downsample_avg: height extent {H} is not divisible by {r}")
    if W % r:
        raise ShapeError(f"downsample_avg: width extent {W} is not divisible by {r}")
    out = x.data.reshape(*lead, H // r, r, W // r, r, C).mean(axis=(-4, -2))

    def backward(g: Array) -> None:
        if x.requires_grad:
            x._accumulate(np.repeat(np.repeat(g, r, axis=-3), r, axis=-2) / (r * r))

    return custom_op(out, (x,), backward)


def upsample_nearest(x: Tensor, factor: int) -> Tensor:
    """Replicate each element of an (..., H, W, C) input into a factor x
    factor spatial block."""
    if x.ndim < 3:
        raise ShapeError(f"upsample_nearest: input must have rank 3 or more, got rank {x.ndim}")
    if factor < 1:
        raise ShapeError(f"upsample_nearest: factor must be positive, got {factor}")
    *lead, H, W, C = x.shape
    out = np.repeat(np.repeat(x.data, factor, axis=-3), factor, axis=-2)

    def backward(g: Array) -> None:
        if x.requires_grad:
            x._accumulate(g.reshape(*lead, H, factor, W, factor, C).sum(axis=(-4, -2)))

    return custom_op(out, (x,), backward)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Stack two (..., H, W, C) maps along the channel axis; a's channels
    come first."""
    if a.ndim < 3 or b.ndim < 3:
        raise ShapeError("concat_channels: both inputs must have rank 3 or more")
    if a.shape[:-1] != b.shape[:-1]:
        raise ShapeError(f"concat_channels: batch and spatial extents {a.shape[:-1]} and {b.shape[:-1]} differ")
    ca = a.shape[-1]
    out = np.concatenate([a.data, b.data], axis=-1)

    def backward(g: Array) -> None:
        if a.requires_grad:
            a._accumulate(g[..., :ca])
        if b.requires_grad:
            b._accumulate(g[..., ca:])

    return custom_op(out, (a, b), backward)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    """View the same elements under a new shape (element count preserved)."""
    shape = tuple(int(s) for s in shape)
    count = math.prod(shape)
    if count != x.size:
        raise ShapeError(f"reshape: {shape} holds {count} elements, tensor has {x.size}")
    out = x.data.reshape(shape)

    def backward(g: Array) -> None:
        if x.requires_grad:
            x._accumulate(g.reshape(x.data.shape))

    return custom_op(out, (x,), backward)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply every element by the constant ``c``."""
    c = float(c)
    out = x.data * c

    def backward(g: Array) -> None:
        if x.requires_grad:
            x._accumulate(g * c)

    return custom_op(out, (x,), backward)


def sum_squares(x: Tensor) -> Tensor:
    """Sum of squared elements, as a scalar tape node."""
    out = (x.data * x.data).sum()

    def backward(g: Array) -> None:
        if x.requires_grad:
            x._accumulate((2.0 * float(g)) * x.data)

    return custom_op(out, (x,), backward)


# ---------------------------------------------------------------------------
# parameters and gradient checking


class ParameterSet:
    """Insertion-ordered mapping of unique names to trainable tensors, held in
    one flat arena.

    ``data`` and ``grad`` are flat contiguous arrays of one float dtype, in
    insertion order. Every tensor's ``data`` and ``grad`` is a reshaped view
    into them, so in-place updates of either side are seen by the other.
    Views are never rebound: write into them (``t.grad[...] = g``).
    """

    def __init__(self, values: Mapping[str, Array]) -> None:
        arrays = {name: np.asarray(value) for name, value in values.items()}
        dtypes = {a.dtype for a in arrays.values()} or {np.dtype(np.float32)}
        if len(dtypes) > 1 or not dtypes <= set(_FLOAT_DTYPES):
            raise ValueError(f"parameters must share one float dtype, got {sorted(map(str, dtypes))}")
        (dtype,) = dtypes
        self._starts = [0, *itertools.accumulate(a.size for a in arrays.values())]
        self.data = np.empty(self._starts[-1], dtype)
        # np.zeros, not zeros_like: its pages stay unmapped until a backward pass writes them
        self.grad = np.zeros(self.data.size, dtype)
        self._params: dict[str, Tensor] = {}
        for (name, a), start in zip(arrays.items(), self._starts):
            t = Tensor(self.data[start : start + a.size].reshape(a.shape), requires_grad=True)
            t.data[...] = a
            t.grad = self.grad[start : start + a.size].reshape(a.shape)
            self._params[name] = t

    @classmethod
    def zeros(cls, shapes: Mapping[str, tuple[int, ...]], dtype=np.float32) -> "ParameterSet":
        """Zero tensors of the given shapes. Zero-stride placeholders stand in
        for the values, so the arena is the one allocation."""
        zero = np.zeros((), dtype)
        return cls({name: np.broadcast_to(zero, shape) for name, shape in shapes.items()})

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self._params[name]
        except KeyError:
            raise KeyError(f"unknown parameter {name!r}") from None

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._params.items())

    def name_at(self, index: int) -> str:
        """The parameter that holds flat arena element ``index``."""
        return self.names()[bisect.bisect_right(self._starts, index) - 1]

    def zero_grads(self) -> None:
        self.grad.fill(0)


class GradCheck(NamedTuple):
    """Mismatch between tape gradients and central differences.

    ``error`` is the largest |analytic - numeric| / max(1, |analytic|) over
    the checked coordinates. ``scaled_error`` is the largest, over
    parameters, of max |analytic - numeric| / max |numeric| on that
    parameter's checked coordinates, so it also sees gradients far below 1.
    ``coordinates`` counts the checked coordinates.
    """

    error: float
    scaled_error: float
    coordinates: int


def grad_check(
    f: Callable[[ParameterSet], Tensor],
    params: ParameterSet,
    h: float = 1e-4,
    samples: int | None = None,
    seed: int = 0,
) -> GradCheck:
    """Compare tape gradients with numeric = (f(p + h e) - f(p - h e)) / 2h.

    When ``samples`` is given, coordinates are drawn per parameter in
    proportion to its size (at least one each); otherwise every coordinate
    is checked. Parameters must be float64.
    """
    if params.data.dtype != np.float64:
        raise ValueError(f"grad_check requires float64 parameters, got {params.data.dtype}")
    params.zero_grads()
    f(params).backward()
    analytic = {name: t.grad.copy() for name, t in params.items()}
    rng = np.random.default_rng(seed)
    total = params.data.size
    error = scaled_error = 0.0
    count = 0
    for name, t in params.items():
        flat = t.data.reshape(-1)
        if samples is None:
            coords = np.arange(flat.size)
        else:
            want = min(flat.size, max(1, math.ceil(samples * flat.size / total)))
            coords = rng.choice(flat.size, size=want, replace=False)
        ana = analytic[name].reshape(-1)[coords]
        numeric = np.empty(coords.size)
        for k, c in enumerate(coords):
            original = flat[c]
            flat[c] = original + h
            with no_grad():
                fp = float(f(params).data)
            flat[c] = original - h
            with no_grad():
                fm = float(f(params).data)
            flat[c] = original
            numeric[k] = (fp - fm) / (2.0 * h)
        diff = np.abs(ana - numeric)
        if diff.size and diff.max() > 0:
            error = max(error, float((diff / np.maximum(1.0, np.abs(ana))).max()))
            reference = np.abs(numeric).max()
            scaled_error = max(scaled_error, float(diff.max() / reference) if reference > 0 else math.inf)
        count += coords.size
    return GradCheck(error, scaled_error, count)
