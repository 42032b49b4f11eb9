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
import mmap
import os
from contextlib import contextmanager, suppress
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


# Blocks handed back inside ``reuse_memory``, or None outside it.
_free: list[Array] | None = None


@contextmanager
def reuse_memory() -> Iterator[None]:
    """Keep the blocks handed back with ``_give`` inside this context, and let
    ``_take`` hand them out again; they are dropped when it exits. A training
    run's steps ask for the same large arrays every micro-batch, and memory
    freed to the allocator goes back to the kernel and faults in again. Like
    ``no_grad``, it sets module state, so it serves one thread at a time."""
    global _free
    previous = _free
    _free = []
    try:
        yield
    finally:
        _free = previous


def _take(shape: tuple[int, ...], dtype) -> Array:
    """An uninitialised array: inside ``reuse_memory`` a view of the smallest
    free block with enough bytes, otherwise ``np.empty``."""
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    fits = [i for i, block in enumerate(_free or ()) if block.nbytes >= nbytes]
    if not fits:
        return np.empty(shape, dtype)
    block = _free.pop(min(fits, key=lambda i: _free[i].nbytes))
    return block[:nbytes].view(dtype).reshape(shape)


def _give(*arrays: Array) -> None:
    """Hand back arrays whose contents are dead: inside ``reuse_memory`` the
    whole block each one views (the array itself if it owns its memory) goes
    on the free list, as bytes."""
    if _free is not None:
        _free.extend((a if a.base is None else a.base).reshape(-1).view(np.uint8) for a in arrays)


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
        """Populate gradients of every tape node this scalar depends on.

        A graph that holds a ConvLSTM scan is back-propagated once: the
        scan's backward pass consumes the state it saved, and a second pass
        through it raises RuntimeError."""
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


def _local(value, *pairs: tuple[Tensor, Callable[[Array], Array]]) -> Tensor:
    """A ``custom_op`` node given by its local derivatives: each pair is a
    parent and that parent's gradient as a function of the node's gradient.
    The backward pass adds it into each parent that requires a gradient."""

    def backward(g: Array) -> None:
        for parent, local in pairs:
            if parent.requires_grad:
                parent._accumulate(local(g))

    return custom_op(value, tuple(parent for parent, _ in pairs), backward)


# ---------------------------------------------------------------------------
# primitive operations


class _Grid(NamedTuple):
    """The zero-gutter grid of N row-major H x W maps for kh x kw windows: each
    map row is followed by kw//2 zero columns, each map by kh//2 zero rows,
    and ``lead`` zeros come before and after the whole. A grid array of C maps
    is (C, length); its ``cols`` columns from ``lead`` on are the columns of a
    window matrix. Window column p of tap (i, j) reads grid column p + start,
    start = lead + (i - kh//2) * (W + kw//2) + j - kw//2, a gutter or margin
    wherever the tap leaves its map, so each tap is one plain slice. Gutter
    columns of a window read map elements, so a grid array computed from
    windows needs its gutters zeroed before its windows are taken."""

    shape: tuple[int, int, int, int, int]  # N, H, W, H + kh//2, W + kw//2
    lead: int
    cols: int
    length: int
    starts: tuple[int, ...]  # per tap (i, j), row-major

    def maps(self, a: Array) -> Array:
        """The (..., N, H, W) map elements of a grid array or of window columns."""
        N, H, W, rows, row = self.shape
        a = a if a.shape[-1] == self.cols else a[..., self.lead : self.lead + self.cols]
        return a.reshape(*a.shape[:-1], N, rows, row)[..., :H, :W]

    def zero_gutters(self, a: Array) -> None:
        """Zero the gutters of window columns (..., cols) in place."""
        N, H, W, rows, row = self.shape
        cells = a.reshape(*a.shape[:-1], N, rows, row)
        cells[..., H:, :] = cells[..., W:] = 0


@functools.lru_cache(maxsize=64)
def _grid(kh: int, kw: int, N: int, H: int, W: int) -> _Grid:
    row, rows = W + kw // 2, H + kh // 2
    lead, cols = kh // 2 * row + kw // 2, N * rows * row
    starts = tuple(lead + (i - kh // 2) * row + j - kw // 2 for i in range(kh) for j in range(kw))
    return _Grid((N, H, W, rows, row), lead, cols, cols + 2 * lead, starts)


def _channel_major(rows: Array, grid: _Grid) -> Array:
    """A fresh grid array (C, length) of the (positions, C) matrix ``rows``,
    transposed in blocks of ``CHUNK`` elements or fewer: numpy's one pass over
    a transposed matrix larger than the cache rereads it once per channel."""
    N, H, W = grid.shape[:3]
    out = np.zeros((rows.shape[1], grid.length), rows.dtype)
    maps, source = grid.maps(out), rows.reshape(N, H, W, -1)
    step = max(1, CHUNK // rows[:W].size)  # map rows per block
    per = max(1, step // H)  # maps per block: whole ones, where a map fits
    for n, y in itertools.product(range(0, N, per), range(0, H, step)):
        maps[:, n : n + per, y : y + step] = np.moveaxis(source[n : n + per, y : y + step], -1, 0)
    return out


def _windows(source: Array, grid: _Grid, buffer: Array) -> Array:
    """The window matrix of the (C, length) grid array ``source``, written
    into the leading taps*C rows of ``buffer`` (rows, cols): row (tap, c)
    holds the tap's slice of map c."""
    C = source.shape[0]
    out = buffer[: len(grid.starts) * C]
    for tap, start in enumerate(grid.starts):
        out[tap * C : (tap + 1) * C] = source[:, start : start + grid.cols]
    return out


def _shift_add(planes: Array, grid: _Grid, out: Array) -> Array:
    """Adjoint of ``_windows`` (a tap-major col2im): fill the (C, length) grid
    array ``out`` with the sum over taps, in tap order from zero, of each
    tap's C rows of ``planes`` (taps*C, cols) moved back onto the grid. On the
    map elements this is the adjoint wherever the planes' gutter columns are
    zero; the gutters and margins of ``out`` hold no map element."""
    C = out.shape[0]
    out[...] = 0
    for tap, start in enumerate(grid.starts):
        out[:, start : start + grid.cols] += planes[tap * C : (tap + 1) * C]
    return out


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Same-padding, stride-1 2-D convolution of an (..., H, W, C) input with
    a (kh, kw, C, F) kernel of odd extents, giving an (..., H, W, F) output.

    Leading axes fold into the maps of one zero-gutter grid (``_Grid``), the
    window concept of the ConvLSTM scan. The output shift-adds the tap planes
    of the tap-reversed kernel @ the input's channel-major grid; the backward
    pass reads that grid again, builds the window matrix of the output
    gradient's grid once and gets both gradients from it with one GEMM each.
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
    xmat = x.data.reshape(-1, C)  # one row per position
    grid = _grid(kh, kw, xmat.shape[0] // (H * W), H, W)
    # x channel-major, as in the scan: row-major x drifted 4x further from a
    # float64 reference at 11 channels in the kernel gradient
    xcols = _channel_major(xmat, grid)[:, grid.lead : grid.lead + grid.cols]
    # row (tap, f) holds the kernel at the reversed tap, so shift-adding
    # its planes gives output position p tap (i, j) of input p + offset
    krev = kernel.data[::-1, ::-1].transpose(0, 1, 3, 2).reshape(kh * kw * F, C)
    planes = krev @ xcols
    out = grid.maps(_shift_add(planes, grid, np.empty((F, grid.length), planes.dtype)))
    out += bias.data[:, None, None, None]
    out = np.moveaxis(out, 0, -1).reshape(*lead, H, W, F)

    def backward(g: Array) -> None:
        gmat = g.reshape(-1, F)
        if bias.requires_grad:
            bias._accumulate(gmat.sum(axis=0))
        if kernel.requires_grad or x.requires_grad:
            # row (tap, f), column p holds g[f, p + offset]
            gwin = _windows(_channel_major(gmat, grid), grid, np.empty((kh * kw * F, grid.cols), gmat.dtype))
            if kernel.requires_grad:
                dkrev = (gwin @ xcols.T).reshape(kh, kw, F, C)
                kernel._accumulate(dkrev[::-1, ::-1].transpose(0, 1, 3, 2))
            if x.requires_grad:
                dx = grid.maps((gwin.T @ krev).T)
                x._accumulate(np.moveaxis(dx, 0, -1).reshape(x.shape))

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
    return _local(y, (x, lambda g: g * y * (1.0 - y)))


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    return _local(y, (x, lambda g: g * (1.0 - y * y)))


def box_mean(x: Array, rh: int, rw: int) -> Array:
    """Mean over non-overlapping rh x rw spatial blocks of a float (..., H, W, C)
    array whose H and W the factors divide, in the input's dtype.

    Each block is summed in row-major order by in-place adds of whole
    strided planes, ((x00 + x01) + ...) + x10 ..., then divided once by
    rh * rw. The order is fixed here rather than left to ``.mean``, whose
    order depends on the layout: it is the same for C >= 2 and differs in
    the last bits for C = 1."""
    *lead, H, W, C = x.shape
    blocks = x.reshape(*lead, H // rh, rh, W // rw, rw, C)
    out = blocks[..., 0, :, 0, :].copy()
    for i, j in itertools.product(range(rh), range(rw)):
        if i or j:
            out += blocks[..., i, :, j, :]
    out /= rh * rw
    return out


def downsample_avg(x: Tensor, r: int) -> Tensor:
    """Mean over non-overlapping r x r spatial blocks of an (..., H, W, C)
    input, depth unchanged."""
    if x.ndim < 3:
        raise ShapeError(f"downsample_avg: input must have rank 3 or more, got rank {x.ndim}")
    if r < 1:
        raise ShapeError(f"downsample_avg: factor must be positive, got {r}")
    H, W = x.shape[-3:-1]
    if H % r:
        raise ShapeError(f"downsample_avg: height extent {H} is not divisible by {r}")
    if W % r:
        raise ShapeError(f"downsample_avg: width extent {W} is not divisible by {r}")
    out = box_mean(x.data, r, r)
    return _local(out, (x, lambda g: np.repeat(np.repeat(g, r, axis=-3), r, axis=-2) / (r * r)))


def upsample_nearest(x: Tensor, factor: int) -> Tensor:
    """Replicate each element of an (..., H, W, C) input into a factor x
    factor spatial block."""
    if x.ndim < 3:
        raise ShapeError(f"upsample_nearest: input must have rank 3 or more, got rank {x.ndim}")
    if factor < 1:
        raise ShapeError(f"upsample_nearest: factor must be positive, got {factor}")
    *lead, H, W, C = x.shape
    out = np.repeat(np.repeat(x.data, factor, axis=-3), factor, axis=-2)
    return _local(out, (x, lambda g: g.reshape(*lead, H, factor, W, factor, C).sum(axis=(-4, -2))))


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Stack two (..., H, W, C) maps along the channel axis; a's channels
    come first."""
    if a.ndim < 3 or b.ndim < 3:
        raise ShapeError("concat_channels: both inputs must have rank 3 or more")
    if a.shape[:-1] != b.shape[:-1]:
        raise ShapeError(f"concat_channels: batch and spatial extents {a.shape[:-1]} and {b.shape[:-1]} differ")
    ca = a.shape[-1]
    out = np.concatenate([a.data, b.data], axis=-1)
    return _local(out, (a, lambda g: g[..., :ca]), (b, lambda g: g[..., ca:]))


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    """View the same elements under a new shape (element count preserved)."""
    shape = tuple(int(s) for s in shape)
    count = math.prod(shape)
    if count != x.size:
        raise ShapeError(f"reshape: {shape} holds {count} elements, tensor has {x.size}")
    return _local(x.data.reshape(shape), (x, lambda g: g.reshape(x.data.shape)))


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply every element by the constant ``c``."""
    c = float(c)
    return _local(x.data * c, (x, lambda g: g * c))


def sum_squares(x: Tensor) -> Tensor:
    """Sum of squared elements, as a scalar tape node."""
    return _local((x.data * x.data).sum(), (x, lambda g: (2.0 * float(g)) * x.data))


# ---------------------------------------------------------------------------
# parameters and gradient checking


# A block of 4 MiB or more asks for transparent huge pages, as numpy does for
# its own arrays unless NUMPY_MADVISE_HUGEPAGE=0: without them, the first
# writes to a full-scale arena take about twice as long.
_HUGE_PAGES = hasattr(mmap, "MADV_HUGEPAGE") and int(os.environ.get("NUMPY_MADVISE_HUGEPAGE", "1")) != 0


def _zero_block(count: int, dtype: np.dtype) -> Array:
    """``count`` zeros in an anonymous mapping of their own. Its pages are
    mapped on first write, so a block that is never written (the gradients
    of a load that only runs inference) costs no memory, and the whole block
    goes back to the system when freed. A block from the allocator's heap
    can stay resident after it is freed."""
    nbytes = count * dtype.itemsize
    try:
        block = mmap.mmap(-1, max(1, nbytes), flags=mmap.MAP_PRIVATE)
    except (OSError, OverflowError):  # for want of memory, or of a size that ssize_t holds
        raise MemoryError(f"Unable to map {nbytes / 2**30:.1f} GiB for a parameter arena") from None
    if _HUGE_PAGES and nbytes >= 1 << 22:
        with suppress(OSError):  # advice only: a kernel without huge pages refuses it
            block.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(block, dtype, count)


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
        self._allocate({name: a.shape for name, a in arrays.items()}, dtype)
        for t, a in zip(self._params.values(), arrays.values()):
            t.data[...] = a

    @classmethod
    def zeros(cls, shapes: Mapping[str, tuple[int, ...]], dtype=np.float32) -> "ParameterSet":
        """Zero tensors of the given shapes. A fresh arena already holds
        zeros, so nothing is written and no page is touched."""
        params = cls.__new__(cls)
        params._allocate(shapes, np.dtype(dtype))
        return params

    def _allocate(self, shapes: Mapping[str, tuple[int, ...]], dtype: np.dtype) -> None:
        self._starts = [0, *itertools.accumulate(math.prod(shape) for shape in shapes.values())]
        self.data = _zero_block(self._starts[-1], dtype)
        self.grad = _zero_block(self._starts[-1], dtype)
        self._params: dict[str, Tensor] = {}
        for (name, shape), start, stop in zip(shapes.items(), self._starts, self._starts[1:]):
            t = Tensor(self.data[start:stop].reshape(shape), requires_grad=True)
            t.grad = self.grad[start:stop].reshape(shape)
            self._params[name] = t

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
