"""ConvLSTM cell, channel-sequence scan, the zero-gutter grids and their window matrices, the folded mean of
parallel convolutions."""

import numpy as np
import pytest

from conftest import naive_conv2d, reference_convlstm_step

from bear.blocks import convlstm_over_channels, mean_conv
from bear.errors import ShapeError
import bear.tensor
from bear.tensor import (
    ParameterSet,
    Tensor,
    _channel_major,
    _give,
    _grid,
    _shift_add,
    _take,
    _windows,
    conv2d,
    custom_op,
    grad_check,
    no_grad,
    reuse_memory,
    sum_squares,
)


def _cell(rng, filters=2, extent=3, scale=0.4, dtype=np.float64):
    """A cell's (input kernels, recurrent kernels, biases)."""
    shape_in = (extent, extent, 1, 4 * filters)
    shape_rec = (extent, extent, filters, 4 * filters)
    return (
        Tensor((rng.normal(size=shape_in) * scale).astype(dtype)),
        Tensor((rng.normal(size=shape_rec) * scale).astype(dtype)),
        Tensor((rng.normal(size=4 * filters) * scale).astype(dtype)),
    )


def _zero_cell(filters=2, extent=3, dtype=np.float64):
    return (
        Tensor(np.zeros((extent, extent, 1, 4 * filters), dtype=dtype)),
        Tensor(np.zeros((extent, extent, filters, 4 * filters), dtype=dtype)),
        Tensor(np.zeros(4 * filters, dtype=dtype)),
    )


def _reference_scan(x, cell):
    """Final hidden state of ``reference_convlstm_step`` iterated over the
    channels of ``x`` from zero state."""
    input_kernels, recurrent_kernels, biases = (t.data for t in cell)
    F = recurrent_kernels.shape[2]
    h = np.zeros(x.shape[:2] + (F,))
    c = np.zeros(x.shape[:2] + (F,))
    for t in range(x.shape[2]):
        h, c = reference_convlstm_step(x[:, :, t : t + 1], h, c, input_kernels, recurrent_kernels, biases)
    return h


class TestConvLstmStep:
    """The cell equations, checked through the channel scan."""

    def test_all_zero_parameters_give_zero_output(self):
        x = Tensor(np.random.default_rng(0).normal(size=(5, 5, 3)))
        h = convlstm_over_channels(x, *_zero_cell())
        assert np.all(h.data == 0.0)

    def test_zero_input_kernels_make_output_independent_of_input(self):
        rng = np.random.default_rng(1)
        p = _cell(rng)
        p[0].data[:] = 0.0  # the input kernels
        out_a = convlstm_over_channels(Tensor(rng.normal(size=(4, 4, 3))), *p)
        out_b = convlstm_over_channels(Tensor(rng.normal(size=(4, 4, 3))), *p)
        assert np.array_equal(out_a.data, out_b.data)

    def test_matches_unfused_per_gate_oracle(self):
        rng = np.random.default_rng(2)
        p = _cell(rng, filters=3)
        x = rng.normal(size=(8, 8, 3))
        h = convlstm_over_channels(Tensor(x), *p)
        assert np.abs(h.data - _reference_scan(x, p)).max() < 1e-6

    @pytest.mark.parametrize("extent", [1, 3, 5])
    def test_preserves_spatial_extents(self, extent):
        rng = np.random.default_rng(extent)
        p = _cell(rng, filters=2, extent=extent)
        h = convlstm_over_channels(Tensor(rng.normal(size=(7, 7, 2))), *p)
        assert h.shape == (7, 7, 2)

    def test_hidden_state_strictly_bounded(self):
        rng = np.random.default_rng(4)
        p = _cell(rng, scale=3.0)
        h = convlstm_over_channels(Tensor(rng.normal(size=(6, 6, 4)) * 5), *p)
        assert np.abs(h.data).max() < 1.0

    def test_forget_gate_saturation_keeps_cell_state(self):
        # i, f and o saturate at 1, so c after T steps is T * tanh(b_g)
        p = _zero_cell(filters=2)
        biases = p[2].data
        biases[0:4] = 20.0  # input and forget slices of (i, f, g, o)
        biases[6:8] = 20.0  # output slice
        biases[4:6] = [0.3, -0.7]  # candidate slice
        T = 3
        h = convlstm_over_channels(Tensor(np.zeros((4, 4, T))), *p)
        want = np.tanh(T * np.tanh(np.array([0.3, -0.7])))
        assert np.abs(h.data - want).max() < 1e-6


class TestConvLstmOverChannels:
    def test_single_channel_equals_single_step(self):
        rng = np.random.default_rng(6)
        p = _cell(rng)
        x = rng.normal(size=(5, 5, 1))
        scanned = convlstm_over_channels(Tensor(x), *p)
        stepped, _ = reference_convlstm_step(x, np.zeros((5, 5, 2)), np.zeros((5, 5, 2)), *(t.data for t in p))
        assert np.abs(scanned.data - stepped).max() < 1e-12

    def test_three_channels_match_iterated_reference_step(self):
        rng = np.random.default_rng(13)
        p = _cell(rng, filters=2)
        x = rng.normal(size=(6, 5, 3))
        h = convlstm_over_channels(Tensor(x), *p)
        assert np.abs(h.data - _reference_scan(x, p)).max() < 1e-6
        # leading axes are scanned as independent maps
        xs = rng.normal(size=(2, 1, 6, 5, 3))
        hs = convlstm_over_channels(Tensor(xs), *p)
        assert hs.shape == (2, 1, 6, 5, 2)
        for index in np.ndindex(2, 1):
            assert np.abs(hs.data[index] - _reference_scan(xs[index], p)).max() < 1e-6

    def test_channel_order_matters(self):
        rng = np.random.default_rng(7)
        p = _cell(rng)
        x = rng.normal(size=(5, 5, 3))
        forward_order = convlstm_over_channels(Tensor(x), *p)
        reversed_order = convlstm_over_channels(Tensor(x[:, :, ::-1].copy()), *p)
        assert np.abs(forward_order.data - reversed_order.data).max() > 1e-6

    def test_output_shape(self):
        rng = np.random.default_rng(8)
        p = _cell(rng, filters=16)
        out = convlstm_over_channels(Tensor(rng.normal(size=(32, 32, 3))), *p)
        assert out.shape == (32, 32, 16)

    @pytest.mark.parametrize(
        "extent,lead,steps",
        [(1, (), 4), (3, (), 4), (1, (2,), 4), (3, (2,), 4), (3, (), 1), (3, (2,), 1)],
        # one step multiplies only the input and ones rows of the folded
        # kernel matrix, so the recurrent kernels' gradient is zero
        ids=["1", "3", "1-batch2", "3-batch2", "3-one-step", "3-one-step-batch2"],
    )
    def test_gradients_match_finite_differences(self, extent, lead, steps):
        rng = np.random.default_rng(14 + extent)
        params = ParameterSet({
            "x": rng.normal(size=(*lead, 5, 4, steps)),
            "input-kernels": rng.normal(size=(extent, extent, 1, 8)) * 0.5,
            "recurrent-kernels": rng.normal(size=(extent, extent, 2, 8)) * 0.5,
            "biases": rng.normal(size=8) * 0.5,
        })

        def loss(p):
            return sum_squares(convlstm_over_channels(p["x"], p["input-kernels"], p["recurrent-kernels"], p["biases"]))

        assert grad_check(loss, params, h=1e-5).error < 1e-6

    @pytest.mark.parametrize("extent,H,W", [(1, 7, 5), (3, 7, 5), (7, 3, 2)], ids=["1", "3", "7"])
    def test_non_square_batch_matches_iterated_reference_step(self, extent, H, W):
        # 7x5 maps, a batch of 3 and 4 steps: rows of the channel-major
        # layout neither match the map width nor divide evenly. A 7x7 kernel
        # on 3x2 maps reaches further sideways than a map is wide.
        rng = np.random.default_rng(20 + extent)
        p = _cell(rng, filters=3, extent=extent)
        xs = rng.normal(size=(3, H, W, 4))
        hs = convlstm_over_channels(Tensor(xs), *p)
        assert hs.shape == (3, H, W, 3)
        for index in range(3):
            assert np.abs(hs.data[index] - _reference_scan(xs[index], p)).max() < 1e-9

    @pytest.mark.parametrize("extent", [1, 3])
    def test_non_square_batch_gradients_match_finite_differences(self, extent):
        rng = np.random.default_rng(30 + extent)
        params = ParameterSet({
            "x": rng.normal(size=(3, 7, 5, 4)),
            "input-kernels": rng.normal(size=(extent, extent, 1, 12)) * 0.5,
            "recurrent-kernels": rng.normal(size=(extent, extent, 3, 12)) * 0.5,
            "biases": rng.normal(size=12) * 0.5,
        })

        def loss(p):
            return sum_squares(convlstm_over_channels(p["x"], p["input-kernels"], p["recurrent-kernels"], p["biases"]))

        check = grad_check(loss, params, h=1e-5)
        assert check.error < 1e-6 and check.scaled_error < 1e-6

    @pytest.mark.parametrize("steps", [1, 3])
    @pytest.mark.parametrize(
        "frozen",
        [("x",), ("input-kernels",), ("input-kernels", "recurrent-kernels", "biases")],
        ids=["x", "input-kernels", "all-kernels"],
    )
    def test_frozen_parents_get_no_gradient(self, frozen, steps):
        # pfe's first cell scans the image, which needs no gradient
        rng = np.random.default_rng(61)
        values = {
            "x": rng.normal(size=(2, 5, 4, steps)),
            "input-kernels": rng.normal(size=(3, 3, 1, 8)) * 0.5,
            "recurrent-kernels": rng.normal(size=(3, 3, 2, 8)) * 0.5,
            "biases": rng.normal(size=8) * 0.5,
        }
        fixed = {name: Tensor(values.pop(name)) for name in frozen}
        params = ParameterSet(values)

        def loss(p):
            get = {**fixed, **dict(p.items())}
            cell = get["input-kernels"], get["recurrent-kernels"], get["biases"]
            return sum_squares(convlstm_over_channels(get["x"], *cell))

        check = grad_check(loss, params, h=1e-5)
        assert check.error < 1e-6 and check.scaled_error < 1e-6
        assert all(t.grad is None for t in fixed.values())

    def test_forward_without_a_tape_matches_the_taped_forward_bit_for_bit(self):
        # without a tape the scan keeps one step of state instead of all of them
        rng = np.random.default_rng(17)
        p = _cell(rng, filters=3, dtype=np.float32)
        for t in p:
            t.requires_grad = True
        x = Tensor(rng.normal(size=(3, 7, 5, 6)).astype(np.float32))
        taped = convlstm_over_channels(x, *p)
        assert taped.requires_grad
        with no_grad():
            untaped = convlstm_over_channels(x, *p)
        assert not untaped.requires_grad
        assert np.array_equal(taped.data, untaped.data)

    @pytest.mark.parametrize("scale", [0.4, 3.0, 10.0])
    def test_float32_scan_matches_the_float64_oracle(self, scale):
        # the gates come from one float32 tanh pass, which errs by about one
        # ulp of 1; the pre-activation sums round by an amount that grows with
        # the kernel scale, and at 10 the gates saturate
        rng = np.random.default_rng(40)
        p = _cell(rng, scale=scale, dtype=np.float32)
        x = rng.normal(size=(8, 8, 3)).astype(np.float32)
        h = convlstm_over_channels(Tensor(x), *p)
        assert h.data.dtype == np.float32
        exact = [Tensor(t.data.astype(np.float64)) for t in p]
        assert np.abs(h.data - _reference_scan(x.astype(np.float64), exact)).max() < 1e-5

    def test_scan_leaves_its_parameters_untouched(self):
        # the forward pass runs on halved copies of the kernels and biases;
        # halving the arena views in place would corrupt the weights silently
        rng = np.random.default_rng(19)
        params = ParameterSet({
            "input-kernels": rng.normal(size=(3, 3, 1, 12)).astype(np.float32),
            "recurrent-kernels": rng.normal(size=(3, 3, 3, 12)).astype(np.float32),
            "biases": rng.normal(size=12).astype(np.float32),
        })
        before = params.data.copy()
        cell = params["input-kernels"], params["recurrent-kernels"], params["biases"]
        x = Tensor(rng.normal(size=(2, 6, 5, 4)).astype(np.float32))
        sum_squares(convlstm_over_channels(x, *cell)).backward()
        assert np.abs(params.grad).max() > 0
        with no_grad():
            convlstm_over_channels(x, *cell)
        assert np.array_equal(params.data, before)

    def test_a_second_backward_pass_through_a_scan_is_a_clear_error(self):
        # the first pass overwrites the gates it saved with their gradients
        rng = np.random.default_rng(18)
        p = _cell(rng)
        x = Tensor(rng.normal(size=(5, 5, 3)), requires_grad=True)
        loss = sum_squares(convlstm_over_channels(x, *p))
        loss.backward()
        with pytest.raises(RuntimeError, match="an earlier backward pass consumed the scan's saved state"):
            loss.backward()

    def test_scan_is_one_tape_node(self):
        rng = np.random.default_rng(16)
        p = _cell(rng)
        for t in p:
            t.requires_grad = True
        x = Tensor(rng.normal(size=(5, 5, 3)), requires_grad=True)
        out = convlstm_over_channels(x, *p)
        assert out._parents == (x, *p)


def _scan_run(seed, extent, filters, taped):
    """The output and, when ``taped``, every gradient of one float32 scan of
    a batch of two maps, as arrays."""
    rng = np.random.default_rng(seed)
    p = _cell(rng, filters=filters, extent=extent, dtype=np.float32)
    x = Tensor(rng.normal(size=(2, 6, 5, 3)).astype(np.float32), requires_grad=taped)
    for t in p:
        t.requires_grad = taped
    out = convlstm_over_channels(x, *p)
    if not taped:
        return [out.data]
    sum_squares(out).backward()
    return [out.data, x.grad, *(t.grad for t in p)]


def _scan_operands(x=(4, 4, 2), input_kernels=(3, 3, 1, 8), recurrent_kernels=(3, 3, 2, 8), biases=(8,)):
    """Zero operands of a scan of the given shapes."""
    return [Tensor(np.zeros(shape)) for shape in (x, input_kernels, recurrent_kernels, biases)]


def _branch(kernel, bias):
    return Tensor(np.zeros(kernel)), Tensor(np.zeros(bias))


MALFORMED_OPERANDS = {
    "scan-input-rank": (
        lambda: convlstm_over_channels(*_scan_operands(x=(4, 2))),
        "convlstm_over_channels: input must have rank 3 or more, got rank 2",
    ),
    "scan-input-kernels-rank": (
        lambda: convlstm_over_channels(*_scan_operands(input_kernels=(3, 3, 8))),
        "input kernels must be (k, k, 1, 4F), got (3, 3, 8)",
    ),
    "scan-input-kernels-read-two-channels": (
        lambda: convlstm_over_channels(*_scan_operands(input_kernels=(3, 3, 2, 8))),
        "input kernels must be (k, k, 1, 4F), got (3, 3, 2, 8)",
    ),
    "scan-recurrent-kernels-rank": (
        lambda: convlstm_over_channels(*_scan_operands(recurrent_kernels=(3, 3, 8))),
        "recurrent kernels must be (k, k, F, 4F), got (3, 3, 8)",
    ),
    "scan-extents-disagree": (
        lambda: convlstm_over_channels(*_scan_operands(recurrent_kernels=(5, 5, 2, 8))),
        "kernel extents disagree: (3, 3, 1, 8) vs (5, 5, 2, 8)",
    ),
    "scan-even-extent": (
        lambda: convlstm_over_channels(*_scan_operands(input_kernels=(2, 2, 1, 8), recurrent_kernels=(2, 2, 2, 8))),
        "kernel extent must be odd, got 2",
    ),
    "scan-gate-axis": (
        lambda: convlstm_over_channels(*_scan_operands(input_kernels=(3, 3, 1, 6))),
        "stacked gate axis must be 4F=8, got 6 and 8",
    ),
    "scan-bias-extent": (
        lambda: convlstm_over_channels(*_scan_operands(biases=(6,))),
        "biases must have extent 8, got shape (6,)",
    ),
    "scan-bias-rank": (
        lambda: convlstm_over_channels(*_scan_operands(biases=(8, 1))),
        "biases must have extent 8, got shape (8, 1)",
    ),
    "mean-conv-kernel-rank": (
        lambda: mean_conv(Tensor(np.zeros((4, 4, 1))), [_branch((3, 3, 1), (1,))]),
        "mean_conv: branch kernels must be rank 4, got rank 3",
    ),
    "mean-conv-bias-extent": (
        lambda: mean_conv(Tensor(np.zeros((4, 4, 1))), [_branch((1, 1, 1, 2), (2,)), _branch((3, 3, 1, 2), (3,))]),
        "mean_conv: branch bias must have extent 2, got shape (3,)",
    ),
}


@pytest.mark.parametrize("call,message", MALFORMED_OPERANDS.values(), ids=list(MALFORMED_OPERANDS))
def test_malformed_operands_are_rejected_by_name(call, message):
    with pytest.raises(ShapeError) as info:
        call()
    assert str(info.value) == message


class TestFreeList:
    """Inside ``reuse_memory`` the scan takes its large arrays from a free list
    and hands them back; outside it, ``_take`` is ``np.empty``."""

    # a 1x1 kernel with one filter has no gutters, so the scan's output map
    # would be a contiguous view of its hidden-map block
    CASES = [(3, 2), (1, 1)]

    @pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
    @pytest.mark.parametrize("extent,filters", CASES, ids=["3x3", "1x1-one-filter"])
    def test_scan_on_dirty_blocks_matches_fresh_memory(self, extent, filters, taped):
        fresh = _scan_run(5, extent, filters, taped)
        with reuse_memory():
            seeded = [np.full(4096, np.nan, np.float32) for _ in range(8)]
            _give(*seeded)
            dirty = _scan_run(5, extent, filters, taped)
            # every request was served from a seeded block, and every block came back
            assert sorted(b.ctypes.data for b in bear.tensor._free) == sorted(b.ctypes.data for b in seeded)
        assert len(dirty) == len(fresh)
        for got, want in zip(dirty, fresh):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
    @pytest.mark.parametrize("extent,filters", CASES, ids=["3x3", "1x1-one-filter"])
    def test_writing_a_handed_back_block_leaves_the_output_alone(self, extent, filters, taped):
        with reuse_memory():
            results = _scan_run(6, extent, filters, taped)
            kept = [r.copy() for r in results]
            assert bear.tensor._free
            for block in bear.tensor._free:
                block[...] = 0xFF
        for got, want in zip(results, kept):
            assert got.tobytes() == want.tobytes()

    def test_take_outside_the_context_never_reuses_a_block(self):
        first = _take((4, 8), np.float32)
        _give(first)
        assert bear.tensor._free is None
        second = _take((4, 8), np.float32)
        assert second.shape == (4, 8) and second.dtype == np.float32
        assert not np.shares_memory(first, second)

    def test_take_hands_out_the_smallest_block_that_fits(self):
        with reuse_memory():
            small, large = np.empty(64, np.uint8), np.empty(256, np.uint8)
            _give(large, small)
            a = _take((4, 4), np.float32)  # 64 bytes
            assert np.shares_memory(a, small) and a.shape == (4, 4) and a.dtype == np.float32
            b = _take((3,), np.float64)  # 24 bytes: only the large block is left
            assert np.shares_memory(b, large)
            c = _take((1,), np.float32)  # the free list is empty now
            assert not np.shares_memory(c, small) and not np.shares_memory(c, large)
            _give(a)
            assert [block.nbytes for block in bear.tensor._free] == [64]
        assert bear.tensor._free is None


class TestWindows:
    """The zero-gutter grid shared by conv2d and the scan: its window matrix
    and the adjoint, the tap-major shift-add."""

    EXTENTS = [(1, 1), (3, 3), (5, 5), (7, 7), (3, 5), (5, 1)]
    EXTENT_IDS = ["1", "3", "5", "7", "3x5", "5x1"]
    MAPS = [(3, 7, 5), (3, 1, 3), (3, 2, 2), (3, 1, 1), (1, 7, 5), (1, 1, 1)]  # N, H, W
    MAP_IDS = ["7x5", "1x3", "2x2", "1x1", "7x5-one-map", "1x1-one-map"]

    @staticmethod
    def _grid_of(maps, kh, kw):
        """The grid and the (C, length) grid array of (C, N, H, W) maps."""
        C, N, H, W = maps.shape
        grid = _grid(kh, kw, N, H, W)
        return grid, _channel_major(np.moveaxis(maps, 0, -1).reshape(-1, C), grid)

    @pytest.mark.parametrize("kh,kw", EXTENTS, ids=EXTENT_IDS)
    @pytest.mark.parametrize("N,H,W", MAPS, ids=MAP_IDS)
    def test_windows_match_zero_padded_slices(self, kh, kw, N, H, W):
        rng = np.random.default_rng(40 + kh + 100 * abs(kw - kh))
        maps = rng.normal(size=(2, N, H, W))  # (C, N, H, W)
        padded = np.pad(maps, ((0, 0), (0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
        grid, source = self._grid_of(maps, kh, kw)
        assert np.array_equal(grid.maps(source), maps)
        assert np.count_nonzero(source) == maps.size  # gutters and margins hold zeros
        buffer = np.full((kh * kw * 2 + 1, grid.cols), np.nan)
        got = _windows(source, grid, buffer)
        assert got.shape == (kh * kw * 2, grid.cols)
        assert np.isnan(buffer[-1]).all()
        for i in range(kh):
            for j in range(kw):
                tap = i * kw + j
                want = padded[:, :, i : i + H, j : j + W]
                assert np.array_equal(grid.maps(got[tap * 2 : tap * 2 + 2]), want)

    @pytest.mark.parametrize("kh,kw", EXTENTS, ids=EXTENT_IDS)
    @pytest.mark.parametrize("N,H,W", MAPS, ids=MAP_IDS)
    def test_shift_add_is_the_adjoint_of_windows(self, kh, kw, N, H, W):
        rng = np.random.default_rng(50 + kh + 100 * abs(kw - kh))
        maps = rng.normal(size=(2, N, H, W))
        grid, source = self._grid_of(maps, kh, kw)
        planes = rng.normal(size=(kh * kw * 2, grid.cols))
        grid.zero_gutters(planes)  # the adjoint of the windows' map columns
        windows = _windows(source, grid, np.empty_like(planes))
        back = _shift_add(planes.copy(), grid, np.full((2, grid.length), np.nan))
        assert np.vdot(windows, planes) == pytest.approx(np.vdot(maps, grid.maps(back)), rel=1e-12)
        # and tap by tap against the same np.pad oracle
        padded = np.zeros((2, N, H + kh - 1, W + kw - 1))
        for i in range(kh):
            for j in range(kw):
                tap = i * kw + j
                padded[:, :, i : i + H, j : j + W] += grid.maps(planes[tap * 2 : tap * 2 + 2])
        want = padded[:, :, kh // 2 : kh // 2 + H, kw // 2 : kw // 2 + W]
        assert np.abs(grid.maps(back) - want).max() < 1e-12

    def test_zero_gutters_keeps_exactly_the_map_elements(self):
        grid = _grid(5, 3, 2, 3, 4)
        cols = np.arange(1.0, 3 * grid.cols + 1).reshape(3, grid.cols)
        kept = grid.maps(cols).copy()
        grid.zero_gutters(cols)
        assert np.array_equal(grid.maps(cols), kept)
        assert np.count_nonzero(cols) == kept.size
# ---------------------------------------------------------------------------
# the clipped-window lowering that the zero-gutter grids replaced, kept as a
# reference: window matrices over the unpadded maps, one column per map
# position, whose taps are clipped to the flat map and zero their columns
# that wrap into a neighbouring row one tap at a time


def _clipped_taps(kh, kw, H, W):
    """Per tap: the flat offset, the positions whose read stays inside the
    flat map, and the columns whose read wraps into a neighbouring row."""
    taps = []
    for i in range(kh):
        for j in range(kw):
            dx = j - kw // 2
            offset = (i - kh // 2) * W + dx
            start = max(0, -offset)
            inside = slice(start, max(start, min(H * W, H * W - offset)))
            taps.append((offset, inside, slice(0, -dx) if dx < 0 else slice(max(0, W - dx), W)))
    return taps


def _clipped_windows(maps, kh, kw, buffer):
    C, (H, W) = maps.shape[0], maps.shape[-2:]
    out = buffer[: kh * kw * C]
    source = maps.reshape(-1, H * W)
    for tap, (offset, inside, wrapped) in enumerate(_clipped_taps(kh, kw, H, W)):
        window = out[tap * C : (tap + 1) * C].reshape(-1, H * W)
        window[:, inside] = source[:, inside.start + offset : inside.stop + offset]
        window[:, : inside.start] = 0
        window[:, inside.stop :] = 0
        window.reshape(-1, H, W)[..., wrapped] = 0
    return out


def _clipped_shift_add(planes, kh, kw, out):
    C, (H, W) = out.shape[0], out.shape[-2:]
    target = out.reshape(-1, H * W)
    target[...] = 0
    for tap, (offset, inside, wrapped) in enumerate(_clipped_taps(kh, kw, H, W)):
        plane = planes[tap * C : (tap + 1) * C].reshape(-1, H * W)
        plane.reshape(-1, H, W)[..., wrapped] = 0
        target[:, inside.start + offset : inside.stop + offset] += plane[:, inside]
    return out


def _clipped_conv2d(x, kernel, bias, g):
    """Output of the clipped-window conv2d of (N, H, W, C) x, and its
    gradients (x, kernel, bias) for the output gradient g."""
    N, H, W, C = x.shape
    kh, kw, _, F = kernel.shape
    xmat = x.reshape(-1, C)
    krev = kernel[::-1, ::-1].transpose(0, 1, 3, 2).reshape(kh * kw * F, C)
    out = _clipped_shift_add(krev @ xmat.T, kh, kw, np.empty((F, N, H, W), x.dtype)).reshape(F, -1)
    out += bias[:, None]
    gmat = g.reshape(-1, F)
    gmaps = np.ascontiguousarray(gmat.T).reshape(F, N, H, W)
    gwin = _clipped_windows(gmaps, kh, kw, np.empty((kh * kw * F, xmat.shape[0]), x.dtype))
    dkrev = (gwin @ np.ascontiguousarray(xmat.T).T).reshape(kh, kw, F, C)
    dx = (gwin.T @ krev).reshape(x.shape)
    return out.T.reshape(N, H, W, F), dx, dkrev[::-1, ::-1].transpose(0, 1, 3, 2), gmat.sum(axis=0)


def _clipped_scan(x, input_kernels, recurrent_kernels, biases, grad):
    """Final hidden map of the clipped-window scan of (N, H, W, T) x, and its
    gradients (x, input kernels, recurrent kernels, biases) for the output
    gradient ``grad``."""
    N, H, W, T = x.shape
    k, F = input_kernels.shape[0], recurrent_kernels.shape[2]
    kk, R = k * k, N * H * W
    tail = kk * F
    dtype = x.dtype
    xmaps = np.ascontiguousarray(x.reshape(-1, T).T).reshape(T, N, H, W)
    kern = np.vstack([recurrent_kernels.reshape(tail, -1), input_kernels.reshape(kk, -1), biases])
    kern_half = kern * np.repeat(np.array([0.5, 0.5, 1.0, 0.5], dtype), F)
    gates = np.empty((T, 4 * F, R), dtype)
    cells = np.zeros((T + 1, F, R), dtype)
    hidden = np.empty((T, F, R), dtype)
    windows = np.empty((tail + kk + 1, R), dtype)
    windows[-1] = 1
    for t in range(T):
        pre = gates[t]
        first = 0 if t else tail
        _clipped_windows(xmaps[t : t + 1], k, k, windows[tail:])
        if t:
            _clipped_windows(hidden[t - 1].reshape(F, N, H, W), k, k, windows)
        np.matmul(kern_half[first:].T, windows[first:], out=pre)
        np.tanh(pre, out=pre)
        for rows in (pre[: 2 * F], pre[3 * F :]):
            rows *= 0.5
            rows += 0.5
        i, f, g, o = pre[:F], pre[F : 2 * F], pre[2 * F : 3 * F], pre[3 * F :]
        cells[t + 1] = f * cells[t] + i * g
        hidden[t] = o * np.tanh(cells[t + 1])
    h = np.moveaxis(hidden[-1].reshape(F, N, H, W), 0, -1)
    dh = np.ascontiguousarray(grad.reshape(R, F).T)
    dc = np.zeros_like(dh)
    dx = np.empty((T, N, H, W), dtype)
    d_kern = np.zeros((4 * F, tail + kk + 1), dtype)
    for t in reversed(range(T)):
        d = gates[t]
        i, f, g, o = (d[n * F : (n + 1) * F].copy() for n in range(4))
        tc = np.tanh(cells[t + 1])
        dc += dh * o * (1 - tc * tc)
        d[3 * F :] = dh * tc * o * (1 - o)
        d[:F] = dc * g * i * (1 - i)
        d[2 * F : 3 * F] = dc * i * (1 - g * g)
        d[F : 2 * F] = dc * cells[t] * f * (1 - f)
        dc *= f
        first = 0 if t else tail
        _clipped_windows(xmaps[t : t + 1], k, k, windows[tail:])
        if t:
            _clipped_windows(hidden[t - 1].reshape(F, N, H, W), k, k, windows)
        d_kern[:, first:] += d @ windows[first:].T
        planes = np.matmul(kern[first : tail + kk], d, out=windows[first : tail + kk])
        _clipped_shift_add(planes[tail - first :], k, k, dx[t : t + 1])
        if t:
            _clipped_shift_add(planes[:tail], k, k, dh.reshape(F, N, H, W))
    gradients = (
        np.moveaxis(dx, 0, -1),
        d_kern[:, tail:-1].T.reshape(input_kernels.shape),
        d_kern[:, :tail].T.reshape(recurrent_kernels.shape),
        d_kern[:, -1],
    )
    return h, gradients


def _assert_close(got, want, rel):
    """|got - want| stays within ``rel`` of want's largest element."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


class TestGridsMatchTheClippedLowering:
    """Forward outputs and input gradients agree with the clipped-window
    lowering to 1e-6 of their largest element, in float32; kernel and bias
    gradients, whose GEMMs now also sum the zero gutter columns, to 1e-5."""

    @pytest.mark.parametrize(
        "N,H,W,C,F,k",
        [(1, 32, 32, 32, 32, 5), (2, 7, 5, 3, 4, 5), (3, 16, 16, 19, 16, 3), (2, 1, 1, 4, 3, 5), (1, 9, 6, 8, 3, 1)],
        ids=["pd1", "7x5-batch2", "rfe-batch3", "1x1-k5", "k1"],
    )
    def test_conv2d(self, N, H, W, C, F, k):
        rng = np.random.default_rng(70 + k + C)
        x = Tensor(rng.uniform(-1, 1, size=(N, H, W, C)).astype(np.float32), requires_grad=True)
        kernel = Tensor(rng.normal(0, 0.2, size=(k, k, C, F)).astype(np.float32), requires_grad=True)
        bias = Tensor(rng.normal(0, 0.2, size=F).astype(np.float32), requires_grad=True)
        g = rng.normal(size=(N, H, W, F)).astype(np.float32)
        out = conv2d(x, kernel, bias)
        custom_op(np.float32(0), (out,), lambda _: out._accumulate(g)).backward()
        want, dx, dk, db = _clipped_conv2d(x.data, kernel.data, bias.data, g)
        _assert_close(out.data, want, 1e-6)
        _assert_close(x.grad, dx, 1e-6)
        _assert_close(kernel.grad, dk, 1e-5)
        _assert_close(bias.grad, db, 1e-5)

    @pytest.mark.parametrize(
        "N,H,W,T,F,k",
        [(1, 32, 32, 3, 16, 3), (2, 16, 16, 5, 8, 3), (2, 7, 5, 4, 3, 5), (1, 1, 1, 3, 2, 5), (3, 6, 4, 3, 2, 1)],
        ids=["pfe1-32", "pfe2-batch2", "7x5-k5", "1x1-k5", "k1"],
    )
    def test_scan(self, N, H, W, T, F, k):
        rng = np.random.default_rng(80 + k + T)
        x = Tensor(rng.uniform(-1, 1, size=(N, H, W, T)).astype(np.float32), requires_grad=True)
        p = _cell(rng, filters=F, extent=k, scale=0.3, dtype=np.float32)
        for t in p:
            t.requires_grad = True
        g = rng.normal(size=(N, H, W, F)).astype(np.float32)
        h = convlstm_over_channels(x, *p)
        custom_op(np.float32(0), (h,), lambda _: h._accumulate(g)).backward()
        want, (dx, *gradients) = _clipped_scan(x.data, *(t.data for t in p), g)
        _assert_close(h.data, want, 1e-6)
        _assert_close(x.grad, dx, 1e-6)
        for t, grad in zip(p, gradients):  # input kernels, recurrent kernels, biases
            _assert_close(t.grad, grad, 1e-5)


class TestParallelConv:
    def test_single_branch_mean_equals_plain_conv(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 6, 2))
        k = rng.normal(size=(3, 3, 2, 4))
        b = rng.normal(size=4)
        merged = mean_conv(Tensor(x), [(Tensor(k), Tensor(b))])
        plain = conv2d(Tensor(x), Tensor(k), Tensor(b))
        assert np.array_equal(merged.data, plain.data)

    def test_identical_branches_mean_equals_one_branch(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(5, 5, 2))
        k = rng.normal(size=(3, 3, 2, 3))
        b = rng.normal(size=3)
        branches = [(Tensor(k.copy()), Tensor(b.copy())) for _ in range(3)]
        merged = mean_conv(Tensor(x), branches)
        single = conv2d(Tensor(x), Tensor(k), Tensor(b))
        assert np.abs(merged.data - single.data).max() < 1e-12

    def test_matches_mean_of_branch_oracles(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(8, 8, 2))
        branches = [(rng.normal(size=(e, e, 2, 3)), rng.normal(size=3)) for e in (1, 3, 5)]
        out = mean_conv(Tensor(x), [(Tensor(k), Tensor(b)) for k, b in branches])
        want = sum(naive_conv2d(x, k, b) for k, b in branches) / len(branches)
        assert out.shape == (8, 8, 3)
        assert np.abs(out.data - want).max() < 1e-6

    def test_branch_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(6, 6, 2)))
        values = {}
        for e in (1, 3, 5):
            values[f"conv{e}/kernel"] = rng.normal(size=(e, e, 2, 3)) * 0.5
            values[f"conv{e}/bias"] = rng.normal(size=3) * 0.5
        params = ParameterSet(values)

        def loss(p):
            branches = [(p[f"conv{e}/kernel"], p[f"conv{e}/bias"]) for e in (1, 3, 5)]
            return sum_squares(mean_conv(x, branches))

        assert grad_check(loss, params, h=1e-5).error < 1e-6

    @pytest.mark.parametrize("frozen", [0, 1, 2])
    def test_frozen_branch_kernel_gets_nothing_and_the_others_their_centred_slices(self, frozen):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(6, 6, 2)))
        kernels = [Tensor(rng.normal(size=(e, e, 2, 3)), requires_grad=i != frozen) for i, e in enumerate((1, 3, 5))]
        biases = [Tensor(rng.normal(size=3), requires_grad=True) for _ in kernels]
        out = mean_conv(x, list(zip(kernels, biases)))
        (folded,) = [t for t in out._parents if t.shape == (5, 5, 2, 3)]
        assert folded._parents == tuple(k for i, k in enumerate(kernels) if i != frozen)
        sum_squares(out).backward()
        for i, kernel in enumerate(kernels):
            if i == frozen:
                assert kernel.grad is None
                continue
            lo, hi = (5 - kernel.shape[0]) // 2, (5 + kernel.shape[0]) // 2
            assert np.array_equal(kernel.grad, folded.grad[lo:hi, lo:hi] * (1.0 / 3))

    def test_empty_branch_list_rejected(self):
        with pytest.raises(ShapeError, match="at least one"):
            mean_conv(Tensor(np.zeros((4, 4, 1))), [])

    def test_disallowed_kernel_extent_rejected(self):
        with pytest.raises(ShapeError, match="odd extent"):
            mean_conv(Tensor(np.zeros((4, 4, 1))), [(Tensor(np.zeros((4, 4, 1, 1))), Tensor(np.zeros(1)))])

    @pytest.mark.parametrize("shape", [(3, 3, 2, 1), (3, 3, 1, 2)], ids=["channels", "filters"])
    def test_branches_that_disagree_rejected(self, shape):
        branches = [
            (Tensor(np.zeros((1, 1, 1, 1))), Tensor(np.zeros(1))),
            (Tensor(np.zeros(shape)), Tensor(np.zeros(shape[3]))),
        ]
        with pytest.raises(ShapeError, match="disagree"):
            mean_conv(Tensor(np.zeros((4, 4, 1))), branches)


def test_all_cell_parameters_receive_gradients():
    rng = np.random.default_rng(12)
    params = ParameterSet({
        "cell/input-kernels": rng.normal(size=(3, 3, 1, 8)) * 0.4,
        "cell/recurrent-kernels": rng.normal(size=(3, 3, 2, 8)) * 0.4,
        "cell/biases": rng.normal(size=8) * 0.4,
    })
    x = Tensor(rng.normal(size=(6, 6, 3)))
    cell = params["cell/input-kernels"], params["cell/recurrent-kernels"], params["cell/biases"]
    loss = sum_squares(convlstm_over_channels(x, *cell))
    loss.backward()
    for name, t in params.items():
        assert t.grad is not None, name
        assert np.abs(t.grad).max() > 0.0, name
