"""ConvLSTM cell, channel-sequence scan, the window matrices, the folded mean of parallel convolutions."""

import numpy as np
import pytest

from conftest import naive_conv2d, reference_convlstm_step

from bear.blocks import ConvLstmParams, convlstm_over_channels, mean_conv
from bear.errors import ShapeError
from bear.tensor import ParameterSet, Tensor, _shift_add, _windows, conv2d, grad_check, no_grad, sum_squares


def _cell(rng, filters=2, extent=3, scale=0.4, dtype=np.float64):
    shape_in = (extent, extent, 1, 4 * filters)
    shape_rec = (extent, extent, filters, 4 * filters)
    return ConvLstmParams(
        Tensor((rng.normal(size=shape_in) * scale).astype(dtype)),
        Tensor((rng.normal(size=shape_rec) * scale).astype(dtype)),
        Tensor((rng.normal(size=4 * filters) * scale).astype(dtype)),
    )


def _zero_cell(filters=2, extent=3, dtype=np.float64):
    return ConvLstmParams(
        Tensor(np.zeros((extent, extent, 1, 4 * filters), dtype=dtype)),
        Tensor(np.zeros((extent, extent, filters, 4 * filters), dtype=dtype)),
        Tensor(np.zeros(4 * filters, dtype=dtype)),
    )


def _reference_scan(x, p):
    """Final hidden state of ``reference_convlstm_step`` iterated over the
    channels of ``x`` from zero state."""
    F = p.filters
    h = np.zeros(x.shape[:2] + (F,))
    c = np.zeros(x.shape[:2] + (F,))
    for t in range(x.shape[2]):
        h, c = reference_convlstm_step(
            x[:, :, t : t + 1], h, c,
            p.input_kernels.data, p.recurrent_kernels.data, p.biases.data,
        )
    return h


class TestConvLstmStep:
    """The cell equations, checked through the channel scan."""

    def test_all_zero_parameters_give_zero_output(self):
        p = _zero_cell()
        x = Tensor(np.random.default_rng(0).normal(size=(5, 5, 3)))
        h = convlstm_over_channels(x, p)
        assert np.all(h.data == 0.0)

    def test_zero_input_kernels_make_output_independent_of_input(self):
        rng = np.random.default_rng(1)
        p = _cell(rng)
        p.input_kernels.data[:] = 0.0
        out_a = convlstm_over_channels(Tensor(rng.normal(size=(4, 4, 3))), p)
        out_b = convlstm_over_channels(Tensor(rng.normal(size=(4, 4, 3))), p)
        assert np.array_equal(out_a.data, out_b.data)

    def test_matches_unfused_per_gate_oracle(self):
        rng = np.random.default_rng(2)
        p = _cell(rng, filters=3)
        x = rng.normal(size=(8, 8, 3))
        h = convlstm_over_channels(Tensor(x), p)
        assert np.abs(h.data - _reference_scan(x, p)).max() < 1e-6

    @pytest.mark.parametrize("extent", [1, 3, 5])
    def test_preserves_spatial_extents(self, extent):
        rng = np.random.default_rng(extent)
        p = _cell(rng, filters=2, extent=extent)
        h = convlstm_over_channels(Tensor(rng.normal(size=(7, 7, 2))), p)
        assert h.shape == (7, 7, 2)

    def test_hidden_state_strictly_bounded(self):
        rng = np.random.default_rng(4)
        p = _cell(rng, scale=3.0)
        h = convlstm_over_channels(Tensor(rng.normal(size=(6, 6, 4)) * 5), p)
        assert np.abs(h.data).max() < 1.0

    def test_forget_gate_saturation_keeps_cell_state(self):
        # i, f and o saturate at 1, so c after T steps is T * tanh(b_g)
        p = _zero_cell(filters=2)
        p.biases.data[0:4] = 20.0  # input and forget slices of (i, f, g, o)
        p.biases.data[6:8] = 20.0  # output slice
        p.biases.data[4:6] = [0.3, -0.7]  # candidate slice
        T = 3
        h = convlstm_over_channels(Tensor(np.zeros((4, 4, T))), p)
        want = np.tanh(T * np.tanh(np.array([0.3, -0.7])))
        assert np.abs(h.data - want).max() < 1e-6

    def test_gate_stacking_validated(self):
        with pytest.raises(ShapeError, match="4F"):
            ConvLstmParams(
                Tensor(np.zeros((3, 3, 1, 6))),
                Tensor(np.zeros((3, 3, 2, 8))),
                Tensor(np.zeros(8)),
            )


class TestConvLstmOverChannels:
    def test_single_channel_equals_single_step(self):
        rng = np.random.default_rng(6)
        p = _cell(rng)
        x = rng.normal(size=(5, 5, 1))
        scanned = convlstm_over_channels(Tensor(x), p)
        stepped, _ = reference_convlstm_step(
            x, np.zeros((5, 5, 2)), np.zeros((5, 5, 2)),
            p.input_kernels.data, p.recurrent_kernels.data, p.biases.data,
        )
        assert np.abs(scanned.data - stepped).max() < 1e-12

    def test_three_channels_match_iterated_reference_step(self):
        rng = np.random.default_rng(13)
        p = _cell(rng, filters=2)
        x = rng.normal(size=(6, 5, 3))
        h = convlstm_over_channels(Tensor(x), p)
        assert np.abs(h.data - _reference_scan(x, p)).max() < 1e-6
        # leading axes are scanned as independent maps
        xs = rng.normal(size=(2, 1, 6, 5, 3))
        hs = convlstm_over_channels(Tensor(xs), p)
        assert hs.shape == (2, 1, 6, 5, 2)
        for index in np.ndindex(2, 1):
            assert np.abs(hs.data[index] - _reference_scan(xs[index], p)).max() < 1e-6

    def test_channel_order_matters(self):
        rng = np.random.default_rng(7)
        p = _cell(rng)
        x = rng.normal(size=(5, 5, 3))
        forward_order = convlstm_over_channels(Tensor(x), p)
        reversed_order = convlstm_over_channels(Tensor(x[:, :, ::-1].copy()), p)
        assert np.abs(forward_order.data - reversed_order.data).max() > 1e-6

    def test_output_shape(self):
        rng = np.random.default_rng(8)
        p = _cell(rng, filters=16)
        out = convlstm_over_channels(Tensor(rng.normal(size=(32, 32, 3))), p)
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
            cell = ConvLstmParams(p["input-kernels"], p["recurrent-kernels"], p["biases"])
            return sum_squares(convlstm_over_channels(p["x"], cell))

        assert grad_check(loss, params, h=1e-5).error < 1e-6

    @pytest.mark.parametrize("extent,H,W", [(1, 7, 5), (3, 7, 5), (7, 3, 2)], ids=["1", "3", "7"])
    def test_non_square_batch_matches_iterated_reference_step(self, extent, H, W):
        # 7x5 maps, a batch of 3 and 4 steps: rows of the channel-major
        # layout neither match the map width nor divide evenly. A 7x7 kernel
        # on 3x2 maps reaches further sideways than a map is wide.
        rng = np.random.default_rng(20 + extent)
        p = _cell(rng, filters=3, extent=extent)
        xs = rng.normal(size=(3, H, W, 4))
        hs = convlstm_over_channels(Tensor(xs), p)
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
            cell = ConvLstmParams(p["input-kernels"], p["recurrent-kernels"], p["biases"])
            return sum_squares(convlstm_over_channels(p["x"], cell))

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
            cell = ConvLstmParams(get["input-kernels"], get["recurrent-kernels"], get["biases"])
            return sum_squares(convlstm_over_channels(get["x"], cell))

        check = grad_check(loss, params, h=1e-5)
        assert check.error < 1e-6 and check.scaled_error < 1e-6
        assert all(t.grad is None for t in fixed.values())

    def test_forward_without_a_tape_matches_the_taped_forward_bit_for_bit(self):
        # without a tape the scan keeps one step of state instead of all of them
        rng = np.random.default_rng(17)
        p = _cell(rng, filters=3, dtype=np.float32)
        for t in (p.input_kernels, p.recurrent_kernels, p.biases):
            t.requires_grad = True
        x = Tensor(rng.normal(size=(3, 7, 5, 6)).astype(np.float32))
        taped = convlstm_over_channels(x, p)
        assert taped.requires_grad
        with no_grad():
            untaped = convlstm_over_channels(x, p)
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
        h = convlstm_over_channels(Tensor(x), p)
        assert h.data.dtype == np.float32
        exact = ConvLstmParams(*(Tensor(t.data.astype(np.float64)) for t in (p.input_kernels, p.recurrent_kernels, p.biases)))
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
        cell = ConvLstmParams(params["input-kernels"], params["recurrent-kernels"], params["biases"])
        x = Tensor(rng.normal(size=(2, 6, 5, 4)).astype(np.float32))
        sum_squares(convlstm_over_channels(x, cell)).backward()
        assert np.abs(params.grad).max() > 0
        with no_grad():
            convlstm_over_channels(x, cell)
        assert np.array_equal(params.data, before)

    def test_scan_is_one_tape_node(self):
        rng = np.random.default_rng(16)
        p = _cell(rng)
        for t in (p.input_kernels, p.recurrent_kernels, p.biases):
            t.requires_grad = True
        x = Tensor(rng.normal(size=(5, 5, 3)), requires_grad=True)
        out = convlstm_over_channels(x, p)
        assert out._parents == (x, p.input_kernels, p.recurrent_kernels, p.biases)


class TestWindows:
    """The window matrix shared by conv2d and the scan, and its adjoint, the
    tap-major shift-add."""

    EXTENTS = [(1, 1), (3, 3), (5, 5), (7, 7), (3, 5), (5, 1)]
    EXTENT_IDS = ["1", "3", "5", "7", "3x5", "5x1"]

    @pytest.mark.parametrize("kh,kw", EXTENTS, ids=EXTENT_IDS)
    @pytest.mark.parametrize("H,W", [(7, 5), (1, 3), (2, 2)], ids=["7x5", "1x3", "2x2"])
    def test_windows_match_zero_padded_slices(self, kh, kw, H, W):
        rng = np.random.default_rng(40 + kh + 100 * abs(kw - kh))
        maps = rng.normal(size=(2, 3, H, W))  # (C, N, H, W)
        padded = np.pad(maps, ((0, 0), (0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
        buffer = np.full((kh * kw * 2 + 1, 3 * H * W), np.nan)
        got = _windows(maps, kh, kw, buffer)
        assert got.shape == (kh * kw * 2, 3 * H * W)
        for i in range(kh):
            for j in range(kw):
                tap = i * kw + j
                want = padded[:, :, i : i + H, j : j + W].reshape(2, -1)
                assert np.array_equal(got[tap * 2 : tap * 2 + 2], want)

    @pytest.mark.parametrize("kh,kw", EXTENTS, ids=EXTENT_IDS)
    @pytest.mark.parametrize("H,W", [(7, 5), (1, 3), (2, 2)], ids=["7x5", "1x3", "2x2"])
    def test_shift_add_is_the_adjoint_of_windows(self, kh, kw, H, W):
        rng = np.random.default_rng(50 + kh + 100 * abs(kw - kh))
        maps = rng.normal(size=(2, 3, H, W))
        planes = rng.normal(size=(kh * kw * 2, 3 * H * W))
        windows = _windows(maps, kh, kw, np.empty_like(planes))
        back = _shift_add(planes.copy(), kh, kw, np.full_like(maps, np.nan))
        assert np.vdot(windows, planes) == pytest.approx(np.vdot(maps, back), rel=1e-12)


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
    p = ConvLstmParams(
        params["cell/input-kernels"], params["cell/recurrent-kernels"], params["cell/biases"]
    )
    x = Tensor(rng.normal(size=(6, 6, 3)))
    loss = sum_squares(convlstm_over_channels(x, p))
    loss.backward()
    for name, t in params.items():
        assert t.grad is not None, name
        assert np.abs(t.grad).max() > 0.0, name
