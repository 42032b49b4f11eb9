"""Tensor engine: forward semantics, gradients, and the BT1 file format."""

import io
import itertools
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_in_arena, naive_conv2d, naive_dense

from bear.errors import FormatError, ShapeError
from bear.model import init_params
from bear.serialize import read_bt1, write_bt1
from bear.tensor import (
    CHUNK,
    ParameterSet,
    Tensor,
    box_mean,
    concat_channels,
    conv2d,
    custom_op,
    dense,
    downsample_avg,
    grad_check,
    no_grad,
    reshape,
    sigmoid,
    sum_squares,
    tanh,
    upsample_nearest,
)

# (H, W, kernel extent, C, F) of maps narrower than the kernel, with more
# filters than channels and fewer
SMALL_MAP_CONVS = {
    f"{'output' if f < c else 'input'}_side_{e}x{e}_on_{h}x{w}": (h, w, e, c, f)
    for c, f in ((2, 3), (4, 2))
    for e in (5, 7)
    for h, w in ((2, 2), (1, 3))
}


class TestConv2d:
    def test_zero_kernel_gives_zeros(self):
        x = Tensor(np.ones((4, 4, 1), dtype=np.float32))
        k = Tensor(np.zeros((3, 3, 1, 1), dtype=np.float32))
        b = Tensor(np.zeros(1, dtype=np.float32))
        out = conv2d(x, k, b)
        assert out.shape == (4, 4, 1)
        assert np.all(out.data == 0.0)

    def test_scalar_multiply_add(self):
        x = Tensor(np.array([[[2.0]]]))
        k = Tensor(np.array([3.0]).reshape(1, 1, 1, 1))
        b = Tensor(np.array([1.0]))
        out = conv2d(x, k, b)
        assert out.data.reshape(()) == pytest.approx(7.0)

    @pytest.mark.parametrize(
        "hw,extent,channels,filters,lead",
        [((5, 5), 3, 2, 3, ()), ((7, 7), 3, 4, 2, ()), ((7, 7), 5, 4, 2, ()), ((5, 5), 3, 2, 3, (2, 1)),
         ((7, 7), 5, 4, 2, (2, 1)), ((7, 7), 5, 3, 3, ()), ((7, 7), 5, 3, 3, (2, 1))]
        + [((h, w), e, c, f, lead) for h, w, e, c, f in SMALL_MAP_CONVS.values() for lead in ((), (2, 1))],
        ids=["input_side", "output_side_3x3", "output_side_5x5", "input_side-batch2x1", "output_side_5x5-batch2x1",
             "equal_sides_5x5", "equal_sides_5x5-batch2x1"]
        + [name + suffix for name in SMALL_MAP_CONVS for suffix in ("", "-batch2x1")],
    )
    def test_matches_loop_oracle(self, hw, extent, channels, filters, lead):
        # more filters than channels, fewer, and as many (the decoder's
        # pd shape); every leading index is convolved on its own
        rng = np.random.default_rng(3)
        x = rng.normal(size=(*lead, *hw, channels))
        k = rng.normal(size=(extent, extent, channels, filters))
        b = rng.normal(size=filters)
        got = conv2d(Tensor(x), Tensor(k), Tensor(b))
        assert got.shape == (*lead, *hw, filters)
        for index in np.ndindex(*lead):
            assert np.abs(got.data[index] - naive_conv2d(x[index], k, b)).max() < 1e-6

    def test_channel_mismatch_names_axis(self):
        x = Tensor(np.zeros((4, 4, 3)))
        k = Tensor(np.zeros((3, 3, 4, 2)))
        b = Tensor(np.zeros(2))
        with pytest.raises(ShapeError, match="channel"):
            conv2d(x, k, b)

    def test_even_kernel_rejected_for_same_padding(self):
        x = Tensor(np.zeros((4, 4, 1)))
        k = Tensor(np.zeros((2, 2, 1, 1)))
        b = Tensor(np.zeros(1))
        with pytest.raises(ShapeError, match="odd"):
            conv2d(x, k, b)

    @pytest.mark.parametrize("extent", [1, 3, 5, 7])
    def test_same_padding_preserves_extents(self, extent):
        rng = np.random.default_rng(extent)
        x = Tensor(rng.normal(size=(9, 9, 2)))
        k = Tensor(rng.normal(size=(extent, extent, 2, 4)))
        b = Tensor(rng.normal(size=4))
        assert conv2d(x, k, b).shape == (9, 9, 4)

    def test_input_grid_is_built_once_and_read_by_backward(self, monkeypatch):
        # the forward pass lays the input onto a channel-major grid, the
        # backward pass reuses it and lays only the output gradient
        import bear.tensor

        calls, build = [], bear.tensor._channel_major

        def counted(rows, grid):
            calls.append(rows.shape)
            return build(rows, grid)

        monkeypatch.setattr(bear.tensor, "_channel_major", counted)
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 6, 6, 3)), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 3, 3, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=5), requires_grad=True)
        loss = sum_squares(conv2d(x, k, b))
        assert calls == [(72, 3)]
        loss.backward()
        assert calls == [(72, 3), (72, 5)]
        assert x.grad is not None and k.grad is not None


class TestDense:
    def test_identity(self):
        out = dense(Tensor([1.0, 2.0]), Tensor(np.eye(2)), Tensor([0.0, 0.0]))
        assert np.allclose(out.data, [1.0, 2.0])

    def test_hand_arithmetic(self):
        out = dense(Tensor([1.0, 1.0]), Tensor([[2.0], [3.0]]), Tensor([-5.0]))
        assert out.data.reshape(()) == pytest.approx(0.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=6)
        w = rng.normal(size=(6, 4))
        b = rng.normal(size=4)
        got = dense(Tensor(x), Tensor(w), Tensor(b))
        assert np.abs(got.data - naive_dense(x, w, b)).max() < 1e-6
        # leading axes are independent rows
        xs = rng.normal(size=(2, 3, 6))
        got = dense(Tensor(xs), Tensor(w), Tensor(b))
        assert got.shape == (2, 3, 4)
        for index in np.ndindex(2, 3):
            assert np.abs(got.data[index] - naive_dense(xs[index], w, b)).max() < 1e-6

    def test_weight_gradient_in_row_blocks_matches_outer_product_bit_for_bit(self):
        # 5000 outputs give 13-row blocks of the weight gradient: 3 full, 1 partial
        rng = np.random.default_rng(6)
        x = rng.normal(size=40).astype(np.float32)
        w = Tensor(rng.normal(size=(40, 5000)).astype(np.float32), requires_grad=True)
        w.grad = rng.normal(size=(40, 5000)).astype(np.float32)
        before = w.grad.copy()
        g = rng.normal(size=5000).astype(np.float32)
        out = dense(Tensor(x), w, Tensor(np.zeros(5000, dtype=np.float32)))
        out._backward(g)
        assert w.grad.tobytes() == (before + np.outer(x, g)).tobytes()

    def test_one_row_weight_gradient_matches_the_block_gemm_bit_for_bit(self):
        # one row under leading axes of extent 1 takes the np.multiply path;
        # its blocks must add the bits of the K=1 GEMMs taken for more rows
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 1, 40)).astype(np.float32)
        w = Tensor(rng.normal(size=(40, 5000)).astype(np.float32), requires_grad=True)
        w.grad = rng.normal(size=(40, 5000)).astype(np.float32)
        want = w.grad.copy()
        g = rng.normal(size=(1, 1, 5000)).astype(np.float32)
        out = dense(Tensor(x), w, Tensor(np.zeros(5000, dtype=np.float32)))
        out._backward(g)
        xmat, gmat = x.reshape(1, 40), g.reshape(1, 5000)
        rows = CHUNK // 5000
        for i in range(0, 40, rows):
            want[i : i + rows] += xmat[:, i : i + rows].T @ gmat
        assert w.grad.tobytes() == want.tobytes()

    def test_rows_do_not_depend_on_their_batch(self):
        # one GEMV per row: a row gives the same bits alone and in a batch,
        # for the output and for the input gradient
        rng = np.random.default_rng(7)
        xs = rng.normal(size=(5, 300)).astype(np.float32)
        w = Tensor(rng.normal(size=(300, 700)).astype(np.float32))
        b = Tensor(rng.normal(size=700).astype(np.float32))
        g = rng.normal(size=(5, 700)).astype(np.float32)
        batch = Tensor(xs, requires_grad=True)
        out = dense(batch, w, b)
        out._backward(g)
        for row in range(5):
            alone = Tensor(xs[row], requires_grad=True)
            one = dense(alone, w, b)
            one._backward(g[row])
            assert np.array_equal(one.data, out.data[row])
            assert np.array_equal(alone.grad, batch.grad[row])

    def test_rank_and_extent_errors(self):
        with pytest.raises(ShapeError, match="rank 1"):
            dense(Tensor(np.zeros(())), Tensor(np.zeros((4, 3))), Tensor(np.zeros(3)))
        with pytest.raises(ShapeError):
            dense(Tensor(np.zeros(5)), Tensor(np.zeros((4, 3))), Tensor(np.zeros(3)))


class TestActivations:
    def test_sigmoid_at_zero(self):
        out = sigmoid(Tensor([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5])

    def test_tanh_at_zero(self):
        assert tanh(Tensor([0.0])).data.reshape(()) == 0.0

    @settings(deadline=None, max_examples=30)
    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=8))
    def test_sigmoid_symmetry(self, values):
        x = np.array(values)
        a = sigmoid(Tensor(x)).data
        b = sigmoid(Tensor(-x)).data
        assert np.abs(a + b - 1.0).max() < 1e-6

    def test_sigmoid_negative_tail_stays_positive_in_float32(self):
        x = np.array([-17.5, -30.0, -80.0], dtype=np.float32)
        out = sigmoid(Tensor(x)).data
        want = 1.0 / (1.0 + np.exp(-x.astype(np.float64)))
        assert out.dtype == np.float32
        assert np.all(out > 0.0)
        assert np.abs(out / want - 1.0).max() < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_matches_masked_form_bit_for_bit(self, dtype):
        rng = np.random.default_rng(11)
        specials = [0.0, -0.0, 17.5, -17.5, -88.0, -104.0, np.inf, -np.inf]
        v = np.concatenate([rng.normal(scale=20.0, size=4096), specials]).astype(dtype)
        e = np.exp(-np.abs(v))
        want = np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        got = sigmoid(Tensor(v)).data
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
        assert np.isnan(sigmoid(Tensor(np.array([np.nan], dtype=dtype))).data).all()


class TestResampling:
    def test_downsample_shape_128(self):
        out = downsample_avg(Tensor(np.zeros((128, 128, 3))), 4)
        assert out.shape == (32, 32, 3)

    def test_downsample_constant(self):
        out = downsample_avg(Tensor(np.full((8, 8, 2), 0.7, dtype=np.float32)), 2)
        assert np.allclose(out.data, 0.7)

    def test_downsample_hand_values(self):
        x = np.arange(1, 17, dtype=np.float64).reshape(4, 4, 1)
        out = downsample_avg(Tensor(x), 2)
        assert np.allclose(out.data[:, :, 0], [[3.5, 5.5], [11.5, 13.5]])
        batch = downsample_avg(Tensor(np.stack([x, -x])), 2)
        assert np.array_equal(batch.data, np.stack([out.data, -out.data]))

    def test_downsample_non_divisible_rejected(self):
        with pytest.raises(ShapeError, match="divisible"):
            downsample_avg(Tensor(np.zeros((5, 4, 1))), 2)

    def test_upsample_replicates(self):
        out = upsample_nearest(Tensor(np.array([[[5.0]]])), 2)
        assert out.shape == (2, 2, 1)
        assert np.all(out.data == 5.0)
        batch = upsample_nearest(Tensor(np.array([5.0, -1.0]).reshape(2, 1, 1, 1)), 2)
        assert batch.shape == (2, 2, 2, 1)
        assert np.all(batch.data[0] == 5.0) and np.all(batch.data[1] == -1.0)

    def test_upsample_shape(self):
        assert upsample_nearest(Tensor(np.zeros((16, 16, 8))), 2).shape == (32, 32, 8)

    def test_downsample_inverts_upsample_exactly(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 6, 3)).astype(np.float32)
        back = downsample_avg(upsample_nearest(Tensor(x), 2), 2)
        assert np.array_equal(back.data, x)


def _box_mean_oracle(x, rh, rw):
    """Each rh x rw block summed one element at a time in row-major order,
    in the input's dtype, then divided once."""
    *lead, H, W, C = x.shape
    out = np.empty((*lead, H // rh, W // rw, C), x.dtype)
    for index in np.ndindex(out.shape):
        *batch, i, j, c = index
        total = x[(*batch, i * rh, j * rw, c)]
        for a, b in itertools.product(range(rh), range(rw)):
            if a or b:
                total = total + x[(*batch, i * rh + a, j * rw + b, c)]
        out[index] = total / x.dtype.type(rh * rw)
    return out


class TestBoxMean:
    @settings(max_examples=80, deadline=None)
    @given(
        rh=st.integers(1, 8),
        rw=st.integers(1, 8),
        blocks=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        channels=st.integers(1, 4),
        lead=st.lists(st.integers(1, 2), max_size=2),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_row_major_sum_bit_for_bit(self, rh, rw, blocks, channels, lead, dtype, seed):
        shape = (*lead, blocks[0] * rh, blocks[1] * rw, channels)
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, size=shape).astype(dtype)
        got = box_mean(x, rh, rw)
        assert got.dtype == dtype
        assert got.tobytes() == _box_mean_oracle(x, rh, rw).tobytes()
        if channels >= 2:
            # numpy's mean adds in the same order here (every PPM image and
            # every pool of a d = 3 model); at C = 1 it drifts in the last bits
            blocked = x.reshape(*lead, blocks[0], rh, blocks[1], rw, channels)
            assert got.tobytes() == blocked.mean(axis=(-4, -2)).tobytes()


class TestConcatSlice:
    def test_concat_shape(self):
        out = concat_channels(Tensor(np.zeros((32, 32, 16))), Tensor(np.zeros((32, 32, 3))))
        assert out.shape == (32, 32, 19)

    def test_concat_then_slice_recovers(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 4, 2)).astype(np.float32)
        b = rng.normal(size=(4, 4, 3)).astype(np.float32)
        joined = concat_channels(Tensor(a), Tensor(b))
        assert np.array_equal(joined.data[:, :, 0:2], a)
        assert np.array_equal(joined.data[:, :, 2:5], b)
        batch = concat_channels(Tensor(np.stack([a, -a])), Tensor(np.stack([b, -b])))
        assert np.array_equal(batch.data, np.stack([joined.data, -joined.data]))

    def test_concat_spatial_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="spatial"):
            concat_channels(Tensor(np.zeros((4, 4, 1))), Tensor(np.zeros((5, 4, 1))))

    def test_backward_routes_ones_to_both(self):
        # the gradient of a sum of squares is 2x, so halves route ones
        a = Tensor(np.full((3, 3, 2), 0.5), requires_grad=True)
        b = Tensor(np.full((3, 3, 1), 0.5), requires_grad=True)
        sum_squares(concat_channels(a, b)).backward()
        assert np.all(a.grad == 1.0)
        assert np.all(b.grad == 1.0)

    @pytest.mark.parametrize("frozen", ["a", "b"])
    def test_frozen_side_is_not_recorded_and_the_other_gets_its_slice(self, frozen):
        # rfe and bfe concatenate the residual copy, which needs no gradient
        rng = np.random.default_rng(4)
        a = Tensor(rng.normal(size=(2, 3, 3, 2)), requires_grad=frozen != "a")
        b = Tensor(rng.normal(size=(2, 3, 3, 3)), requires_grad=frozen != "b")
        out = concat_channels(a, b)
        live, dead, channels = (b, a, slice(2, 5)) if frozen == "a" else (a, b, slice(0, 2))
        assert out._parents == (live,)
        g = rng.normal(size=out.shape)
        out._backward(g)
        assert np.array_equal(live.grad, g[..., channels])
        assert dead.grad is None


def _zeros(*shape):
    return Tensor(np.zeros(shape))


MALFORMED_OPERANDS = {
    "conv2d-input-rank": (
        lambda: conv2d(_zeros(4, 2), _zeros(3, 3, 2, 1), _zeros(1)),
        "conv2d: input must have rank 3 or more (..., H, W, C), got rank 2",
    ),
    "conv2d-kernel-rank": (
        lambda: conv2d(_zeros(4, 4, 2), _zeros(3, 2, 1), _zeros(1)),
        "conv2d: kernel must be rank 4 (kh, kw, C, F), got rank 3",
    ),
    "conv2d-bias-extent": (
        lambda: conv2d(_zeros(4, 4, 2), _zeros(3, 3, 2, 3), _zeros(2)),
        "conv2d: bias must have extent 3 along the filter axis, got shape (2,)",
    ),
    "dense-bias-extent": (
        lambda: dense(_zeros(2, 5), _zeros(5, 3), _zeros(4)),
        "dense: bias must have extent 3, got shape (4,)",
    ),
    "downsample-rank": (
        lambda: downsample_avg(_zeros(4, 4), 2),
        "downsample_avg: input must have rank 3 or more, got rank 2",
    ),
    "downsample-factor": (lambda: downsample_avg(_zeros(4, 4, 1), 0), "downsample_avg: factor must be positive, got 0"),
    "downsample-width": (
        lambda: downsample_avg(_zeros(4, 6, 1), 4),
        "downsample_avg: width extent 6 is not divisible by 4",
    ),
    "upsample-rank": (
        lambda: upsample_nearest(_zeros(4, 4), 2),
        "upsample_nearest: input must have rank 3 or more, got rank 2",
    ),
    "upsample-factor": (
        lambda: upsample_nearest(_zeros(4, 4, 1), 0),
        "upsample_nearest: factor must be positive, got 0",
    ),
    "concat-rank": (
        lambda: concat_channels(_zeros(4, 4, 1), _zeros(4, 1)),
        "concat_channels: both inputs must have rank 3 or more",
    ),
    "item-of-two-elements": (lambda: _zeros(2).item(), "item: tensor has 2 elements, expected 1"),
}


@pytest.mark.parametrize("call,message", MALFORMED_OPERANDS.values(), ids=list(MALFORMED_OPERANDS))
def test_malformed_operands_are_rejected_by_name(call, message):
    with pytest.raises(ShapeError) as info:
        call()
    assert str(info.value) == message


class TestBackward:
    def test_sum_gives_ones(self):
        w = Tensor(np.array([0.5, 0.5, 0.5]), requires_grad=True)
        sum_squares(w).backward()
        assert np.allclose(w.grad, [1.0, 1.0, 1.0])

    def test_sum_of_squares(self):
        w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        sum_squares(w).backward()
        assert np.allclose(w.grad, [2.0, -4.0])

    def test_repeated_backward_accumulates(self):
        w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        sum_squares(w).backward()
        sum_squares(w).backward()
        assert np.allclose(w.grad, [4.0, -8.0])

    def test_second_pass_over_one_graph_adds_exactly_one_more_gradient(self):
        # the inner tanh's gradient from the first pass must not feed the
        # second: kept, it left x.grad at 5x one pass's
        x = Tensor(np.array([0.3, -1.2, 2.0]), requires_grad=True)
        loss = sum_squares(tanh(tanh(x)))
        loss.backward()
        once = x.grad.copy()
        loss.backward()
        assert x.grad.tobytes() == (2.0 * once).tobytes()

    def test_second_pass_through_conv_and_dense_adds_exactly_one_more_gradient(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 4, 4, 3)).astype(np.float32), requires_grad=True)
        kernel = Tensor(rng.normal(size=(3, 3, 3, 2)).astype(np.float32), requires_grad=True)
        bias = Tensor(rng.normal(size=(2,)).astype(np.float32), requires_grad=True)
        weights = Tensor(rng.normal(size=(32, 5)).astype(np.float32), requires_grad=True)
        shift = Tensor(rng.normal(size=(5,)).astype(np.float32), requires_grad=True)
        loss = sum_squares(dense(reshape(tanh(conv2d(x, kernel, bias)), (2, 32)), weights, shift))
        loss.backward()
        leaves = (x, kernel, bias, weights, shift)
        once = [t.grad.copy() for t in leaves]
        loss.backward()
        for t, g in zip(leaves, once):
            assert t.grad.tobytes() == (2 * g).tobytes()

    def test_non_scalar_rejected(self):
        with pytest.raises(ShapeError, match="scalar"):
            Tensor(np.zeros(3), requires_grad=True).backward()

    def test_fanout_matches_doubled_single_branch(self):
        x1 = Tensor(np.array([1.5, -0.5, 2.0]).reshape(1, 1, 3), requires_grad=True)
        sum_squares(concat_channels(x1, x1)).backward()
        x2 = Tensor(np.array([1.5, -0.5, 2.0]).reshape(1, 1, 3), requires_grad=True)
        sum_squares(x2).backward()
        assert np.allclose(x1.grad, 2.0 * x2.grad)

    def test_reshape_roundtrip_gradient(self):
        x = Tensor(np.full((2, 3), 0.5), requires_grad=True)
        sum_squares(reshape(x, (6,))).backward()
        assert np.all(x.grad == 1.0)

    def test_reshape_count_mismatch(self):
        with pytest.raises(ShapeError, match="elements"):
            reshape(Tensor(np.zeros(6)), (4,))

    def test_no_grad_records_nothing(self):
        w = Tensor(np.ones((1, 1, 3)), requires_grad=True)
        with no_grad():
            out = sum_squares(concat_channels(w, w))
        assert out._parents == ()
        assert not out.requires_grad


class TestGradCheck:
    def test_quadratic_is_nearly_exact(self):
        params = ParameterSet({"w": np.array([1.0, -2.0, 0.5], dtype=np.float64)})
        err = grad_check(lambda p: sum_squares(p["w"]), params, h=1e-4).error
        assert err < 1e-9

    def test_flags_corrupted_backward_rule(self):
        params = ParameterSet({"w": np.array([1.5, -2.0], dtype=np.float64)})

        def bad_square_sum(t):
            value = (t.data**2).sum()

            def backward(g):
                if t.requires_grad:
                    t._accumulate(4.0 * float(g) * t.data)  # rule doubled on purpose

            return custom_op(value, (t,), backward)

        err = grad_check(lambda p: bad_square_sum(p["w"]), params, h=1e-4).error
        assert err > 0.1

    def test_requires_float64(self):
        params = ParameterSet({"w": np.ones(2, dtype=np.float32)})
        with pytest.raises(ValueError, match="float64"):
            grad_check(lambda p: sum_squares(p["w"]), params)

    CORE_OPS = [
        "conv_same", "conv_narrow", "conv_equal", "dense", "sigmoid", "tanh",
        "downsample", "upsample", "concat", "reshape_dense", *SMALL_MAP_CONVS,
    ]

    @pytest.mark.parametrize(
        "name,lead",
        [(name, ()) for name in CORE_OPS] + [(name, (2,)) for name in CORE_OPS],
        ids=CORE_OPS + [f"{name}-batch2" for name in CORE_OPS],
    )
    def test_every_core_op_passes_finite_differences(self, name, lead):
        rng = np.random.default_rng(17)
        values = {}

        if name == "conv_same":
            values["x"] = rng.normal(size=(*lead, 6, 6, 2))
            values["k"] = rng.normal(size=(3, 3, 2, 3))
            values["b"] = rng.normal(size=3)
            fn = lambda p: sum_squares(conv2d(p["x"], p["k"], p["b"]))
        elif name == "conv_narrow":
            values["x"] = rng.normal(size=(*lead, 6, 5, 4))
            values["k"] = rng.normal(size=(3, 5, 4, 2))
            values["b"] = rng.normal(size=2)
            fn = lambda p: sum_squares(conv2d(p["x"], p["k"], p["b"]))
        elif name == "conv_equal":
            values["x"] = rng.normal(size=(*lead, 6, 6, 3))
            values["k"] = rng.normal(size=(5, 5, 3, 3))
            values["b"] = rng.normal(size=3)
            fn = lambda p: sum_squares(conv2d(p["x"], p["k"], p["b"]))
        elif name in SMALL_MAP_CONVS:
            h, w, e, c, f = SMALL_MAP_CONVS[name]
            values["x"] = rng.normal(size=(*lead, h, w, c))
            values["k"] = rng.normal(size=(e, e, c, f))
            values["b"] = rng.normal(size=f)
            fn = lambda p: sum_squares(conv2d(p["x"], p["k"], p["b"]))
        elif name == "dense":
            values["x"] = rng.normal(size=(*lead, 5))
            values["w"] = rng.normal(size=(5, 3))
            values["b"] = rng.normal(size=3)
            fn = lambda p: sum_squares(dense(p["x"], p["w"], p["b"]))
        elif name in ("sigmoid", "tanh"):
            values["x"] = rng.normal(size=(*lead, 4, 4, 2))
            op = sigmoid if name == "sigmoid" else tanh
            fn = lambda p: sum_squares(op(p["x"]))
        elif name == "downsample":
            values["x"] = rng.normal(size=(*lead, 6, 6, 2))
            fn = lambda p: sum_squares(downsample_avg(p["x"], 2))
        elif name == "upsample":
            values["x"] = rng.normal(size=(*lead, 3, 3, 2))
            fn = lambda p: sum_squares(upsample_nearest(p["x"], 2))
        elif name == "concat":
            values["a"] = rng.normal(size=(*lead, 3, 3, 2))
            values["b"] = rng.normal(size=(*lead, 3, 3, 1))
            fn = lambda p: sum_squares(concat_channels(p["a"], p["b"]))
        else:
            values["x"] = rng.normal(size=(*lead, 2, 3, 2))
            values["w"] = rng.normal(size=(12, 2))
            values["b"] = rng.normal(size=2)
            fn = lambda p: sum_squares(dense(reshape(p["x"], (*lead, 12)), p["w"], p["b"]))

        assert grad_check(fn, ParameterSet(values), h=1e-4, seed=2).error < 1e-6


def _graph_bytes(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(6, 6, 2)), requires_grad=True)
    k = Tensor(rng.normal(size=(3, 3, 2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    out = sigmoid(conv2d(x, k, b))
    loss = sum_squares(out)
    loss.backward()
    return out.data.tobytes() + x.grad.tobytes() + k.grad.tobytes() + b.grad.tobytes()


def test_determinism_bit_identical_outputs_and_gradients():
    assert _graph_bytes(123) == _graph_bytes(123)
    assert _graph_bytes(123) != _graph_bytes(124)


class TestParameterSet:
    def test_insertion_order_kept(self):
        params = ParameterSet({name: np.zeros(1) for name in ("z", "a", "m")})
        assert params.names() == ["z", "a", "m"]

    def test_views_tile_the_arena_after_init_params(self, desk_config):
        params = init_params(desk_config)
        assert_in_arena(params)
        assert params.data.dtype == params.grad.dtype == np.float32
        assert not params.grad.any()

    def test_zero_grads_clears_every_view(self):
        params = ParameterSet({"a": np.ones((1, 1, 3)), "b": np.ones((2, 2))})
        sum_squares(concat_channels(params["a"], params["a"])).backward()
        sum_squares(params["b"]).backward()
        assert params["a"].grad.all() and params["b"].grad.all()
        params.zero_grads()
        assert_in_arena(params)
        assert not params.grad.any()

    def test_mixed_dtypes_rejected(self):
        with pytest.raises(ValueError, match="one float dtype"):
            ParameterSet({"a": np.zeros(2, dtype=np.float32), "b": np.zeros(2, dtype=np.float64)})

    def test_name_at_maps_flat_indices_to_parameters(self):
        params = ParameterSet({"a": np.zeros((2, 3)), "b": np.zeros(1), "c": np.zeros(4)})
        assert [params.name_at(i) for i in range(11)] == ["a"] * 6 + ["b"] + ["c"] * 4


class TestBt1Format:
    def test_roundtrip_is_bit_exact(self):
        rng = np.random.default_rng(9)
        arr = rng.normal(size=(3, 4, 2)).astype(np.float32)
        buf = io.BytesIO()
        write_bt1(buf, arr)
        buf.seek(0)
        back = read_bt1(buf)
        assert back.dtype == np.float32
        assert np.array_equal(back, arr)

    def test_roundtrip_on_disk(self, tmp_path):
        arr = np.arange(12, dtype=np.float32).reshape(2, 6)
        path = tmp_path / "t.bt1"
        with open(path, "wb") as fh:
            write_bt1(fh, arr)
        with open(path, "rb") as fh:
            assert np.array_equal(read_bt1(fh), arr)

    def test_huge_declared_shape_rejected_before_allocating(self, tmp_path):
        # (2**32 - 1) * 3 * 5 float32 elements would need about 257 GB; the
        # read runs in a child capped at 3 GB of address space, so reading
        # before checking fails there with MemoryError, whatever the machine
        # overcommits
        path = tmp_path / "huge.bt1"
        path.write_bytes(b"BEART1" + struct.pack("<4I", 3, 2**32 - 1, 3, 5) + bytes(78))
        script = (
            "import resource, sys\n"
            "from bear.serialize import read_bt1\n"
            "cap = 3 * 2**30\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
            "try:\n"
            "    with open(sys.argv[1], 'rb') as fh:\n"
            "        read_bt1(fh)\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("FormatError truncated tensor elements"), proc.stdout

    def test_bad_magic_names_offset_zero(self):
        buf = io.BytesIO(b"XEART1" + b"\x00" * 16)
        with pytest.raises(FormatError, match="offset 0"):
            read_bt1(buf)

    def test_truncated_elements_name_position(self):
        buf = io.BytesIO()
        write_bt1(buf, np.ones((2, 2), dtype=np.float32))
        data = buf.getvalue()[:-4]
        with pytest.raises(FormatError, match="byte offset"):
            read_bt1(io.BytesIO(data))
