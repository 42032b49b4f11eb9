"""PPM P6 file handling and deterministic resizing."""

import sys

import numpy as np
import pytest

from bear.errors import FormatError, ShapeError
from bear.ppm import (
    image_to_unit,
    parse_ppm,
    read_ppm,
    resize_unit,
    unit_to_image,
    write_ppm,
)
from bear.tensor import Tensor, downsample_avg, upsample_nearest


class TestPpmFormat:
    def test_roundtrip_every_byte_value(self, tmp_path):
        values = np.arange(256, dtype=np.uint8)
        shifted = ((values.astype(np.int16) + 7) % 256).astype(np.uint8)
        pixels = np.stack([values, values[::-1], shifted], axis=1).reshape(16, 16, 3)
        path = tmp_path / "ramp.ppm"
        write_ppm(path, pixels)
        assert np.array_equal(read_ppm(path), pixels)

    def test_header_comments_are_skipped(self):
        data = b"P6\n# a comment\n2 1\n# another\n255\n" + bytes(6)
        pixels = parse_ppm(data)
        assert pixels.shape == (1, 2, 3)

    def test_bad_magic_names_offset_zero(self):
        with pytest.raises(FormatError, match="offset 0"):
            parse_ppm(b"P5\n1 1\n255\n\x00\x00\x00")

    def test_truncated_pixels_name_offset(self):
        data = b"P6\n2 2\n255\n" + bytes(5)
        with pytest.raises(FormatError, match="byte offset"):
            parse_ppm(data)

    @pytest.mark.parametrize("field, at", [("width", 3), ("height", 5)])
    def test_header_integer_over_the_int_digit_limit_names_its_offset(self, field, at):
        # more digits than int() converts from a string (4,300 by default)
        digits = b"1" * (max(getattr(sys, "get_int_max_str_digits", lambda: 0)(), 4300) + 1)
        header = b"P6\n" + (digits + b" 1" if field == "width" else b"1 " + digits) + b"\n255\n"
        with pytest.raises(FormatError, match=f"^ppm: {field} at byte offset {at} has too many digits"):
            parse_ppm(header + bytes(3))

    def test_wrong_maxval_rejected(self):
        with pytest.raises(FormatError, match="maxval"):
            parse_ppm(b"P6\n1 1\n65535\n" + bytes(6))

    def test_writer_validates_shape_and_dtype(self, tmp_path):
        with pytest.raises(ShapeError):
            write_ppm(tmp_path / "x.ppm", np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ShapeError):
            write_ppm(tmp_path / "x.ppm", np.zeros((2, 2, 3), dtype=np.float32))


class TestUnitConversion:
    def test_round_half_up(self):
        x = np.array([[[0.0, 1.0, 0.5 / 255.0]]])
        out = unit_to_image(x)
        assert out.tolist() == [[[0, 255, 1]]]

    def test_unit_roundtrip_on_bytes(self):
        values = np.arange(256, dtype=np.uint8).reshape(16, 16, 1).repeat(3, axis=2)
        assert np.array_equal(unit_to_image(image_to_unit(values)), values)


class TestResize:
    def test_divisible_shrink_equals_average_pool(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(64, 64, 3)).astype(np.float32)
        got = resize_unit(x, 32)
        want = downsample_avg(Tensor(x), 2).data
        assert np.array_equal(got, want)

    def test_enlarge_equals_nearest_upsample(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=(8, 8, 3)).astype(np.float32)
        got = resize_unit(x, 16)
        want = upsample_nearest(Tensor(x), 2).data
        assert np.array_equal(got, want)

    def test_identity_when_already_square(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(size=(16, 16, 3)).astype(np.float32)
        assert np.array_equal(resize_unit(x, 16), x)

    @pytest.mark.parametrize("shape", [(4, 4), (1, 4, 4, 3)], ids=["rank-2", "rank-4"])
    def test_source_of_another_rank_rejected(self, shape):
        with pytest.raises(ShapeError, match=f"^resize_unit: expected rank 3, got rank {len(shape)}$"):
            resize_unit(np.zeros(shape, dtype=np.float32), 4)

    def test_non_square_source_is_squashed(self):
        x = np.zeros((4, 8, 3), dtype=np.float32)
        x[:, 4:, :] = 1.0
        out = resize_unit(x, 4)
        assert out.shape == (4, 4, 3)
        assert np.allclose(out[:, :2, :], 0.0)
        assert np.allclose(out[:, 2:, :], 1.0)

    def test_fractional_shrink_preserves_mean(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(24, 24, 1)).astype(np.float32)
        out = resize_unit(x, 16)
        assert out.shape == (16, 16, 1)
        assert float(out.mean()) == pytest.approx(float(x.mean()), abs=1e-3)

    def test_constant_image_survives_any_resize(self):
        x = np.full((20, 20, 3), 0.25, dtype=np.float32)
        for n in (8, 16, 32, 40):
            out = resize_unit(x, n)
            assert out.shape == (n, n, 3)
            assert np.allclose(out, 0.25, atol=1e-6)

    @pytest.mark.parametrize("shape", [(256, 200), (200, 256), (128, 200), (200, 128)])
    def test_one_axis_shrinks_match_a_float64_area_average(self, shape):
        # a whole-factor axis takes the box mean, an equal axis is kept, and
        # the other axis takes fractional overlap weights
        x = np.random.default_rng(4).uniform(size=(*shape, 3)).astype(np.float32)
        want = _area_average(_area_average(x.astype(np.float64), 128, 0), 128, 1)
        got = resize_unit(x, 128)
        assert got.shape == (128, 128, 3) and got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)


def _area_average(x, target, axis):
    """Each output cell is the mean of the source axis over [i·s, (i+1)·s),
    s = extent / target, read off the prefix sums of the source cells."""
    x = np.moveaxis(x, axis, 0)
    prefix = np.concatenate([np.zeros_like(x[:1]), np.cumsum(x, axis=0)])

    def integral(t):  # the source summed over [0, t)
        whole = int(t)
        part = prefix[whole]
        return part if whole == len(x) else part + (t - whole) * x[whole]

    span = len(x) / target
    out = np.stack([(integral((i + 1) * span) - integral(i * span)) / span for i in range(target)])
    return np.moveaxis(out, 0, axis)
