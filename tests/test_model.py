"""Stage contracts, the shape pipeline, initialization, and parameter counts."""

import math

import numpy as np
import pytest

from bear.errors import ConfigError, NumericError, ShapeError
from bear.model import (
    BearConfig,
    bfe,
    dd,
    decode,
    encode,
    forward,
    init_params,
    param_count,
    parameter_shapes,
    pd,
    pf_reconstruct,
    pfe,
    residual_input,
    rfe,
)
from bear.tensor import ParameterSet, Tensor, conv2d, grad_check, no_grad, sigmoid
from bear.train import bce_loss


# The batch-invariance tolerance of README "Determinism": an image's
# embedding or reconstruction may move by this much with the batch it runs
# in. Measured drift was 0.0 for embeddings and at most 1.2e-7 for
# reconstructions, with the OpenBLAS that numpy 2.4 bundles.
BATCH_TOL = 1e-5


def _image(cfg, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(cfg.n, cfg.n, cfg.d)).astype(np.float32)


class TestConfigValidation:
    def test_full_scale_defaults(self):
        cfg = BearConfig()
        assert (cfg.n, cfg.d, cfg.m, cfg.r) == (128, 3, 256, 4)
        assert cfg.compression_ratio == pytest.approx(192.0)

    def test_n_not_divisible_by_8_rejected(self):
        with pytest.raises(ConfigError, match="divisible by 8"):
            BearConfig(n=20, d=3, r=4, m=8)

    def test_n_not_divisible_by_r_rejected(self):
        with pytest.raises(ConfigError, match="residual factor"):
            BearConfig(n=24, d=3, r=16, m=8)

    def test_rfe_width_must_match_pfe(self):
        with pytest.raises(ConfigError, match="f_rfe"):
            BearConfig(n=16, f_pfe=4, f_rfe=8)

    def test_pf_branch_count_bounded(self):
        with pytest.raises(ConfigError, match="pf_branches"):
            BearConfig(n=16, pf_branches=4)
        with pytest.raises(ConfigError, match="pf_branches"):
            BearConfig(n=16, pf_branches=0)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError, match="kernel_size"):
            BearConfig(n=16, kernel_size=4)


@pytest.mark.parametrize("n", [16, 32, 128])
@pytest.mark.parametrize("m", [32, 256])
def test_shape_pipeline(n, m):
    cfg = BearConfig(n=n, d=3, r=4, m=m, f_pfe=2, f_rfe=2, f_bfe=2, f_dec=2, seed=0)
    params = init_params(cfg)
    x = Tensor(_image(cfg))
    s4 = n // 4
    residual = residual_input(x, cfg)
    assert residual.shape == (s4, s4, 3)
    z = pfe(x, params, cfg)
    assert z.shape == (s4, s4, cfg.f_pfe)
    assert z.shape[:2] == residual.shape[:2]
    z = rfe(z, residual, params, "rfe1")
    assert z.shape == (s4, s4, cfg.f_pfe)
    z = rfe(z, residual, params, "rfe2")
    assert z.shape == (s4, s4, cfg.f_pfe)
    latent = bfe(z, residual, params, cfg)
    assert latent.shape == (m,)
    h = dd(latent, params, cfg)
    assert h.shape == (s4, s4, cfg.f_dec)
    h = pd(h, params, cfg, "pd1")
    assert h.shape == (n // 2, n // 2, cfg.f_dec)
    h = pd(h, params, cfg, "pd2")
    assert h.shape == (n, n, cfg.f_dec)
    out = pf_reconstruct(h, params, cfg)
    assert out.shape == (n, n, 3)


class TestResidualInput:
    def test_full_scale_shape(self):
        cfg = BearConfig(n=128, d=3, r=4, m=8, f_pfe=1, f_rfe=1, f_bfe=1, f_dec=1)
        out = residual_input(Tensor(np.zeros((128, 128, 3), dtype=np.float32)), cfg)
        assert out.shape == (32, 32, 3)

    def test_desk_scale_shape(self, desk_config):
        cfg = BearConfig(n=32, d=3, r=4, m=8, f_pfe=1, f_rfe=1, f_bfe=1, f_dec=1)
        out = residual_input(Tensor(np.zeros((32, 32, 3), dtype=np.float32)), cfg)
        assert out.shape == (8, 8, 3)

    def test_constant_image_stays_constant(self, desk_config):
        x = Tensor(np.full((16, 16, 3), 0.25, dtype=np.float32))
        out = residual_input(x, desk_config)
        assert np.allclose(out.data, 0.25)

    def test_wrong_extents_rejected(self, desk_config):
        with pytest.raises(ShapeError, match="expected shape"):
            residual_input(Tensor(np.zeros((8, 8, 3))), desk_config)


class TestRfe:
    def test_composes_with_itself(self, desk_config):
        params = init_params(desk_config)
        z = Tensor(np.random.default_rng(0).normal(size=(4, 4, 4)).astype(np.float32))
        res = Tensor(np.random.default_rng(1).uniform(size=(4, 4, 3)).astype(np.float32))
        once = rfe(z, res, params, "rfe1")
        twice = rfe(once, res, params, "rfe2")
        assert once.shape == z.shape
        assert twice.shape == z.shape

    def test_severed_residual_path_ignores_residual(self, desk_config):
        params = init_params(desk_config)
        # zero the kernel slice that consumes the residual channels
        params["rfe1/conv/kernel"].data[:, :, desk_config.f_pfe :, :] = 0.0
        rng = np.random.default_rng(2)
        z = Tensor(rng.normal(size=(4, 4, 4)).astype(np.float32))
        out_a = rfe(z, Tensor(rng.uniform(size=(4, 4, 3)).astype(np.float32)), params, "rfe1")
        out_b = rfe(z, Tensor(rng.uniform(size=(4, 4, 3)).astype(np.float32)), params, "rfe1")
        assert np.array_equal(out_a.data, out_b.data)

    def test_extent_mismatch_rejected(self, desk_config):
        params = init_params(desk_config)
        with pytest.raises(ShapeError, match="spatial"):
            rfe(Tensor(np.zeros((4, 4, 4))), Tensor(np.zeros((8, 8, 3))), params, "rfe1")


class TestBfe:
    def test_full_scale_latent_width(self):
        cfg = BearConfig(n=16, d=3, r=4, m=256, f_pfe=2, f_rfe=2, f_bfe=2, f_dec=2)
        params = init_params(cfg)
        z = Tensor(np.zeros((4, 4, 2), dtype=np.float32))
        res = Tensor(np.zeros((4, 4, 3), dtype=np.float32))
        assert bfe(z, res, params, cfg).shape == (256,)

    def test_desk_latent_width(self, desk_config):
        params = init_params(desk_config)
        z = Tensor(np.zeros((4, 4, 4), dtype=np.float32))
        res = Tensor(np.zeros((4, 4, 3), dtype=np.float32))
        assert bfe(z, res, params, desk_config).shape == (16,)

    def test_extent_mismatch_rejected(self, desk_config):
        params = init_params(desk_config)
        with pytest.raises(ShapeError, match=r"^bfe: spatial extents \(4, 4\) and \(8, 8\) differ$"):
            bfe(Tensor(np.zeros((4, 4, 4))), Tensor(np.zeros((8, 8, 3))), params, desk_config)

    def test_output_strictly_inside_unit_interval(self, desk_config):
        params = init_params(desk_config)
        rng = np.random.default_rng(3)
        z = Tensor(rng.normal(size=(4, 4, 4)).astype(np.float32))
        res = Tensor(rng.uniform(size=(4, 4, 3)).astype(np.float32))
        out = bfe(z, res, params, desk_config)
        assert np.abs(out.data).max() < 1.0


class TestDecoderStages:
    def test_dd_shape(self, desk_config):
        params = init_params(desk_config)
        out = dd(Tensor(np.zeros(16, dtype=np.float32)), params, desk_config)
        assert out.shape == (4, 4, 4)

    def test_dd_zero_latent_zero_bias_gives_zeros(self, desk_config):
        params = init_params(desk_config)
        params["dd/dense/bias"].data[:] = 0.0
        out = dd(Tensor(np.zeros(16, dtype=np.float32)), params, desk_config)
        assert np.all(out.data == 0.0)

    def test_dd_dense_gradient_finite_differences(self):
        cfg = BearConfig(n=16, d=3, r=4, m=4, f_pfe=2, f_rfe=2, f_bfe=2, f_dec=2, seed=1)
        params = init_params(cfg, dtype=np.float64)
        z = Tensor(np.random.default_rng(0).normal(size=4))

        def f(p):
            from bear.tensor import sum_squares

            return sum_squares(dd(z, p, cfg))

        assert grad_check(f, params, h=1e-4, samples=60, seed=3).error < 1e-3

    def test_pd_doubles_extents(self, desk_config):
        params = init_params(desk_config)
        out = pd(Tensor(np.zeros((4, 4, 4), dtype=np.float32)), params, desk_config, "pd1")
        assert out.shape == (8, 8, 4)

    def test_pd_twice_reaches_input_extent(self, desk_config):
        params = init_params(desk_config)
        h = pd(Tensor(np.zeros((4, 4, 4), dtype=np.float32)), params, desk_config, "pd1")
        h = pd(h, params, desk_config, "pd2")
        assert h.shape == (16, 16, 4)

    def test_pd_identical_branches_equal_single_branch(self, desk_config):
        params = init_params(desk_config)
        for extent in (3, 5):
            params[f"pd1/conv{extent}x{extent}/kernel"].data[:] = 0.0
            params[f"pd1/conv{extent}x{extent}/bias"].data[:] = 0.0
            centre = extent // 2
            params[f"pd1/conv{extent}x{extent}/kernel"].data[centre, centre, :, :] = (
                params["pd1/conv1x1/kernel"].data[0, 0, :, :]
            )
            params[f"pd1/conv{extent}x{extent}/bias"].data[:] = params["pd1/conv1x1/bias"].data
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(4, 4, 4)).astype(np.float32))
        out = pd(x, params, desk_config, "pd1")
        single = conv2d(x, params["pd1/conv1x1/kernel"], params["pd1/conv1x1/bias"])
        from bear.tensor import tanh as ttanh, upsample_nearest

        want = upsample_nearest(ttanh(single), 2)
        assert np.abs(out.data - want.data).max() < 1e-6

    def test_pf_single_branch_is_plain_conv_sigmoid(self):
        cfg = BearConfig(n=16, d=3, r=4, m=8, f_pfe=2, f_rfe=2, f_bfe=2, f_dec=2, pf_branches=1, seed=2)
        params = init_params(cfg)
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(16, 16, 2)).astype(np.float32))
        out = pf_reconstruct(x, params, cfg)
        want = sigmoid(conv2d(x, params["pf/conv1x1/kernel"], params["pf/conv1x1/bias"]))
        assert np.array_equal(out.data, want.data)

    def test_pf_output_shape_and_range(self, desk_config):
        params = init_params(desk_config)
        rng = np.random.default_rng(6)
        out = pf_reconstruct(Tensor(rng.normal(size=(16, 16, 4)).astype(np.float32)), params, desk_config)
        assert out.shape == (16, 16, 3)
        assert out.data.min() > 0.0
        assert out.data.max() < 1.0


class TestFullPipeline:
    def test_forward_shape_equals_input(self, desk_config):
        params = init_params(desk_config)
        x = Tensor(_image(desk_config))
        assert forward(x, params, desk_config).shape == x.shape

    def test_encode_deterministic_bits(self, desk_config):
        params = init_params(desk_config)
        x = _image(desk_config, seed=7)
        a = encode(Tensor(x), params, desk_config)
        b = encode(Tensor(x), params, desk_config)
        assert a.data.tobytes() == b.data.tobytes()

    def test_decode_validates_latent_extent(self, desk_config):
        params = init_params(desk_config)
        with pytest.raises(ShapeError, match="latent"):
            decode(Tensor(np.zeros(8, dtype=np.float32)), params, desk_config)

    def test_every_parameter_gets_gradient_from_reconstruction(self, desk_config):
        params = init_params(desk_config)
        x = Tensor(_image(desk_config, seed=8))
        loss = bce_loss(x, forward(x, params, desk_config))
        loss.backward()
        for name, t in params.items():
            assert t.grad is not None, name
            assert np.abs(t.grad).max() > 0.0, name

    def test_end_to_end_gradients_small(self):
        cfg = BearConfig(n=16, d=3, r=4, m=8, f_pfe=2, f_rfe=2, f_bfe=2, f_dec=2, seed=3)
        params = init_params(cfg, dtype=np.float64)
        x = Tensor(np.random.default_rng(9).uniform(0.05, 0.95, size=(16, 16, 3)))

        def f(p):
            return bce_loss(x, forward(x, p, cfg))

        assert grad_check(f, params, h=1e-4, samples=48, seed=11).error < 1e-3

    def test_batch_of_two_gradients_match_finite_differences(self):
        # c01's configuration and tolerances, over one batched graph
        cfg = BearConfig(n=16, d=3, r=4, m=16, f_pfe=4, f_rfe=4, f_bfe=4, f_dec=4, seed=1)
        params = init_params(cfg, dtype=np.float64)
        x = Tensor(np.random.default_rng(3).uniform(0.05, 0.95, size=(2, 16, 16, 3)))

        def f(p):
            return bce_loss(x, forward(x, p, cfg))

        check = grad_check(f, params, h=1e-4, samples=40, seed=5)
        assert check.error < 1e-3 and check.scaled_error < 1e-2

    def test_forward_on_a_batch_matches_single_images(self, desk_config):
        params = init_params(desk_config)
        images = np.stack([_image(desk_config, seed=s) for s in range(3)])
        batch = forward(Tensor(images), params, desk_config)
        assert batch.shape == images.shape
        for image, out in zip(images, batch.data):
            assert np.abs(forward(Tensor(image), params, desk_config).data - out).max() <= BATCH_TOL

    def test_embedding_does_not_depend_on_its_batch(self):
        cfg = BearConfig(n=32, d=3, r=4, m=32, f_pfe=8, f_rfe=8, f_bfe=8, f_dec=8, seed=0)
        params = init_params(cfg)
        images = np.stack([_image(cfg, seed=s) for s in range(16)])
        with no_grad():
            batch = encode(Tensor(images), params, cfg).data
            alone = np.stack([encode(Tensor(image[None]), params, cfg).data[0] for image in images])
        assert batch.shape == (16, 32)
        assert np.abs(alone - batch).max() <= BATCH_TOL


def test_tape_shape_of_a_desk_forward_and_loss(monkeypatch):
    # 16 encoder nodes (pfe 4; rfe1, rfe2 3 each; bfe 6; the residual pool
    # of the input records nothing), 17 decoder nodes (dd 3; pd1, pd2 5
    # each; pf 4) and the loss. A refactor of the tape that adds or drops a
    # node fails here
    cfg = BearConfig(n=32, d=3, r=4, m=32, f_pfe=8, f_rfe=8, f_bfe=8, f_dec=8)
    params = init_params(cfg)
    x = Tensor(np.stack([_image(cfg, seed=s) for s in range(2)]))
    recorded = []
    init = Tensor.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self._backward is not None:
            recorded.append(self)

    monkeypatch.setattr(Tensor, "__init__", recording_init)
    loss = bce_loss(x, forward(x, params, cfg))
    reachable, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in reachable:
            reachable[id(node)] = node
            stack.extend(node._parents)
    taped = [node for node in reachable.values() if node._backward is not None]
    assert len(taped) == 34
    assert {id(node) for node in recorded} == {id(node) for node in taped}
    leaves = {id(node) for node in reachable.values() if node._backward is None}
    assert leaves == {id(t) for _, t in params.items()}
    recorded.clear()
    with no_grad():
        loss = bce_loss(x, forward(x, params, cfg))
    assert recorded == [] and not loss.requires_grad


class TestInitialization:
    def test_same_seed_same_parameters(self, desk_config):
        a = init_params(desk_config)
        b = init_params(desk_config)
        for (name_a, ta), (name_b, tb) in zip(a.items(), b.items()):
            assert name_a == name_b
            assert ta.data.tobytes() == tb.data.tobytes()

    def test_different_seed_differs(self, desk_config):
        import dataclasses

        other = dataclasses.replace(desk_config, seed=desk_config.seed + 1)
        a = init_params(desk_config)
        b = init_params(other)
        assert any(
            ta.data.tobytes() != tb.data.tobytes()
            for (_, ta), (_, tb) in zip(a.items(), b.items())
        )

    def test_forget_gate_bias_is_one(self, desk_config):
        params = init_params(desk_config)
        for stage in ("pfe/convlstm1", "pfe/convlstm2", "bfe/convlstm"):
            biases = params[f"{stage}/biases"].data
            f = biases.shape[0] // 4
            assert np.all(biases[f : 2 * f] == 1.0)
            assert np.all(biases[:f] == 0.0)
            assert np.all(biases[2 * f :] == 0.0)

    def test_parameter_order_matches_shape_table(self, desk_config):
        params = init_params(desk_config)
        assert params.names() == list(parameter_shapes(desk_config))

    @pytest.mark.parametrize(
        "cfg",
        [BearConfig(n=32, d=3, r=4, m=32, f_pfe=8, f_rfe=8, f_bfe=8, f_dec=8), BearConfig()],
        ids=["desk", "full"],
    )
    def test_kernels_equal_one_draw_per_kernel(self, cfg):
        # init_params fills kernels in blocks; one draw of each whole kernel
        # from the same generator must give the same bytes
        params = init_params(cfg)
        rng = np.random.default_rng(cfg.seed)
        for name, shape in parameter_shapes(cfg).items():
            if name.endswith(("bias", "biases")):
                continue
            if len(shape) == 2:
                fan_in, fan_out = shape
            else:
                kh, kw, cin, cout = shape
                fan_in, fan_out = kh * kw * cin, kh * kw * cout
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            want = rng.uniform(-limit, limit, size=shape).astype(np.float32)
            assert params[name].data.tobytes() == want.tobytes(), name


class TestParamCount:
    def test_dense_block_arithmetic(self):
        params = ParameterSet({"dd/dense/weights": np.zeros((32, 16)), "dd/dense/bias": np.zeros(16)})
        stages, total = param_count(params)
        assert stages == {"dd": 32 * 16 + 16}
        assert total == 528

    def test_total_equals_sum_of_stages(self, desk_config):
        params = init_params(desk_config)
        stages, total = param_count(params)
        assert total == sum(stages.values())
        assert total == params.data.size

    def test_documented_full_scale_total_under_10m(self):
        cfg = BearConfig()  # the documented full-scale configuration
        total = sum(int(np.prod(s)) for s in parameter_shapes(cfg).values())
        assert total < 10_000_000
        # far below the cited ~86M floor of large attention-based encoders
        assert total < 86_000_000 // 8
