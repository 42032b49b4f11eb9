"""Losses, Adam, the decay and stopping schedules, fit, checkpoints."""

import io
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_in_arena, reference_adam_steps, scalar_adam_trace, scalar_bce, scalar_mse

import bear.tensor
import bear.train
from bear.errors import ConfigError, DataError, FormatError, NumericError, ShapeError
from bear.model import BearConfig, encoder_shapes, forward, init_params
from bear.serialize import BT1_MAGIC, Checkpoint, load_checkpoint, save_checkpoint, write_bt1
from bear.synth import synthetic_images
from bear.tensor import CHUNK, ParameterSet, Tensor, grad_check, no_grad
from bear.train import (
    Adam,
    TrainConfig,
    accumulate_gradients,
    bce_loss,
    early_stop,
    fit,
    mse_loss,
    plateau_decay,
    write_epoch_log,
)


class TestTrainConfig:
    def test_default_schedule_values(self):
        cfg = TrainConfig()
        assert cfg.lr0 == 1e-4
        assert cfg.plateau_patience == 5
        assert cfg.stop_patience == 10
        assert cfg.decay_factor == 0.5

    def test_stop_patience_cannot_undercut_plateau(self):
        with pytest.raises(ConfigError, match="stop_patience"):
            TrainConfig(plateau_patience=5, stop_patience=4)

    def test_unknown_loss_rejected(self):
        with pytest.raises(ConfigError, match="loss"):
            TrainConfig(loss="mae")

    def test_val_fraction_bounds(self):
        with pytest.raises(ConfigError):
            TrainConfig(val_fraction=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(val_fraction=1.0)

    def test_negative_l2_rejected(self):
        with pytest.raises(ConfigError, match="l2"):
            TrainConfig(l2=-1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["lr0", "decay_factor", "val_fraction", "l2"])
    def test_non_finite_float_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be finite, got"):
            TrainConfig(**{name: value})


class TestBceLoss:
    def test_perfect_binary_reconstruction_is_near_zero(self):
        x = Tensor(np.zeros((4, 4, 1)))
        assert bce_loss(x, Tensor(np.zeros((4, 4, 1)))).item() < 1e-6

    def test_half_everywhere_is_ln_two(self):
        x = Tensor(np.full((8, 8, 3), 0.5))
        assert bce_loss(x, Tensor(np.full((8, 8, 3), 0.5))).item() == pytest.approx(math.log(2), abs=1e-6)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(size=(3, 5, 2))
            xhat = rng.uniform(0.01, 0.99, size=(3, 5, 2))
            got = bce_loss(Tensor(x), Tensor(xhat)).item()
            assert got == pytest.approx(scalar_bce(x, xhat), abs=1e-6)

    def test_gradient_by_finite_differences(self):
        rng = np.random.default_rng(1)
        for shape in ((4, 4, 2), (2, 4, 4, 2)):  # one map, then a batch of two
            x = Tensor(rng.uniform(size=shape))
            params = ParameterSet({"xhat": rng.uniform(0.1, 0.9, size=shape)})
            assert grad_check(lambda p: bce_loss(x, p["xhat"]), params, h=1e-6).error < 1e-3

    def test_gradient_zero_at_clamped_binary_optimum(self):
        rng = np.random.default_rng(6)
        x_values = (rng.uniform(size=(5, 5, 2)) > 0.5).astype(np.float64)
        x = Tensor(x_values)
        xhat = Tensor(x_values.copy(), requires_grad=True)
        bce_loss(x, xhat).backward()
        assert np.all(xhat.grad == 0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            bce_loss(Tensor(np.zeros((2, 2, 1))), Tensor(np.zeros((2, 2, 2))))

    @settings(deadline=None, max_examples=30)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
        st.lists(st.floats(0.001, 0.999), min_size=6, max_size=6),
    )
    def test_nonnegative(self, xs, hats):
        x = np.array(xs)
        xhat = np.array(hats[: len(xs)])
        assert bce_loss(Tensor(x), Tensor(xhat)).item() >= 0.0


class TestMseLoss:
    def test_identical_tensors_give_zero(self):
        x = Tensor(np.random.default_rng(2).normal(size=(3, 3, 2)))
        assert mse_loss(x, Tensor(x.data.copy())).item() == 0.0

    def test_unit_difference(self):
        assert mse_loss(Tensor([0.0]), Tensor([1.0])).item() == pytest.approx(1.0)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 3))
        xhat = rng.normal(size=(4, 3))
        assert mse_loss(Tensor(x), Tensor(xhat)).item() == pytest.approx(scalar_mse(x, xhat), abs=1e-9)

    def test_gradient_by_finite_differences(self):
        rng = np.random.default_rng(4)
        for shape in ((3, 3, 1), (2, 3, 3, 1)):  # one map, then a batch of two
            x = Tensor(rng.normal(size=shape))
            params = ParameterSet({"xhat": rng.normal(size=shape)})
            assert grad_check(lambda p: mse_loss(x, p["xhat"]), params, h=1e-5).error < 1e-6
            params.zero_grads()
            loss = mse_loss(x, params["xhat"])
            loss.backward()
            want = 2.0 * (params["xhat"].data - x.data) / x.size
            assert np.allclose(params["xhat"].grad, want)


@pytest.mark.parametrize("loss_fn", [bce_loss, mse_loss], ids=["bce", "mse"])
def test_the_loss_target_is_a_constant(loss_fn):
    x = Tensor(np.full((2, 2, 1), 0.25), requires_grad=True)
    xhat = Tensor(np.full((2, 2, 1), 0.5), requires_grad=True)
    loss_fn(x, xhat).backward()
    assert x.grad is None
    assert np.all(xhat.grad != 0.0)


class TestAdam:
    def test_zero_gradient_leaves_parameters_but_advances_time(self):
        params = ParameterSet({"w": np.array([1.0, 2.0])})
        w = params["w"]
        state = Adam(params)
        w.grad[...] = np.zeros(2, dtype=w.data.dtype)
        state.step(1e-3)
        assert np.allclose(w.data, [1.0, 2.0])
        assert state.t == 1

    def test_first_step_magnitude_is_learning_rate(self):
        params = ParameterSet({"w": np.array([3.0], dtype=np.float64)})
        w = params["w"]
        state = Adam(params)
        w.grad[...] = np.array([0.5])
        state.step(1e-4)
        assert abs(abs(3.0 - float(w.data[0])) - 1e-4) < 1e-10

    def test_three_steps_match_scalar_oracle(self):
        lr = 0.1
        params = ParameterSet({"w": np.array([1.0], dtype=np.float64)})
        w = params["w"]
        state = Adam(params)
        grads = []
        got = []
        for _ in range(3):
            g = 2.0 * (float(w.data[0]) - 5.0)
            grads.append(g)
            w.grad[...] = np.array([g], dtype=np.float64)
            state.step(lr)
            got.append(float(w.data[0]))
        want = scalar_adam_trace(1.0, grads, lr)
        for a, b in zip(got, want):
            assert abs(a - b) < 1e-10

    def test_zero_learning_rate_changes_nothing(self):
        params = ParameterSet({"w": np.array([1.0, -2.0], dtype=np.float64)})
        w = params["w"]
        state = Adam(params)
        w.grad[...] = np.array([5.0, -3.0])
        state.step(0.0)
        assert np.array_equal(w.data, [1.0, -2.0])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_unread_first_moments_keep_the_bits_of_the_zero_moment_step(self, data):
        # step 1 writes m and v without reading their zeros; reference_adam_steps
        # reads them, and a -0.0 gradient there gives 0 + -0.0 = +0.0
        special = [0.0, -0.0, 1e-45, -1e-45, 3e-39, -1.1754942e-38]  # signed zeros and subnormals
        element = st.one_of(st.sampled_from(special), st.floats(-100.0, 100.0, width=32))
        size = data.draw(st.integers(1, 16))
        draw = lambda: np.array(data.draw(st.lists(element, min_size=size, max_size=size)), np.float32)
        values, grads = draw(), [draw() for _ in range(3)]
        params = ParameterSet({"w": values})
        state = Adam(params)
        for g in grads:
            params["w"].grad[...] = g
            state.step(1e-2)
        want_p, want_m, want_v = reference_adam_steps(values, grads, 1e-2)
        assert params.data.tobytes() == want_p.tobytes()
        assert state.m.tobytes() == want_m.tobytes()
        assert state.v.tobytes() == want_v.tobytes()

    def test_gradients_cleared_after_step(self):
        params = ParameterSet({"w": np.array([1.0])})
        w = params["w"]
        state = Adam(params)
        w.grad[...] = np.array([1.0], dtype=w.data.dtype)
        state.step(1e-3)
        assert np.all(w.grad == 0.0)

    def test_non_finite_gradient_names_parameter(self):
        params = ParameterSet({"pfe/convlstm1/biases": np.array([1.0])})
        w = params["pfe/convlstm1/biases"]
        state = Adam(params)
        w.grad[...] = np.array([np.inf], dtype=w.data.dtype)
        with pytest.raises(NumericError, match="pfe/convlstm1/biases"):
            state.step(1e-3)

    def test_non_finite_gradient_leaves_every_parameter_and_moment_unchanged(self):
        params = ParameterSet({"a": np.array([1.0, -2.0], dtype=np.float64), "b": np.array([0.5], dtype=np.float64)})
        a, b = params["a"], params["b"]
        state = Adam(params)
        a.grad[...] = np.array([0.3, -0.1])
        b.grad[...] = np.array([0.2])
        state.step(1e-2)
        before = (params.data.copy(), state.m.copy(), state.v.copy(), state.t)
        a.grad[...] = np.array([0.3, -0.1])
        b.grad[...] = np.array([np.nan])
        with pytest.raises(NumericError, match="'b'"):
            state.step(1e-2)
        values, m, v, t = before
        assert t == state.t == 1
        assert np.array_equal(params.data, values)
        assert np.array_equal(state.m, m)
        assert np.array_equal(state.v, v)

    @pytest.mark.parametrize(
        "grad, lr, message",
        [
            (1e10, 1e30, r"^non-finite Adam update for parameter 'b' at learning rate 1e\+30$"),
            (1e20, 1e30, r"^non-finite Adam update for parameter 'b' at learning rate 1e\+30$"),
            (1e20, 1e-3, r"^non-finite Adam second moment for parameter 'b'$"),
        ],
        ids=["inf", "inf-over-inf", "second-moment"],
    )
    def test_overflowing_update_names_its_parameter_before_writing_it(self, grad, lr, message):
        # in float32, 1e30 * 1e10 overflows to inf; at 1e20 the squared gradient
        # overflows too, and the update is inf / inf, a nan. At lr 1e-3 that
        # update is a finite lr * m / inf = 0, which would freeze the weight
        params = ParameterSet({"a": np.array([1.0, -2.0], np.float32), "b": np.array([0.5], np.float32)})
        state = Adam(params)
        params["b"].grad[...] = grad
        with pytest.raises(NumericError, match=message):
            state.step(lr)
        assert params["b"].data.tolist() == [0.5]

    @staticmethod
    def _straddling_set(rng):
        # 75000 + 74800 + 77 float32 elements: "a" straddles the first chunk
        # boundary, "b" the second, and the total is not a multiple of CHUNK
        values = {
            "a": rng.normal(size=(300, 250)).astype(np.float32),
            "b": rng.normal(size=(400, 187)).astype(np.float32),
            "c": rng.normal(size=(7, 11)).astype(np.float32),
        }
        assert CHUNK == 65536 and 300 * 250 > CHUNK and 300 * 250 + 400 * 187 > 2 * CHUNK
        assert sum(v.size for v in values.values()) % CHUNK != 0
        return values

    def test_chunked_steps_match_reference_formula_bit_for_bit(self):
        rng = np.random.default_rng(21)
        values = self._straddling_set(rng)
        grads = [
            {name: (rng.normal(size=v.shape) * 10.0**-k).astype(np.float32) for name, v in values.items()}
            for k in range(5)
        ]
        params = ParameterSet(values)
        state = Adam(params)
        for step in grads:
            for name, g in step.items():
                params[name].grad[...] = g
            state.step(3e-3)
        assert_in_arena(params)
        start = 0
        for name, value in values.items():
            want_p, want_m, want_v = reference_adam_steps(value, [step[name] for step in grads], 3e-3)
            stop = start + value.size
            assert params[name].data.tobytes() == want_p.tobytes(), name
            assert state.m[start:stop].tobytes() == want_m.tobytes(), name
            assert state.v[start:stop].tobytes() == want_v.tobytes(), name
            start = stop

    def test_non_finite_gradient_past_first_chunk_names_it_and_changes_nothing(self):
        rng = np.random.default_rng(22)
        params = ParameterSet(self._straddling_set(rng))
        state = Adam(params)
        params.grad[...] = rng.normal(size=params.grad.size)
        state.step(1e-3)
        before = (params.data.copy(), state.m.copy(), state.v.copy())
        params.grad[...] = rng.normal(size=params.grad.size)
        params["b"].grad[399, 186] = np.nan  # flat index 149799, in the third chunk
        with pytest.raises(NumericError, match="'b'"):
            state.step(1e-3)
        assert state.t == 1
        for got, want in zip((params.data, state.m, state.v), before):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "bad, named",
        [({"a": (299, 249), "c": (0, 0)}, "a"), ({"b": (399, 186), "c": (6, 10)}, "b"), ({"c": (6, 10)}, "c")],
        ids=["first-chunk", "same-chunk", "last-element"],
    )
    def test_non_finite_check_names_the_first_bad_element(self, bad, named):
        params = ParameterSet(self._straddling_set(np.random.default_rng(23)))
        state = Adam(params)
        for name, index in bad.items():
            params[name].grad[index] = np.inf if name == named else np.nan
        with pytest.raises(NumericError, match=f"'{named}'"):
            state.step(1e-3)
        assert state.t == 0

    def test_moment_shapes_track_parameters(self):
        params = ParameterSet({"a": np.zeros((2, 3)), "b": np.zeros(4)})
        state = Adam(params)
        assert state.m.shape == state.v.shape == (10,)
        assert state.m.dtype == state.v.dtype == params.data.dtype


class TestPlateauDecay:
    CFG = TrainConfig(plateau_patience=5, stop_patience=10, decay_factor=0.5)

    def test_strictly_decreasing_history_keeps_lr(self):
        assert plateau_decay([5.0, 4.0, 3.0, 2.0, 1.0], 1e-4, self.CFG) == 1e-4

    def test_flat_history_of_patience_length_halves_lr(self):
        assert plateau_decay([1.0] * 5, 1e-4, self.CFG) == pytest.approx(5e-5)

    def test_improvement_resets_counter(self):
        assert plateau_decay([1.0, 1.0, 1.0, 1.0, 0.5], 1e-4, self.CFG) == 1e-4

    def test_counter_resets_after_each_decay(self):
        # fires at epochs 5 and 10 of a flat run, nowhere in between
        for length in range(1, 13):
            fired = plateau_decay([1.0] * length, 1.0, self.CFG) != 1.0
            assert fired == (length in (5, 10)), length

    def test_tiny_improvement_does_not_count(self):
        history = [1.0, 1.0 - 1e-9, 1.0 - 2e-9, 1.0 - 3e-9, 1.0 - 4e-9]
        assert plateau_decay(history, 1e-4, self.CFG) == pytest.approx(5e-5)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            plateau_decay([], 1e-4, self.CFG)


class TestEarlyStop:
    CFG = TrainConfig(plateau_patience=5, stop_patience=10)

    def test_ten_stalled_epochs_stop(self):
        assert early_stop([1.0] * 10, self.CFG) is True

    def test_nine_stalled_then_improvement_continues(self):
        assert early_stop([1.0] * 9 + [0.5], self.CFG) is False

    def test_monotone_decreasing_never_stops(self):
        for length in (1, 5, 20, 50):
            history = list(np.linspace(5.0, 1.0, length))
            assert early_stop(history, self.CFG) is False

    def test_fires_exactly_at_patience_after_best(self):
        history = [2.0, 1.0] + [1.5] * 9
        assert early_stop(history, self.CFG) is False
        history.append(1.4)
        assert early_stop(history, self.CFG) is True


def _reference_improvement_flags(history):
    """Per-epoch flags: did this epoch beat the best of all prior epochs by
    more than IMPROVE_EPS? The first epoch counts as not improving."""
    flags = []
    best = math.inf
    for i, value in enumerate(history):
        flags.append(i > 0 and value < best - bear.train.IMPROVE_EPS)
        best = min(best, value)
    return flags


def _reference_schedule(history, plateau_patience, stop_patience):
    """(decays after the last epoch, stops after the last epoch), from a stall
    counter that resets on improvement and after each decay, and from the
    trailing run of non-improving epochs."""
    flags = _reference_improvement_flags(history)
    counter = 0
    fired = False
    for improved in flags:
        if improved:
            counter = 0
            fired = False
        else:
            counter += 1
            fired = counter >= plateau_patience
            if fired:
                counter = 0
    run = 0
    for improved in reversed(flags):
        if improved:
            break
        run += 1
    return fired, run >= stop_patience


class TestScheduleOracle:
    # values near 1 with offsets around IMPROVE_EPS, so ties, near-ties and
    # improvements just beyond the threshold all occur
    VALUES = st.sampled_from([1.0, 0.5, 0.25]).flatmap(
        lambda base: st.sampled_from([0.0, 0.4e-6, 0.9e-6, 1e-6, 1.1e-6, 2e-6, 0.1]).map(lambda d: base - d)
    )

    @settings(deadline=None, max_examples=500)
    @given(
        st.lists(VALUES, min_size=1, max_size=30),
        st.integers(1, 6),
        st.integers(0, 6),
    )
    def test_schedules_match_the_stall_counter_state_machine(self, history, plateau, extra):
        cfg = TrainConfig(plateau_patience=plateau, stop_patience=plateau + extra, decay_factor=0.5)
        for end in range(1, len(history) + 1):
            prefix = history[:end]
            decays, stops = _reference_schedule(prefix, cfg.plateau_patience, cfg.stop_patience)
            assert plateau_decay(prefix, 1.0, cfg) == (0.5 if decays else 1.0), prefix
            assert early_stop(prefix, cfg) is stops, prefix


def _desk_setup(count=12, max_epochs=2, **overrides):
    bcfg = BearConfig(n=16, d=3, r=4, m=8, f_pfe=2, f_rfe=2, f_bfe=2, f_dec=2, seed=0)
    defaults = dict(
        loss="bce", lr0=1e-3, batch_size=4, max_epochs=max_epochs,
        val_fraction=0.25, l2=1e-4, seed=0,
    )
    defaults.update(overrides)
    tcfg = TrainConfig(**defaults)
    images = synthetic_images(count, 16, seed=5)
    return images, tcfg, bcfg


class TestFit:
    def test_records_and_checkpoint_are_well_formed(self):
        images, tcfg, bcfg = _desk_setup()
        ckpt, records = fit(images, tcfg, bcfg)
        assert len(records) == 2
        for r in records:
            assert math.isfinite(r.train_loss) and r.train_loss >= 0.0
            assert math.isfinite(r.val_loss) and r.val_loss >= 0.0
        assert ckpt.config == bcfg
        assert ckpt.metadata["epochs_run"] == "2"
        assert int(ckpt.metadata["n_train"]) + int(ckpt.metadata["n_val"]) == len(images)

    def test_learning_rate_never_increases(self):
        images, tcfg, bcfg = _desk_setup(max_epochs=8, plateau_patience=2, stop_patience=6, lr0=5e-3)
        _, records = fit(images, tcfg, bcfg)
        rates = [r.lr for r in records]
        assert all(b <= a for a, b in zip(rates, rates[1:]))

    def test_trained_parameters_live_in_the_arena(self):
        images, tcfg, bcfg = _desk_setup(max_epochs=1)
        ckpt, _ = fit(images, tcfg, bcfg)
        assert_in_arena(ckpt.params)
        assert ckpt.params.data.tobytes() != init_params(bcfg).data.tobytes()

    def test_zero_epochs_returns_initial_checkpoint_and_empty_log(self):
        images, tcfg, bcfg = _desk_setup(max_epochs=0)
        ckpt, records = fit(images, tcfg, bcfg)
        assert records == []
        fresh = init_params(bcfg)
        for (name, a), (_, b) in zip(ckpt.params.items(), fresh.items()):
            assert np.array_equal(a.data, b.data), name

    def test_identical_seeds_reproduce_the_run(self, tmp_path):
        images, tcfg, bcfg = _desk_setup(max_epochs=2)
        ckpt_a, records_a = fit(images, tcfg, bcfg)
        ckpt_b, records_b = fit(images, tcfg, bcfg)
        assert records_a == records_b
        pa, pb = tmp_path / "a.bc1", tmp_path / "b.bc1"
        save_checkpoint(ckpt_a, pa)
        save_checkpoint(ckpt_b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    @pytest.mark.parametrize(
        "modes, best",
        [
            ((), 0),
            (("bad", "bad", "real"), 3),
            (("real", "bad", "bad"), 1),
            (("bad", "real", "bad"), 2),
        ],
        ids=["no-epochs", "last-epoch-best", "first-epoch-best", "middle-epoch-best"],
    )
    def test_checkpoint_holds_the_values_at_the_end_of_the_best_epoch(self, monkeypatch, modes, best):
        # Validation (the forward passes without a tape) sees the values at
        # the end of each epoch; the spy keeps them. A "bad" epoch validates
        # on the complement of its input, whose loss is far above any real
        # one, so the best epoch is the one chosen here.
        images, tcfg, bcfg = _desk_setup(max_epochs=len(modes))
        real_forward = bear.train.forward
        ends = []

        def spy(x, params, cfg):
            if bear.tensor._state.grad_enabled:
                return real_forward(x, params, cfg)
            ends.append(params.data.copy())
            if modes[len(ends) - 1] == "bad":
                return Tensor(1.0 - x.data)
            return real_forward(x, params, cfg)

        monkeypatch.setattr(bear.train, "forward", spy)
        ckpt, records = fit(images, tcfg, bcfg)
        assert len(ends) == len(records) == len(modes)
        assert ckpt.metadata["best_epoch"] == str(best)
        want = ends[best - 1] if best else init_params(bcfg).data
        assert ckpt.params.data.tobytes() == want.tobytes()
        assert all(not np.array_equal(a, b) for a, b in zip(ends, ends[1:]))

    def test_the_run_takes_memory_from_its_own_free_list(self, monkeypatch):
        images, tcfg, bcfg = _desk_setup(max_epochs=1)
        inner = bear.train.accumulate_gradients
        active = []

        def spy(*args):
            active.append(bear.tensor._state.free is not None)
            return inner(*args)

        monkeypatch.setattr(bear.train, "accumulate_gradients", spy)
        fit(images, tcfg, bcfg)
        assert active and all(active)
        assert bear.tensor._state.free is None, "the run's free list outlived it"

    def test_empty_dataset_rejected(self):
        _, tcfg, bcfg = _desk_setup()
        with pytest.raises(DataError, match="empty"):
            fit([], tcfg, bcfg)

    @pytest.mark.parametrize("held_out", [False, True], ids=["training", "validation"])
    def test_a_nan_image_is_a_non_finite_loss(self, held_out):
        images, tcfg, bcfg = _desk_setup()
        # the seeded permutation's first round(0.25 * 12) = 3 images are the validation set
        order = np.random.default_rng(tcfg.seed).permutation(len(images))
        bad = order[0] if held_out else order[3]
        images[bad] = np.full_like(images[bad], np.nan)
        stage = "validation" if held_out else "training"
        with pytest.raises(NumericError, match=f"^non-finite {stage} loss in epoch 1$"):
            fit(images, tcfg, bcfg)
        assert bear.tensor._state.free is None, "the run's free list outlived it"

    @pytest.mark.parametrize(
        "call,error,message",
        [
            (lambda: TrainConfig(seed=-1), ConfigError, "seed must be nonnegative, got -1"),
            (
                lambda: mse_loss(Tensor(np.zeros((2, 2, 1))), Tensor(np.zeros((2, 2, 2)))),
                ShapeError,
                "mse_loss: shapes (2, 2, 1) and (2, 2, 2) differ",
            ),
            (
                lambda: fit(*_desk_setup(count=1)),
                DataError,
                "fit: need at least 2 images to split off a validation set",
            ),
        ],
        ids=["negative-seed", "mse-shapes-differ", "fit-one-image"],
    )
    def test_invalid_settings_and_operands_rejected(self, call, error, message):
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message

    def test_wrong_image_shape_rejected(self):
        images, tcfg, bcfg = _desk_setup()
        images[3] = np.zeros((8, 8, 3), dtype=np.float32)
        with pytest.raises(ShapeError, match="image 3"):
            fit(images, tcfg, bcfg)


class _FirstStep(Exception):
    """Raised by the spy on Adam.step to end fit at its first update."""


class TestL2Gradient:
    @pytest.mark.parametrize("lam", [1e-4, 0.3, 1e-7, 3.3e-5])
    def test_first_step_sees_the_penalty_gradient_bit_for_bit(self, monkeypatch, lam):
        # fit adds 2 * l2 * w into each recurrent kernel's gradient in place;
        # the arena gradient at the first step must hold the bits that the
        # penalty's tape node, l2 * sum(w^2), adds onto the loss gradient
        def first_step_gradient(l2):
            seen = []

            def spy(self, lr):
                seen.append(self.params.grad.copy())
                raise _FirstStep

            monkeypatch.setattr(Adam, "step", spy)
            images, tcfg, bcfg = _desk_setup(max_epochs=1, l2=l2)
            with pytest.raises(_FirstStep):
                fit(images, tcfg, bcfg)
            return seen[0], bcfg

        penalized, bcfg = first_step_gradient(lam)
        loss_only, _ = first_step_gradient(0.0)
        params = init_params(bcfg)
        params.grad[...] = loss_only
        recurrent = [name for name in params.names() if name.endswith("recurrent-kernels")]
        assert recurrent
        for name in recurrent:
            bear.tensor.scale(bear.tensor.sum_squares(params[name]), lam).backward()
        assert not np.array_equal(penalized, loss_only)
        assert penalized.tobytes() == params.grad.tobytes()


# forward_chunk is 4 at n=64, so a batch of 8 runs as two micro-batches
MICRO_CFG = BearConfig(n=64, d=3, r=4, m=8, f_pfe=2, f_rfe=2, f_bfe=2, f_dec=2, seed=0)


class TestMicroBatches:
    @pytest.mark.parametrize("loss_fn", [bce_loss, mse_loss], ids=["bce", "mse"])
    def test_accumulated_gradient_matches_the_one_graph_gradient(self, loss_fn):
        assert MICRO_CFG.forward_chunk == 4
        images = synthetic_images(8, 64, seed=3)
        params = init_params(MICRO_CFG)
        summed = accumulate_gradients(images, params, MICRO_CFG, loss_fn)
        accumulated = params.grad.copy()
        params.zero_grads()
        x = Tensor(np.stack(images))
        loss = loss_fn(x, forward(x, params, MICRO_CFG))
        loss.backward()
        whole = params.grad
        assert np.abs(whole).max() > 0
        assert np.abs(accumulated - whole).max() / np.abs(whole).max() <= 1e-5
        assert summed == pytest.approx(8 * float(loss.data), rel=1e-6)

    def test_non_finite_micro_batch_loss_is_returned_before_its_backward_pass(self):
        images = synthetic_images(8, 64, seed=3)
        images[5] = np.full_like(images[5], np.nan)
        params = init_params(MICRO_CFG)
        summed = accumulate_gradients(images, params, MICRO_CFG, mse_loss)
        assert math.isnan(summed)
        first = params.grad.copy()
        assert np.isfinite(first).all()
        params.zero_grads()
        accumulate_gradients(images[:4], params, MICRO_CFG, mse_loss)
        # only the first micro-batch's gradient, weighted by its share of 8
        np.testing.assert_allclose(2 * first, params.grad, rtol=1e-6, atol=0)

    @pytest.mark.parametrize("loss_fn", [bce_loss, mse_loss], ids=["bce", "mse"])
    def test_under_no_grad_it_only_evaluates(self, loss_fn):
        images = synthetic_images(6, 64, seed=3)
        params = init_params(MICRO_CFG)
        summed = accumulate_gradients(images, params, MICRO_CFG, loss_fn)
        params.zero_grads()
        with no_grad():
            assert accumulate_gradients(images, params, MICRO_CFG, loss_fn) == summed
        assert not params.grad.any()

    def test_fit_over_micro_batches_is_reproducible(self, tmp_path):
        tcfg = TrainConfig(batch_size=8, max_epochs=2, val_fraction=0.2, lr0=1e-3, seed=1)
        images = synthetic_images(10, 64, seed=4)
        paths = []
        for tag in ("a", "b"):
            ckpt, _ = fit(images, tcfg, MICRO_CFG)
            assert ckpt.metadata["n_train"] == "8"
            paths.append(tmp_path / f"{tag}.bc1")
            save_checkpoint(ckpt, paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestCheckpointFormat:
    @pytest.mark.parametrize(
        "array",
        [
            np.linspace(-1.0, 1.0, 12).reshape(3, 4),
            np.arange(48, dtype=np.float32).reshape(4, 12)[:, ::3],
            np.linspace(-2.0, 2.0, 24).reshape(2, 3, 4).astype(">f4"),
            np.linspace(-2.0, 2.0, 6).astype(">f8"),
        ],
        ids=["float64", "non-contiguous", "big-endian-f4", "big-endian-f8"],
    )
    def test_bt1_elements_are_the_little_endian_float32_bytes(self, array):
        fh = io.BytesIO()
        write_bt1(fh, array)
        header = BT1_MAGIC + struct.pack(f"<{1 + array.ndim}I", array.ndim, *array.shape)
        assert fh.getvalue() == header + np.ascontiguousarray(array, "<f4").tobytes()

    def test_roundtrip_is_bit_exact(self, tmp_path):
        bcfg = BearConfig(n=16, d=3, r=4, m=8, f_pfe=2, f_rfe=2, f_bfe=2, f_dec=2, seed=4)
        params = init_params(bcfg)
        ckpt = Checkpoint(config=bcfg, params=params, metadata={"epochs_run": "0", "loss": "bce"})
        path = tmp_path / "model.bc1"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        assert back.config == bcfg
        assert back.metadata == ckpt.metadata
        assert back.params.names() == params.names()
        for (name, a), (_, b) in zip(back.params.items(), params.items()):
            assert a.data.tobytes() == b.data.tobytes(), name

    def test_loaded_parameters_live_in_the_arena(self, tmp_path):
        bcfg = BearConfig(n=16, d=3, r=4, m=8, f_pfe=2, f_rfe=2, f_bfe=2, f_dec=2, seed=4)
        path = tmp_path / "model.bc1"
        save_checkpoint(Checkpoint(bcfg, init_params(bcfg), {}), path)
        back = load_checkpoint(path).params
        assert_in_arena(back)
        assert back.data.tobytes() == init_params(bcfg).data.tobytes()

    def test_encoder_only_load_holds_the_encoder_alone(self, tmp_path):
        bcfg = BearConfig(n=16, d=3, r=4, m=8, f_pfe=2, f_rfe=2, f_bfe=2, f_dec=2, seed=4)
        path = tmp_path / "model.bc1"
        save_checkpoint(Checkpoint(bcfg, init_params(bcfg), {"epochs_run": "0"}), path)
        whole = load_checkpoint(path)
        encoder = load_checkpoint(path, encoder_only=True)
        assert encoder.config == whole.config and encoder.metadata == whole.metadata
        assert encoder.params.names() == list(encoder_shapes(bcfg))
        assert encoder.params.names() == whole.params.names()[: len(encoder_shapes(bcfg))]
        assert_in_arena(encoder.params)
        for name, t in encoder.params.items():
            assert t.data.tobytes() == whole.params[name].data.tobytes(), name
        with pytest.raises(KeyError, match="dd/dense/weights"):
            encoder.params["dd/dense/weights"]

    def test_corrupted_magic_names_offset_zero(self, tmp_path):
        bcfg = BearConfig(n=16, d=3, r=4, m=8, f_pfe=1, f_rfe=1, f_bfe=1, f_dec=1)
        path = tmp_path / "model.bc1"
        save_checkpoint(Checkpoint(bcfg, init_params(bcfg), {}), path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="offset 0"):
            load_checkpoint(path)

    def test_truncated_file_reports_position(self, tmp_path):
        bcfg = BearConfig(n=16, d=3, r=4, m=8, f_pfe=1, f_rfe=1, f_bfe=1, f_dec=1)
        path = tmp_path / "model.bc1"
        save_checkpoint(Checkpoint(bcfg, init_params(bcfg), {}), path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(FormatError, match="byte offset"):
            load_checkpoint(path)

    def test_unknown_parameter_name_rejected(self, tmp_path):
        bcfg = BearConfig(n=16, d=3, r=4, m=8, f_pfe=1, f_rfe=1, f_bfe=1, f_dec=1)
        path = tmp_path / "model.bc1"
        save_checkpoint(Checkpoint(bcfg, init_params(bcfg), {}), path)
        data = path.read_bytes()
        first_name = b"pfe/convlstm1/input-kernels"
        assert first_name in data
        path.write_bytes(data.replace(first_name, b"pfe/convlstm9/input-kernels", 1))
        with pytest.raises(FormatError, match="unknown parameter name"):
            load_checkpoint(path)

    def test_stored_shape_must_match_config(self, tmp_path):
        bcfg = BearConfig(n=16, d=3, r=4, m=8, f_pfe=1, f_rfe=1, f_bfe=1, f_dec=1)
        path = tmp_path / "model.bc1"
        save_checkpoint(Checkpoint(bcfg, init_params(bcfg), {}), path)
        data = path.read_bytes()
        # the first tensor, (3, 3, 1, 4), stored as (3, 3, 4, 1): same size, other shape
        extents = b"BEART1" + struct.pack("<5I", 4, 3, 3, 1, 4)
        assert extents in data
        path.write_bytes(data.replace(extents, b"BEART1" + struct.pack("<5I", 4, 3, 3, 4, 1), 1))
        with pytest.raises(FormatError, match=r"stored shape \(3, 3, 4, 1\) does not match configured \(3, 3, 1, 4\)"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        bcfg = BearConfig(n=16, d=3, r=4, m=8, f_pfe=1, f_rfe=1, f_bfe=1, f_dec=1)
        path = tmp_path / "model.bc1"
        save_checkpoint(Checkpoint(bcfg, init_params(bcfg), {}), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(path)


def test_epoch_log_format(tmp_path):
    from bear.train import EpochRecord

    path = tmp_path / "log.csv"
    records = [EpochRecord(1, 0.5, 0.6, 1e-4), EpochRecord(2, 0.4, 0.55, 1e-4)]
    write_epoch_log(path, records)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,lr"
    fields = lines[1].split(",")
    assert int(fields[0]) == 1
    assert float(fields[1]) == 0.5
    assert float(fields[3]) == 1e-4
