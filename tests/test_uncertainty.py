import math

import numpy as np
import pytest

from tdlab import _kernels
from tdlab.dynamics import DiffParams, DiffState
from tdlab.presets import get_preset, uncertainty_plant
from tdlab.signals import NoiseSpec
from tdlab.simulate import InstabilityError, SimConfig, TimeSeries, rms_error
from tdlab.uncertainty import PlantConfig, estimate_delta, simulate_plant

from oracles import bytes_per_step

P5 = DiffParams(eps=1 / 45, a0=0.05, a1=0.015, b0=0.3, b1=0.015, alpha=0.6)
P3A = DiffParams(eps=1 / 45, a0=0.05, b0=0.3)
CFG = SimConfig(dt=1e-3, t_end=20.0)


def _zero(t):
    return np.zeros_like(np.asarray(t, dtype=float))


class TestSimulatePlant:
    def test_homogeneous_decay(self):
        plant = PlantConfig(u=_zero, delta=_zero, x0=1.0)
        ts = simulate_plant(plant, SimConfig(dt=1e-3, t_end=1.0))
        assert ts.channel("x")[-1] == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_rejects_sim_initial(self):
        # the plant's start is PlantConfig.x0; a sim.initial would be ignored
        sim = SimConfig(dt=1e-3, t_end=1.0, initial=DiffState(1.0, 0.0))
        with pytest.raises(ValueError, match="PlantConfig.x0"):
            simulate_plant(uncertainty_plant(), sim)

    def test_start_beyond_the_state_limit_fails_at_zero(self):
        plant = PlantConfig(u=_zero, delta=_zero, x0=1e300)
        with pytest.raises(InstabilityError, match=r"^plant state start "
                           r"\(1e\+300\) exceeds 1e\+09 at t=0 s$") as err:
            simulate_plant(plant, SimConfig(dt=1e-3, t_end=1.0))
        assert err.value.t == 0.0

    @pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
    def test_rejects_a_start_that_is_not_finite(self, x0):
        with pytest.raises(ValueError, match=r"^plant start x0 must be "
                           rf"finite, got {x0}$"):
            PlantConfig(u=_zero, delta=_zero, x0=x0)

    @pytest.mark.parametrize("name,bad,first", [
        ("u", lambda t: np.full_like(t, math.nan), "0"),  # at the first step
        ("delta", lambda t: np.where(t > 0.25, math.inf, 0.0), "0.2505"),
        ("u", lambda t: np.where(t == 0.5, -math.inf, 0.0), "0.5"),
    ], ids=["u-nan", "delta-inf-from-a-midpoint", "u-at-one-step"])
    def test_rejects_input_samples_that_are_not_finite(self, name, bad,
                                                       first):
        # named with the first time, a step's midpoint (0.2505) included,
        # not as a plant state past its limit, which blames dt
        plant = PlantConfig(**{"u": _zero, "delta": _zero, name: bad})
        with pytest.raises(ValueError, match=rf"^PlantConfig\.{name} is not "
                           rf"finite at t={first} s$"):
            simulate_plant(plant, SimConfig(dt=1e-3, t_end=1.0))

    @pytest.mark.parametrize("bad,shape", [
        (lambda t: 0.0, r"\(\)"),
        (lambda t: np.zeros(3), r"\(3,\)"),
    ], ids=["scalar", "three-values"])
    def test_rejects_input_that_is_not_vectorized(self, monkeypatch, bad,
                                                  shape):
        # named with the shape it returned before the kernel runs, not as
        # len() of an unsized sample or an IndexError of the finite check
        def integrated(*args):
            raise AssertionError("integrated a plant of unshaped input")
        monkeypatch.setattr(_kernels, "integrate_relaxation", integrated)
        with pytest.raises(ValueError, match=rf"^PlantConfig\.u returned "
                           rf"shape {shape} at times of shape \(1001,\): "
                           "not vectorized$"):
            simulate_plant(PlantConfig(u=bad, delta=np.cos),
                           SimConfig(dt=1e-3, t_end=1.0))

    def test_rejects_dt_that_splits_a_noise_hold(self):
        plant = uncertainty_plant(noise=NoiseSpec(power=1e-4, sample_time=1e-6))
        with pytest.raises(ValueError, match="does not divide"):
            simulate_plant(plant, SimConfig(dt=1e-3, t_end=1.0))

    def test_rejects_a_step_just_off_the_noise_hold(self):
        # 1e-6 relative off Ts/10, named by the step rejected, not 0.001
        plant = uncertainty_plant(noise=get_preset("paper-5").signal.noise)
        dt = 0.001 * (1 + 1e-6)
        with pytest.raises(ValueError, match="does not divide") as err:
            simulate_plant(plant, SimConfig(dt=dt, t_end=2.0))
        assert f"dt={dt!r} " in str(err.value)

    def test_forced_particular_solution(self):
        # x' = -x + 0.1 sin t + cos t has steady solution
        # 0.55 sin t + 0.45 cos t
        ts = simulate_plant(uncertainty_plant(), SimConfig(dt=1e-3, t_end=60.0))
        t = ts.t
        xp = 0.55 * np.sin(t) + 0.45 * np.cos(t)
        mask = t > 30.0
        assert np.max(np.abs(ts.channel("x")[mask] - xp[mask])) < 1e-4

    def test_measurement_noise_variance(self):
        noise = NoiseSpec(1e-4, 0.01, seed=12345)
        ts = simulate_plant(uncertainty_plant(noise=noise), CFG)
        var = float(np.var(ts.channel("y") - ts.channel("x")))
        assert var == pytest.approx(0.01, rel=0.05)

    def test_channels(self):
        ts = simulate_plant(uncertainty_plant(), CFG)
        assert sorted(ts.channels) == ["delta_true", "u", "x", "y"]


class TestEstimateDelta:
    def test_quiescent_plant(self):
        plant = PlantConfig(u=_zero, delta=_zero, x0=0.0)
        ts = estimate_delta(simulate_plant(plant, CFG), P5)
        mask = ts.t >= 2.0
        assert np.max(np.abs(ts.channel("delta_hat")[mask])) <= 1e-6

    def test_noise_free_reconstruction(self):
        # frozen calibration value: RMS = 0.0603 over [2, 20]; dominated by
        # the estimator's phase lag at 1 rad/s (equivalent-linearization
        # prediction of the same magnitude)
        ts = estimate_delta(simulate_plant(uncertainty_plant(), CFG), P5)
        rms = rms_error(ts, "delta_hat", "delta_true", (2.0, float(ts.t[-1])))
        assert rms == pytest.approx(0.0603, abs=0.005)

    def test_noisy_reconstruction_pinned_seed(self):
        # frozen calibration value at seed 12345: RMS = 0.2892 over [2, 20]
        noise = NoiseSpec(1e-4, 0.01, seed=12345)
        ts = estimate_delta(
            simulate_plant(uncertainty_plant(noise=noise), CFG), P5)
        rms = rms_error(ts, "delta_hat", "delta_true", (2.0, float(ts.t[-1])))
        assert rms == pytest.approx(0.2892, abs=0.01)
        assert rms <= 0.35

    def test_noise_monotonicity(self):
        def rms_at(power):
            noise = NoiseSpec(power, 0.01, seed=12345)
            ts = estimate_delta(
                simulate_plant(uncertainty_plant(noise=noise), CFG), P5)
            return rms_error(ts, "delta_hat", "delta_true",
                             (2.0, float(ts.t[-1])))

        assert rms_at(1e-2) > rms_at(1e-4)

    def test_exactness_identity_with_perfect_differentiator(self):
        # with x-hat = x and x2-hat = x' (4th-order finite difference of the
        # noise-free x channel), delta_hat equals delta identically
        ts = simulate_plant(uncertainty_plant(), CFG)
        x = ts.channel("x")
        u = ts.channel("u")
        delta = ts.channel("delta_true")
        dt = ts.dt
        xdot = (-x[4:] + 8 * x[3:-1] - 8 * x[1:-3] + x[:-4]) / (12 * dt)
        recon = xdot + x[2:-2] - u[2:-2]
        assert np.max(np.abs(recon - delta[2:-2])) <= 1e-9

    def test_linear_reconstruction_scales(self):
        # doubling (u, delta) doubles delta_hat for the linear-only estimator
        base = uncertainty_plant()
        doubled = PlantConfig(u=lambda t: 0.2 * np.sin(t),
                              delta=lambda t: 2.0 * np.cos(t), x0=0.0)
        a = estimate_delta(simulate_plant(base, CFG), P3A).channel("delta_hat")
        b = estimate_delta(simulate_plant(doubled, CFG), P3A).channel("delta_hat")
        assert np.max(np.abs(2.0 * a - b)) <= 0.02 * np.max(np.abs(b))

    def test_estimate_holds_each_array_of_its_length_once(self):
        # t and the plant's four channels, y's midpoints and the estimator's
        # states while its kernel runs, then t and the eight channels: 64 B
        # per step.  Holding the plant's midpoint inputs or a copy of
        # Newton's first guess reads 72.
        pr = get_preset("paper-5")
        plant = uncertainty_plant(noise=pr.signal.noise)
        assert bytes_per_step(lambda k: estimate_delta(simulate_plant(
            plant, SimConfig(1e-3, k * 1e-3)), pr.params), 2**13) <= 66

    def test_channels_appended_in_order(self):
        # the plant's channels, unchanged and in order, then the estimates
        ts = simulate_plant(uncertainty_plant(), SimConfig(dt=1e-3, t_end=1.0))
        out = estimate_delta(ts, P5)
        assert list(out.channels) == [*ts.channels, "x1_hat", "x2_hat",
                                      "delta_hat"]
        assert all(out.channels[k] is v for k, v in ts.channels.items())
        assert np.array_equal(out.channel("delta_hat"),
                              out.channel("x2_hat") + out.channel("x1_hat")
                              - ts.channel("u"))

    @pytest.mark.parametrize("t,message", [
        ([0.0], r"^the record has 1 samples, fewer than 2$"),
        ([0.0, 0.0], r"^the record's step t\[1\] - t\[0\] is 0, not finite "),
        ([0.0, -1e-3], r"^the record's step t\[1\] - t\[0\] is -0\.001, not "),
    ], ids=["one-sample", "zero-step", "negative-step"])
    def test_rejects_a_record_without_a_positive_step(self, t, message):
        # a record that simulate_plant did not make: named before the
        # estimator runs, not an IndexError of its dt or a run at that step
        ts = TimeSeries(t=np.array(t), channels={"y": np.ones(len(t)),
                                                  "u": np.zeros(len(t))})
        with pytest.raises(ValueError, match=message):
            estimate_delta(ts, P5)

    @pytest.mark.parametrize("t,message", [
        ([0.0, 1e-3, 0.5, 0.501], r"^the record's step t\[2\] - t\[1\] is "
         r"0\.499, not t\[1\] - t\[0\] = 0\.001$"),
        ([0.0, 1e-3, 2e-3, math.inf], r"^the record's step t\[3\] - t\[2\] "
         r"is inf, "),
        ([0.0, 1e-3, math.nan, 3e-3], r"^the record's step t\[2\] - t\[1\] "
         r"is nan, "),
        (np.append(np.arange(5000) * 1e-3, 5.001), r"^the record's step "
         r"t\[5000\] - t\[4999\] is 0\.002, ")],
        ids=["499-ms-step", "infinite-end", "nan-sample", "second-window"])
    def test_rejects_a_record_whose_steps_differ(self, t, message):
        # the estimator steps the whole record at t[1] - t[0], so a later
        # step of another length (the 499 ms one ran as 1 ms), in the first
        # window of the check or after it, or one that is not finite is
        # named before it runs
        t = np.array(t)
        y = np.sin(t) if np.isfinite(t).all() else np.zeros(len(t))
        ts = TimeSeries(t=t, channels={"y": y, "u": np.zeros(len(t))})
        with pytest.raises(ValueError, match=message):
            estimate_delta(ts, P5)

    def test_steps_rounded_far_from_zero_are_one_step(self):
        # a grid offset to t = 1e4 rounds its 1 ms steps by up to an ulp
        # of 1e4 (1.8e-12): the record runs as the unshifted one does
        ts = simulate_plant(uncertainty_plant(), SimConfig(1e-3, 2.0))
        shifted = TimeSeries(t=ts.t + 1e4, channels=ts.channels)
        assert len(set(np.diff(shifted.t))) > 1
        a, b = (estimate_delta(r, P5).channel("delta_hat")
                for r in (ts, shifted))
        assert np.allclose(a, b, rtol=0.0, atol=1e-9)

    def test_missing_channels_rejected(self):
        ts = TimeSeries(t=np.arange(10.0), channels={"y": np.zeros(10)})
        with pytest.raises(KeyError):
            estimate_delta(ts, P5)
