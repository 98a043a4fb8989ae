import math

import numpy as np
import pytest

from tdlab.dynamics import DiffParams, DiffState
from tdlab.presets import uncertainty_plant
from tdlab.signals import NoiseSpec
from tdlab.simulate import InstabilityError, SimConfig, TimeSeries, rms_error
from tdlab.uncertainty import PlantConfig, estimate_delta, simulate_plant

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

    def test_rejects_dt_that_splits_a_noise_hold(self):
        plant = uncertainty_plant(noise=NoiseSpec(power=1e-4, sample_time=1e-6))
        with pytest.raises(ValueError, match="does not divide"):
            simulate_plant(plant, SimConfig(dt=1e-3, t_end=1.0))

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

    def test_missing_channels_rejected(self):
        ts = TimeSeries(t=np.arange(10.0), channels={"y": np.zeros(10)})
        with pytest.raises(KeyError):
            estimate_delta(ts, P5)
