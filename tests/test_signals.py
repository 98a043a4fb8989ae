import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdlab import _kernels
from tdlab.dynamics import DiffParams
from tdlab.signals import (
    MAX_STEPS,
    NoiseSpec,
    SignalSpec,
    bl_white_noise,
    noise_holds,
    sinusoid,
)
from tdlab.simulate import SimConfig, run, time_grid

#: A linear gain set, so that runs take the fast propagator.
P_LIN = DiffParams(eps=1 / 45, a0=0.05, b0=0.3)


class TestSinusoid:
    def test_zero_at_origin(self):
        assert sinusoid(5.0, 2.0, 0.0) == 0.0

    def test_peak(self):
        assert sinusoid(5.0, 2.0, math.pi / 4) == pytest.approx(5.0, rel=1e-12)

    def test_rms_over_one_period(self):
        # uniform samples over exactly one period give RMS = A/sqrt(2)
        period = math.pi
        t = np.arange(1000) / 1000 * period
        rms = math.sqrt(np.mean(sinusoid(0.5, 2.0, t) ** 2))
        assert rms == pytest.approx(0.5 / math.sqrt(2), rel=1e-9)


class TestNoiseSpec:
    def test_sigma(self):
        assert NoiseSpec(0.01, 0.01).sigma == pytest.approx(1.0)
        assert NoiseSpec(1e-4, 0.01).sigma == pytest.approx(0.1)

    @pytest.mark.parametrize("kwargs", [
        dict(power=-1.0, sample_time=0.01),
        dict(power=0.01, sample_time=0.0),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            NoiseSpec(**kwargs)

    def test_rejects_negative_seed_by_name(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            NoiseSpec(0.01, 0.01, seed=-1)


class TestBlWhiteNoise:
    def test_zero_power(self):
        spec = NoiseSpec(0.0, 0.01, seed=1)
        t = np.linspace(0.0, 5.0, 100)
        assert np.all(bl_white_noise(spec, t) == 0.0)

    @pytest.mark.parametrize("power", [0.0, 0.01])
    def test_no_times_no_values(self, power):
        # an empty grid draws no hold at any power
        out = bl_white_noise(NoiseSpec(power, 0.01), np.array([]))
        assert out.shape == (0,) and out.dtype == float

    def test_variance_unit(self):
        # power 0.01 / Ts 0.01 -> variance 1
        spec = NoiseSpec(0.01, 0.01, seed=42)
        holds = noise_holds(spec, 100_000)
        assert np.var(holds) == pytest.approx(1.0, abs=0.02)

    def test_std_tenth(self):
        spec = NoiseSpec(1e-4, 0.01, seed=42)
        holds = noise_holds(spec, 100_000)
        assert np.std(holds) == pytest.approx(0.1, abs=0.002)

    def test_mean_within_four_sigma(self):
        spec = NoiseSpec(0.01, 0.01, seed=7)
        holds = noise_holds(spec, 100_000)
        assert abs(np.mean(holds)) < 4.0 / math.sqrt(100_000)

    def test_deterministic_in_seed(self):
        spec = NoiseSpec(0.01, 0.01, seed=99)
        t = np.linspace(0.0, 10.0, 2000)
        assert np.array_equal(bl_white_noise(spec, t),
                              bl_white_noise(spec, t))
        assert np.array_equal(noise_holds(spec, 500), noise_holds(spec, 500))

    def test_different_seeds_uncorrelated(self):
        a = noise_holds(NoiseSpec(0.01, 0.01, seed=1), 10_000)
        b = noise_holds(NoiseSpec(0.01, 0.01, seed=2), 10_000)
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 0.05

    def test_hold_semantics(self):
        # constant value at 10 interior points of each hold interval
        spec = NoiseSpec(0.01, 0.01, seed=5)
        for k in range(50):
            t = k * 0.01 + np.linspace(0.0005, 0.0095, 10)
            vals = bl_white_noise(spec, t)
            assert np.all(vals == vals[0])

    def test_scalar_evaluation_matches_array(self):
        spec = NoiseSpec(0.01, 0.01, seed=5)
        ts = [0.0, 0.004, 0.011, 1.23]
        arr = bl_white_noise(spec, np.array(ts))
        for t, expected in zip(ts, arr):
            assert bl_white_noise(spec, t) == expected

    @pytest.mark.parametrize("t", [[-0.05, 1.0], -0.05, float("nan"),
                                   [0.0, float("inf")]],
                             ids=["array", "scalar", "nan", "inf"])
    def test_rejects_time_without_hold(self, t):
        # a negative index would wrap to the last hold drawn
        with pytest.raises(ValueError, match="non-negative"):
            bl_white_noise(NoiseSpec(1.0, 0.1), t)

    @pytest.mark.parametrize("power, hold", [(1.7e308, 0.01), (1.0, 5e-324)])
    def test_rejects_variance_that_overflows(self, power, hold):
        # every hold would be +-inf; NoiseSpec accepts such a spec, since
        # default_dt and run report the tiny hold as one no step divides
        with pytest.raises(ValueError, match="variance .* overflows"):
            bl_white_noise(NoiseSpec(power, hold), np.array([0.0, 1.0]))

    def test_holds_reject_variance_that_overflows(self):
        # noise_holds owns the check, so its own callers get it too
        with pytest.raises(ValueError, match="variance .* overflows"):
            noise_holds(NoiseSpec(1.7e308, 0.01), 3)

    @pytest.mark.parametrize("power, hold, t", [
        (0.01, 1e-9, 1e6), (0.01, 1e-300, 1.0),
        (0.01, 1.0, MAX_STEPS + 1.0), (1e-300, 1e-300, 1e10)],
        ids=["1e15-holds", "1e300-holds", "one-past", "inf-holds"])
    def test_rejects_more_holds_than_a_longest_run(self, power, hold, t):
        # a run's end at dt = Ts needs hold MAX_STEPS; a hold past it is
        # refused before the index is cast (a RuntimeWarning under the
        # suite's filter) and before any hold is drawn
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"MAX_STEPS \+ 1 = 16777217"):
                bl_white_noise(NoiseSpec(power, hold), [0.0, t])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_largest_finite_variance_draws_finite_values(self):
        out = bl_white_noise(NoiseSpec(1.7e308, 1.0, seed=3), np.arange(5.0))
        assert np.all(np.isfinite(out)) and np.any(out != 0.0)

    def test_prefix_stability(self):
        # value at hold k does not depend on how many holds were generated
        spec = NoiseSpec(0.01, 0.01, seed=31)
        assert noise_holds(spec, 1000)[123] == noise_holds(spec, 124)[123]


class TestEvalSignal:
    """Evaluating the input signal: SignalSpec and the v, v_clean and
    dv_clean channels that run() synthesizes."""

    def test_no_noise_equals_sinusoid(self):
        ts = run(P_LIN, SignalSpec(amplitude=5.0, omega=2.0),
                 SimConfig(dt=1e-3, t_end=3.0))
        v, v_clean = ts.channel("v"), ts.channel("v_clean")
        assert np.array_equal(v, sinusoid(5.0, 2.0, ts.t))
        assert np.array_equal(v_clean, v)
        assert not np.shares_memory(v, v_clean)

    def test_zero_amplitude_gives_pure_noise(self):
        noise = NoiseSpec(0.01, 0.01, seed=3)
        ts = run(P_LIN, SignalSpec(amplitude=0.0, omega=2.0, noise=noise),
                 SimConfig(dt=1e-3, t_end=3.0))
        assert np.array_equal(ts.channel("v"), bl_white_noise(noise, ts.t))

    def test_reference_channels(self):
        noise = NoiseSpec(0.01, 0.01, seed=3)
        ts = run(P_LIN, SignalSpec(amplitude=5.0, omega=2.0, noise=noise),
                 SimConfig(dt=1e-3, t_end=3.0))
        assert np.array_equal(ts.channel("v_clean"), 5.0 * np.sin(2.0 * ts.t))
        assert np.array_equal(ts.channel("dv_clean"),
                              10.0 * np.cos(2.0 * ts.t))

    def test_rejects_overflowing_derivative(self):
        # each field is finite, but the dv_clean channel A*omega*cos would be inf
        with pytest.raises(ValueError, match="overflows"):
            SignalSpec(amplitude=5.0, omega=1.7e308)

    def test_variance_of_noisy_input_class(self):
        # independent signal and noise variances add: 5^2/2 + 1 = 13.5
        spec = SignalSpec(amplitude=5.0, omega=2.0,
                          noise=NoiseSpec(0.01, 0.01, seed=12345))
        ts = run(P_LIN, spec, SimConfig(dt=1e-3, t_end=50.0))
        assert np.var(ts.channel("v")) == pytest.approx(13.5, abs=0.5)

    def test_with_seed(self):
        spec = SignalSpec(amplitude=1.0, omega=2.0,
                          noise=NoiseSpec(0.01, 0.01, seed=1))
        assert spec.with_seed(9).noise.seed == 9
        assert SignalSpec(1.0, 2.0).with_seed(9).noise is None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hold=st.floats(1e-4, 10.0), per_hold=st.integers(1, 64),
       steps=st.integers(1, 5000), A=st.floats(-10.0, 10.0),
       omega=st.floats(0.0, 500.0), power=st.floats(1e-6, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_single_noise_draw_matches_general_evaluator(hold, per_hold, steps, A,
                                                     omega, power, seed):
    # run() draws the holds once on the step grid and gives each midpoint the
    # hold of its step; evaluating the noise at the midpoints themselves must
    # give the same kernel input, bit for bit.
    noise = NoiseSpec(power, hold, seed=seed)
    dt = hold / per_hold
    cfg = SimConfig(dt=dt, t_end=steps * dt)
    seen = {}

    def kernel(*args):
        seen["v"], seen["v_mid"] = args[2], args[3]
        n = len(args[3])
        return np.zeros(n + 1), np.zeros(n + 1), -1

    with mock.patch.object(_kernels, "integrate_hybrid", kernel):
        run(P_LIN, SignalSpec(A, omega, noise), cfg)
    t, tm = time_grid(cfg)
    assert np.array_equal(seen["v"],
                          sinusoid(A, omega, t) + bl_white_noise(noise, t))
    assert np.array_equal(seen["v_mid"],
                          sinusoid(A, omega, tm) + bl_white_noise(noise, tm))
