import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdlab.describing import freq_response, linearize
from tdlab.dynamics import DiffParams, DiffState, hybrid_rhs
from tdlab.signals import NoiseSpec, SignalSpec
from tdlab.simulate import (
    InstabilityError,
    SimConfig,
    TimeSeries,
    MAX_STEPS,
    default_dt,
    eps_ladder,
    rk4_step,
    rms_error,
    run,
    time_grid,
)
from tdlab.presets import get_preset
from tdlab.sweep import convergence_order

from oracles import bytes_per_step, fundamental_component

P3A = DiffParams(eps=1 / 45, a0=0.05, b0=0.3)
P3C_HYBRID = DiffParams(eps=1 / 45, a0=0.005, a1=0.005, b0=0.05, b1=0.005,
                        alpha=0.5)
P4_HYBRID = DiffParams(eps=0.01, a0=0.1, a1=0.015, b0=0.3, b1=0.015, alpha=0.6)


class TestRk4Step:
    def test_zero_rhs_keeps_state(self):
        out = rk4_step(lambda s, v: 0.0, 1.25, 0.0, 0.1, lambda t: 0.0)
        assert out == 1.25

    def test_exponential_decay_one_step(self):
        # 4th-order Taylor of e^-0.1 is 0.9048375
        out = rk4_step(lambda s, v: -s, 1.0, 0.0, 0.1, lambda t: 0.0)
        assert out == pytest.approx(math.exp(-0.1), abs=1e-6)
        assert out == pytest.approx(0.9048375, rel=1e-12)

    def test_fourth_order_convergence(self):
        def global_error(dt):
            n = int(round(1.0 / dt))
            x = 1.0
            for i in range(n):
                x = rk4_step(lambda s, v: -s, x, i * dt, dt, lambda t: 0.0)
            return abs(x - math.exp(-1.0))

        ratio = global_error(0.1) / global_error(0.05)
        assert 16.0 * 0.8 <= ratio <= 16.0 * 1.2

    def test_vector_state(self):
        # harmonic oscillator keeps energy over one RK4 step to 4th order
        state = np.array([1.0, 0.0])
        rhs = lambda s, v: np.array([s[1], -s[0]])
        out = rk4_step(rhs, state, 0.0, 0.01, lambda t: 0.0)
        assert out @ out == pytest.approx(1.0, abs=1e-10)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            rk4_step(lambda s, v: 0.0, 1.0, 0.0, 0.0, lambda t: 0.0)


class TestSimConfig:
    def test_rejects_bad_windows(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            SimConfig(dt=1e-3, t_end=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("p", [P3A, P4_HYBRID], ids=["linear", "hybrid"])
    def test_rejects_a_start_that_is_not_finite(self, p, value):
        # named as the start, not as a divergence blamed on the first step
        for start in (DiffState(value, 0.0), DiffState(0.0, value)):
            with pytest.raises(ValueError, match=r"initial state must be "
                               r"finite, got DiffState\(x1="):
                run(p, SignalSpec(1.0, 2.0), SimConfig(1e-3, 1.0, start))

    @pytest.mark.parametrize("start", [DiffState(1e300, 0.0),
                                       DiffState(0.0, -1e10)])
    @pytest.mark.parametrize("p", [P3A, P4_HYBRID], ids=["linear", "hybrid"])
    def test_start_beyond_the_state_limit_fails_at_zero(self, p, start):
        # named as the start at t = 0, not blamed on dt at the first step
        with pytest.raises(InstabilityError, match=r"^state start \((1e\+300, 0"
                           r"|0, -1e\+10)\) exceeds 1e\+09 at t=0 s$") as err:
            run(p, SignalSpec(1.0, 2.0), SimConfig(1e-3, 1.0, start))
        assert err.value.t == 0.0

    def test_step_budget_checked_before_allocation(self):
        cfg = SimConfig(dt=1e-3, t_end=(MAX_STEPS + 1) * 1e-3)
        with pytest.raises(ValueError, match=r"t_end=16777\.2 at dt=0\.001 "
                                             r"needs 1\.678e\+07 steps"):
            time_grid(cfg)

    def test_default_dt_rule(self):
        spec = SignalSpec(1.0, 2.0, noise=NoiseSpec(0.01, 0.01))
        assert default_dt(P3A, spec) == pytest.approx(
            min(P3A.eps / 20, 0.001, 1e-3))
        assert default_dt(P4_HYBRID) == pytest.approx(0.01 / 20)

    @pytest.mark.parametrize("hold", [1e-7, 3e-3, 0.01, 1.0, 5e-324])
    def test_zero_power_noise_sets_no_step(self, hold):
        # a noise that adds nothing neither shrinks nor rejects the step
        spec = SignalSpec(1.0, 2.0, NoiseSpec(0.0, hold))
        for p in (P3A, P4_HYBRID):
            assert default_dt(p, spec) == default_dt(p)


#: The float fields of each config type.
FLOAT_FIELDS = {
    DiffParams: ("eps", "a0", "a1", "b0", "b1", "alpha"),
    SignalSpec: ("amplitude", "omega"),
    NoiseSpec: ("power", "sample_time"),
    SimConfig: ("dt", "t_end"),
}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data(), cls=st.sampled_from(list(FLOAT_FIELDS)))
def test_configs_are_finite_or_rejected(data, cls):
    # any float, NaN and +-inf included, or one that passes every other check
    values = {name: data.draw(st.floats() | st.floats(0.05, 0.95), label=name)
              for name in FLOAT_FIELDS[cls]}
    try:
        obj = cls(**values)
    except ValueError:
        return
    assert all(math.isfinite(getattr(obj, name)) for name in values)


class TestTimeSeries:
    def test_channel_lengths_validated(self):
        with pytest.raises(ValueError):
            TimeSeries(t=np.arange(3.0), channels={"a": np.arange(4.0)})

    def test_unknown_channel(self):
        ts = TimeSeries(t=np.arange(3.0), channels={"a": np.arange(3.0)})
        with pytest.raises(KeyError):
            ts.channel("b")

    def test_grid_spacing_exact(self):
        cfg = SimConfig(dt=1e-3, t_end=1.0)
        ts = run(P3A, SignalSpec(1.0, 2.0), cfg)
        idx = np.arange(len(ts.t))
        assert np.array_equal(ts.t, idx * 1e-3)


class TestRun:
    def test_channels_present(self):
        ts = run(P3A, SignalSpec(5.0, 2.0), SimConfig(dt=1e-3, t_end=1.0))
        assert sorted(ts.channels) == ["dv_clean", "v", "v_clean", "x1", "x2"]

    def test_equilibrium_attraction(self):
        # constant input: offset initial state decays to the input value
        cfg = SimConfig(dt=1e-3, t_end=3.0, initial=DiffState(1.0, 0.0))
        ts = run(P3A, SignalSpec(0.0, 0.0), cfg)
        assert abs(ts.channel("x1")[-1]) <= 1e-6
        assert abs(ts.channel("x2")[-1]) <= 1e-5

    def test_exact_equilibrium_is_stationary(self):
        # (x1, x2) = (v, 0) is a fixed point of the step map, bitwise
        state = DiffState(0.75, 0.0)
        out = rk4_step(lambda s, v: np.array(
            (lambda d: (d.x1, d.x2))(hybrid_rhs(DiffState(s[0], s[1]), v, P3A))),
            np.array([state.x1, state.x2]), 0.0, 1e-3, lambda t: 0.75)
        assert out[0] == 0.75 and out[1] == 0.0

    def test_linear_steady_state_amplitude_and_phase(self):
        # steady x2 amplitude = A*omega*|G(j2)| = 10.033, lag 15.5 deg
        spec = SignalSpec(5.0, 2.0)
        cfg = SimConfig(dt=1e-3, t_end=30.0)
        ts = run(P3A, spec, cfg)
        period = math.pi
        t1 = ts.t[-1]
        t0 = t1 - round(5 * period / 1e-3) * 1e-3
        amp, phase = fundamental_component(ts, "x2", 2.0, (t0, t1))
        assert amp == pytest.approx(10.033, abs=0.05)
        assert phase - 90.0 == pytest.approx(-15.5, abs=1.0)

    def test_hybrid_tracking_rms(self):
        # derivative-channel steady RMS error on clean sin(2t); value frozen
        # from the oracle run (direct simulation cross-checked against the
        # equivalent-linearization phase-lag prediction of ~0.07)
        spec = SignalSpec(1.0, 2.0)
        cfg = SimConfig(dt=5e-4, t_end=20.0)
        ts = run(P4_HYBRID, spec, cfg)
        rms = rms_error(ts, "x2", "dv_clean", (2.0, 20.0))
        assert rms == pytest.approx(0.0707, abs=0.005)
        # relative to the derivative amplitude A*omega the tracking error
        # stays below 5 %
        assert rms / 2.0 <= 0.05

    def test_instability_raises(self):
        with pytest.raises(InstabilityError) as err:
            run(P3A, SignalSpec(5.0, 2.0), SimConfig(dt=0.5, t_end=50.0))
        assert err.value.t >= 0.0

    def test_deterministic_bit_identical(self):
        spec = SignalSpec(5.0, 2.0, noise=NoiseSpec(0.01, 0.01, seed=7))
        cfg = SimConfig(dt=1e-3, t_end=5.0)
        a = run(P3A, spec, cfg)
        b = run(P3A, spec, cfg)
        for name in a.channels:
            assert np.array_equal(a.channel(name), b.channel(name))

    def test_rejects_dt_above_noise_hold(self):
        spec = SignalSpec(5.0, 2.0, noise=NoiseSpec(0.01, 0.01, seed=7))
        with pytest.raises(ValueError):
            run(P3A, spec, SimConfig(dt=0.02, t_end=5.0))

    def test_rejects_dt_that_splits_a_noise_hold(self):
        # Ts/dt = 3.33: a hold would change inside the fourth step
        spec = SignalSpec(5.0, 2.0, noise=NoiseSpec(0.01, 0.01, seed=7))
        with pytest.raises(ValueError, match="does not divide"):
            run(P3A, spec, SimConfig(dt=0.003, t_end=1.0))
        run(P3A, spec, SimConfig(dt=0.0025, t_end=1.0))  # Ts/dt = 4

    @pytest.mark.parametrize("hold", [5e-324, 1.7e308])
    def test_rejects_hold_no_step_count_can_split(self, hold):
        # hold/10 underflows to 0, or hold/dt overflows to inf
        spec = SignalSpec(1.0, 2.0, noise=NoiseSpec(0.01, hold))
        with pytest.raises(ValueError, match="divide"):
            default_dt(P3A, spec)
        with pytest.raises(ValueError, match="does not divide"):
            run(P3A, spec, SimConfig(dt=1e-3, t_end=1.0))

    def test_default_dt_divides_noise_hold(self):
        # eps/20 = 3e-4 leaves Ts/dt = 33.3; the rule shrinks dt to Ts/34
        p = DiffParams(eps=0.006, a0=0.05, b0=0.3)
        spec = SignalSpec(1.0, 2.0, noise=NoiseSpec(0.01, 0.01, seed=7))
        assert default_dt(p, spec) == 0.01 / 34
        run(p, spec, SimConfig(dt=default_dt(p, spec), t_end=0.1))

    @pytest.mark.parametrize("preset,n", [("paper-3B", 2**13),
                                          ("paper-3A", 10**5)])
    def test_run_holds_each_array_of_its_length_once(self, preset, n):
        # t, v, v_mid and the states while the kernel runs (a Newton lane's
        # peak at these lengths), then t and the five channels (a linear
        # lane's): 40 and 48 B per step.  Holding the reference channels
        # during the kernel, or a copy of Newton's first guess, reads 56-64.
        pr = get_preset(preset)
        dt = default_dt(pr.params, pr.signal)
        assert bytes_per_step(lambda k: run(pr.params, pr.signal,
                                            SimConfig(dt, k * dt)), n) <= 52

    @pytest.mark.parametrize("p,spec", [
        (P3A, SignalSpec(5.0, 2.0, noise=NoiseSpec(0.01, 0.01, seed=11))),
        (P3C_HYBRID, SignalSpec(0.5, 2.0, noise=NoiseSpec(1e-4, 0.01, seed=11))),
        (P4_HYBRID, SignalSpec(1.0, 2.0)),
    ])
    def test_step_halving_stability(self, p, spec):
        # halving dt moves the steady-state RMS metric by < 1 %
        def metric(dt):
            cfg = SimConfig(dt=dt, t_end=20.0)
            ts = run(p, spec, cfg)
            return rms_error(ts, "x2", "dv_clean", (2.0, 20.0))

        dt = default_dt(p, spec)
        coarse, fine = metric(dt), metric(dt / 2)
        assert abs(fine - coarse) / coarse < 0.01


class TestRmsError:
    def _ts(self):
        t = np.arange(0.0, 1.0, 0.01)
        return TimeSeries(t=t, channels={
            "a": np.sin(t), "b": np.sin(t), "c": np.sin(t) + 0.25})

    def test_identical_channels(self):
        assert rms_error(self._ts(), "a", "b", (0.0, 0.99)) == 0.0

    def test_constant_offset(self):
        assert rms_error(self._ts(), "c", "a", (0.0, 0.99)) == pytest.approx(0.25)

    def test_window_validation(self):
        ts = self._ts()
        with pytest.raises(ValueError):
            rms_error(ts, "a", "b", (0.5, 0.2))
        with pytest.raises(ValueError):
            rms_error(ts, "a", "b", (0.0, 2.0))

    def test_noise_suppression_ordering(self):
        # large-bandwidth linear differentiator under matched relative noise
        # has the larger own-scale derivative error
        seed = 12345
        specA = SignalSpec(5.0, 2.0, noise=NoiseSpec(0.01, 0.01, seed=seed))
        specC = SignalSpec(0.5, 2.0, noise=NoiseSpec(1e-4, 0.01, seed=seed))
        cfg = SimConfig(dt=1e-3, t_end=30.0)
        errA = rms_error(run(P3A, specA, cfg), "x2", "dv_clean",
                         (2.0, 30.0)) / 10.0
        errC = rms_error(run(P3C_HYBRID, specC, cfg), "x2", "dv_clean",
                         (2.0, 30.0)) / 1.0
        assert errC < errA


class TestConvergenceOrder:
    EPS = (1 / 20, 1 / 40, 1 / 80, 1 / 160)

    def test_linear_slope_in_band(self):
        family = eps_ladder(P3A, self.EPS)
        slope = convergence_order(family, SignalSpec(1.0, 2.0))
        assert 0.8 <= slope <= 2.2

    def test_hybrid_slope_positive(self):
        family = eps_ladder(P4_HYBRID, self.EPS)
        slope = convergence_order(family, SignalSpec(1.0, 2.0))
        assert slope > 0.5

    def test_slope_scale_invariant(self):
        base = convergence_order(eps_ladder(P3A, self.EPS), SignalSpec(1.0, 2.0))
        doubled = convergence_order(eps_ladder(P3A, [2 * e for e in self.EPS]),
                                    SignalSpec(1.0, 2.0))
        assert abs(doubled - base) <= 0.05

    def test_negative_amplitude_gives_the_same_slope(self):
        # the family is odd in its input, so -A reads the errors of A
        family = eps_ladder(P3A, self.EPS)
        assert (convergence_order(family, SignalSpec(-1.0, 2.0))
                == convergence_order(family, SignalSpec(1.0, 2.0)))

    def test_unsettled_member_is_named(self, monkeypatch):
        # at alpha = 0.1 the explicit step of the first member chatters:
        # it has no attracting orbit, and the error names its eps
        monkeypatch.setattr(importlib.import_module("tdlab.sweep"),
                            "SETTLE_PERIODS", 6)
        p = DiffParams(eps=1 / 45, a1=0.015, b1=0.015, alpha=0.1)
        family = eps_ladder(p, [p.eps / 2**k for k in range(4)])
        with pytest.raises(InstabilityError, match="did not settle") as err:
            convergence_order(family, SignalSpec(1.0, 2.0))
        assert err.value.__notes__ == [f"eps={1 / 45:g}"]

    def test_rejects_noisy_signal(self):
        spec = SignalSpec(1.0, 2.0, noise=NoiseSpec(0.01, 0.01, seed=1))
        with pytest.raises(ValueError):
            convergence_order(eps_ladder(P3A, self.EPS), spec)

    def test_rejects_short_ladder(self):
        with pytest.raises(ValueError):
            convergence_order(eps_ladder(P3A, (0.1, 0.05, 0.025)),
                              SignalSpec(1.0, 2.0))

    def test_rejects_narrow_span(self):
        with pytest.raises(ValueError):
            convergence_order(eps_ladder(P3A, (0.1, 0.08, 0.06, 0.04)),
                              SignalSpec(1.0, 2.0))


class TestRealizationEquivalence:
    @pytest.mark.parametrize("p", [
        P3A,
        DiffParams(eps=1 / 30, a0=0.04, b0=0.2),
        DiffParams(eps=0.05, a0=0.3, b0=0.4),
    ])
    def test_trajectories_match_from_mapped_initial_conditions(self, p):
        from tdlab.dynamics import w_of_x
        from tdlab.simulate import run_highgain

        x0 = DiffState(0.5, -1.0)
        spec = SignalSpec(1.0, 2.0)
        cfg_x = SimConfig(dt=1e-4, t_end=3.0, initial=x0)
        cfg_w = SimConfig(dt=1e-4, t_end=3.0, initial=w_of_x(x0, p))
        x2 = run(p, spec, cfg_x).channel("x2")
        w2 = run_highgain(p, spec, cfg_w).channel("x2")
        assert np.max(np.abs(x2 - w2)) <= 1e-6


class TestCrossModuleGainAgreement:
    def test_simulated_gain_matches_analytic_response(self):
        # ten frequencies in [0.1, 3]*omega_n: steady gain within 0.5 %
        lin = linearize(P3A, 1.0)
        from tdlab.sweep import measure_point

        for omega in np.linspace(0.1 * lin.omega_n, 3.0 * lin.omega_n, 10):
            measured = measure_point(P3A, 1.0, omega, dt=1e-3)
            analytic = freq_response(lin, omega).mag
            assert measured.track_mag == pytest.approx(analytic, rel=5e-3)
