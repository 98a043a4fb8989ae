import importlib
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdlab import _kernels
from tdlab.describing import freq_response, linearize
from tdlab.dynamics import DiffParams, DiffState, hybrid_rhs
from tdlab.signals import SignalSpec, sinusoid
from tdlab.simulate import (STATE_LIMIT, InstabilityError, SimConfig,
                            TimeSeries, default_dt, rk4_step, run, time_grid)
from tdlab.sweep import MeasuredResponse, sweep, tracking_bandwidth

from oracles import fundamental_component

# the module itself: the package re-exports its sweep() under the same name
sweep_module = importlib.import_module("tdlab.sweep")

P3A = DiffParams(eps=1 / 45, a0=0.05, b0=0.3)
P4_HYBRID = DiffParams(eps=0.01, a0=0.1, a1=0.015, b0=0.3, b1=0.015, alpha=0.6)
P4_NONLINEAR = DiffParams(eps=1 / 45, a1=0.015, b1=0.015, alpha=0.6)


def _series(omega, n_periods=8, n_sub=512, fn=None):
    period = 2 * math.pi / omega
    dt = period / n_sub
    t = np.arange(n_periods * n_sub + 1) * dt
    y = fn(t)
    return TimeSeries(t=t, channels={"y": y}), dt


class TestFundamentalComponent:
    def test_pure_sine(self):
        omega = 2.0
        ts, dt = _series(omega, fn=lambda t: 3.0 * np.sin(omega * t))
        amp, phase = fundamental_component(ts, "y", omega, (0.0, ts.t[-1]))
        assert amp == pytest.approx(3.0, abs=1e-3)
        assert phase == pytest.approx(0.0, abs=0.01)

    def test_pure_cosine(self):
        omega = 2.0
        ts, dt = _series(omega, fn=lambda t: 3.0 * np.cos(omega * t))
        amp, phase = fundamental_component(ts, "y", omega, (0.0, ts.t[-1]))
        assert amp == pytest.approx(3.0, abs=1e-3)
        assert phase == pytest.approx(90.0, abs=0.01)

    def test_harmonic_rejection(self):
        omega = 2.0
        ts, dt = _series(
            omega,
            fn=lambda t: 3.0 * np.sin(omega * t) + 0.5 * np.sin(3 * omega * t))
        amp, _ = fundamental_component(ts, "y", omega, (0.0, ts.t[-1]))
        assert amp == pytest.approx(3.0, abs=1e-3)

    def test_offset_window_measures_absolute_phase(self):
        # window starting mid-record still reports phase vs sin(omega*t)
        omega = 2.0
        phi = -35.0
        ts, dt = _series(omega, fn=lambda t: np.sin(omega * t + math.radians(phi)))
        period = 2 * math.pi / omega
        t0 = 2 * period
        amp, phase = fundamental_component(ts, "y", omega, (t0, t0 + 4 * period))
        assert amp == pytest.approx(1.0, abs=1e-3)
        assert phase == pytest.approx(phi, abs=0.01)

    def test_rejects_fractional_periods(self):
        omega = 2.0
        ts, dt = _series(omega, fn=lambda t: np.sin(omega * t))
        period = 2 * math.pi / omega
        with pytest.raises(ValueError):
            fundamental_component(ts, "y", omega, (0.0, 3.5 * period))

    def test_rejects_short_window(self):
        omega = 2.0
        ts, dt = _series(omega, fn=lambda t: np.sin(omega * t))
        period = 2 * math.pi / omega
        with pytest.raises(ValueError):
            fundamental_component(ts, "y", omega, (0.0, 2 * period))

    def test_rejects_empty_window(self):
        omega = 2.0
        ts, dt = _series(omega, fn=lambda t: np.sin(omega * t))
        with pytest.raises(ValueError):
            fundamental_component(ts, "y", omega, (50.0, 40.0))


class TestMeasurePoint:
    def test_linear_at_two_rad_s(self):
        m = sweep(P3A, 5.0, [2.0], dt=1e-3)[0]
        assert m.deriv_mag == pytest.approx(1.0033, abs=0.01)
        assert m.deriv_phase_deg == pytest.approx(-15.5, abs=1.0)

    def test_dc_limit(self):
        # analytic phase at 0.2 rad/s is -1.53 deg (not yet zero); the
        # measured point must sit on the analytic curve and the lag must
        # keep shrinking toward DC
        m = sweep(P3A, 1.0, [0.2], dt=1e-3)[0]
        assert m.track_mag == pytest.approx(1.0, abs=0.01)
        ref = freq_response(linearize(P3A, 1.0), 0.2)
        assert m.track_phase_deg == pytest.approx(ref.phase_deg, abs=0.2)
        lower = sweep(P3A, 1.0, [0.05], dt=1e-3)[0]
        assert abs(lower.track_phase_deg) < abs(m.track_phase_deg) < 2.0

    def test_hybrid_tracks_below_two_pi(self):
        for omega in (0.5, 2.0, 2 * math.pi):
            m = sweep(P4_HYBRID, 1.0, [omega], dt=5e-4)[0]
            assert m.track_mag >= 0.95

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.inf, math.nan])
    def test_rejects_bad_step(self, dt):
        # a non-positive dt would otherwise fall back to 16 steps per period
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            sweep(P3A, 1.0, [2.0], dt=dt)

    def test_step_count_checked_before_rounding(self):
        # period/dt overflows to inf, which math.ceil cannot round
        with pytest.raises(ValueError, match="MAX_STEPS"):
            sweep(P3A, 1.0, [1.0], dt=1e-320)


class TestSweep:
    def test_empty_grid(self):
        assert sweep(P3A, 1.0, []) == []

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            sweep(P3A, 1.0, [1.0, 1.0])

    def test_linear_matches_analytic_bode(self):
        # central oracle cross-check: 20 log-spaced points in [0.5, 30]
        lin = linearize(P3A, 1.0)
        omegas = np.logspace(math.log10(0.5), math.log10(30.0), 20)
        points = sweep(P3A, 1.0, omegas)
        for pt in points:
            ref = freq_response(lin, pt.omega)
            mag_db = 20 * math.log10(pt.track_mag)
            assert abs(mag_db - ref.mag_db) <= 0.2
            assert abs(pt.track_phase_deg - ref.phase_deg) <= 2.0

    @pytest.mark.parametrize("a0,b0", [
        (0.04, 0.1),    # zeta = 0.25
        (0.05, 0.2),    # zeta = 0.45
        (0.04, 0.36),   # zeta = 0.90
    ])
    def test_oracle_agreement_across_damping_ratios(self, a0, b0):
        p = DiffParams(eps=1 / 30, a0=a0, b0=b0)
        lin = linearize(p, 1.0)
        assert 0.2 < lin.zeta < 0.95
        omegas = np.logspace(math.log10(0.1 * lin.omega_n),
                             math.log10(3.0 * lin.omega_n), 7)
        for pt in sweep(p, 1.0, omegas):
            ref = freq_response(lin, pt.omega)
            assert abs(20 * math.log10(pt.track_mag) - ref.mag_db) <= 0.2
            assert abs(pt.track_phase_deg - ref.phase_deg) <= 2.0

    def test_linear_track_equals_deriv_channel(self):
        omegas = np.logspace(math.log10(1.0), math.log10(25.0), 8)
        for pt in sweep(P3A, 1.0, omegas):
            assert pt.deriv_mag == pytest.approx(pt.track_mag, abs=2e-3)
            assert pt.deriv_phase_deg == pytest.approx(pt.track_phase_deg,
                                                       abs=0.2)

    def test_error_names_offending_frequency(self):
        with pytest.raises(ValueError, match="omega="):
            # amplitude <= 0 fails the plan of every point
            sweep(P3A, -1.0, [1.0, 2.0])
        # the original exception propagates with its failure time intact
        with pytest.raises(InstabilityError, match="omega=0.5 rad/s") as err:
            sweep(P3A, 1.0, [0.5], dt=1.0)
        assert math.isfinite(err.value.t)
        # a point over the step budget fails before anything is allocated
        with pytest.raises(ValueError, match="MAX_STEPS") as err:
            sweep(P3A, 1.0, [1e-4])
        assert err.value.__notes__ == ["omega=0.0001 rad/s"]

    def test_nonlinear_bandwidth_shrinks_with_amplitude(self):
        omegas = np.logspace(0.0, math.log10(30.0), 12)
        bw = []
        for A in (0.5, 1.0, 5.0):
            pts = sweep(P4_NONLINEAR, A, omegas)
            bw.append(tracking_bandwidth(pts))
        assert bw[0] > bw[1] > bw[2]


    def test_points_solved_together_read_as_alone(self, monkeypatch):
        # consecutive nonlinear points share one orbit Newton, and each
        # reads bit for bit what a one-point sweep reads of it alone
        omegas = np.logspace(1.0, math.log10(60.0), 5)
        sizes, orbit = [], _kernels.periodic_orbit
        monkeypatch.setattr(_kernels, "periodic_orbit",
                            lambda pts, *a: sizes.append(len(pts))
                            or orbit(pts, *a))
        got = sweep(P4_NONLINEAR, 1.0, omegas)
        assert sizes[0] > 1
        assert got == [sweep(P4_NONLINEAR, 1.0, [w])[0] for w in omegas]

    def test_linear_point_reads_its_closed_form_orbit(self, monkeypatch):
        # Phi of the step attracts, so the measured pass starts from
        # linear_orbit's orbit and no orbit Newton runs
        monkeypatch.setattr(_kernels, "periodic_orbit", None)
        guesses, kernel = [], _kernels.integrate_hybrid
        monkeypatch.setattr(_kernels, "integrate_hybrid",
                            lambda *a: guesses.append(a[12]) or kernel(*a))
        omega = 5.0
        sweep(P3A, 1.0, [omega])
        n = guesses[0].shape[1] - 1
        assert np.array_equal(guesses[0], _kernels.linear_orbit(
            1.0, omega, n, 2 * math.pi / omega / n, P3A.eps, P3A.a0,
            P3A.a1, P3A.b0, P3A.b1, P3A.alpha))

    def test_first_failure_in_grid_order_is_reported(self, monkeypatch):
        # the first point does not settle, and the next is rejected when it
        # is planned, as A*omega overflows: the sweep reports the first
        monkeypatch.setattr(sweep_module, "SETTLE_PERIODS", 6)
        p = DiffParams(eps=1 / 45, a1=0.015, b1=0.015, alpha=0.1)
        with pytest.raises(InstabilityError, match="did not settle") as err:
            sweep(p, 1.5, [2.0, 1.5e308])
        assert err.value.__notes__ == ["omega=2 rad/s"]
        with pytest.raises(ValueError, match="overflows") as err:
            sweep(p, 1.5, [1.5e308])
        assert err.value.__notes__ == ["omega=1.5e+308 rad/s"]

    def test_point_that_fails_to_plan_raises_after_the_points_before(self):
        # the first point settles and the second fails to plan, as A*omega
        # overflows: the first period is yielded before the planning error
        periods = sweep_module._steady_periods(P3A, 1.5, [2.0, 1.5e308])
        assert np.array_equal(next(periods), next(
            sweep_module._steady_periods(P3A, 1.5, [2.0])))
        with pytest.raises(ValueError, match="overflows"):
            next(periods)
        with pytest.raises(ValueError, match="overflows") as err:
            sweep(P3A, 1.5, [2.0, 1.5e308])
        assert err.value.__notes__ == ["omega=1.5e+308 rad/s"]


def _closes(x, tol):
    """Whether (x1, x2) ends within tol * max(1, |x|) of where it starts."""
    return bool(np.all(np.abs(x[:, -1] - x[:, 0])
                       <= tol * np.maximum(1.0, np.abs(x[:, 0]))))


class TestSteadyPeriod:
    """A sweep point reads the periodic orbit, which a plain run reaches
    only after hundreds of periods."""

    @pytest.mark.parametrize("omega", [5.0, 32.07, 90.56])
    def test_orbit_is_where_a_long_loop_run_settles(self, omega):
        # integrate_hybrid runs 499 periods from rest on the orbit's step
        # grid and _hybrid_loop the 500th from there: the settled response
        p, period = P4_NONLINEAR, 2 * math.pi / omega
        x = next(sweep_module._steady_periods(p, 1.0, [omega], default_dt(p)))
        n = x.shape[1] - 1
        t, tm = time_grid(SimConfig(dt=period / n, t_end=500 * period))
        v, vm = sinusoid(1.0, omega, t), sinusoid(1.0, omega, tm)
        gains = (p.eps, p.a0, p.a1, p.b0, p.b1, p.alpha, period / n,
                 STATE_LIMIT)
        m = len(vm) - n
        *settle, bad = _kernels.integrate_hybrid(0.0, 0.0, v[:m + 1], vm[:m],
                                                 *gains)
        assert bad == -1
        *last, bad = _kernels._hybrid_loop(settle[0][-1], settle[1][-1],
                                           v[m:], vm[m:], *gains)
        assert bad == -1
        want = np.array(last)
        assert np.all(np.abs(x - want)
                      <= 1e-10 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("p", [P3A, P4_HYBRID, P4_NONLINEAR],
                             ids=["linear", "hybrid", "nonlinear"])
    def test_measured_pass_closes(self, p):
        # the integrate_hybrid pass from the orbit's start returns to it at
        # the rounding floor, far inside the _CLOSURE_TOL that it must meet
        for omega in np.logspace(math.log10(2.0), math.log10(90.0), 5):
            x = next(sweep_module._steady_periods(p, 1.0, [omega],
                                                  default_dt(p)))
            assert _closes(x, 1e-12)

    @pytest.mark.parametrize("p", [P4_HYBRID, P4_NONLINEAR],
                             ids=["hybrid", "nonlinear"])
    def test_measured_pass_starts_from_the_half_and_its_negation(
            self, monkeypatch, p):
        # a nonlinear point's first solve is its half period, given the
        # plan's full period, and the measured pass re-certifies the half
        # and its negation in one or two map passes
        solves, periods, guesses, passes = [], [], [], []
        orbit, kernel, f_pass = (_kernels.periodic_orbit,
                                 _kernels.integrate_hybrid, _kernels._rk4_f)
        monkeypatch.setattr(_kernels, "periodic_orbit",
                            lambda *a: solves.append(a[:2])
                            or periods.extend(orbit(*a)) or periods)
        monkeypatch.setattr(_kernels, "integrate_hybrid",
                            lambda *a: guesses.append(a[12]) or kernel(*a))
        monkeypatch.setattr(_kernels, "_rk4_f",
                            lambda *a: passes.append(len(a[3])) or f_pass(*a))
        sweep(p, 1.0, [7.0])
        [([point], sign)], [period], [guess] = solves, periods, guesses
        n, k = guess.shape[1] - 1, guess.shape[1] // 2
        plan = sweep_module._plan(p, 1.0, 7.0, None)[1:]
        assert sign == -1 and all(np.array_equal(a, b)
                                  for a, b in zip(point, plan))
        assert period.shape == (2, n + 1) and n % 2 == 0
        assert np.array_equal(guess, period)
        assert np.array_equal(guess[:, k:], -guess[:, :k + 1])
        assert 1 <= passes.count(n) <= 2

    def test_warm_up_recovers_where_newton_fails_from_the_guess(
            self, monkeypatch):
        # at A = 5 Newton does not certify the orbit from the linearization's
        # orbit; after one warm-up run it does
        found, orbit = [], _kernels.periodic_orbit
        monkeypatch.setattr(_kernels, "periodic_orbit",
                            lambda *a: found.extend(orbit(*a)) or found[-1:])
        omega = 1.3618
        x = next(sweep_module._steady_periods(P4_NONLINEAR, 5.0, [omega],
                                              default_dt(P4_NONLINEAR)))
        assert [orbit is not None for orbit in found] == [False, True]
        assert _closes(x, 1e-12)

    def test_warm_up_is_the_last_period_of_a_run(self, monkeypatch):
        # where Newton fails, the next guess is the last period of a run of
        # _WARM_PERIODS periods from the end of the failed guess: the plan's
        # full period, which the first solve was given for its first half
        guesses, signs, orbit = [], [], _kernels.periodic_orbit
        monkeypatch.setattr(_kernels, "periodic_orbit",
                            lambda pts, sign, *a: guesses.append(pts[0][0])
                            or signs.append(sign) or (
                                orbit(pts, sign, *a) if len(guesses) > 1
                                else [None]))
        A, omega, p = 5.0, 1.3618, P4_NONLINEAR
        next(sweep_module._steady_periods(p, A, [omega], default_dt(p)))
        first = sweep_module._plan(p, A, omega, default_dt(p))[1]
        second = guesses[1]
        n, period = first.shape[1] - 1, 2 * math.pi / omega
        assert np.array_equal(guesses[0], first) and signs == [-1, 1]
        ts = run(p, SignalSpec(A, omega), SimConfig(
            period / n, 3 * period, DiffState(*np.nan_to_num(first[:, -1]))))
        assert np.array_equal(second, np.array(
            (ts.channel("x1"), ts.channel("x2")))[:, -n - 1:])

    def test_warm_up_starts_from_the_finite_part_of_the_guess(
            self, monkeypatch):
        # a failed guess whose last column is nan starts the warm-up run
        # from nan_to_num of that column: the last of the plan's full
        # period, which the first solve, of its half period, does not read
        linear, orbit = _kernels.linear_orbit, _kernels.periodic_orbit
        kernel, solves, runs = _kernels.integrate_hybrid, [], []
        monkeypatch.setattr(_kernels, "linear_orbit", lambda *a: np.append(
            linear(*a)[:, :-1], np.full((2, 1), np.nan), axis=1))
        monkeypatch.setattr(_kernels, "periodic_orbit",
                            lambda *a: solves.append(a[:2]) or (
                                orbit(*a) if len(solves) > 1 else [None]))
        monkeypatch.setattr(_kernels, "integrate_hybrid",
                            lambda *a: runs.append(a) or kernel(*a))
        pt = sweep(P4_NONLINEAR, 1.0, [32.07])[0]
        guess = sweep_module._plan(P4_NONLINEAR, 1.0, 32.07, None)[1]
        assert solves[0][1] == -1 and np.array_equal(
            solves[0][0][0][0], guess, equal_nan=True)
        assert np.isnan(guess[:, -1]).all() and len(runs[0]) == 12
        assert np.array_equal(runs[0][:2], np.nan_to_num(guess[:, -1]))
        assert math.isfinite(pt.track_mag)

    def test_repelling_orbit_is_rejected(self):
        # at dt = 0.28 the RK4 step of P3A grows its modes by 1.23 a step:
        # the linearization's orbit solves the periodic system, but a run
        # leaves it, so it is no reading
        n, period = 16, 16 * 0.28
        omega = 2 * math.pi / period
        t, tm = time_grid(SimConfig(dt=period / n, t_end=period))
        args = (sinusoid(1.0, omega, t), sinusoid(1.0, omega, tm), P3A.eps,
                P3A.a0, P3A.a1, P3A.b0, P3A.b1, P3A.alpha, period / n)
        x = _kernels.linear_orbit(1.0, omega, n, period / n, *args[2:-1])
        (f1, f2), _ = _kernels._rk4_f(x[0, :-1], x[1, :-1], *args)
        assert np.allclose(f1, x[0, 1:], 1e-13, 1e-13)
        assert np.allclose(f2, x[1, 1:], 1e-13, 1e-13)
        assert _kernels.periodic_orbit([(x, *args[:2], args[-1])], 1,
                                       *args[2:-1]) == [None]
        # nor does a sweep take it: Jury's test rejects Phi of the step
        phi, *_ = _kernels._rk4_coefficients(*_kernels._linear_differentiator(
            P3A.eps, P3A.a0, P3A.b0), period / n)
        assert not _kernels._attracts(phi)

    def test_start_that_does_not_close_is_no_reading(self, monkeypatch):
        # a certified orbit whose pass does not return to its start is not
        # measured: the point fails once the warm-up budget is spent
        orbit = _kernels.periodic_orbit
        monkeypatch.setattr(_kernels, "periodic_orbit",
                            lambda *a: [None if x is None else x + 1e-3
                                        for x in orbit(*a)])
        monkeypatch.setattr(sweep_module, "SETTLE_PERIODS", 6)
        with pytest.raises(InstabilityError, match="did not settle"):
            next(sweep_module._steady_periods(P4_NONLINEAR, 1.0, [32.07],
                                              default_dt(P4_NONLINEAR)))

    def test_pass_just_off_its_start_is_no_reading(self, monkeypatch):
        # each measured pass (the calls given the orbit as their 13th
        # argument) ends 1e-6 * (1 + |x[0]|) off its start, a thousand
        # times the closure bound, so the point is never read
        kernel = _kernels.integrate_hybrid

        def shifted(*a):
            *x, bad = kernel(*a)
            if len(a) == 13:
                for c in x:
                    c[-1] += 1e-6 * (1.0 + abs(c[0]))
            return (*x, bad)

        monkeypatch.setattr(_kernels, "integrate_hybrid", shifted)
        monkeypatch.setattr(sweep_module, "SETTLE_PERIODS", 6)
        with pytest.raises(InstabilityError, match="did not settle"):
            sweep(P4_NONLINEAR, 1.0, [32.07])

    def test_unsettled_point_raises(self, monkeypatch):
        # at alpha = 0.1 the explicit step chatters: the start of each period
        # drifts, there is no attracting orbit, and no reading is printed
        monkeypatch.setattr(sweep_module, "SETTLE_PERIODS", 6)
        p = DiffParams(eps=1 / 45, a1=0.015, b1=0.015, alpha=0.1)
        with pytest.raises(InstabilityError, match="did not settle") as err:
            sweep(p, 1.0, [2.0])
        assert err.value.__notes__ == ["omega=2 rad/s"]
        assert err.value.t == pytest.approx(6 * math.pi)

    def test_dft_bin_is_fundamental_component_on_whole_periods(
            self, monkeypatch):
        # one period of the settled response, repeated three times, is a
        # record fundamental_component accepts; its trapezoid rule then is
        # the DFT bin that sweep takes of the single period
        omega, A, n = 7.0, 1.0, 200
        dt = 2 * math.pi / omega / 199.5  # n steps a period
        x = next(sweep_module._steady_periods(P4_NONLINEAR, A, [omega], dt))
        assert x.shape == (2, n + 1)
        monkeypatch.setattr(sweep_module, "_steady_periods",
                            lambda *a: iter([x]))
        pt = sweep(P4_NONLINEAR, A, [omega], dt)[0]
        t = np.arange(3 * n + 1) * (2 * math.pi / omega / n)
        record = TimeSeries(t=t, channels={
            c: np.append(np.tile(y[:-1], 3), y[0])
            for c, y in zip(("x1", "x2"), x)})
        track = fundamental_component(record, "x1", omega, (0.0, t[-1]))
        deriv = fundamental_component(record, "x2", omega, (0.0, t[-1]))
        assert pt.track_mag == pytest.approx(track[0] / A, rel=1e-12)
        assert pt.track_phase_deg == pytest.approx(track[1], abs=1e-9)
        assert pt.deriv_mag == pytest.approx(deriv[0] / (A * omega), rel=1e-12)
        assert pt.deriv_phase_deg == pytest.approx(deriv[1] - 90.0, abs=1e-9)

    def test_measured_pass_passes_the_orbit_positionally(self, monkeypatch):
        # bench/workloads.py captures integrate_hybrid through a wrapper
        # that forwards positional arguments only, so the orbit the
        # measured pass starts from is its 13th positional argument
        calls, kernel = [], _kernels.integrate_hybrid
        monkeypatch.setattr(_kernels, "integrate_hybrid",
                            lambda *a: calls.append(len(a)) or kernel(*a))
        pt = sweep(P4_NONLINEAR, 1.0, [2.0])[0]
        assert 13 in calls and math.isfinite(pt.track_mag)


_GAIN = st.floats(0.0, 2.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(linear=st.booleans(), eps=st.floats(0.02, 0.2), a0=_GAIN, a1=_GAIN,
       b0=_GAIN, b1=_GAIN, alpha=st.floats(0.05, 1.0),
       A=st.floats(0.1, 10.0), omega=st.floats(2.0, 100.0))
def test_point_certifies_its_orbit_or_names_omega(linear, eps, a0, a1, b0,
                                                  b1, alpha, A, omega):
    # every reading comes from a certified, attracting orbit whose measured
    # pass closes; any point without one fails with an error naming omega.
    # A short warm-up budget keeps the points that chatter cheap.
    try:
        p = DiffParams(eps=eps, a0=a0, a1=0.0 if linear else a1, b0=b0,
                       b1=0.0 if linear else b1, alpha=alpha)
    except ValueError:
        return
    passes, kernel = [], _kernels.integrate_hybrid
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep_module, "SETTLE_PERIODS", 6)
        mp.setattr(_kernels, "integrate_hybrid",
                   lambda *a: passes.append((a, kernel(*a))) or passes[-1][1])
        try:
            (pt,) = sweep(p, A, [omega])
        except ValueError as exc:  # DegenerateError included
            assert exc.__notes__ == [f"omega={omega:g} rad/s"]
            return
        except InstabilityError as exc:
            assert exc.__notes__ == [f"omega={omega:g} rad/s"]
            assert math.isfinite(exc.t)
            return
    # the reading is the last pass, measured from the orbit it was given:
    # Newton's for a nonlinear point, linear_orbit's for a linear one
    args, (*measured, bad) = passes[-1]
    x, measured = args[12], np.array(measured)
    assert bad == -1 and _closes(measured, 2 * sweep_module._CLOSURE_TOL)
    assert np.array_equal(measured[:, 0], x[:, 0])
    # the orbit meets its residual certificate
    (f1, f2), _ = _kernels._rk4_f(x[0, :-1], x[1, :-1], *args[2:11])
    for f, y in ((f1, x[0, 1:]), (f2, x[1, 1:])):
        assert np.all(np.abs(f - y) <= 1e-12 * np.maximum(1.0, np.abs(y)))
    assert all(math.isfinite(v) for v in (pt.track_mag, pt.deriv_mag,
                                          pt.track_phase_deg,
                                          pt.deriv_phase_deg))


class TestTrackingBandwidth:
    def _mk(self, omegas, mags):
        return [MeasuredResponse(w, m, 0.0, m, 0.0)
                for w, m in zip(omegas, mags)]

    def test_interpolates_crossing(self):
        pts = self._mk([1.0, 2.0, 4.0], [1.0, 0.9, 0.5])
        bw = tracking_bandwidth(pts)
        assert 2.0 < bw < 4.0

    def test_no_crossing(self):
        with pytest.raises(ValueError):
            tracking_bandwidth(self._mk([1.0, 2.0], [1.0, 0.95]))

    def test_starts_below(self):
        with pytest.raises(ValueError):
            tracking_bandwidth(self._mk([1.0, 2.0], [0.5, 0.4]))

    def test_no_points(self):
        with pytest.raises(ValueError, match="^no response points$"):
            tracking_bandwidth([])


@pytest.mark.parametrize("p", [P3A, P4_HYBRID, P4_NONLINEAR],
                         ids=["linear", "hybrid", "nonlinear"])
@pytest.mark.parametrize("omega, dt", [(5.0, None), (2.0, 1e-3),
                                       (7.0, 2 * math.pi / 7.0 / 200.5),
                                       (3.0, 2 * math.pi / 3.0 / 201.5),
                                       (90.0, 0.05), (1.0, 0.5)])
def test_plan_gives_a_nonlinear_point_an_even_step_count(p, omega, dt):
    # a linear point keeps max(ceil(period/dt), 16) steps, and a nonlinear
    # point takes one more where that count is odd, for its half period
    n = len(sweep_module._plan(p, 1.0, omega, dt)[3])
    want = max(math.ceil(2 * math.pi / omega / (dt or default_dt(p))), 16)
    if p.is_linear:
        assert n == want
    else:
        assert n % 2 == 0 and n >= 16 and n - want in (0, 1)


def _solve(point, sign, gains):
    """periodic_orbit of one point, and each verdict of Jury's test on it."""
    verdicts, attracts = [], _kernels._attracts
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_attracts",
                   lambda M: verdicts.append(attracts(M)) or verdicts[-1])
        [x] = _kernels.periodic_orbit([point], sign, *gains)
    return x, verdicts


@settings(max_examples=20, deadline=None, derandomize=True)
# from the plan's guess, the full solve certifies a repelling orbit and the
# half solve gives up
@example(hybrid=False, eps=0.02, gains=[1.0, 1.098997993364779, 1.0, 0.625],
         alpha=0.25, A=3.0859375, omega=25.4375)
# both certify an attracting orbit, and the two differ
@example(hybrid=False, eps=0.02, gains=[1.0, 1.1015625, 1.0, 0.625],
         alpha=0.25, A=3.5, omega=25.4375)
# only the half solve certifies an orbit
@example(hybrid=False, eps=0.02, gains=[1.0, 1.0, 1.0, 0.625], alpha=0.25,
         A=3.5, omega=25.0)
@given(hybrid=st.booleans(), eps=st.floats(0.02, 0.2),
       gains=st.lists(st.floats(1e-3, 2.0), min_size=4, max_size=4),
       alpha=st.floats(0.25, 1.0), A=st.floats(0.1, 10.0),
       omega=st.floats(5.0, 100.0))
def test_half_period_orbit_is_the_full_period_orbit(hybrid, eps, gains, alpha,
                                                    A, omega):
    # the differentiator is odd and the input odd about the middle of its
    # period, so at the planned even n a half period that ends at minus its
    # start, extended by its negation, is a full-period orbit, and a
    # half-wave symmetric full-period orbit is such a half: each solve
    # certifies the other's orbit, with the same verdict of Jury's test on
    # M and on M^2, the measured passes from the two agree, and the
    # extension is RK4 on hybrid_rhs.  From the plan's guess the two solves
    # may still reach different orbits where several attract (alpha near
    # 0.25, eps = 0.02, A near 3.5, omega near 25), so both are checked
    # from each other's orbit, not from the guess.
    a0, a1, b0, b1 = gains
    if not hybrid:
        a0 = b0 = 0.0
    try:
        p = DiffParams(eps=eps, a0=a0, a1=a1, b0=b0, b1=b1, alpha=alpha)
        omega, guess, v, vm, h = sweep_module._plan(p, A, omega, None)
    except ValueError:  # DegenerateError included
        return
    n, gains = len(vm), (eps, a0, a1, b0, b1, alpha)
    k = n // 2
    assert n % 2 == 0
    x, verdicts = _solve((guess, v, vm, h), -1, gains)  # the extended half
    full, _ = _solve((guess, v, vm, h), 1, gains)
    if full is not None:
        first = full[:, :k + 1]
        scale = 1e-10 * np.maximum(1.0, np.abs(first))
        if np.all(np.abs(full[:, k:] + first) <= scale):  # half-wave symmetric
            z, jury = _solve((full, v, vm, h), -1, gains)
            assert z is not None and jury == [True]
            assert np.all(np.abs(z[:, :k + 1] - first) <= scale)
    if x is None:
        return
    y, jury = _solve((x, v, vm, h), 1, gains)
    assert y is not None and jury == verdicts == [True]
    assert np.all(np.abs(x - y) <= 1e-10 * np.maximum(1.0, np.abs(y)))
    # and the measured passes that start from them read the same period, to
    # rounding of each state's amplitude
    got, want = (np.array(_kernels.integrate_hybrid(
        *z[:, 0], v, vm, *gains, h, STATE_LIMIT, z)[:2]) for z in (x, y))
    scale = np.maximum(1.0, np.abs(want).max(axis=1, keepdims=True))
    assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def rhs(s, u):
        return np.array(astuple(hybrid_rhs(DiffState(*s), u, p)))

    for i in range(n):
        # from t = 0, rk4_step asks for u at exactly 0, 0.5*h and h
        u = {0.0: v[i], 0.5 * h: vm[i], h: v[i + 1]}.__getitem__
        want = rk4_step(rhs, x[:, i], 0.0, h, u)
        assert np.all(np.abs(x[:, i + 1] - want)
                      <= 1e-12 * np.maximum(1.0, np.abs(want)))
