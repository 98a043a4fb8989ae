import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdlab.describing import freq_response, linearize, natural_frequency
from tdlab.dynamics import DiffParams
from tdlab.signals import SignalSpec
from tdlab.simulate import InstabilityError, SimConfig, TimeSeries, run, time_grid
from tdlab.sweep import (
    MEASURE_PERIODS,
    MeasuredResponse,
    fundamental_component,
    measure_point,
    sweep,
    tracking_bandwidth,
)

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
        m = measure_point(P3A, 5.0, 2.0, dt=1e-3)
        assert m.deriv_mag == pytest.approx(1.0033, abs=0.01)
        assert m.deriv_phase_deg == pytest.approx(-15.5, abs=1.0)

    def test_dc_limit(self):
        # analytic phase at 0.2 rad/s is -1.53 deg (not yet zero); the
        # measured point must sit on the analytic curve and the lag must
        # keep shrinking toward DC
        m = measure_point(P3A, 1.0, 0.2, dt=1e-3)
        assert m.track_mag == pytest.approx(1.0, abs=0.01)
        ref = freq_response(linearize(P3A, 1.0), 0.2)
        assert m.track_phase_deg == pytest.approx(ref.phase_deg, abs=0.2)
        lower = measure_point(P3A, 1.0, 0.05, dt=1e-3)
        assert abs(lower.track_phase_deg) < abs(m.track_phase_deg) < 2.0

    def test_hybrid_tracks_below_two_pi(self):
        for omega in (0.5, 2.0, 2 * math.pi):
            m = measure_point(P4_HYBRID, 1.0, omega, dt=5e-4)
            assert m.track_mag >= 0.95

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.inf, math.nan])
    def test_rejects_bad_step(self, dt):
        # a non-positive dt would otherwise fall back to 16 steps per period
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            measure_point(P3A, 1.0, 2.0, dt=dt)

    def test_step_count_checked_before_rounding(self):
        # period/dt overflows to inf, which math.ceil cannot round
        with pytest.raises(ValueError, match="MAX_STEPS"):
            measure_point(P3A, 1.0, 1.0, dt=1e-320)

    def test_window_invariance(self):
        # doubling the measured periods moves the estimate by < 0.1 %: the
        # reference measures 10 periods on the same plan, step and skip
        omega = 5.0
        a = measure_point(P3A, 1.0, omega, dt=1e-3)
        period = 2 * math.pi / omega
        n_sub = math.ceil(period / 1e-3)
        dt = period / n_sub
        skip = max(10.0 / natural_frequency(P3A, 1.0), 5.0 * period)
        i0 = math.ceil(skip / dt)
        window = (i0 * dt, (i0 + 10 * n_sub) * dt)
        ts = run(P3A, SignalSpec(1.0, omega), SimConfig(dt=dt, t_end=window[1]))
        ref, _ = fundamental_component(ts, "x1", omega, window)
        assert abs(ref - a.track_mag) / a.track_mag < 1e-3


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
            # amplitude <= 0 fails inside measure_point for every point
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


def _measured_periods(window, omega):
    return (window[1] - window[0]) * omega / (2 * math.pi)


class TestPointPlan:
    """Every point, through sweep or measure_point, measures exactly
    MEASURE_PERIODS periods that end where the run ends."""

    @pytest.fixture
    def plans(self, monkeypatch):
        # a steady synthetic response on the planned grid: x1 = v, x2 = v';
        # records the run's end and each measured window
        seen = []

        def fake_run(p, spec, cfg):
            t, _ = time_grid(cfg)
            w, A = spec.omega, spec.amplitude
            return TimeSeries(t=t, channels={"x1": A * np.sin(w * t),
                                             "x2": A * w * np.cos(w * t)})

        def recording(ts, channel, omega, window):
            seen.append((ts.t[-1], window))
            return fundamental_component(ts, channel, omega, window)

        monkeypatch.setattr(sweep_module, "run", fake_run)
        monkeypatch.setattr(sweep_module, "fundamental_component", recording)
        return seen

    def _check(self, plans, omega):
        assert len(plans) == 2  # x1 and x2, on one window
        for t_end, window in plans:
            assert window[1] == pytest.approx(t_end, abs=1e-9)
            assert _measured_periods(window, omega) == pytest.approx(
                MEASURE_PERIODS, abs=1e-9)

    @pytest.mark.parametrize("omega", [0.89, 3.22, 7.12])
    def test_sweep_measures_measure_periods(self, plans, omega):
        (pt,) = sweep(P3A, 1.0, [omega])
        self._check(plans, omega)
        assert pt.track_mag == pytest.approx(1.0, abs=1e-6)
        assert pt.deriv_phase_deg == pytest.approx(0.0, abs=1e-4)

    @pytest.mark.parametrize("omega", [0.89, 3.22, 7.12])
    def test_config_sized_for_five_periods_measures_five(self, plans, omega):
        # the SimConfig measure_point plans covers the skip plus exactly
        # MEASURE_PERIODS (five) periods, and all of them are measured
        pt = measure_point(P3A, 1.0, omega, dt=1e-3)
        self._check(plans, omega)
        assert pt.track_mag == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=st.sampled_from([P3A, P4_HYBRID, P4_NONLINEAR]),
       A=st.floats(0.1, 10.0),
       omega=st.floats(0.05, 500.0),
       dt_target=st.floats(1e-4, 1e-2))
def test_point_plan_property(p, A, omega, dt_target):
    # run and fundamental_component only record the plan, so grids of
    # millions of steps cost nothing
    plans = []

    def check(cfg, window):
        period = 2 * math.pi / omega
        n_sub = period / cfg.dt
        assert cfg.dt <= dt_target * (1 + 1e-12)
        assert n_sub >= 16 and n_sub == pytest.approx(round(n_sub), abs=1e-6)
        skip = max(10.0 / natural_frequency(p, A), 5.0 * period)
        # the first grid step at or after the skip (a rounding error may
        # push it one step later when the skip is a whole number of steps)
        assert skip - 1e-9 <= window[0] <= skip + cfg.dt + 1e-9
        assert window[1] == cfg.t_end
        return _measured_periods(window, omega)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep_module, "run", lambda p, spec, cfg: cfg)
        mp.setattr(sweep_module, "fundamental_component",
                   lambda cfg, channel, w, window: plans.append(
                       check(cfg, window)) or (1.0, 0.0))
        sweep(p, A, [omega], dt_target)
        assert plans == [pytest.approx(MEASURE_PERIODS, abs=1e-9)] * 2


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
