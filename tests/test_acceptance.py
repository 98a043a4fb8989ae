"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
report.  Runtime budgets time the call itself; import time is excluded.

Criterion 9 is expected to fail; the shipped estimator reproduces the
qualitative behaviour but its measured errors sit ~20 % above the stated
thresholds under the spec'd noise semantics.  docs/calibration.md records
the measured values and the analysis.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gamma

from tdlab.describing import freq_response, linearize, omega_factor
from tdlab.dynamics import DiffParams, DiffState, w_of_x
from tdlab.presets import uncertainty_plant
from tdlab.signals import NoiseSpec, SignalSpec
from tdlab.simulate import (
    SimConfig,
    eps_ladder,
    rms_error,
    run,
    run_highgain,
)
from tdlab.sweep import convergence_order, sweep, tracking_bandwidth
from tdlab.uncertainty import estimate_delta, simulate_plant

P3A = DiffParams(eps=1 / 45, a0=0.05, b0=0.3)
P3B = DiffParams(eps=1 / 45, a1=0.099, b1=0.268, alpha=0.5)
P3C_HYBRID = DiffParams(eps=1 / 45, a0=0.005, a1=0.005, b0=0.05, b1=0.005,
                        alpha=0.5)
P3C_LINEAR = DiffParams(eps=1 / 45, a0=0.005, b0=0.05)
P4_HYBRID = DiffParams(eps=0.01, a0=0.1, a1=0.015, b0=0.3, b1=0.015, alpha=0.6)
P5 = DiffParams(eps=1 / 45, a0=0.05, a1=0.015, b0=0.3, b1=0.015, alpha=0.6)

PINNED_SEED = 12345


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:>2}] {name}: {status} ({detail})")


def test_criterion_01_linear_linearization():
    t0 = time.perf_counter()
    lin = linearize(P3A, 1.0)
    elapsed = time.perf_counter() - t0
    for _ in range(9):
        t0 = time.perf_counter()
        lin = linearize(P3A, 1.0)
        elapsed = min(elapsed, time.perf_counter() - t0)
    ok = (abs(lin.omega_n - 10.062) <= 1e-3
          and abs(lin.zeta - 0.67) <= 5e-3
          and abs(lin.k_pos - 101.25) <= 1e-9 * 101.25
          and abs(lin.k_vel - 13.5) <= 1e-9 * 13.5
          and elapsed < 1e-3)
    report(1, "linear equivalent system", ok,
           f"omega_n={lin.omega_n:.6f}, zeta={lin.zeta:.6f}, "
           f"coeffs=({lin.k_pos:.12g}, {lin.k_vel:.12g}), {elapsed*1e6:.0f} us")
    assert abs(lin.omega_n - 10.062) <= 1e-3
    assert abs(lin.zeta - 0.67) <= 5e-3
    assert lin.k_pos == pytest.approx(101.25, rel=1e-9)
    assert lin.k_vel == pytest.approx(13.5, rel=1e-9)
    assert elapsed < 1e-3


def test_criterion_02_fundamental_harmonic_constant():
    value = omega_factor(0.5)
    closed_form = math.sqrt(math.pi) * gamma(1.25) / gamma(1.75) * 2 / math.pi
    ok = abs(value - 1.1128) <= 5e-4 and abs(value - closed_form) <= 1e-9
    report(2, "harmonic factor at alpha=0.5", ok,
           f"omega_factor={value:.8f}, closed form={closed_form:.8f}")
    assert value == pytest.approx(1.1128, abs=5e-4)
    assert value == pytest.approx(closed_form, abs=1e-9)


def test_criterion_03_nonlinear_linearization():
    lin = linearize(P3B, 5.0)
    den = lin.denominator
    ok = (abs(lin.omega_n - 10.0) <= 0.05 and abs(lin.zeta - 0.3) <= 5e-3
          and den[0] == 1.0 and abs(den[1] - 6.0) <= 0.05
          and abs(den[2] - 99.768) <= 0.1)
    report(3, "nonlinear equivalent system at A=5", ok,
           f"omega_n={lin.omega_n:.4f}, zeta={lin.zeta:.4f}, "
           f"den=({den[0]:g}, {den[1]:.4f}, {den[2]:.4f})")
    assert lin.omega_n == pytest.approx(10.0, abs=0.05)
    assert lin.zeta == pytest.approx(0.3, abs=5e-3)
    assert den[1] == pytest.approx(6.0, abs=0.05)
    assert den[2] == pytest.approx(99.768, abs=0.1)


def test_criterion_04_hybrid_linearization():
    lin = linearize(P3C_HYBRID, 0.5)
    sub = linearize(P3C_LINEAR, 0.5)
    ok = (abs(lin.k_pos - 26.06) <= 0.05 and abs(lin.k_vel - 2.6) <= 0.01
          and abs(sub.omega_n - 3.18) <= 0.01 and abs(sub.zeta - 0.35) <= 5e-3)
    report(4, "hybrid equivalent system at A=0.5", ok,
           f"k_pos={lin.k_pos:.4f}, k_vel={lin.k_vel:.4f}; "
           f"linear-only omega_n={sub.omega_n:.4f}, zeta={sub.zeta:.4f}")
    assert lin.k_pos == pytest.approx(26.06, abs=0.05)
    assert lin.k_vel == pytest.approx(2.6, abs=0.01)
    assert sub.omega_n == pytest.approx(3.18, abs=0.01)
    assert sub.zeta == pytest.approx(0.35, abs=5e-3)


def test_criterion_05_harmonic_factor_bounds():
    t0 = time.perf_counter()
    grid = np.linspace(0.0, 1.0, 101)
    vals = np.array([omega_factor(a) for a in grid])
    elapsed = time.perf_counter() - t0
    interior_ok = bool(np.all((vals[1:-1] > 1.0) & (vals[1:-1] < 2.0)))
    monotone_ok = bool(np.all(np.diff(vals) < 0.0))
    ends_ok = (abs(vals[0] - 4 / math.pi) <= 1e-6 and abs(vals[-1] - 1.0) <= 1e-6)
    ok = interior_ok and monotone_ok and ends_ok and elapsed < 1.0
    report(5, "harmonic factor bounds and monotonicity", ok,
           f"range=({vals[-1]:.6f}, {vals[0]:.6f}), {elapsed:.3f} s")
    assert interior_ok and monotone_ok and ends_ok
    assert elapsed < 1.0


def test_criterion_06_realization_equivalence():
    t0 = time.perf_counter()
    spec = SignalSpec(1.0, 2.0)
    x0 = DiffState(0.3, -0.2)
    cfg_x = SimConfig(dt=1e-4, t_end=10.0, initial=x0)
    cfg_w = SimConfig(dt=1e-4, t_end=10.0, initial=w_of_x(x0, P3A))
    ts_x = run(P3A, spec, cfg_x)
    ts_w = run_highgain(P3A, spec, cfg_w)
    worst = float(np.max(np.abs(ts_x.channel("x2") - ts_w.channel("x2"))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    report(6, "realization equivalence", ok,
           f"max |x2 - w2| = {worst:.3g}, {elapsed:.2f} s")
    assert worst <= 1e-6
    assert elapsed < 5.0


def test_criterion_07_swept_sine_matches_analytic():
    t0 = time.perf_counter()
    lin = linearize(P3A, 1.0)
    omegas = np.logspace(math.log10(0.5), math.log10(30.0), 20)
    points = sweep(P3A, 1.0, omegas)
    worst_db = worst_deg = 0.0
    for pt in points:
        ref = freq_response(lin, pt.omega)
        worst_db = max(worst_db,
                       abs(20 * math.log10(pt.track_mag) - ref.mag_db))
        worst_deg = max(worst_deg, abs(pt.track_phase_deg - ref.phase_deg))
    elapsed = time.perf_counter() - t0
    ok = worst_db <= 0.2 and worst_deg <= 2.0 and elapsed < 30.0
    report(7, "swept-sine vs analytic response", ok,
           f"worst {worst_db:.4f} dB / {worst_deg:.4f} deg, {elapsed:.1f} s")
    assert worst_db <= 0.2
    assert worst_deg <= 2.0
    assert elapsed < 30.0


def test_criterion_08_bandwidth_grows_with_r():
    t0 = time.perf_counter()
    omegas = np.logspace(math.log10(4.0), math.log10(90.0), 10)
    bw_100 = tracking_bandwidth(sweep(P4_HYBRID, 1.0, omegas))
    bw_45 = tracking_bandwidth(sweep(replace(P4_HYBRID, eps=1 / 45), 1.0, omegas))
    elapsed = time.perf_counter() - t0
    ok = bw_100 > bw_45 and elapsed < 60.0
    report(8, "tracking bandwidth vs R", ok,
           f"R=100: {bw_100:.1f} rad/s, R=45: {bw_45:.1f} rad/s, "
           f"{elapsed:.1f} s")
    assert bw_100 > bw_45
    assert elapsed < 60.0


def test_criterion_09_uncertainty_estimation():
    t0 = time.perf_counter()
    cfg = SimConfig(dt=1e-3, t_end=20.0)

    ts_free = estimate_delta(simulate_plant(uncertainty_plant(), cfg), P5)
    rms_free = rms_error(ts_free, "delta_hat", "delta_true",
                         (2.0, float(ts_free.t[-1])))

    noise = NoiseSpec(1e-4, 0.01, seed=PINNED_SEED)
    ts_noisy = estimate_delta(
        simulate_plant(uncertainty_plant(noise=noise), cfg), P5)
    rms_noisy = rms_error(ts_noisy, "delta_hat", "delta_true",
                          (2.0, float(ts_noisy.t[-1])))
    elapsed = time.perf_counter() - t0

    # diagnostic: the measurement-feedthrough variant delta_hat = x2_hat+y-u
    alt = (ts_noisy.channel("x2_hat") + ts_noisy.channel("y")
           - ts_noisy.channel("u"))
    mask = ts_noisy.t >= 2.0
    alt_rms = float(np.sqrt(np.mean(
        (alt[mask] - ts_noisy.channel("delta_true")[mask]) ** 2)))

    ok = rms_free <= 0.05 and rms_noisy <= 0.25 and elapsed < 10.0
    report(9, "disturbance reconstruction", ok,
           f"noise-free RMS={rms_free:.4f} (<=0.05), "
           f"noisy RMS={rms_noisy:.4f} (<=0.25), "
           f"y-feedthrough variant {alt_rms:.4f}, {elapsed:.1f} s")
    failures = []
    if rms_free > 0.05:
        failures.append(f"noise-free RMS {rms_free:.4f} > 0.05")
    if rms_noisy > 0.25:
        failures.append(f"noisy RMS {rms_noisy:.4f} > 0.25")
    assert elapsed < 10.0
    if failures:
        pytest.fail("; ".join(failures) + " (see docs/calibration.md)")


def test_criterion_10_convergence_trend():
    t0 = time.perf_counter()
    eps_values = (1 / 20, 1 / 40, 1 / 80, 1 / 160)
    spec = SignalSpec(1.0, 2.0)
    slope_lin = convergence_order(eps_ladder(P3A, eps_values), spec)
    slope_hyb = convergence_order(eps_ladder(P4_HYBRID, eps_values), spec)
    elapsed = time.perf_counter() - t0
    ok = 0.8 <= slope_lin <= 2.2 and slope_hyb > 0.5 and elapsed < 60.0
    report(10, "tracking-error order in eps", ok,
           f"linear slope={slope_lin:.3f}, hybrid slope={slope_hyb:.3f}, "
           f"{elapsed:.1f} s")
    assert 0.8 <= slope_lin <= 2.2
    assert slope_hyb > 0.5
    assert elapsed < 60.0


def test_criterion_11_noise_suppression_ordering():
    t0 = time.perf_counter()
    cfg = SimConfig(dt=1e-3, t_end=50.0)

    def injected_variance(p, amplitude, power):
        noisy = SignalSpec(amplitude, 2.0,
                           noise=NoiseSpec(power, 0.01, seed=PINNED_SEED))
        clean = SignalSpec(amplitude, 2.0)
        x2_noisy = run(p, noisy, cfg).channel("x2")
        x2_clean = run(p, clean, cfg).channel("x2")
        t = np.arange(len(x2_noisy)) * cfg.dt
        mask = t >= 2.0
        # derivative-channel variance attributable to noise, on the scale of
        # the ideal derivative amplitude A*omega
        return float(np.var((x2_noisy - x2_clean)[mask])) / (amplitude * 2.0) ** 2

    var_linear = injected_variance(P3A, 5.0, 0.01)       # relative noise 0.2
    var_hybrid = injected_variance(P3C_HYBRID, 0.5, 1e-4)  # relative noise 0.2
    elapsed = time.perf_counter() - t0
    ok = var_hybrid < var_linear and elapsed < 30.0
    report(11, "noise suppression ordering", ok,
           f"linear {var_linear:.5f} vs hybrid {var_hybrid:.5f} "
           f"(normalized), {elapsed:.1f} s")
    assert var_hybrid < var_linear
    assert elapsed < 30.0
