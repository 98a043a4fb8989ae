"""Kernel checks: the generic RK4 step as oracle of every kernel, the
linear propagator and the Newton path against the nonlinear loop, when
the Newton path hands the rest of a lane to the loop, and the BLAS routine
bound from the OpenBLAS numpy ships, with scipy's as the fallback."""

import _ctypes
import ctypes
import os
import subprocess
import sys
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import blas

import tdlab
from tdlab import _kernels
from tdlab.describing import _equivalent_gains, natural_frequency
from tdlab.dynamics import (DiffParams, DiffState, first_order_filter_rhs,
                            highgain_rhs, hybrid_rhs)
from tdlab.simulate import rk4_step

P_HYBRID = DiffParams(eps=1 / 45, a0=0.05, a1=0.015, b0=0.3, b1=0.015,
                      alpha=0.6)


def _inputs(n=400, dt=1e-3, A=1.0, omega=2.0):
    t = np.arange(n + 1) * dt
    tm = t[:-1] + 0.5 * dt
    return A * np.sin(omega * t), A * np.sin(omega * tm)


def test_backend_reports_mode():
    assert _kernels.backend() == "python"


def test_hybrid_kernel_matches_generic_step():
    v, vm = _inputs()
    dt = 1e-3
    x1, x2, bad = _kernels.integrate_hybrid(
        0.1, -0.2, v, vm, P_HYBRID.eps, P_HYBRID.a0, P_HYBRID.a1,
        P_HYBRID.b0, P_HYBRID.b1, P_HYBRID.alpha, dt, 1e9)
    assert bad == -1

    def rhs(s, u):
        d = hybrid_rhs(DiffState(s[0], s[1]), u, P_HYBRID)
        return np.array([d.x1, d.x2])

    state = np.array([0.1, -0.2])
    for i in range(len(vm)):
        u = lambda tt: np.interp(tt, [i * dt, (i + 0.5) * dt, (i + 1) * dt],
                                 [v[i], vm[i], v[i + 1]])
        state = rk4_step(rhs, state, i * dt, dt, u)
        assert state[0] == pytest.approx(x1[i + 1], rel=1e-12, abs=1e-15)
        assert state[1] == pytest.approx(x2[i + 1], rel=1e-12, abs=1e-15)


def test_highgain_kernel_matches_generic_step():
    p = DiffParams(eps=1 / 45, a0=0.05, b0=0.3)
    v, vm = _inputs(n=200)
    dt = 1e-3
    w1, w2, bad = _kernels.integrate_highgain(
        0.0, 0.0, v, vm, p.eps, p.a0, p.b0, dt, 1e9)
    assert bad == -1

    def rhs(s, u):
        d = highgain_rhs(DiffState(s[0], s[1]), u, p)
        return np.array([d.x1, d.x2])

    state = np.array([0.0, 0.0])
    for i in range(len(vm)):
        u = lambda tt: np.interp(tt, [i * dt, (i + 0.5) * dt, (i + 1) * dt],
                                 [v[i], vm[i], v[i + 1]])
        state = rk4_step(rhs, state, i * dt, dt, u)
        assert state[0] == pytest.approx(w1[i + 1], rel=1e-12, abs=1e-15)
        assert state[1] == pytest.approx(w2[i + 1], rel=1e-12, abs=1e-15)


def test_relaxation_kernel_matches_generic_step():
    a0, eps = 0.05, 1 / 45
    v, vm = _inputs(n=200)
    dt = 1e-3
    x, bad = _kernels.integrate_relaxation(
        0.3, v, vm, a0 ** 0.5 / eps, dt, 1e9)
    assert bad == -1

    state = 0.3
    for i in range(len(vm)):
        u = lambda tt: np.interp(tt, [i * dt, (i + 0.5) * dt, (i + 1) * dt],
                                 [v[i], vm[i], v[i + 1]])
        state = rk4_step(lambda s, uu: first_order_filter_rhs(s, uu, a0, eps),
                         state, i * dt, dt, u)
        assert state == pytest.approx(x[i + 1], rel=1e-12, abs=1e-15)


def test_relaxation_kernel_decay():
    n = 1000
    g = np.zeros(n + 1)
    gm = np.zeros(n)
    x, bad = _kernels.integrate_relaxation(1.0, g, gm, 1.0, 1e-3, 1e9)
    assert bad == -1
    assert x[-1] == pytest.approx(np.exp(-1.0), abs=1e-9)


@pytest.mark.parametrize("gains", [(0.05, 0.0, 0.3, 0.0, 1.0),
                                   (0.05, 0.015, 0.3, 0.015, 0.6)],
                         ids=["linear", "nonlinear"])
def test_divergence_reports_first_bad_step(gains):
    v, vm = _inputs(n=50, dt=0.5, omega=2.0)
    x1, x2, bad = _kernels.integrate_hybrid(0.0, 0.0, v, vm, 1 / 45, *gains,
                                            0.5, 1e9)
    assert bad > 0
    assert not (abs(x1[bad]) <= 1e9 and abs(x2[bad]) <= 1e9)
    assert np.all(np.abs(x1[:bad]) <= 1e9) and np.all(np.abs(x2[:bad]) <= 1e9)


_LOOP = _kernels._hybrid_loop


@settings(max_examples=300, deadline=None, derandomize=True)
@given(eps=st.floats(1e-3, 1.0), a0=st.floats(1e-3, 10.0),
       b0=st.floats(1e-3, 10.0), dt=st.floats(1e-5, 1e-2),
       n=st.integers(1, 3000), seed=st.integers(0, 2 ** 32 - 1),
       chunk=st.one_of(st.just(_kernels._WINDOW_STEPS), st.integers(1, 3000)))
# lanes of three windows at the real bound, which no drawn n reaches: one
# that stays bounded, and an overdamped one whose RK4 step grows its fast
# mode by 1.002 a step, so that it first exceeds 1e9 at step 7285
@example(eps=0.05, a0=1.0, b0=1.0, dt=1e-3, n=2 * _kernels._WINDOW_STEPS + 1,
         seed=0, chunk=_kernels._WINDOW_STEPS)
@example(eps=0.01, a0=1.0, b0=10.0, dt=0.002815,
         n=2 * _kernels._WINDOW_STEPS + 1, seed=0, chunk=_kernels._WINDOW_STEPS)
def test_linear_propagator_matches_loop(eps, a0, b0, dt, n, seed, chunk):
    # The nonlinear loop with a1 = b1 = 0 runs the same RK4 stage by stage,
    # so it is the oracle of the propagator, divergent cases included.  A
    # drawn chunk size puts chunk boundaries inside the run.
    rng = np.random.default_rng(seed)
    v = rng.uniform(-10.0, 10.0, n + 1)
    vm = rng.uniform(-10.0, 10.0, n)
    x0 = rng.uniform(-10.0, 10.0, 2)
    args = (x0[0], x0[1], v, vm, eps, a0, 0.0, b0, 0.0, 1.0, dt, 1e9)
    with mock.patch.object(_kernels, "_WINDOW_STEPS", chunk):
        *got, bad = _kernels.integrate_hybrid(*args)
    *want, want_bad = _LOOP(*args)
    assert bad == want_bad
    end = n + 1 if bad < 0 else bad + 1
    for g, w in zip(got, want):
        w = w[:end]
        assert np.all(np.abs(g[:end] - w) <= 1e-10 * np.maximum(1.0, np.abs(w)))


#: Nonlinear (a0 = b0 = 0) and hybrid gain sets with alpha in [0.05, 0.95],
#: dt = eps*dt_per_eps, start states in [-10, 10] and 5 sin 2t plus noise;
#: divergent cases are drawn too.
NONLINEAR_CASES = dict(
    hybrid=st.booleans(), eps=st.floats(1e-3, 1.0),
    gains=st.lists(st.floats(1e-3, 10.0), min_size=4, max_size=4),
    alpha=st.floats(0.05, 0.95), dt_per_eps=st.floats(1e-3, 1.0),
    seed=st.integers(0, 2 ** 32 - 1))


def _nonlinear_case(hybrid, eps, gains, alpha, dt_per_eps, seed, n):
    """Arguments of integrate_hybrid for one drawn NONLINEAR_CASES example."""
    a0, a1, b0, b1 = gains
    if not hybrid:
        a0 = b0 = 0.0
    DiffParams(eps=eps, a0=a0, a1=a1, b0=b0, b1=b1, alpha=alpha)  # is valid
    dt = dt_per_eps * eps
    rng = np.random.default_rng(seed)
    t = np.arange(n + 1) * dt
    level = rng.uniform(0.0, 2.0)
    v = 5.0 * np.sin(2.0 * t) + level * rng.standard_normal(n + 1)
    vm = 5.0 * np.sin(2.0 * (t[:-1] + 0.5 * dt)) + level * rng.standard_normal(n)
    x0 = rng.uniform(-10.0, 10.0, 2)
    return (x0[0], x0[1], v, vm, eps, a0, a1, b0, b1, alpha, dt, 1e9)


def _assert_agree(got, bad, want, want_bad):
    """Same first divergent step; within 1e-10*max(1, |x|) up to it."""
    assert bad == want_bad
    for g, w in zip(got, want):
        end = len(w) if want_bad < 0 else want_bad + 1
        w = w[:end]
        assert np.all(np.abs(g[:end] - w) <= 1e-10 * np.maximum(1.0, np.abs(w)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(**NONLINEAR_CASES, n=st.integers(1, 200))
def test_nonlinear_loop_matches_generic_step(hybrid, eps, gains, alpha,
                                             dt_per_eps, seed, n):
    # rk4_step on hybrid_rhs is the oracle of the loop's stage algebra over
    # nonlinear and hybrid gain sets, divergent cases included.
    args = _nonlinear_case(hybrid, eps, gains, alpha, dt_per_eps, seed, n)
    x0, (v, vm), dt = np.array(args[:2]), args[2:4], args[10]
    p = DiffParams(*args[4:10])
    *got, bad = _LOOP(*args)

    def rhs(s, u):
        d = hybrid_rhs(DiffState(float(s[0]), float(s[1])), u, p)
        return np.array([d.x1, d.x2])

    want = [x0]
    want_bad = -1
    for i in range(n):
        # from t = 0, rk4_step asks for u at exactly 0, 0.5*dt and dt
        u = {0.0: v[i], 0.5 * dt: vm[i], dt: v[i + 1]}.__getitem__
        want.append(rk4_step(rhs, want[-1], 0.0, dt, u))
        if not np.all(np.abs(want[-1]) <= 1e9):
            want_bad = i + 1
            break
    _assert_agree(got, bad, np.array(want).T, want_bad)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(**NONLINEAR_CASES, n=st.integers(1, 1200), slides=st.integers(3, 12))
def test_newton_path_matches_loop(hybrid, eps, gains, alpha, dt_per_eps,
                                  seed, n, slides):
    # The Newton path, certificate and fallback included, against the loop
    # over lanes the window slides along several times (a window of at
    # most n/3 steps).  Every lane and alpha takes Newton here, so that the
    # certificate is checked where the path would otherwise hand the lane
    # to the loop at once.
    args = _nonlinear_case(hybrid, eps, gains, alpha, dt_per_eps, seed, n)
    with mock.patch.multiple(_kernels, _WINDOW_STEPS=max(1, n // slides),
                             _MIN_NEWTON_STEPS=1, _MIN_NEWTON_ALPHA=0.0):
        *got, bad = _kernels._newton_hybrid(*args)
    *want, want_bad = _LOOP(*args)
    _assert_agree(got, bad, want, want_bad)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(**NONLINEAR_CASES, n=st.integers(1, 1200), slides=st.integers(3, 12))
def test_newton_path_runs_the_loop_once_on_the_tail(
        hybrid, eps, gains, alpha, dt_per_eps, seed, n, slides):
    # The lanes of test_newton_path_matches_loop: a lane is a Newton prefix
    # and at most one _hybrid_loop call, which runs to the lane's last step.
    args = _nonlinear_case(hybrid, eps, gains, alpha, dt_per_eps, seed, n)
    inputs = []

    def recording(*a):
        inputs.append(a[2:4])
        return _LOOP(*a)

    with mock.patch.multiple(_kernels, _WINDOW_STEPS=max(1, n // slides),
                             _MIN_NEWTON_STEPS=1, _MIN_NEWTON_ALPHA=0.0,
                             _hybrid_loop=recording):
        _kernels._newton_hybrid(*args)
    assert len(inputs) <= 1
    for v, vm in inputs:
        start = n - len(vm)
        assert np.array_equal(v, args[2][start:])
        assert np.array_equal(vm, args[3][start:])


def _count_loop_calls(monkeypatch):
    """Steps of each _hybrid_loop call made from here on."""
    calls = []

    def counting(*args):
        calls.append(len(args[3]))
        return _LOOP(*args)

    monkeypatch.setattr(_kernels, "_hybrid_loop", counting)
    return calls


@pytest.mark.parametrize("min_steps", [_kernels._MIN_NEWTON_STEPS, 1],
                         ids=["short-lane", "certificate"])
def test_divergent_lane_goes_through_loop(monkeypatch, min_steps):
    # The [nonlinear] case of test_divergence_reports_first_bad_step: its
    # 50 steps are too few for Newton, and when Newton is tried anyway the
    # window fails its certificate; either way the loop reports the step.
    v, vm = _inputs(n=50, dt=0.5, omega=2.0)
    args = (0.0, 0.0, v, vm, 1 / 45, 0.05, 0.015, 0.3, 0.015, 0.6, 0.5, 1e9)
    *want, want_bad = _LOOP(*args)
    calls = _count_loop_calls(monkeypatch)
    monkeypatch.setattr(_kernels, "_MIN_NEWTON_STEPS", min_steps)
    *got, bad = _kernels._newton_hybrid(*args)
    assert calls == [50]
    assert bad == want_bad > 0
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g[:bad + 1], w[:bad + 1])


@pytest.mark.parametrize("alpha, steps", [(0.1, [1000]), (0.3, [1000]),
                                          (0.6, [])])
def test_small_alpha_lane_falls_back(monkeypatch, alpha, steps):
    # alpha = 0.1 goes to the loop by the alpha rule; at alpha = 0.3 Newton
    # stalls on this noise-free sine and the loop runs the rest of the lane.
    n, dt = 1000, 0.002
    t = np.arange(n + 1) * dt
    v, vm = 2.0 * np.sin(3.0 * t), 2.0 * np.sin(3.0 * (t[:-1] + dt / 2))
    args = (0.0, 0.0, v, vm, 0.1, 0.0, 6.0, 0.0, 9.0, alpha, dt, 1e9)
    *want, want_bad = _LOOP(*args)
    calls = _count_loop_calls(monkeypatch)
    *got, bad = _kernels.integrate_hybrid(*args)
    assert calls == steps
    _assert_agree(got, bad, want, want_bad)


def _bench_kernels_input():
    """The fixed kernel input of benchmarks/bench_kernels.py: paper-5 gains,
    5 sin 2t, 20 000 steps."""
    dt, n = 1e-4, 20_000
    t = np.arange(n + 1) * dt
    v, vm = 5.0 * np.sin(2.0 * t), 5.0 * np.sin(2.0 * (t[:-1] + dt / 2))
    return (0.0, 0.0, v, vm, 1 / 45, 0.05, 0.015, 0.3, 0.015, 0.6, dt, 1e9)


def test_presets_take_the_newton_path(monkeypatch):
    # The bench_kernels input is certified as the window slides along it:
    # no loop call.  Newton stops at its rounding floor, so the trajectory
    # agrees with the loop far inside the property's 1e-10.
    # Each step is retired once, by an evaluation that takes no Jacobian
    # of it, and the step after the frontier needs none either (its
    # correction starts from d = 0): so the Jacobian pass sees every
    # evaluated step but those.  The last evaluation certifies the rest of
    # the lane and takes no Jacobian.
    args = _bench_kernels_input()
    *want, want_bad = _LOOP(*args)
    f_pass, j_pass, events = _kernels._rk4_f, _kernels._rk4_jac, []

    def counting_f(y1, *a):
        events.append(("F", len(y1)))
        return f_pass(y1, *a)

    def counting_j(stages, *a):
        events.append(("J", len(stages[0][0])))
        return j_pass(stages, *a)

    monkeypatch.setattr(_kernels, "_rk4_f", counting_f)
    monkeypatch.setattr(_kernels, "_rk4_jac", counting_j)
    calls = _count_loop_calls(monkeypatch)
    *got, bad = _kernels._newton_hybrid(*args)
    assert calls == [] and bad == want_bad == -1
    for g, w in zip(got, want):
        assert np.all(np.abs(g - w) <= 1e-12 * np.maximum(1.0, np.abs(w)))
    n = len(args[3])
    f_steps = [m for name, m in events if name == "F"]
    j_steps = [m for name, m in events if name == "J"]
    assert n > _kernels._WINDOW_STEPS and j_steps
    assert sum(j_steps) == sum(f_steps) - n - len(j_steps)
    assert events[-1][0] == "F"
    # the pass never runs on more than the window after the frontier step
    for (first, m), (second, j) in zip(events, events[1:]):
        if second == "J":
            assert first == "F" and j < m


@pytest.mark.parametrize("window, iters, loop_steps",
                         [(1000, 3, 18_999), (2048, 4, 13_851)])
def test_steps_after_a_fallback_reach_the_rounding_floor(
        monkeypatch, window, iters, loop_steps):
    # A cap of 3 or 4 iterations makes Newton give up on a window of the
    # bench_kernels input after it has certified the windows before it.
    # The loop then runs the rest of the lane in one call, so every step
    # is either certified at the rounding floor or the loop's own.
    args = _bench_kernels_input()
    *want, want_bad = _LOOP(*args)
    calls = _count_loop_calls(monkeypatch)
    monkeypatch.setattr(_kernels, "_WINDOW_STEPS", window)
    monkeypatch.setattr(_kernels, "_NEWTON_ITERS", iters)
    x1, x2, bad = _kernels._newton_hybrid(*args)
    assert calls == [loop_steps] and bad == want_bad == -1
    _assert_agree((x1, x2), bad, want, want_bad)
    (f1, f2), _ = _kernels._rk4_f(x1[:-1], x2[:-1], *args[2:11])
    for f, x in ((f1, x1[1:]), (f2, x2[1:])):
        assert np.all(np.abs(f - x) <= 1e-14 * np.maximum(1.0, np.abs(x)))


def _orbit(guess, v_grid, v_mid, *gains):
    """periodic_orbit of one point, given integrate_hybrid's arguments."""
    [orbit] = _kernels.periodic_orbit([(guess, v_grid, v_mid, gains[-1])], 1,
                                      *gains[:-1])
    return orbit


def test_residuals_above_the_tolerance_are_not_certified(monkeypatch):
    # A fresh jitter of 1e-11*max(1, |F|) on every map pass floors the
    # residuals above _NEWTON_TOL, where the rounding-floor rule alone
    # would accept them: no window of the bench_kernels input retires, so
    # the loop runs the whole lane, and the orbit of one input period of
    # P_HYBRID, found without the jitter, is not.
    rng, f_pass = np.random.default_rng(0), _kernels._rk4_f
    omega, n = 2.0, 3142
    dt = 2 * np.pi / omega / n
    t = np.arange(n + 1) * dt
    args = (np.sin(omega * t), np.sin(omega * (t[:-1] + dt / 2)),
            *astuple(P_HYBRID), dt)
    guess = _kernels.linear_orbit(1.0, omega, n, dt, *args[2:-1])
    assert _orbit(guess, *args) is not None

    def jittered(*a):
        f, stages = f_pass(*a)
        return tuple(x + 1e-11 * np.maximum(1.0, np.abs(x))
                     * rng.choice((-1.0, 1.0), x.shape) for x in f), stages

    monkeypatch.setattr(_kernels, "_rk4_f", jittered)
    calls = _count_loop_calls(monkeypatch)
    lane = _bench_kernels_input()
    _kernels._newton_hybrid(*lane)
    assert calls == [len(lane[3])]
    assert _orbit(guess, *args) is None


def test_certified_once_the_residual_stops_shrinking():
    # Within _NEWTON_TOL and above _ROUNDING_TOL, a residual is Newton's
    # rounding floor when it is no smaller than the previous evaluation's.
    assert _kernels._certified(1e-13, 1e-13)
    assert not _kernels._certified(1e-13, 2e-13)


@pytest.mark.parametrize("n, alpha, newton", [
    (255, 0.6, False), (256, 0.6, True), (1000, 0.2, False),
    (1000, 0.25, True)], ids=["255-steps", "256-steps", "alpha-0.2",
                              "alpha-0.25"])
def test_gates_at_their_shipped_values(monkeypatch, n, alpha, newton):
    # A prefix of the bench_kernels input at the paper-5 gains but alpha:
    # a lane shorter than _MIN_NEWTON_STEPS = 256, or at alpha below
    # _MIN_NEWTON_ALPHA = 0.25, runs _hybrid_loop once over the whole lane
    # and takes no map pass; at the gates Newton's first pass spans the
    # lane, before any loop call.
    x1_0, x2_0, v, vm, *gains, limit = _bench_kernels_input()
    gains[5] = alpha
    f_pass, passes = _kernels._rk4_f, []

    def counting_f(y1, *a):
        passes.append((len(y1), len(calls)))
        return f_pass(y1, *a)

    monkeypatch.setattr(_kernels, "_rk4_f", counting_f)
    calls = _count_loop_calls(monkeypatch)
    _kernels.integrate_hybrid(x1_0, x2_0, v[:n + 1], vm[:n], *gains, limit)
    if newton:
        assert passes[0] == (n, 0)
    else:
        assert calls == [n] and passes == []


def test_slope_floor_sets_the_passes_near_rest(monkeypatch):
    # A 400-step lane at the paper-5 gains and dt = 0.25 ms that decays
    # from x1 = 1e-9 under zero input, where |e| and |eps*x2| fall through
    # the floors: Newton's slopes there are capped at |y| = _SLOPE_FLOOR =
    # 1e-12, and it certifies the lane in 8 map passes with no loop call.
    # A floor of 1e-9 gives up after 21 passes (the loop runs the lane),
    # and one of 1e-15 takes 10.
    f_pass, passes = _kernels._rk4_f, []

    def counting_f(y1, *a):
        passes.append(len(y1))
        return f_pass(y1, *a)

    monkeypatch.setattr(_kernels, "_rk4_f", counting_f)
    calls = _count_loop_calls(monkeypatch)
    n = 400
    *_, bad = _kernels.integrate_hybrid(
        1e-9, 0.0, np.zeros(n + 1), np.zeros(n), *astuple(P_HYBRID), 2.5e-4,
        1e9)
    assert bad == -1 and calls == [] and len(passes) == 8


def test_limit_crossed_in_a_later_window(monkeypatch):
    # x1 tracks a ramp past limit = 10 near step 2600, after the first
    # 2048-step window: Newton retires that window, and when a certified
    # step lies past limit the loop runs the rest of the lane from a
    # frontier before the crossing and reports it as a step of the lane.
    dt, n = 1e-3, 5000
    t = np.arange(n + 1) * dt
    v, vm = 4.0 * t, 4.0 * (t[:-1] + dt / 2)
    args = (0.0, 0.0, v, vm, 1 / 45, 0.05, 0.015, 0.3, 0.015, 0.6, dt, 10.0)
    *want, want_bad = _LOOP(*args)
    starts = []

    def counting(*a):
        starts.append((a[2][0], len(a[3])))
        return _LOOP(*a)

    monkeypatch.setattr(_kernels, "_hybrid_loop", counting)
    monkeypatch.setattr(_kernels, "_WINDOW_STEPS", 2048)
    *got, bad = _kernels._newton_hybrid(*args)
    _assert_agree(got, bad, want, want_bad)
    [(v_start, steps)] = starts
    start = int(np.flatnonzero(v == v_start)[0])  # the ramp is increasing
    assert steps == n - start and 2048 <= start < want_bad


@pytest.mark.parametrize("gains", [(0.0, 0.099, 0.0, 0.268, 0.5),
                                   (0.05, 0.015, 0.3, 0.015, 0.6)],
                         ids=["nonlinear", "hybrid"])
def test_rk4_map_jacobian_matches_central_differences(gains):
    # Newton converges quadratically only with the exact Jacobian; away
    # from e = 0 and eps*x2 = 0, _rk4_jac on the stage values of _rk4_f
    # matches central differences of the map F that _rk4_f evaluates.
    rng = np.random.default_rng(3)
    n, dt, eps = 64, 1e-3, 1 / 45
    y = rng.uniform(0.5, 2.0, (2, n)) * rng.choice([-1.0, 1.0], (2, n))
    v, vm = rng.uniform(-0.2, 0.2, n + 1), rng.uniform(-0.2, 0.2, n)
    _, stages = _kernels._rk4_f(y[0], y[1], v, vm, eps, *gains, dt)
    jac = _kernels._rk4_jac(stages, eps, *gains, dt)
    for col in range(2):
        h = 1e-6 * np.abs(y[col])
        up, down = y.copy(), y.copy()
        up[col] += h
        down[col] -= h
        fu = _kernels._rk4_f(up[0], up[1], v, vm, eps, *gains, dt)[0]
        fd = _kernels._rk4_f(down[0], down[1], v, vm, eps, *gains, dt)[0]
        for row in range(2):
            fd_slope = (fu[row] - fd[row]) / (2.0 * h)
            np.testing.assert_allclose(jac[2 * row + col], fd_slope,
                                       rtol=1e-6, atol=1e-6)


def test_python_fallback_matches_active_backend():
    v, vm = _inputs()
    args = (0.1, -0.2, v, vm, 1 / 45, 0.05, 0.015, 0.3, 0.015, 0.6, 1e-3, 1e9)
    y1, y2, want = _LOOP(*args)
    x1, x2, bad = _kernels.integrate_hybrid(*args)
    assert bad == want == -1
    np.testing.assert_allclose(y1, x1, rtol=0, atol=1e-12)
    np.testing.assert_allclose(y2, x2, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_rhs", [1, 3])
@pytest.mark.parametrize("per_step", [False, True],
                         ids=["one-block", "per-step"])
@pytest.mark.parametrize("ns", [1, 2])
def test_solve_recurrence_matches_a_loop(ns, per_step, n_rhs):
    # one band serves a run of 300 steps and then one of a single step,
    # which uses no block; the right-hand sides are left as they were
    rng = np.random.default_rng([ns, per_step, n_rhs])
    band = np.zeros((2 * ns, ns * 300), order="F")
    for m in (300, 1):
        B = rng.uniform(-1.0, 1.0, (ns, ns) + ((m - 1,) if per_step else ()))
        B /= ns  # each |B_i| at most 1 in the row-sum norm
        rhs = [rng.uniform(-10.0, 10.0, (ns, m)) for _ in range(n_rhs)]
        kept = [r.copy() for r in rhs]
        got = _kernels._solve_recurrence(band, B, *rhs)
        assert len(got) == n_rhs
        for g, r, r0 in zip(got, rhs, kept):
            want, d = np.empty((ns, m)), np.zeros(ns)
            for i in range(m):  # d[i+1] = B_i d[i] + r_i, B_0 unused
                if i:
                    d = (B[..., i - 1] if per_step else B) @ d
                want[:, i] = d = d + r[:, i]
            assert g.shape == (ns, m) and np.array_equal(r, r0)
            assert np.all(np.abs(g - want) <= 1e-13 * np.abs(want).max())


@pytest.mark.parametrize("layout", ["contiguous", "sliced"])
@pytest.mark.parametrize("ns", [1, 2])
def test_solve_recurrence_leaves_its_right_hand_sides(ns, layout):
    # dtbsv solves in place, so each r is copied first: periodic_orbit's
    # unit starts are views of a buffer whose other columns must stay zero
    rng = np.random.default_rng(ns)
    m = 40
    buf = np.zeros((3, ns, m + 5))
    buf[:, :, :m] = rng.uniform(-1.0, 1.0, (3, ns, m))
    rhs = list(buf[:, :, :m])
    if layout == "contiguous":
        rhs = [np.array(r) for r in rhs]
    kept, buf_kept = [r.copy() for r in rhs], buf.copy()
    band = np.zeros((2 * ns, ns * m), order="F")
    got = _kernels._solve_recurrence(band, rng.uniform(-0.5, 0.5, (ns, ns)),
                                     *rhs)
    assert all(np.array_equal(r, r0) for r, r0 in zip(rhs, kept))
    assert np.array_equal(buf, buf_kept)
    assert not any(np.shares_memory(g, r) for g in got for r in rhs)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(k=st.integers(0, 3), n=st.integers(1, 300),
       seed=st.integers(0, 2 ** 32 - 1))
def test_loaded_dtbsv_matches_scipys(k, n, seed):
    # the routine bound from numpy's OpenBLAS gives the bits of the one
    # scipy.linalg.blas exports on unit lower banded systems, in place; each
    # row's k entries left of the diagonal sum to under 1 in magnitude, so
    # the solution stays bounded, and the diagonal row, which neither
    # routine may read, is nan
    rng = np.random.default_rng(seed)
    a = np.asfortranarray(rng.uniform(-1.0, 1.0, (k + 1, n)) / (k + 1))
    a[0] = np.nan
    x = rng.uniform(-10.0, 10.0, n)
    want = blas.dtbsv(k, a, x, lower=1, diag=1)
    assert _kernels.dtbsv(k, a, x) is x
    assert np.array_equal(x, want)


def _no_library(monkeypatch, tmp_path):
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "init.py"))


def _no_symbol(monkeypatch, tmp_path):
    # numpy's library opens as one that exports no CBLAS dtbsv
    cdll = ctypes.CDLL
    monkeypatch.setattr(ctypes, "CDLL", lambda path: cdll(_ctypes.__file__))


def _no_load(monkeypatch, tmp_path):
    def fail(path):
        raise OSError(f"{path}: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", fail)


def test_failed_direct_load_takes_the_public_import(tmp_path):
    # [[1, 0], [1, 1]] x = [2, 5] in unit lower band storage
    band = np.array([[np.nan, np.nan], [1.0, 0.0]], order="F")
    for fault in (_no_library, _no_symbol, _no_load):
        with pytest.MonkeyPatch.context() as monkeypatch:
            fault(monkeypatch, tmp_path)
            scipys = mock.Mock(wraps=blas.dtbsv)
            monkeypatch.setattr(blas, "dtbsv", scipys)
            dtbsv = _kernels._load_dtbsv()
        x = np.array([2.0, 5.0])
        assert dtbsv(1, band, x) is x, fault.__name__
        assert np.array_equal(x, [2.0, 3.0])
        scipys.assert_called_once_with(1, band, x, lower=1, diag=1,
                                       overwrite_x=1)


def test_dtbsv_checks_its_arrays_before_the_foreign_call():
    # the routine would read a short x or band past its end, write through
    # a read-only x and take a list, a float32 or a strided x as float64
    # values in a row, and ctypes takes only writable buffers, so the
    # wrapper refuses all of these before any call
    routine = mock.Mock()
    dtbsv = _kernels._cblas_dtbsv(routine)
    band = np.array([[2.0, 4.0], [1.0, 0.0]], order="F")
    frozen, frozen_band = np.array([2.0, 5.0]), band.copy(order="F")
    frozen.flags.writeable = frozen_band.flags.writeable = False
    for k, a, x in [(1, band.astype(np.float32), np.array([2.0, 5.0])),
                    (1, np.ascontiguousarray(band), np.array([2.0, 5.0])),
                    (2, band, np.array([2.0, 5.0])),
                    (1, frozen_band, np.array([2.0, 5.0])),
                    (1, band, np.array([2.0])),
                    (1, band, np.array([2.0, 5.0, 6.0])),
                    (1, band, frozen), (1, band, [2.0, 5.0]),
                    (1, band, np.array([2.0, 5.0], dtype=np.float32)),
                    (1, band, np.array([2.0, 0.0, 5.0, 0.0])[::2])]:
        with pytest.raises(ValueError):
            dtbsv(k, a, x)
    routine.assert_not_called()
    # the call itself: column-major, lower, no transpose, unit diagonal,
    # n, k, the band's address and rows, x's and stride 1
    x = np.array([2.0, 5.0])
    assert dtbsv(1, band, x) is x
    routine.assert_called_once_with(
        102, 122, 111, 132, 2, 1, band.ctypes.data, 2, x.ctypes.data, 1)


def test_scipy_linalg_imports_after_tdlab():
    # tdlab binds dtbsv from numpy's OpenBLAS (scipy's only where numpy
    # ships none); scipy.linalg imported after it still builds, and it and
    # tdlab still solve the same unit lower band correctly
    code = """if True:
        import numpy as np
        import tdlab
        import scipy.linalg
        from scipy.linalg.blas import dtbsv
        from tdlab import _kernels
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert np.allclose(scipy.linalg.solve(a, [3.0, 5.0]), [0.8, 1.4])
        band = np.array([[2.0, 4.0], [1.0, 0.0]], order="F")
        for x in (dtbsv(1, band, [2.0, 5.0], lower=1, diag=1),
                  _kernels.dtbsv(1, band, np.array([2.0, 5.0]))):
            assert np.array_equal(x, [2.0, 3.0])
        print("ok")
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(tdlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["ok"]


def _recurrence_orbit(A, omega, n, eps, a0, a1, b0, b1, alpha):
    """The closed orbit of the linearization by recurrence: _linear_rk4 from
    rest with the input and from the two unit starts without it, closed by
    _close.  Also returns the spectral radius of the step's Phi."""
    p = DiffParams(eps, a0, a1, b0, b1, alpha)
    natural_frequency(p, A)  # raises DegenerateError as linear_orbit does
    lin = _kernels._linear_differentiator(eps, *_equivalent_gains(p, A))
    dt = 2 * np.pi / omega / n
    v, vm = _inputs(n, dt, A, omega)
    z = np.zeros(n + 1)
    rho = max(abs(np.linalg.eigvals(_kernels._rk4_coefficients(*lin, dt)[0])))
    with np.errstate(all="ignore"):
        return _kernels._close(*(
            np.array(_kernels._linear_rk4(*lin, x0, u, um, dt, np.inf)[:2])
            for x0, u, um in (((0.0, 0.0), v, vm), ((1.0, 0.0), z, z[1:]),
                              ((0.0, 1.0), z, z[1:]))), 1)[0], rho


@pytest.mark.parametrize("sign", [1, -1])
def test_close_ends_at_sign_times_its_start(sign):
    # on d[i+1] = B d[i] + r_i with one 2x2 B, the trajectory that _close
    # builds is the recurrence from a start c, and it ends at sign*c: sign
    # -1 is the half period of a half-wave symmetric orbit
    B, m = np.array([[0.9, 0.2], [-0.3, 0.8]]), 40
    r = np.random.default_rng(0).standard_normal((2, m))

    def run(start, rhs):
        d = [np.asarray(start, dtype=float)]
        for i in range(m):
            d.append(B @ d[-1] + rhs[:, i])
        return np.array(d[1:]).T

    z = np.zeros((2, m))
    d, M = _kernels._close(run((0, 0), r), run((1, 0), z), run((0, 1), z),
                           sign)
    assert np.allclose(M, np.linalg.matrix_power(B, m), rtol=1e-13,
                       atol=1e-15)
    c = sign * d[:, -1]
    assert np.allclose(d, run(c, r), rtol=1e-12, atol=1e-12)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["linear", "hybrid", "nonlinear"]),
       eps=st.floats(0.005, 0.2), gains=st.lists(st.floats(1e-3, 2.0),
                                                 min_size=4, max_size=4),
       alpha=st.floats(0.05, 1.0), A=st.floats(0.1, 10.0),
       omega=st.floats(1.0, 100.0), n=st.integers(16, 4096))
def test_linear_orbit_is_the_closed_recurrence(kind, eps, gains, alpha, A,
                                               omega, n):
    # the closed form solves the periodic system that the three recurrence
    # runs solve, to rounding of each state's amplitude |x| (near a
    # resonance both constructions leave that rounding on the samples near
    # zero); a linearization without a natural frequency is rejected by
    # both.  A step that grows its modes (rho >= 1) is left out: there the
    # runs amplify their own rounding by rho^n.
    a0, a1, b0, b1 = gains
    if kind == "linear":
        a1 = b1 = 0.0
    elif kind == "nonlinear":
        a0 = b0 = 0.0
    args = (eps, a0, a1, b0, b1, alpha)
    try:
        want, rho = _recurrence_orbit(A, omega, n, *args)
    except ValueError:  # DegenerateError included
        with pytest.raises(ValueError):
            _kernels.linear_orbit(A, omega, n, 2 * np.pi / omega / n, *args)
        return
    assume(rho < 1.0)
    got = _kernels.linear_orbit(A, omega, n, 2 * np.pi / omega / n, *args)
    assert got.shape == (2, n + 1)
    scale = np.maximum(1.0, np.abs(want).max(axis=1, keepdims=True))
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


def _orbit_case(gains, omega=2.0, n=3142):
    """integrate_hybrid's arguments over one input period of n steps, and
    the certified periodic_orbit of the differentiator with these gains."""
    dt = 2 * np.pi / omega / n
    v, vm = _inputs(n, dt, 1.0, omega)
    args = (v, vm, 1 / 45, *gains, dt)
    orbit = _orbit(_kernels.linear_orbit(1.0, omega, n, dt, *args[2:-1]),
                   *args)
    assert orbit is not None
    return (orbit[0, 0], orbit[1, 0], *args, 1e9), orbit


_ORBIT_GAINS = pytest.mark.parametrize(
    "gains", [(0.0, 0.015, 0.0, 0.015, 0.6), (0.05, 0.015, 0.3, 0.015, 0.6)],
    ids=["nonlinear", "hybrid"])


@_ORBIT_GAINS
def test_pass_from_a_certified_orbit_recertifies_it(monkeypatch, gains):
    # started from its orbit, the Newton path only re-certifies it: one or
    # two map passes, no loop step, and the loop's trajectory
    args, orbit = _orbit_case(gains)
    *want, want_bad = _LOOP(*args)
    passes, f_pass = [], _kernels._rk4_f
    monkeypatch.setattr(_kernels, "_rk4_f",
                        lambda *a: passes.append(len(a[3])) or f_pass(*a))
    calls = _count_loop_calls(monkeypatch)
    *got, bad = _kernels.integrate_hybrid(*args, orbit)
    assert 1 <= len(passes) <= 2 and calls == []
    _assert_agree(got, bad, want, want_bad)


@_ORBIT_GAINS
def test_guess_off_the_orbit_gives_the_same_trajectory(gains):
    # the certificate decides what is returned, not the guess: from the
    # orbit shifted by 1e-3 Newton reaches the same trajectory
    args, orbit = _orbit_case(gains)
    *want, want_bad = _kernels.integrate_hybrid(*args, orbit)
    *got, bad = _kernels.integrate_hybrid(*args, orbit + 1e-3)
    _assert_agree(got, bad, want, want_bad)


@pytest.mark.parametrize("omega, A", [(1.0, 1.0), (5.0, 1.0), (2.0, 5.0)])
def test_orbit_newton_from_a_near_orbit_converges_fast(monkeypatch, omega, A):
    # from its certified orbit shifted by 1e-6 sin(i), periodic_orbit finds
    # it again in a few map passes: each correction is taken through the
    # Jacobian of its own step (a neighbouring step's Jacobian took 9 to 11)
    gains = (0.01, 0.1, 0.015, 0.3, 0.015, 0.6)  # paper-4-hybrid
    n = 256
    dt = 2 * np.pi / omega / n
    v, vm = _inputs(n, dt, A, omega)
    orbit = _orbit(_kernels.linear_orbit(A, omega, n, dt, *gains), v, vm,
                   *gains, dt)
    assert orbit is not None
    passes, f_pass = [], _kernels._rk4_f
    monkeypatch.setattr(_kernels, "_rk4_f",
                        lambda *a: passes.append(len(a[3])) or f_pass(*a))
    got = _orbit(orbit + 1e-6 * np.sin(np.arange(n + 1)), v, vm, *gains, dt)
    assert got is not None and len(passes) <= 5
    assert np.all(np.abs(got - orbit) <= 1e-12)


_BATCH_GAINS = (1 / 45, 0.0, 0.015, 0.0, 0.015, 0.6)  # paper-4-nonlinear


def _batch(omegas=(19.0, 31.0, 47.0), A=1.0):
    """One periodic_orbit point per omega, of the steps of dt <= 1e-3 that
    fill its period (a dt of its own), from linear_orbit's guess."""
    points = []
    for omega in omegas:
        n = int(np.ceil(2 * np.pi / omega / 1e-3))
        dt = 2 * np.pi / omega / n
        points.append((_kernels.linear_orbit(A, omega, n, dt, *_BATCH_GAINS),
                       *_inputs(n, dt, A, omega), dt))
    return points


def _alone(point):
    [x] = _kernels.periodic_orbit([point], 1, *_BATCH_GAINS)
    assert x is not None
    return x


def test_batch_finds_each_orbit_as_alone():
    # the steps of consecutive points solve together, each bit for bit
    points = _batch()
    got = _kernels.periodic_orbit(points, 1, *_BATCH_GAINS)
    assert all(x is not None for x in got)
    assert all(np.array_equal(x, _alone(q)) for q, x in zip(points, got))


@pytest.mark.parametrize("poison", [np.nan, np.inf])
def test_point_with_a_poisoned_guess_fails_alone(poison):
    # the band couples no point to the one before, but 0 * inf = nan: the
    # point must fail without reaching its neighbours
    points = _batch()
    guess = points[1][0].copy()
    guess[:, 5] = poison
    points[1] = (guess, *points[1][1:])
    got = _kernels.periodic_orbit(points, 1, *_BATCH_GAINS)
    assert got[1] is None
    assert all(np.array_equal(got[k], _alone(points[k])) for k in (0, 2))


def test_point_whose_solve_overflows_fails_alone(monkeypatch):
    # finite residuals, but Jacobians 1e200 times too large on the steps of
    # the middle point: its solve overflows, and it fails alone
    points, jac = _batch(), _kernels._rk4_jac
    dt = points[1][3]
    monkeypatch.setattr(_kernels, "_rk4_jac", lambda stages, *a: tuple(
        np.where(a[-1] == dt, 1e200 * j, j) for j in jac(stages, *a)))
    got = _kernels.periodic_orbit(points, 1, *_BATCH_GAINS)
    assert got[1] is None
    assert all(np.array_equal(got[k], _alone(points[k])) for k in (0, 2))


def test_stalled_point_retires_after_the_stall_iterations(monkeypatch):
    # a jitter of 10*max(1, |F|) on each map pass of the middle point keeps
    # its residual above its state scale: it gives up after _STALL_ITERS
    # iterations, while its neighbours certify as they do alone
    points, f_pass = _batch(), _kernels._rk4_f
    rng, dt, passes = np.random.default_rng(0), points[1][3], []

    def jittered(*a):
        f, stages = f_pass(*a)
        mine = a[-1] == dt
        passes.append(bool(mine.any()))
        return tuple(np.where(mine, x + 10.0 * np.maximum(1.0, np.abs(x))
                              * rng.choice((-1.0, 1.0), x.shape), x)
                     for x in f), stages

    monkeypatch.setattr(_kernels, "_rk4_f", jittered)
    got = _kernels.periodic_orbit(points, 1, *_BATCH_GAINS)
    assert got[1] is None and sum(passes) == _kernels._STALL_ITERS + 1
    assert all(np.array_equal(got[k], _alone(points[k])) for k in (0, 2))


@pytest.mark.parametrize("M,attracts", [
    ([[1.0, 0.0], [0.0, 0.5]], False),  # eigenvalue 1
    ([[0.6, -0.8], [0.8, 0.6]], False),  # a rotation, |eig| = 1
    ([[1.0 - 1e-9, 0.0], [0.0, 0.5]], True),
], ids=["eigenvalue-one", "rotation", "just-inside"])
def test_attracts_only_inside_the_unit_circle(M, attracts):
    # Jury's test is strict: an eigenvalue on the unit circle does not attract
    assert _kernels._attracts(np.array(M)) == attracts


@pytest.mark.parametrize("shape", [(2, 400), (3, 401), (401,), (2, 401, 1)])
@pytest.mark.parametrize("gains", [(0.05, 0.0, 0.3, 0.0, 1.0),
                                   (0.05, 0.015, 0.3, 0.015, 0.6)],
                         ids=["linear", "hybrid"])
def test_guess_of_another_shape_is_rejected(shape, gains):
    v, vm = _inputs()
    with pytest.raises(ValueError, match="shape"):
        _kernels.integrate_hybrid(0.0, 0.0, v, vm, 1 / 45, *gains, 1e-3, 1e9,
                                  np.zeros(shape))
