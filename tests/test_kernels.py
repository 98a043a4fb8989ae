"""Kernel checks: the generic RK4 step as oracle, the linear propagator
against the nonlinear loop, and the loop's Python form against its backend."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdlab import _kernels
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
    assert _kernels.backend() in ("numba", "python")


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


_LOOP = getattr(_kernels._hybrid_loop, "py_func", _kernels._hybrid_loop)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(eps=st.floats(1e-3, 1.0), a0=st.floats(1e-3, 10.0),
       b0=st.floats(1e-3, 10.0), dt=st.floats(1e-5, 1e-2),
       n=st.integers(1, 3000), seed=st.integers(0, 2 ** 32 - 1),
       chunk=st.one_of(st.just(_kernels.CHUNK_STEPS), st.integers(1, 3000)))
def test_linear_propagator_matches_loop(eps, a0, b0, dt, n, seed, chunk):
    # The nonlinear loop with a1 = b1 = 0 runs the same RK4 stage by stage,
    # so it is the oracle of the propagator, divergent cases included.  A
    # drawn chunk size puts chunk boundaries inside the run.
    rng = np.random.default_rng(seed)
    v = rng.uniform(-10.0, 10.0, n + 1)
    vm = rng.uniform(-10.0, 10.0, n)
    x0 = rng.uniform(-10.0, 10.0, 2)
    args = (x0[0], x0[1], v, vm, eps, a0, 0.0, b0, 0.0, 1.0, dt, 1e9)
    with mock.patch.object(_kernels, "CHUNK_STEPS", chunk):
        *got, bad = _kernels.integrate_hybrid(*args)
    *want, want_bad = _LOOP(*args)
    assert bad == want_bad
    end = n + 1 if bad < 0 else bad + 1
    for g, w in zip(got, want):
        w = w[:end]
        assert np.all(np.abs(g[:end] - w) <= 1e-10 * np.maximum(1.0, np.abs(w)))


def test_python_fallback_matches_active_backend():
    v, vm = _inputs()
    args = (0.1, -0.2, v, vm, 1 / 45, 0.05, 0.015, 0.3, 0.015, 0.6, 1e-3, 1e9)
    y1, y2, want = _LOOP(*args)
    x1, x2, bad = _kernels.integrate_hybrid(*args)
    assert bad == want == -1
    np.testing.assert_allclose(y1, x1, rtol=0, atol=1e-12)
    np.testing.assert_allclose(y2, x2, rtol=0, atol=1e-12)
