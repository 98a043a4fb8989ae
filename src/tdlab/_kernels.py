"""Fixed-step integration kernels.

The time-stepping loops below dominate the runtime of every experiment, so
they are compiled with numba when available.  Setting the environment
variable ``TDLAB_DISABLE_NUMBA=1`` (or any of ``true``/``yes``) before import
selects the pure-Python/numpy fallback, which runs the identical arithmetic
without JIT compilation; it is also what runs when numba is not installed.
``benchmarks/bench_kernels.py`` compares the two.

All kernels advance their states with the classical 4-stage Runge-Kutta
method.  Exogenous inputs are passed as precomputed arrays sampled on the
step grid (``n + 1`` values) and at the step midpoints (``n`` values); the
three stage times of a step therefore use ``grid[i]``, ``mid[i]``,
``grid[i + 1]``.  Each kernel returns the state trajectories plus the index
of the first step at which a state left ``[-limit, limit]`` (``-1`` when the
integration stayed bounded; the returned arrays are only valid up to that
index).
"""

import os

import numpy as np


def _numba_requested() -> bool:
    flag = os.environ.get("TDLAB_DISABLE_NUMBA", "").strip().lower()
    return flag not in ("1", "true", "yes")


if _numba_requested():
    try:
        from numba import njit

        NUMBA_ENABLED = True
    except ImportError:  # numba is optional (the "numba" extra)
        NUMBA_ENABLED = False
else:
    NUMBA_ENABLED = False

if not NUMBA_ENABLED:

    def njit(*args, **kwargs):
        """No-op replacement for numba.njit (fallback backend)."""
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


def backend() -> str:
    """Name of the active integration backend: 'numba' or 'python'."""
    return "numba" if NUMBA_ENABLED else "python"


@njit(cache=True)
def _sig(y, alpha):
    # |y|^alpha * sgn(y); sgn(0) = 0
    s = 1.0 if y > 0.0 else (-1.0 if y < 0.0 else 0.0)
    return s * abs(y) ** alpha


@njit(cache=True)
def integrate_hybrid(x1_0, x2_0, v_grid, v_mid, eps, a0, a1, b0, b1, alpha,
                     dt, limit):
    """Integrate the differentiator state (x1, x2) over a sampled input.

    Dynamics: x1' = x2,
              eps^2 * x2' = -a0*e - a1*sig(e)^alpha - b0*eps*x2
                            - b1*sig(eps*x2)^alpha,   e = x1 - v(t).
    """
    n = v_mid.shape[0]
    x1 = np.empty(n + 1)
    x2 = np.empty(n + 1)
    x1[0] = x1_0
    x2[0] = x2_0
    inv_e2 = 1.0 / (eps * eps)
    y1 = x1_0
    y2 = x2_0
    for i in range(n):
        va = v_grid[i]
        vm = v_mid[i]
        vb = v_grid[i + 1]

        e = y1 - va
        ev = eps * y2
        k1_1 = y2
        k1_2 = -(a0 * e + a1 * _sig(e, alpha)
                 + b0 * ev + b1 * _sig(ev, alpha)) * inv_e2

        z1 = y1 + 0.5 * dt * k1_1
        z2 = y2 + 0.5 * dt * k1_2
        e = z1 - vm
        ev = eps * z2
        k2_1 = z2
        k2_2 = -(a0 * e + a1 * _sig(e, alpha)
                 + b0 * ev + b1 * _sig(ev, alpha)) * inv_e2

        z1 = y1 + 0.5 * dt * k2_1
        z2 = y2 + 0.5 * dt * k2_2
        e = z1 - vm
        ev = eps * z2
        k3_1 = z2
        k3_2 = -(a0 * e + a1 * _sig(e, alpha)
                 + b0 * ev + b1 * _sig(ev, alpha)) * inv_e2

        z1 = y1 + dt * k3_1
        z2 = y2 + dt * k3_2
        e = z1 - vb
        ev = eps * z2
        k4_1 = z2
        k4_2 = -(a0 * e + a1 * _sig(e, alpha)
                 + b0 * ev + b1 * _sig(ev, alpha)) * inv_e2

        y1 = y1 + dt / 6.0 * (k1_1 + 2.0 * k2_1 + 2.0 * k3_1 + k4_1)
        y2 = y2 + dt / 6.0 * (k1_2 + 2.0 * k2_2 + 2.0 * k3_2 + k4_2)
        x1[i + 1] = y1
        x2[i + 1] = y2
        if not (abs(y1) <= limit and abs(y2) <= limit):
            return x1, x2, i + 1
    return x1, x2, -1


@njit(cache=True)
def integrate_highgain(w1_0, w2_0, v_grid, v_mid, eps, a0, b0, dt, limit):
    """Integrate the gain-scaled realization of the linear differentiator.

    Dynamics: w1' = w2 - (b0/eps)*(w1 - v),  w2' = -(a0/eps^2)*(w1 - v).
    """
    n = v_mid.shape[0]
    w1 = np.empty(n + 1)
    w2 = np.empty(n + 1)
    w1[0] = w1_0
    w2[0] = w2_0
    c1 = b0 / eps
    c2 = a0 / (eps * eps)
    y1 = w1_0
    y2 = w2_0
    for i in range(n):
        va = v_grid[i]
        vm = v_mid[i]
        vb = v_grid[i + 1]

        k1_1 = y2 - c1 * (y1 - va)
        k1_2 = -c2 * (y1 - va)
        z1 = y1 + 0.5 * dt * k1_1
        z2 = y2 + 0.5 * dt * k1_2
        k2_1 = z2 - c1 * (z1 - vm)
        k2_2 = -c2 * (z1 - vm)
        z1 = y1 + 0.5 * dt * k2_1
        z2 = y2 + 0.5 * dt * k2_2
        k3_1 = z2 - c1 * (z1 - vm)
        k3_2 = -c2 * (z1 - vm)
        z1 = y1 + dt * k3_1
        z2 = y2 + dt * k3_2
        k4_1 = z2 - c1 * (z1 - vb)
        k4_2 = -c2 * (z1 - vb)

        y1 = y1 + dt / 6.0 * (k1_1 + 2.0 * k2_1 + 2.0 * k3_1 + k4_1)
        y2 = y2 + dt / 6.0 * (k1_2 + 2.0 * k2_2 + 2.0 * k3_2 + k4_2)
        w1[i + 1] = y1
        w2[i + 1] = y2
        if not (abs(y1) <= limit and abs(y2) <= limit):
            return w1, w2, i + 1
    return w1, w2, -1


@njit(cache=True)
def integrate_relaxation(x_0, g_grid, g_mid, k, dt, limit):
    """Integrate the scalar relaxation x' = k*(g(t) - x).

    Covers both the classical first-order filter (k = sqrt(a0)/eps, g = v)
    and the scalar plant x' = -x + u + delta (k = 1, g = u + delta).
    """
    n = g_mid.shape[0]
    x = np.empty(n + 1)
    x[0] = x_0
    y = x_0
    for i in range(n):
        k1 = k * (g_grid[i] - y)
        k2 = k * (g_mid[i] - (y + 0.5 * dt * k1))
        k3 = k * (g_mid[i] - (y + 0.5 * dt * k2))
        k4 = k * (g_grid[i + 1] - (y + dt * k3))
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x[i + 1] = y
        if not abs(y) <= limit:
            return x, i + 1
    return x, -1


def warmup() -> None:
    """Trigger JIT compilation of all kernels (no-op on the python backend)."""
    g = np.zeros(3)
    m = np.zeros(2)
    integrate_hybrid(0.0, 0.0, g, m, 0.1, 1.0, 0.1, 1.0, 0.1, 0.5, 1e-3, 1e9)
    integrate_highgain(0.0, 0.0, g, m, 0.1, 1.0, 1.0, 1e-3, 1e9)
    integrate_relaxation(0.0, g, m, 1.0, 1e-3, 1e9)
