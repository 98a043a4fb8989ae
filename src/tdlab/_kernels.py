"""Fixed-step integration kernels.

All kernels advance their states with the classical 4-stage Runge-Kutta
method.  Exogenous inputs are passed as precomputed arrays sampled on the
step grid (``n + 1`` values) and at the step midpoints (``n`` values); the
three stage times of a step therefore use ``grid[i]``, ``mid[i]``,
``grid[i + 1]``.  Each kernel returns the state trajectories plus the index
of the first step at which a state left ``[-limit, limit]`` (``-1`` when the
integration stayed bounded; the returned arrays are only valid up to that
index).

Linear systems (the linear differentiator, its gain-scaled realization and
the scalar relaxation) take ``_linear_rk4``: RK4 applied to
``x' = A x + b v`` is exactly the recurrence ``x[i+1] = Phi x[i] + u[i]``
(Hairer, Norsett & Wanner, *Solving ODEs I*, II.1), solved as a banded
triangular system by BLAS on every backend.  Only the nonlinear
differentiator steps through ``_hybrid_loop``, which is compiled with numba
when numba imports and otherwise runs as plain Python.  Its acceleration
x2' is written once, in ``_accel``; the x1 rate of each stage is the x2 of
that stage's state.
"""

import numpy as np
from scipy.linalg.blas import dtbsv

try:
    from numba import njit

    NUMBA_ENABLED = True
except ImportError:  # numba is optional (the "numba" extra)
    NUMBA_ENABLED = False

    def njit(**kwargs):
        """No-op replacement for numba.njit (python backend)."""
        return lambda func: func


#: Steps per banded solve in _linear_rk4; bounds its temporaries.
CHUNK_STEPS = 1024


def backend() -> str:
    """Name of the backend of the nonlinear loop: 'numba' or 'python'."""
    return "numba" if NUMBA_ENABLED else "python"


def _linear_rk4(A, b, x0, v_grid, v_mid, dt, limit):
    """RK4 for x' = A x + b v(t) as the exact recurrence x[i+1] = Phi x[i] + u[i].

    With M = dt*A and beta = dt*b, Phi = I + M + M^2/2 + M^3/6 + M^4/24 and
    u[i] = g_a v_grid[i] + g_m v_mid[i] + g_b v_grid[i+1].  Stacking the
    states of consecutive steps turns the recurrence into a unit lower
    triangular system of bandwidth 2*n_states - 1, solved chunk by chunk.
    Returns one trajectory per state and the first divergent step (or -1).
    """
    ns = len(x0)
    n = v_mid.shape[0]
    M = dt * np.asarray(A, dtype=float)
    beta = dt * np.asarray(b, dtype=float)
    M2 = M @ M
    phi = np.eye(ns) + M + M2 / 2.0 + M2 @ M / 6.0 + M2 @ M2 / 24.0
    Mb = M @ beta
    M2b, M3b = M2 @ beta, M2 @ Mb
    g_a = (beta + Mb + M2b / 2.0 + M3b / 4.0) / 6.0
    g_m = (4.0 * beta + 2.0 * Mb + M2b / 2.0) / 6.0
    g_b = beta / 6.0

    # Lower band storage: band[d, j] = L[j + d, j].  Unknown j = i*ns + c
    # enters row (i+1)*ns + r with coefficient -Phi[r, c], d = ns + r - c.
    k = 2 * ns - 1
    band = np.zeros((k + 1, ns * min(n, CHUNK_STEPS)), order="F")
    for r in range(ns):
        for c in range(ns):
            band[ns + r - c, c::ns] = -phi[r, c]

    x = np.empty((ns, n + 1))
    x[:, 0] = x0
    for i0 in range(0, n, CHUNK_STEPS):
        i1 = min(i0 + CHUNK_STEPS, n)
        rhs = (np.outer(v_grid[i0:i1], g_a) + np.outer(v_mid[i0:i1], g_m)
               + np.outer(v_grid[i0 + 1:i1 + 1], g_b))
        rhs[0] += phi @ x[:, i0]
        sol = dtbsv(k, band[:, :rhs.size], rhs.ravel(), lower=1, diag=1,
                    overwrite_x=1).reshape(-1, ns)
        x[:, i0 + 1:i1 + 1] = sol.T
        out = ~(np.abs(sol) <= limit).all(axis=1)
        if out.any():
            return tuple(x) + (i0 + 1 + int(out.argmax()),)
    return tuple(x) + (-1,)


def integrate_hybrid(x1_0, x2_0, v_grid, v_mid, eps, a0, a1, b0, b1, alpha,
                     dt, limit):
    """Integrate the differentiator state (x1, x2) over a sampled input.

    Dynamics: x1' = x2,
              eps^2 * x2' = -a0*e - a1*sig(e)^alpha - b0*eps*x2
                            - b1*sig(eps*x2)^alpha,   e = x1 - v(t).
    """
    if a1 == 0.0 and b1 == 0.0:
        c = 1.0 / (eps * eps)
        return _linear_rk4([[0.0, 1.0], [-a0 * c, -b0 * eps * c]],
                           [0.0, a0 * c], (x1_0, x2_0), v_grid, v_mid, dt,
                           limit)
    return _hybrid_loop(x1_0, x2_0, v_grid, v_mid, eps, a0, a1, b0, b1, alpha,
                        dt, limit)


@njit(cache=True)
def _accel(x1, x2, v, eps, a0, a1, b0, b1, alpha, inv_e2):
    """x2' of integrate_hybrid at state (x1, x2) and input value v."""
    e = x1 - v
    ev = eps * x2
    se = (1.0 if e > 0.0 else (-1.0 if e < 0.0 else 0.0)) * abs(e) ** alpha
    sv = (1.0 if ev > 0.0 else (-1.0 if ev < 0.0 else 0.0)) * abs(ev) ** alpha
    return -(a0 * e + a1 * se + b0 * ev + b1 * sv) * inv_e2


@njit(cache=True)
def _hybrid_loop(x1_0, x2_0, v_grid, v_mid, eps, a0, a1, b0, b1, alpha, dt,
                 limit):
    """Per-step RK4 of integrate_hybrid, for nonzero a1 or b1."""
    n = v_mid.shape[0]
    x1 = np.empty(n + 1)
    x2 = np.empty(n + 1)
    x1[0] = x1_0
    x2[0] = x2_0
    inv_e2 = 1.0 / (eps * eps)
    h = 0.5 * dt
    y1 = x1_0
    y2 = x2_0
    for i in range(n):
        vm = v_mid[i]
        k1 = _accel(y1, y2, v_grid[i], eps, a0, a1, b0, b1, alpha, inv_e2)
        p2 = y2 + h * k1
        k2 = _accel(y1 + h * y2, p2, vm, eps, a0, a1, b0, b1, alpha, inv_e2)
        p3 = y2 + h * k2
        k3 = _accel(y1 + h * p2, p3, vm, eps, a0, a1, b0, b1, alpha, inv_e2)
        p4 = y2 + dt * k3
        k4 = _accel(y1 + dt * p3, p4, v_grid[i + 1], eps, a0, a1, b0, b1,
                    alpha, inv_e2)
        y1 = y1 + dt / 6.0 * (y2 + 2.0 * p2 + 2.0 * p3 + p4)
        y2 = y2 + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x1[i + 1] = y1
        x2[i + 1] = y2
        if not (abs(y1) <= limit and abs(y2) <= limit):
            return x1, x2, i + 1
    return x1, x2, -1


def integrate_highgain(w1_0, w2_0, v_grid, v_mid, eps, a0, b0, dt, limit):
    """Integrate the gain-scaled realization of the linear differentiator.

    Dynamics: w1' = w2 - (b0/eps)*(w1 - v),  w2' = -(a0/eps^2)*(w1 - v).
    """
    c1 = b0 / eps
    c2 = a0 / (eps * eps)
    return _linear_rk4([[-c1, 1.0], [-c2, 0.0]], [c1, c2], (w1_0, w2_0),
                       v_grid, v_mid, dt, limit)


def integrate_relaxation(x_0, g_grid, g_mid, k, dt, limit):
    """Integrate the scalar relaxation x' = k*(g(t) - x).

    Covers both the classical first-order filter (k = sqrt(a0)/eps, g = v)
    and the scalar plant x' = -x + u + delta (k = 1, g = u + delta).
    """
    return _linear_rk4([[-k]], [k], (x_0,), g_grid, g_mid, dt, limit)


def warmup() -> None:
    """Trigger JIT compilation of the nonlinear loop (no-op without numba)."""
    g = np.zeros(3)
    m = np.zeros(2)
    _hybrid_loop(0.0, 0.0, g, m, 0.1, 1.0, 0.1, 1.0, 0.1, 0.5, 1e-3, 1e9)
