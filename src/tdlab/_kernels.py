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
triangular system by BLAS on every backend.

The nonlinear differentiator has a per-step loop, ``_hybrid_loop``.  Its
acceleration x2' is written once, in ``_accel``; the x1 rate of each stage
is the x2 of that stage's state.  When numba imports, the loop is compiled
and ``integrate_hybrid`` runs it.  Without numba the loop runs as plain
Python at about 8 us/step, and ``integrate_hybrid`` takes
``_newton_hybrid`` instead: Newton's method on windows of RK4 steps at
once, whose first guess is the describing-function linearization and whose
every iteration is one banded solve as in ``_linear_rk4``.  A window is
kept only on a residual certificate; the loop runs every other window.  On
the paper-5 input of ``benchmarks/bench_kernels.py`` that path takes about
1 us/step on a 2-vCPU machine.
"""

import numpy as np
from scipy.linalg.blas import dtbsv

from .describing import _equivalent_gains
from .dynamics import DiffParams

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
#: Steps per window of _newton_hybrid; bounds its temporaries.
_WINDOW_STEPS = 2048
#: Lanes shorter than this run _hybrid_loop: a window's fixed cost (the
#: first guess and a few band solves) would not pay for itself.
_MIN_NEWTON_STEPS = 256
#: Below this alpha the slope alpha*|e|^(alpha-1) is so steep near e = 0
#: that most windows stall, and trying Newton first costs more than the
#: loop saves (measured by benchmarks/newton_cases.py).
_MIN_NEWTON_ALPHA = 0.25
#: Newton iterations a window may take before _hybrid_loop runs it.
_NEWTON_ITERS = 20
#: A window whose residual is still above its state scale after this many
#: iterations has stalled, and _hybrid_loop runs it.
_STALL_ITERS = 8
#: Residual certificate of a Newton window, relative to max(1, |state|).
#: A residual within it is accepted once Newton has reached its rounding
#: floor: at most _ROUNDING_TOL, or cut by less than _FLOOR_GAIN in the
#: last iteration.
_NEWTON_TOL = 1e-12
_ROUNDING_TOL = 1e-15
_FLOOR_GAIN = 4.0
#: |e| and |eps*x2| are clipped below here in the slope alpha*|.|^(alpha-1).
_SLOPE_FLOOR = 1e-12


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


def _linear_differentiator(eps, a0, b0):
    """(A, b) of x' = A x + b v for the differentiator with a1 = b1 = 0."""
    c = 1.0 / (eps * eps)
    return [[0.0, 1.0], [-a0 * c, -b0 * eps * c]], [0.0, a0 * c]


def integrate_hybrid(x1_0, x2_0, v_grid, v_mid, eps, a0, a1, b0, b1, alpha,
                     dt, limit):
    """Integrate the differentiator state (x1, x2) over a sampled input.

    Dynamics: x1' = x2,
              eps^2 * x2' = -a0*e - a1*sig(e)^alpha - b0*eps*x2
                            - b1*sig(eps*x2)^alpha,   e = x1 - v(t).
    """
    if a1 == 0.0 and b1 == 0.0:
        return _linear_rk4(*_linear_differentiator(eps, a0, b0), (x1_0, x2_0),
                           v_grid, v_mid, dt, limit)
    solve = _hybrid_loop if NUMBA_ENABLED else _newton_hybrid
    return solve(x1_0, x2_0, v_grid, v_mid, eps, a0, a1, b0, b1, alpha, dt,
                 limit)


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


def _stage(x1, x2, v, eps, a0, a1, b0, b1, alpha, inv_e2):
    """_accel over arrays, with the slopes of x2' in x1 and in x2.

    The slope alpha*|y|^(alpha-1), unbounded at y = 0, is taken as
    alpha*|y|^alpha/|y| capped at its value at |y| = _SLOPE_FLOOR; at y = 0
    the ratio is 0/0 = nan, and np.fmin then takes the cap.
    """
    e = x1 - v
    ev = eps * x2
    ae, av = np.abs(e), np.abs(ev)
    pe, pv = ae ** alpha, av ** alpha
    k = -(a0 * e + a1 * np.copysign(pe, e) + b0 * ev
          + b1 * np.copysign(pv, ev)) * inv_e2
    cap = _SLOPE_FLOOR ** (alpha - 1.0)
    ce, cv = inv_e2, eps * inv_e2
    return (k, -a0 * ce - a1 * alpha * ce * np.fmin(pe / ae, cap),
            -b0 * cv - b1 * alpha * cv * np.fmin(pv / av, cap))


def _rk4_map(y1, y2, v_grid, v_mid, eps, a0, a1, b0, b1, alpha, dt):
    """Every step of _hybrid_loop at once: F_i(y[i]) and its Jacobian J_i.

    y1, y2 hold the states that open the steps.  The stages follow the
    loop's algebra; next to each stage's position q1, rate k = x2' and x2
    value p run their gradients in (y1, y2) (suffixes a and b), so J_i is
    the chain rule through the stages.  The RK4 sums are accumulated in
    the loop's order.  Returns F1, F2, J11, J12, J21, J22.
    """
    inv_e2 = 1.0 / (eps * eps)
    h = 0.5 * dt
    gains = (eps, a0, a1, b0, b1, alpha, inv_e2)
    k, ka, kb = _stage(y1, y2, v_grid[:-1], *gains)
    sk, ska, skb = k, ka, kb
    p, pa, pb = y2 + h * k, h * ka, 1.0 + h * kb
    sp, spa, spb = y2 + 2.0 * p, 2.0 * pa, 1.0 + 2.0 * pb
    k, c, d = _stage(y1 + h * y2, p, v_mid, *gains)
    ka, kb = c + d * pa, c * h + d * pb
    sk, ska, skb = sk + 2.0 * k, ska + 2.0 * ka, skb + 2.0 * kb
    q1, qa, qb = y1 + h * p, 1.0 + h * pa, h * pb
    p, pa, pb = y2 + h * k, h * ka, 1.0 + h * kb
    sp, spa, spb = sp + 2.0 * p, spa + 2.0 * pa, spb + 2.0 * pb
    k, c, d = _stage(q1, p, v_mid, *gains)
    ka, kb = c * qa + d * pa, c * qb + d * pb
    sk, ska, skb = sk + 2.0 * k, ska + 2.0 * ka, skb + 2.0 * kb
    q1, qa, qb = y1 + dt * p, 1.0 + dt * pa, dt * pb
    p, pa, pb = y2 + dt * k, dt * ka, 1.0 + dt * kb
    sp, spa, spb = sp + p, spa + pa, spb + pb
    k, c, d = _stage(q1, p, v_grid[1:], *gains)
    ka, kb = c * qa + d * pa, c * qb + d * pb
    w = dt / 6.0
    return (y1 + w * sp, y2 + w * (sk + k), 1.0 + w * spa, w * spb,
            w * (ska + ka), 1.0 + w * (skb + kb))


def _newton_window(y1, y2, v_grid, v_mid, eps, a0, a1, b0, b1, alpha, dt,
                   limit):
    """Newton on all RK4 steps of one window, from the first guess (y1, y2).

    Iteration k takes the residuals r_i = F_i(x^k[i]) - x^k[i+1] and solves
    x[i+1] = J_i x[i] + (F_i(x^k[i]) - J_i x^k[i]) for its correction
    d = x - x^k, that is d[i+1] = J_i d[i] + r_i with d[0] = 0, so that
    rounding scales with the residual.  That recurrence is the unit lower
    triangular band of _linear_rk4 with per-step entries.  The iterate is
    certified when every |r_i| is at most _NEWTON_TOL*max(1, |x^k[i+1]|)
    at Newton's rounding floor and every state lies inside limit.  Returns
    it, or None when the loop must run the window: a non-finite residual,
    one still above 1 after _STALL_ITERS iterations, no certificate within
    _NEWTON_ITERS iterations, or a certified state past limit.
    """
    m = v_mid.shape[0]
    band = np.zeros((4, 2 * m), order="F")
    rhs = np.empty(2 * m)
    gains = (eps, a0, a1, b0, b1, alpha, dt)
    prev = np.inf
    for k in range(_NEWTON_ITERS):
        f1, f2, j11, j12, j21, j22 = _rk4_map(y1[:-1], y2[:-1], v_grid, v_mid,
                                              *gains)
        r1, r2 = f1 - y1[1:], f2 - y2[1:]
        err = max(np.max(np.abs(r1) / np.maximum(1.0, np.abs(y1[1:]))),
                  np.max(np.abs(r2) / np.maximum(1.0, np.abs(y2[1:]))))
        if err <= _NEWTON_TOL and (err <= _ROUNDING_TOL
                                   or _FLOOR_GAIN * err >= prev):
            inside = max(np.max(np.abs(y1)), np.max(np.abs(y2))) <= limit
            return (y1, y2) if inside else None
        if not err < (1.0 if k >= _STALL_ITERS else np.inf):
            return None
        prev = err
        # row block i+1 holds -J_{i+1}; band[d, j] = L[j + d, j] as in
        # _linear_rk4, whose fixed Phi these per-step entries replace
        band[2, 0:-2:2], band[1, 1:-2:2] = -j11[1:], -j12[1:]
        band[3, 0:-2:2], band[2, 1:-2:2] = -j21[1:], -j22[1:]
        rhs[0::2], rhs[1::2] = r1, r2
        d = dtbsv(3, band, rhs, lower=1, diag=1)
        y1[1:] += d[0::2]
        y2[1:] += d[1::2]
    return None


def _newton_hybrid(x1_0, x2_0, v_grid, v_mid, eps, a0, a1, b0, b1, alpha, dt,
                   limit):
    """_hybrid_loop's trajectory by Newton over windows of steps (DEER).

    The RK4 steps of a window form one nonlinear system in all its states
    (Lim et al., "Parallelizing non-linear sequential models over the
    sequence length", ICLR 2024), solved by _newton_window.  Each window
    starts from the end state of the one before; its first guess is the
    linear propagator at the describing-function gains (a0 + a1*N(A),
    b0 + b1*N(A)), with A the largest |v| of the lane (1 when that is 0).
    _hybrid_loop runs every window that Newton does not certify, so the
    divergent step reported is the loop's own, and whole lanes shorter
    than _MIN_NEWTON_STEPS or with alpha below _MIN_NEWTON_ALPHA.  All of
    it runs under np.errstate: a diverging lane overflows, in the loop's
    numpy scalars too, before its step is reported.
    """
    n = v_mid.shape[0]
    args = (eps, a0, a1, b0, b1, alpha, dt, limit)
    with np.errstate(all="ignore"):
        guess = None
        if n >= _MIN_NEWTON_STEPS and alpha >= _MIN_NEWTON_ALPHA:
            try:
                A = float(np.max(np.abs(v_grid))) or 1.0
                p = DiffParams(eps, a0, a1, b0, b1, alpha)
                guess = _linear_differentiator(eps, *_equivalent_gains(p, A))
            except ValueError:  # values DiffParams rejects, or no gain
                pass
        if guess is None:
            return _hybrid_loop(x1_0, x2_0, v_grid, v_mid, *args)
        x1, x2 = np.empty(n + 1), np.empty(n + 1)
        x1[0], x2[0] = x1_0, x2_0
        windows = -(-n // _WINDOW_STEPS)
        for w in range(windows):
            i0, i1 = w * n // windows, (w + 1) * n // windows
            vg, vm = v_grid[i0:i1 + 1], v_mid[i0:i1]
            # the guess is not held to limit, only to being finite
            *y, bad = _linear_rk4(*guess, (x1[i0], x2[i0]), vg, vm, dt, np.inf)
            y = _newton_window(*y, vg, vm, *args) if bad < 0 else None
            if y is None:
                *y, bad = _hybrid_loop(x1[i0], x2[i0], vg, vm, *args)
                if bad >= 0:
                    x1[i0:i1 + 1], x2[i0:i1 + 1] = y
                    return x1, x2, i0 + bad
            x1[i0:i1 + 1], x2[i0:i1 + 1] = y
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
