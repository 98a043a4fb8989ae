"""Fixed-step integration kernels.

All kernels advance their states with the classical 4-stage Runge-Kutta
method.  Exogenous inputs are passed as precomputed arrays sampled on the
step grid (``n + 1`` values) and at the step midpoints (``n`` values); the
three stage times of a step therefore use ``grid[i]``, ``mid[i]``,
``grid[i + 1]``.  Each kernel fills the rows of one state array and returns
them plus the index of the first step at which a state left ``[-limit,
limit]`` (``-1`` when the integration stayed bounded; the returned arrays
are only valid up to that index).

Linear systems (the linear differentiator, its gain-scaled realization and
the scalar relaxation) take ``_linear_rk4``: RK4 on ``x' = A x + b v`` is
exactly ``x[i+1] = Phi x[i] + u[i]`` (Hairer, Norsett & Wanner, *Solving
ODEs I*, II.1), a banded triangular system that ``_solve_recurrence``,
which Newton shares, solves by BLAS ``dtbsv``: the CBLAS routine of the
OpenBLAS that numpy ships and has loaded, else scipy's (``_load_dtbsv``).

The nonlinear differentiator has a per-step loop, ``_hybrid_loop``.  Its
acceleration x2' is written once, in ``_accel``; the x1 rate of each stage
is the x2 of that stage's state.  The loop runs as plain Python at about
8 us/step, so ``integrate_hybrid`` takes ``_newton_hybrid``: Newton's
method on a window of RK4 steps that slides along the lane, whose first
guess is the describing-function linearization of the lane and whose every
iteration is one ``_solve_recurrence`` with per-step Jacobians.  Steps
leave the window only on a certificate of their ``_residuals``, and only
those still in it take the Jacobian pass (``_rk4_jac``) after the map pass.
Where Newton does not certify, the loop runs the rest of the lane, so
every lane is a Newton prefix and at most one loop suffix.  On the paper-5
input of ``benchmarks/bench_kernels.py`` that path takes about 1.3 us/step
on a 2-vCPU machine.  ``periodic_orbit`` solves a sweep's planned periods
together, from the linearization's orbit in closed form (``linear_orbit``,
a linear differentiator's own), by the same Newton and rule: over the
period, x[n] = x[0], or over its first half, x[n/2] = -x[0], extended by
its negation.  ``sweep`` measures the ``integrate_hybrid`` pass over the
period given that orbit as its guess, which Newton re-certifies, as a rule
in one map pass and no correction, so that it returns the orbit bit for
bit.
"""

import ctypes
import itertools
import os

import numpy as np

from .describing import _equivalent_gains, natural_frequency
from .dynamics import DiffParams


#: Steps per _linear_rk4 solve and _newton_hybrid window; bounds temporaries.
_WINDOW_STEPS = 4096
#: Lanes shorter than this run _hybrid_loop: a lane's fixed cost (the
#: first guess and a few band solves) would not pay for itself.
_MIN_NEWTON_STEPS = 256
#: Below this alpha the slope alpha*|e|^(alpha-1) is so steep near e = 0
#: that most lanes stall in their first window, and trying Newton first
#: costs more than the loop saves (measured by benchmarks/newton_cases.py).
_MIN_NEWTON_ALPHA = 0.25
#: Newton iterations a window or an orbit may take (_gives_up).
_NEWTON_ITERS = 20
#: A residual still above its state scale after this many iterations has
#: stalled: _hybrid_loop runs the rest of the lane, and the orbit is not
#: found.
_STALL_ITERS = 8
#: Residual certificate of a Newton window, relative to max(1, |state|).
#: A residual within it is accepted once Newton has reached its rounding
#: floor: at most _ROUNDING_TOL, or no smaller than at the previous
#: evaluation (_certified).
_NEWTON_TOL = 1e-12
_ROUNDING_TOL = 1e-15
#: |e| and |eps*x2| are clipped below here in the slope alpha*|.|^(alpha-1).
_SLOPE_FLOOR = 1e-12
_EYE = {1: np.eye(2), -1: -np.eye(2)}  #: sign*I of _close, by sign


#: CBLAS enum values (Blackford et al., "An updated set of basic linear
#: algebra subprograms (BLAS)", ACM TOMS 28(2), 2002).
_COL_MAJOR, _NO_TRANS, _LOWER, _UNIT = 102, 111, 122, 132


def _load_dtbsv():
    """dtbsv(k, a, x) of _cblas_dtbsv, from numpy's OpenBLAS.

    Numpy's wheels ship an ILP64 OpenBLAS next to the package, in
    numpy.libs/ (Linux, Windows) or numpy/.dylibs/ (macOS), which exports
    CBLAS dtbsv as scipy_cblas_dtbsv64_; numpy has loaded it already, so
    binding it maps no second BLAS, as scipy's extension would.  Where
    numpy ships no such file or symbol (conda, MKL or system builds), the
    routine is scipy.linalg.blas.dtbsv called in the same form.
    """
    pkg = os.path.dirname(np.__file__)
    try:
        [path] = [os.path.join(d, f)
                  for d in (pkg + ".libs", os.path.join(pkg, ".dylibs"))
                  if os.path.isdir(d) for f in os.listdir(d)
                  if "openblas" in f]
        return _cblas_dtbsv(ctypes.CDLL(path).scipy_cblas_dtbsv64_)
    except (ValueError, OSError, AttributeError):
        from scipy.linalg.blas import dtbsv
        return lambda k, a, x: dtbsv(k, a, x, lower=1, diag=1, overwrite_x=1)


def _cblas_dtbsv(routine):
    """dtbsv(k, a, x) over CBLAS routine: x solved in place and returned.

    a holds the k subdiagonals of a unit lower band, a[i, j] = L[j + i, j]
    (row 0 unread).  The foreign call reads and writes what it is given, so
    a must be a writable float64 Fortran-ordered band of k + 1 rows or more
    and x a writable, aligned C-contiguous float64 vector of a.shape[1]
    values, else ValueError.  Their addresses come from ctypes buffers,
    which take only writable arrays but cost less per call than
    ndarray.ctypes.
    """
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    routine.argtypes = (ctypes.c_int,) * 4 + (i64, i64, ptr, i64, ptr, i64)
    routine.restype = None
    address, buffer = ctypes.addressof, ctypes.c_char.from_buffer

    def dtbsv(k, a, x):
        if not (isinstance(a, np.ndarray) and isinstance(x, np.ndarray)
                and a.dtype == x.dtype == np.float64 and x.flags.carray
                and a.ndim == 2 and a.flags.f_contiguous and a.flags.writeable
                and 0 <= k < a.shape[0] and x.shape == a.shape[1:]):
            raise ValueError("dtbsv needs writable float64 arrays: a Fortran-"
                             "ordered band of k + 1 rows or more and a "
                             "contiguous x of one value per band column")
        routine(_COL_MAJOR, _LOWER, _NO_TRANS, _UNIT, x.size, k,
                address(buffer(a.T)), a.shape[0], address(buffer(x)), 1)
        return x

    return dtbsv


dtbsv = _load_dtbsv()


def backend() -> str:
    """Name of the backend of the nonlinear loop: always 'python'."""
    return "python"


def _rk4_coefficients(A, b, dt):
    """(Phi, g_a, g_m, g_b) of RK4 on x' = A x + b v as a recurrence.

    With M = dt*A and beta = dt*b, Phi = I + M + M^2/2 + M^3/6 + M^4/24,
    and a step adds u[i] = g_a v_grid[i] + g_m v_mid[i] + g_b v_grid[i+1].
    Overflowing powers give inf or nan coefficients, without a warning.
    """
    M, beta = dt * np.asarray(A, dtype=float), dt * np.asarray(b, dtype=float)
    with np.errstate(all="ignore"):
        M2 = M @ M
        phi = np.eye(len(M)) + M + M2 / 2.0 + M2 @ M / 6.0 + M2 @ M2 / 24.0
        Mb, M2b = M @ beta, M2 @ beta
        return (phi, (beta + Mb + M2b / 2.0 + M2 @ Mb / 4.0) / 6.0,
                (4.0 * beta + 2.0 * Mb + M2b / 2.0) / 6.0, beta / 6.0)


def _linear_rk4(A, b, x0, v_grid, v_mid, dt, limit):
    """RK4 for x' = A x + b v(t) as the exact recurrence x[i+1] = Phi x[i] + u[i].

    Phi and u[i] are those of _rk4_coefficients; each _WINDOW_STEPS steps
    are one _solve_recurrence from their start state.  Returns the states'
    trajectories (rows of one array) and the first divergent step (or -1).
    """
    ns, n = len(x0), v_mid.shape[0]
    phi, g_a, g_m, g_b = _rk4_coefficients(A, b, dt)
    band = np.zeros((2 * ns, ns * min(n, _WINDOW_STEPS)), order="F")
    x = np.empty((ns, n + 1))
    x[:, 0] = x0
    for i0 in range(0, n, _WINDOW_STEPS):
        i1 = min(i0 + _WINDOW_STEPS, n)
        rhs = (np.outer(g_a, v_grid[i0:i1]) + np.outer(g_m, v_mid[i0:i1])
               + np.outer(g_b, v_grid[i0 + 1:i1 + 1]))
        with np.errstate(all="ignore"):  # a Phi that is not finite
            rhs[:, 0] += phi @ x[:, i0]
        [sol] = _solve_recurrence(band, phi, rhs)
        x[:, i0 + 1:i1 + 1] = sol
        out = ~(np.abs(sol) <= limit).all(axis=0)
        if out.any():
            return tuple(x) + (i0 + 1 + int(out.argmax()),)
    return tuple(x) + (-1,)


def _solve_recurrence(band, blocks, *rhs):
    """d[1..m] of d[i+1] = B_i d[i] + r_i from d[0] = 0, for each (ns, m) r.

    blocks is B[r][c], one value or one per step 1..m-1 (B_0 meets d[0]).
    Stacked, d[1..m] solve a unit lower triangular system of bandwidth
    2*ns - 1, filled once for all of rhs into band (2*ns rows, ns*m columns
    or more) as lower band storage band[k, j] = L[j + k, j]: unknown
    j = i*ns + c enters row (i+1)*ns + r with -B[r][c], so k = ns + r - c.
    Returns one (ns, m) array per r.
    """
    ns, m = np.shape(rhs[0])
    b = band[:, :ns * m]
    for r, c in itertools.product(range(ns), repeat=2):
        b[ns + r - c, c:ns * (m - 1):ns] = -blocks[r][c]
    x = np.empty((len(rhs), m, ns))  # a copy of each r: dtbsv solves in place
    for (i, y), c in itertools.product(enumerate(rhs), range(ns)):
        x[i, :, c] = y[c]
    return [dtbsv(2 * ns - 1, b, d.ravel()).reshape(m, ns).T for d in x]


def _linear_differentiator(eps, a0, b0):
    """(A, b) of x' = A x + b v for the differentiator with a1 = b1 = 0."""
    c = 1.0 / (eps * eps)
    return [[0.0, 1.0], [-a0 * c, -b0 * eps * c]], [0.0, a0 * c]


def integrate_hybrid(x1_0, x2_0, v_grid, v_mid, eps, a0, a1, b0, b1, alpha,
                     dt, limit, guess=None):
    """Integrate the differentiator state (x1, x2) over a sampled input.

    Dynamics: x1' = x2,
              eps^2 * x2' = -a0*e - a1*sig(e)^alpha - b0*eps*x2
                            - b1*sig(eps*x2)^alpha,   e = x1 - v(t).
    guess, a (2, n + 1) trajectory such as a periodic_orbit, is where the
    Newton path of a nonlinear lane starts; linear lanes ignore it.
    """
    if guess is not None and np.shape(guess) != (2, len(v_grid)):
        raise ValueError(f"guess must have shape (2, {len(v_grid)})")
    if a1 == 0.0 and b1 == 0.0:
        return _linear_rk4(*_linear_differentiator(eps, a0, b0), (x1_0, x2_0),
                           v_grid, v_mid, dt, limit)
    return _newton_hybrid(x1_0, x2_0, v_grid, v_mid, eps, a0, a1, b0, b1,
                          alpha, dt, limit, guess)


def _accel(x1, x2, v, eps, a0, a1, b0, b1, alpha, inv_e2):
    """x2' of integrate_hybrid at state (x1, x2) and input value v."""
    e = x1 - v
    ev = eps * x2
    se = (1.0 if e > 0.0 else (-1.0 if e < 0.0 else 0.0)) * abs(e) ** alpha
    sv = (1.0 if ev > 0.0 else (-1.0 if ev < 0.0 else 0.0)) * abs(ev) ** alpha
    return -(a0 * e + a1 * se + b0 * ev + b1 * sv) * inv_e2


def _hybrid_loop(x1_0, x2_0, v_grid, v_mid, eps, a0, a1, b0, b1, alpha, dt,
                 limit):
    """Per-step RK4 of integrate_hybrid, for nonzero a1 or b1."""
    n = v_mid.shape[0]
    x1, x2 = x = np.empty((2, n + 1))
    inv_e2 = 1.0 / (eps * eps)
    h = 0.5 * dt
    y1, y2 = x[:, 0] = x1_0, x2_0
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
    """_accel over arrays, and the powers its slopes reuse (see _rk4_jac)."""
    e = x1 - v
    ev = eps * x2
    ae, av = np.abs(e), np.abs(ev)
    pe, pv = ae ** alpha, av ** alpha
    k = a0 * e  # summed in place in _accel's order
    k += a1 * np.copysign(pe, e)
    k += b0 * ev
    k += b1 * np.copysign(pv, ev)
    k *= -inv_e2
    return k, (ae, pe, av, pv)


def _rk4_f(y1, y2, v_grid, v_mid, eps, a0, a1, b0, b1, alpha, dt):
    """Every step of _hybrid_loop at once: F_i(y[i]) and its stage values.

    y1, y2 hold the states that open the steps.  The stages and the RK4
    sums follow the loop's algebra and order, but not its powers: numpy's
    array ** and the loop's scalar ** (libm pow) differ by one ulp on some
    |y|^alpha (about 5 % of magnitudes at alpha = 0.6, 0.09 % at 0.5, where
    numpy takes sqrt), so F is the loop's map to within one ulp per power,
    not bit for bit.  Returns (F1, F2) and, per stage, the powers of _stage
    that _rk4_jac needs.
    """
    inv_e2 = 1.0 / (eps * eps)
    h = 0.5 * dt
    gains = (eps, a0, a1, b0, b1, alpha, inv_e2)
    k1, s1 = _stage(y1, y2, v_grid[:-1], *gains)
    p2 = y2 + h * k1
    k2, s2 = _stage(y1 + h * y2, p2, v_mid, *gains)
    p3 = y2 + h * k2
    k3, s3 = _stage(y1 + h * p2, p3, v_mid, *gains)
    p4 = y2 + dt * k3
    k4, s4 = _stage(y1 + dt * p3, p4, v_grid[1:], *gains)
    w = dt / 6.0
    return ((y1 + w * (y2 + 2.0 * p2 + 2.0 * p3 + p4),
             y2 + w * (k1 + 2.0 * k2 + 2.0 * k3 + k4)), (s1, s2, s3, s4))


def _rk4_jac(stages, eps, a0, a1, b0, b1, alpha, dt):
    """The 2x2 Jacobian J_i of F_i, from the stage values of _rk4_f.

    Next to each stage's position q, x2 value p and rate k = x2' run their
    gradients in (y1, y2) (suffixes a and b), so J_i is the chain rule
    through the stages.  The slope alpha*|y|^(alpha-1) of x2', unbounded at
    y = 0, is taken as alpha*|y|^alpha/|y| capped at its value at
    |y| = _SLOPE_FLOOR; at y = 0 the ratio is 0/0 = nan, and np.fmin then
    takes the cap.  Returns J11, J12, J21, J22.
    """
    inv_e2 = 1.0 / (eps * eps)
    h = 0.5 * dt
    cap = _SLOPE_FLOOR ** (alpha - 1.0)
    ca, cb = a1 * alpha * inv_e2, b1 * alpha * eps * inv_e2
    (ka, kb), *rest = [(-a0 * inv_e2 - ca * np.fmin(pe / ae, cap),
                        -b0 * eps * inv_e2 - cb * np.fmin(pv / av, cap))
                       for ae, pe, av, pv in stages]
    # stage 1 sits at (y1, y2), so its k's gradient is the slope pair
    pa, pb = 0.0, 1.0
    ska, skb, spa, spb = ka, kb, pa, pb
    for (c, d), step, weight in zip(rest, (h, h, dt), (2.0, 2.0, 1.0)):
        qa, qb = 1.0 + step * pa, step * pb
        pa, pb = step * ka, 1.0 + step * kb
        ka, kb = c * qa + d * pa, c * qb + d * pb
        ska, skb = ska + weight * ka, skb + weight * kb
        spa, spb = spa + weight * pa, spb + weight * pb
    w = dt / 6.0
    return 1.0 + w * spa, w * spb, w * ska, 1.0 + w * skb


def _newton_hybrid(x1_0, x2_0, v_grid, v_mid, eps, a0, a1, b0, b1, alpha, dt,
                   limit, guess=None):
    """_hybrid_loop's trajectory by Newton on a sliding window (DEER).

    The RK4 steps of a lane form one nonlinear system in all its states
    (Lim et al., "Parallelizing non-linear sequential models over the
    sequence length", ICLR 2024), the rows of one (2, n + 1) x.  Its first
    guess is guess from the lane's start, else the linear propagator at the
    describing-function gains (a0 + a1*N(A), b0 + b1*N(A)), A the largest
    |v| of the lane (or 1).  Each iteration takes the _residuals of the
    _WINDOW_STEPS steps after the frontier, the last state known to be
    final, and retires the longest prefix that is certified as a window:
    its largest relative residual passes _certified against the same
    steps' previous evaluation, and every x[i+1] is inside limit.  The
    steps after the new frontier are corrected by d[i+1] = J_i d[i] + r_i
    from d = 0 by _solve_recurrence, so that rounding scales with the
    residual, and only those steps need J_i.  Only x, the first guess's own
    array, spans the lane: the previous evaluation, like every temporary,
    spans the window.
    The _WINDOW_STEPS steps from where the count began must retire before
    Newton _gives_up on their residuals, with no certified state past
    limit; else _hybrid_loop runs the lane from there to its end, so the
    divergent step reported is the loop's own.  Lanes shorter than
    _MIN_NEWTON_STEPS or with alpha below _MIN_NEWTON_ALPHA go to the loop
    whole unless guess is given: the gates judge the describing-function
    guess only.  All of it runs under np.errstate: a diverging lane
    overflows, in the loop's numpy scalars too, before its step is reported.
    """
    n = v_mid.shape[0]
    gains = (eps, a0, a1, b0, b1, alpha, dt)
    with np.errstate(all="ignore"):
        if guess is not None:
            x = np.array(guess, dtype=float)
            x[:, 0] = x1_0, x2_0
        elif n < _MIN_NEWTON_STEPS or alpha < _MIN_NEWTON_ALPHA:
            return _hybrid_loop(x1_0, x2_0, v_grid, v_mid, *gains, limit)
        else:
            try:
                lin = _describing_system(v_grid, eps, a0, a1, b0, b1, alpha)
            except ValueError:  # values DiffParams rejects, no gain or omega_n
                return _hybrid_loop(x1_0, x2_0, v_grid, v_mid, *gains, limit)
            # the guess is not held to limit, only to being finite
            x1, _, bad = _linear_rk4(*lin, (x1_0, x2_0), v_grid, v_mid, dt,
                                     np.inf)
            x = x1.base  # the one array whose rows _linear_rk4 returns
            if bad >= 0:  # a non-finite guess sends the tail to the loop
                x[:, bad:] = np.nan
        m = min(n, _WINDOW_STEPS)
        prev = np.full(m, np.inf)  # of the window's steps, from s on
        band = np.zeros((4, 2 * m), order="F")
        s = c = it = 0  # the frontier, where the count began, iterations
        while s < n:
            e = min(s + _WINDOW_STEPS, n)
            r, rel, stages = _residuals(x[:, s:e + 1], v_grid[s:e + 1],
                                        v_mid[s:e], *gains)
            # the largest residual of each prefix, scanned only up to the
            # first past _NEWTON_TOL, from which no step retires (inf after)
            j = _within_tol(rel)
            top, low = np.full(e - s, np.inf), np.full(e - s, np.inf)
            np.maximum.accumulate(rel[:j], out=top[:j])
            np.maximum.accumulate(prev[:j], out=low[:j])
            cert = np.flatnonzero(_certified(top, low))
            k = int(cert[-1]) + 1 if cert.size else 0
            past = np.flatnonzero(
                (np.abs(x[:, s + 1:s + k + 1]) > limit).any(axis=0))
            k = int(past[0]) if past.size else k
            prev[:e - s - k], prev[e - s - k:] = rel[k:], np.inf
            s += k
            if s >= c + _WINDOW_STEPS:
                c, it = s, 0
            if s == e:
                continue
            if past.size or _gives_up(rel[k:c + _WINDOW_STEPS - s + k].max(),
                                      it):
                *y, bad = _hybrid_loop(*x[:, c], v_grid[c:], v_mid[c:],
                                       *gains, limit)
                x[:, c:] = y
                return (*x, c + bad if bad >= 0 else -1)
            it += 1
            j = _rk4_jac([[a[k + 1:] for a in st] for st in stages], *gains)
            [d] = _solve_recurrence(band, (j[:2], j[2:]), r[:, k:])
            x[:, s + 1:e + 1] += d
    return (*x, -1)


def _residuals(x, v_grid, v_mid, *gains):
    """r_i = F_i(x[i]) - x[i+1] of one map pass over (2, m + 1) states x.

    Returns r, each step's largest |r_i|/max(1, |x[i+1]|), which _certified
    and _gives_up judge, and the stage values of _rk4_f.
    """
    f, stages = _rk4_f(x[0, :-1], x[1, :-1], v_grid, v_mid, *gains)
    r = np.array(f) - x[:, 1:]
    rel = np.max(np.abs(r) / np.maximum(1.0, np.abs(x[:, 1:])), axis=0)
    return r, rel, stages


def _within_tol(rel):
    """Length of rel's longest prefix within _NEWTON_TOL (a nan ends it)."""
    ok = rel <= _NEWTON_TOL
    return ok.size if ok.all() else int(ok.argmin())


def _certified(rel, prev):
    """Newton's certificate of residuals rel (array or scalar) after prev."""
    return (rel <= _NEWTON_TOL) & ((rel <= _ROUNDING_TOL) | (rel >= prev))


def _gives_up(rel, it):
    """Whether Newton stops at iteration it on a largest residual rel."""
    return it == _NEWTON_ITERS or not rel < (1.0 if it >= _STALL_ITERS
                                             else np.inf)


def _close(q, m1, m2, sign):
    """(q + c1*m1 + c2*m2, M): the (2, m) trajectory from c, ending at sign*c.

    m1 and m2 run q's linear recurrence without input from (1, 0) and
    (0, 1); c = (sign*I - M)^-1 q[:, -1] with M = (m1[:, -1], m2[:, -1]),
    so the trajectory closes (sign 1) or ends at minus its start (sign -1,
    the half period of a half-wave symmetric orbit).
    """
    M = np.array((m1[:, -1], m2[:, -1])).T
    c1, c2 = _solve_2x2(_EYE[sign] - M, q[:, -1])
    return q + c1 * m1 + c2 * m2, M


def _solve_2x2(K, y):
    """K^-1 y for a 2x2 K: its adjugate times y, over its determinant."""
    (a, b), (c, d) = K
    return np.array(((d, -b), (-c, a))) @ y / (a * d - b * c)


def _describing_system(v, eps, a0, a1, b0, b1, alpha):
    """_linear_differentiator at the describing gains of max |v| (or 1).

    Raises DegenerateError when that system has no natural frequency.
    """
    p = DiffParams(eps, a0, a1, b0, b1, alpha)
    A = float(np.max(np.abs(v))) or 1.0
    natural_frequency(p, A)
    return _linear_differentiator(eps, *_equivalent_gains(p, A))


def linear_orbit(A, omega, n, dt, eps, a0, a1, b0, b1, alpha):
    """The periodic _linear_rk4 orbit of _describing_system under A sin wt.

    The (2, n + 1) solution of x[i+1] = Phi x[i] + u[i] on t = i*dt in
    closed form: x[i] = Im(X z^i) with z = e^(j w dt) and
    (zI - Phi) X = A (g_a + g_m z^(1/2) + g_b z), solved by _solve_2x2.
    """
    lin = _describing_system(A, eps, a0, a1, b0, b1, alpha)
    h = np.exp(0.5j * omega * dt)  # z^(1/2)
    with np.errstate(all="ignore"):
        phi, g_a, g_m, g_b = _rk4_coefficients(*lin, dt)
        # (z - 1)I - (Phi - I): zI - Phi cancels the digits of z, Phi near 1
        K = np.expm1(1j * omega * dt) * _EYE[1] - (phi - _EYE[1])
        X = _solve_2x2(K, A * (g_a + h * (g_m + h * g_b)))
    return np.outer(X, np.exp(1j * omega * dt * np.arange(n + 1))).imag.copy()


def _attracts(M):
    """Jury's test of |eig M| < 1 for a 2x2 M."""
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    return abs(det) < 1.0 and abs(np.trace(M)) < 1.0 + det


def periodic_orbit(points, sign, eps, a0, a1, b0, b1, alpha):
    """The (2, n + 1) periodic orbit of integrate_hybrid per point, or None.

    A point is (guess, v_grid, v_mid, dt), one input period of n steps,
    and sign the closure of every point: 1 solves the period, x[n] = x[0];
    -1 (n even) its first half, x[n/2] = -x[0], which is returned extended
    by its negation.  Newton on x[i+1] = F_i(x[i]) (Aprille & Trick, Proc.
    IEEE 60, 1972) from guess and sign*guess[:, 0] at the closing state
    runs on the points' states in a row, dt one per step, joined by steps
    of dt = 0 that no solve sees: each iteration is one _solve_recurrence
    from d = 0 and the unit starts at every point's first state, uncoupled
    from the point before, and _close per point, after which x[0] =
    sign*x[m] at its closing state m.  Sign -1 suits an input odd about the
    middle of its period: the differentiator is odd, so the orbit of
    x(t + T/2) = -x(t) is the half and its negation, and its monodromy is
    M^2.  A point retires with its period once it is _certified and
    _attracts (|eig M| < 1, and so |eig M^2| < 1), else with None (once
    Newton _gives_up on it, or its solve is not finite).
    """
    gains, out = (eps, a0, a1, b0, b1, alpha), [None] * len(points)
    steps = [len(m) // 2 if sign < 0 else len(m) for _, _, m, _ in points]
    x, v, vm, dt = (np.concatenate(a, axis=-1) for a in zip(*(
        (np.concatenate((g[:, :n], sign * g[:, :1]), axis=1), w[:n + 1],
         np.append(m[:n], 0.0), np.append(np.full(n, h), 0.0))
        for (g, w, m, h), n in zip(points, steps))))
    band, buf = np.zeros((4, 2 * len(v)), order="F"), np.zeros((2, 2, len(v)))
    live, size = list(range(len(points))), [n + 1 for n in steps]
    prev, gone = [np.inf] * len(points), [False] * len(points)
    with np.errstate(all="ignore"):
        for it in itertools.count():
            if it == 0 or any(gone):  # keep the points left
                keep = np.repeat(np.logical_not(gone), size)
                x, v, vm, dt = x[:, keep], v[keep], vm[keep], dt[keep]
                live, prev, size = ([a for a, g in zip(seq, gone) if not g]
                                    for seq in (live, prev, size))
                if not live:  # a half period, then its negation
                    return [y if y is None or sign > 0 else
                            np.hstack((y[:, :-1], -y)) for y in out]
                e = np.cumsum(size) - 1  # their last states
                s = e + 1 - size  # and first states
            r, rel, stages = _residuals(x, v, vm[:-1], *gains, dt[:-1])
            r[:, e[:-1]] = rel[e[:-1]] = 0.0  # the steps between points
            rel = np.maximum.reduceat(rel, s).tolist()
            jac = np.reshape(_rk4_jac(stages, *gains, dt[:-1]), (2, 2, -1))
            del stages  # the rest stays until replaced, untrimmed by malloc
            starts = buf[:, :, :len(v) - 1]
            starts[:, :, s] = jac[:, :, s].transpose(1, 0, 2)  # run c: J e_c
            jac[:, :, s], q, gone = 0.0, None, []
            for k, i, j, y, y0 in zip(live, s, e, rel, prev):
                if q is None:
                    q, m1, m2 = _solve_recurrence(band, jac[:, :, 1:], r,
                                                  *starts)
                d, M = _close(q[:, i:j], m1[:, i:j], m2[:, i:j], sign)
                gone.append(True)
                if not np.isfinite(d[:, -1]).all():  # 0 * inf would carry
                    r[:, i:j] = starts[:, :, i:j] = 0.0  # it on: solve again
                    q = None
                elif _certified(y, y0):
                    out[k] = x[:, i:j + 1].copy() if _attracts(M) else None
                elif not _gives_up(y, it):
                    x[:, i + 1:j + 1] += d
                    x[:, i] = sign * x[:, j]
                    gone[-1] = False
            starts[:, :, s], prev = 0.0, rel


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
