"""Steady-state measurements on the periodic orbit: swept sines and eps order.

Each measurement drives the differentiator with a clean sinusoid and reads
one period of its RK4 periodic orbit, re-certified by an integrate_hybrid
pass from it: linear_orbit's closed form where the differentiator is linear
and its step attracts, else Newton's (_kernels.periodic_orbit, one solve for
consecutive points of a sweep).  sig(e)^alpha is odd, so under A*sin(w*t)
the orbit is half-wave symmetric, x(t + T/2) = -x(t) (Gelb & Vander Velde,
*Multiple-Input Describing Functions*, 1968): a nonlinear point takes an
even step count and Newton first solves the half period that ends at minus
its start, whose negation is the other half.  Where Newton finds none, the
last period of a warm-up run (simulate.run over _WARM_PERIODS periods from
the last state) is its next guess, solved over the full period, so an orbit
that is not symmetric is still found (_steady_periods).  A frequency point
takes the DFT bin of both states over that period, which rejects every
higher harmonic of the nonlinear response; convergence_order takes the RMS
tracking error over it.  The derivative channel is normalized by the ideal
derivative amplitude A*w, so a perfect differentiator reads magnitude 1
and phase 0 on both channels.
"""

import math
from dataclasses import astuple, dataclass
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .describing import _increasing
from .dynamics import DiffParams, DiffState
from .signals import SignalSpec, _adds_noise, sinusoid
from .simulate import (MAX_STEPS, STATE_LIMIT, InstabilityError, SimConfig,
                       _raise_if_diverged, default_dt, run, time_grid)

#: Periods a measurement may run from states that are not its orbit, in
#: warm-up runs of _WARM_PERIODS, before it fails as not settled.
SETTLE_PERIODS, _WARM_PERIODS = 30, 3
#: Most |x[n] - x[0]| of the measured period, relative to 1 + |x[0]|.
_CLOSURE_TOL = 1e-9


@dataclass(frozen=True)
class MeasuredResponse:
    """Fundamental response at one frequency.

    track_* is the x1 response relative to the input sinusoid; deriv_* is
    the x2 response relative to the ideal derivative A*omega*cos(omega*t).
    For a purely linear differentiator the two coincide analytically.
    """

    omega: float
    track_mag: float
    track_phase_deg: float
    deriv_mag: float
    deriv_phase_deg: float


def _plan(p: DiffParams, A: float, omega: float, dt: Optional[float]):
    """(omega, guess, v_grid, v_mid, dt) of one period of n steps at omega.

    n = max(ceil(period/dt), 16) for the target step dt (default:
    default_dt(p)), plus one where that is odd and p is nonlinear, for the
    half-period solve of periodic_orbit; guess is linear_orbit's.  A warm-up
    pass over MAX_STEPS raises ValueError before anything is integrated.
    """
    dt = default_dt(p) if dt is None else dt
    SimConfig(dt, 1.0)  # raises unless the step is finite and positive
    if not (0.0 < A < math.inf and 0.0 < omega < math.inf):
        raise ValueError("amplitude and omega must be finite and positive")
    period = 2.0 * math.pi / omega
    # a lower bound of the steps, checked before math.ceil meets an inf
    steps = _WARM_PERIODS * period / min(dt, period / 16)
    if steps > MAX_STEPS:
        raise ValueError(f"dt={dt:g} needs {steps:.4g} steps, more than "
                         f"MAX_STEPS={MAX_STEPS}")
    n = max(math.ceil(period / dt), 16)
    if not p.is_linear:
        n += n % 2  # even, for _settle's half-period solve
    SignalSpec(A, omega)  # raises where the peak derivative A*omega overflows
    cfg = SimConfig(period / n, period)
    v, vm = (sinusoid(A, omega, t) for t in time_grid(cfg))
    guess = _kernels.linear_orbit(A, omega, n, cfg.dt, *astuple(p))
    return omega, guess, v, vm, cfg.dt


def _steady_periods(p: DiffParams, A: float, omegas: Sequence[float],
                    dt: Optional[float] = None):
    """Yield (x1, x2) over one period of the settled response at each omega.

    Consecutive points are planned into batches of at most
    2 * _kernels._WINDOW_STEPS steps (or one longer point) for _settle,
    whose one solve of a batch's half periods then spans at most
    _WINDOW_STEPS (linear points are not solved together); a point that
    fails to plan raises after the batch before it.
    """
    batch = []
    for w in omegas:
        try:
            point = _plan(p, A, w, dt)
        except Exception:
            if batch:
                yield from _settle(p, A, batch)
            raise
        if batch and (sum(len(q[3]) for q in batch) + len(point[3])
                      > 2 * _kernels._WINDOW_STEPS):
            yield from _settle(p, A, batch)
            batch = []
        batch.append(point)
    if batch:
        yield from _settle(p, A, batch)


def _settle(p: DiffParams, A: float, batch: list):
    """Yield the measured pass of each point of batch, in turn.

    A linear point's orbit is its guess if Phi of its step attracts (Jury's
    test); the nonlinear points' periods go to one _kernels.periodic_orbit of
    sign -1, which solves each over its first half.  The integrate_hybrid pass
    from the orbit on the true input, given it as the guess that its Newton
    re-certifies (as a rule in one map pass and no correction, returning the
    orbit bit for bit), must close within _CLOSURE_TOL.  Else Newton retries
    over the full period (sign 1) from the last period of a warm-up run of
    _WARM_PERIODS periods, or from the measured pass, until SETTLE_PERIODS
    periods have run.
    """
    gains, lin = astuple(p), _kernels._linear_differentiator(p.eps, p.a0, p.b0)
    if p.is_linear:
        orbits = [g if _kernels._attracts(_kernels._rk4_coefficients(
            *lin, h)[0]) else None for _, g, _, _, h in batch]
    else:  # each period solved over its first half
        orbits = _kernels.periodic_orbit([q[1:] for q in batch], -1, *gains)
    for (omega, guess, v, vm, h), orbit in zip(batch, orbits):
        period = 2.0 * math.pi / omega
        for k in range(SETTLE_PERIODS // _WARM_PERIODS):
            if k:
                [orbit] = _kernels.periodic_orbit([(guess, v, vm, h)], 1,
                                                  *gains)
            if orbit is None:
                ts = run(p, SignalSpec(A, omega), SimConfig(
                    h, _WARM_PERIODS * period,
                    DiffState(*np.nan_to_num(guess[:, -1]))))
                guess = np.array((ts.channel("x1"),
                                  ts.channel("x2")))[:, -len(v):]
                continue
            *x, bad = _kernels.integrate_hybrid(
                orbit[0, 0], orbit[1, 0], v, vm, *gains, h, STATE_LIMIT, orbit)
            _raise_if_diverged(bad, h, "state")
            guess = np.array(x)
            if all(abs(a - b) <= _CLOSURE_TOL + _CLOSURE_TOL * abs(b) for a, b
                   in zip(guess[:, -1].tolist(), guess[:, 0].tolist())):
                break
        else:
            raise InstabilityError(f"did not settle within {SETTLE_PERIODS} "
                                   f"periods of {period:g} s",
                                   t=SETTLE_PERIODS * period)
        yield guess


def _response(x: np.ndarray, A: float, omega: float) -> MeasuredResponse:
    """The DFT bin of both states over the period x of n + 1 states."""
    x = x[:, :-1]
    n = x.shape[1]
    wt = omega * (np.arange(n) * (2.0 * math.pi / omega / n))
    (a1, b1), (a2, b2) = 2.0 / n * (x @ np.stack((np.sin(wt), np.cos(wt)), 1))
    return MeasuredResponse(
        omega=omega,
        track_mag=math.hypot(a1, b1) / A,
        track_phase_deg=math.degrees(math.atan2(b1, a1)),
        deriv_mag=math.hypot(a2, b2) / (A * omega),
        deriv_phase_deg=math.degrees(math.atan2(b2, a2)) - 90.0,
    )


def convergence_order(family: Sequence[DiffParams], spec: SignalSpec) -> float:
    """Empirical tracking-error order: slope of log RMS(x1 - v) vs log eps.

    Requires at least 4 family members whose eps values span a factor >= 8
    and a noise-free signal (an order fit under a noise floor is
    meaningless).  A member's error is the RMS of x1 - A*sin(omega*t) over
    one period of its periodic orbit at the default step (_steady_periods),
    at |A| since the family is odd; a member without an orbit raises
    InstabilityError ("did not settle"), and a failure is noted eps=<value>.
    A positive slope certifies that the tracking error vanishes as eps -> 0.
    """
    family = list(family)
    if len(family) < 4:
        raise ValueError("need at least 4 eps values")
    eps = np.array([q.eps for q in family])
    if np.max(eps) / np.min(eps) < 8.0:
        raise ValueError("eps values must span at least a factor of 8")
    if _adds_noise(spec.noise):
        raise ValueError("convergence order requires a noise-free signal")
    if spec.omega <= 0.0 or spec.amplitude == 0.0:
        raise ValueError("convergence order requires a nontrivial sinusoid")
    A, omega = abs(spec.amplitude), spec.omega
    errs = []
    for q in family:
        try:
            x1 = next(_steady_periods(q, A, [omega]))[0, :-1]
        except Exception as exc:
            exc.add_note(f"eps={q.eps:g}")
            raise
        t = np.arange(len(x1)) * (2.0 * math.pi / omega / len(x1))
        errs.append(math.sqrt(np.mean((x1 - sinusoid(A, omega, t)) ** 2)))
    return float(np.polyfit(np.log(eps), np.log(errs), 1)[0])


def sweep(p: DiffParams, A: float, omegas: Sequence[float],
          dt: Optional[float] = None) -> list[MeasuredResponse]:
    """Measure responses over a strictly increasing frequency grid.

    Takes the DFT bin of each period _steady_periods settles at the target
    step dt.  A per-point failure propagates with a note naming its omega.
    """
    omegas = _increasing([float(w) for w in omegas])
    results, periods = [], _steady_periods(p, A, omegas, dt)
    for w in omegas:
        try:
            results.append(_response(next(periods), A, w))
        except Exception as exc:
            exc.add_note(f"omega={w:g} rad/s")
            raise
    return results


def tracking_bandwidth(points: Sequence[MeasuredResponse]) -> float:
    """First frequency where track_mag falls below 1/sqrt(2) (-3 dB).

    Log-interpolates between the bracketing grid points.  Raises when there
    are no points, when the response never crosses that threshold inside the
    grid, or when it starts below it.
    """
    if len(points) == 0:
        raise ValueError("no response points")
    threshold = 1.0 / math.sqrt(2.0)
    mags = np.array([pt.track_mag for pt in points])
    oms = np.array([pt.omega for pt in points])
    below = np.nonzero(mags < threshold)[0]
    if len(below) == 0:
        raise ValueError("response stays above threshold on the whole grid")
    i = int(below[0])
    if i == 0:
        raise ValueError("response already below threshold at the lowest frequency")
    x0, x1 = math.log(oms[i - 1]), math.log(oms[i])
    y0, y1 = mags[i - 1], mags[i]
    return math.exp(x0 + (threshold - y0) * (x1 - x0) / (y1 - y0))
