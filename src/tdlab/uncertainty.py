"""Disturbance reconstruction for the scalar uncertain plant.

The plant is x' = -x + u(t) + delta(t) with measurement y = x + noise.
Since delta = x' + x - u, a differentiator driven by y supplies estimates
of x and x' and the disturbance follows from the algebraic identity:

    delta_hat = x2_hat + x1_hat - u

The filtered estimate x1_hat (not the raw measurement y) stands in for x,
so the measurement noise that the differentiator suppresses is not
reinjected into the reconstruction.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _kernels
from .dynamics import DiffParams, DiffState
from .signals import NoiseSpec, _adds_noise, bl_white_noise
from .simulate import (STATE_LIMIT, SimConfig, TimeSeries, _check_hold,
                       _raise_if_beyond, _raise_if_diverged, time_grid)


@dataclass(frozen=True)
class PlantConfig:
    """Scalar uncertain plant setup.

    u and delta are vectorized callables of time (control input and the
    disturbance truth channel); noise is the measurement noise on y; the
    start x0 must be finite.
    """

    u: Callable[[np.ndarray], np.ndarray]
    delta: Callable[[np.ndarray], np.ndarray]
    noise: Optional[NoiseSpec] = None
    x0: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.x0):
            raise ValueError(f"plant start x0 must be finite, got {self.x0}")


def _check_samples(name: str, times, samples) -> None:
    """Raise naming an input whose samples are not shaped like its times,
    or the first of times at which they are not finite."""
    for t, s in zip(times, samples):
        if s.shape != t.shape:
            raise ValueError(f"PlantConfig.{name} returned shape {s.shape} "
                             f"at times of shape {t.shape}: not vectorized")
    bad = [t[~np.isfinite(s)] for t, s in zip(times, samples)]
    if any(b.size for b in bad):
        first = min(float(b.min()) for b in bad if b.size)
        raise ValueError(f"PlantConfig.{name} is not finite at t={first:g} s")


def simulate_plant(cfg: PlantConfig, sim: SimConfig) -> TimeSeries:
    """Integrate x' = -x + u + delta and record x, y = x + noise, u, delta.

    sim supplies dt and t_end; the plant starts from cfg.x0, so sim.initial
    must be left at its default.  As in run, sim.dt must divide the noise
    hold interval.  ValueError names u or delta where its samples are not
    shaped like their times, or the first step or midpoint time at which
    they are not finite.
    """
    if sim.initial != DiffState(0.0, 0.0):
        raise ValueError("the plant starts from PlantConfig.x0, not from "
                         f"sim.initial={sim.initial}")
    _check_hold(cfg.noise, sim.dt)
    t, tm = time_grid(sim)
    _raise_if_beyond((cfg.x0,), "plant state")
    u, delta, u_mid, delta_mid = (np.asarray(f(s), dtype=float)
                                  for s in (t, tm) for f in (cfg.u, cfg.delta))
    _check_samples("u", (t, tm), (u, u_mid))
    _check_samples("delta", (t, tm), (delta, delta_mid))
    forcing_mid = u_mid + delta_mid
    del tm, u_mid, delta_mid  # freed before the kernel allocates x
    x, bad = _kernels.integrate_relaxation(
        cfg.x0, u + delta, forcing_mid, 1.0, sim.dt, STATE_LIMIT)
    del forcing_mid
    _raise_if_diverged(bad, sim.dt, "plant state")
    y = x.copy()
    if _adds_noise(cfg.noise):
        y += bl_white_noise(cfg.noise, t)
    return TimeSeries(t=t, channels={"x": x, "y": y, "u": u, "delta_true": delta})


def estimate_delta(ts: TimeSeries, p: DiffParams) -> TimeSeries:
    """Reconstruct the disturbance from a recorded plant run.

    Drives the differentiator with the sampled y sequence, causally: within
    each step the input is interpolated linearly between the sample that
    opens the step and the one that closes it (no future samples beyond the
    step, no acausal smoothing).  Appends channels x1_hat, x2_hat and
    delta_hat = x2_hat + x1_hat - u.  The step is t[1] - t[0]; ValueError
    names a record of fewer than 2 samples, a step not finite and positive,
    or the first step that differs from it by more than rounding.
    """
    t, y, u = ts.t, ts.channel("y"), ts.channel("u")
    if len(t) < 2:
        raise ValueError(f"the record has {len(t)} samples, fewer than 2")
    dt = ts.dt
    if not 0.0 < dt < math.inf:
        raise ValueError(f"the record's step t[1] - t[0] is {dt:g}, not "
                         "finite and positive")
    # a grid t[0] + i*dt rounds each step by under len(t) ulps of its
    # largest |t|, which |t[0]| + len(t)*dt bounds (t[-1] may not be
    # finite); checked a kernel window at a time, since a temporary of the
    # record's length raised a run's peak RSS although freed before the run
    tol = len(t) * np.finfo(float).eps * (abs(t[0]) + len(t) * dt)
    w = _kernels._WINDOW_STEPS
    for i0 in range(0, len(t) - 1, w):
        with np.errstate(invalid="ignore"):  # a step inf - inf is nan
            off = np.diff(t[i0:i0 + w + 1])
        off -= dt
        off = np.flatnonzero(~(np.abs(off, out=off) <= tol))
        if off.size:
            i = i0 + off[0]
            raise ValueError(f"the record's step t[{i + 1}] - t[{i}] is "
                             f"{t[i + 1] - t[i]:g}, not t[1] - t[0] = {dt:g}")
    y_mid = 0.5 * (y[:-1] + y[1:])
    x1h, x2h, bad = _kernels.integrate_hybrid(
        0.0, 0.0, y, y_mid, p.eps, p.a0, p.a1, p.b0, p.b1, p.alpha,
        dt, STATE_LIMIT)
    del y_mid
    _raise_if_diverged(bad, dt, "estimator state")
    delta_hat = np.add(x2h, x1h)
    delta_hat -= u
    return TimeSeries(t=ts.t, channels={**ts.channels, "x1_hat": x1h,
                                        "x2_hat": x2h,
                                        "delta_hat": delta_hat})
