"""Disturbance reconstruction for the scalar uncertain plant.

The plant is x' = -x + u(t) + delta(t) with measurement y = x + noise.
Since delta = x' + x - u, a differentiator driven by y supplies estimates
of x and x' and the disturbance follows from the algebraic identity:

    delta_hat = x2_hat + x1_hat - u

The filtered estimate x1_hat (not the raw measurement y) stands in for x,
so the measurement noise that the differentiator suppresses is not
reinjected into the reconstruction.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _kernels
from .dynamics import DiffParams, DiffState
from .signals import NoiseSpec, _adds_noise, bl_white_noise
from .simulate import (STATE_LIMIT, SimConfig, TimeSeries, _check_hold,
                       _raise_if_diverged, time_grid)


@dataclass(frozen=True)
class PlantConfig:
    """Scalar uncertain plant setup.

    u and delta are vectorized callables of time (control input and the
    disturbance truth channel); noise is the measurement noise on y.
    """

    u: Callable[[np.ndarray], np.ndarray]
    delta: Callable[[np.ndarray], np.ndarray]
    noise: Optional[NoiseSpec] = None
    x0: float = 0.0


def simulate_plant(cfg: PlantConfig, sim: SimConfig) -> TimeSeries:
    """Integrate x' = -x + u + delta and record x, y = x + noise, u, delta.

    sim supplies dt and t_end; the plant starts from cfg.x0, so sim.initial
    must be left at its default.  As in run, sim.dt must divide the noise
    hold interval.
    """
    if sim.initial != DiffState(0.0, 0.0):
        raise ValueError("the plant starts from PlantConfig.x0, not from "
                         f"sim.initial={sim.initial}")
    _check_hold(cfg.noise, sim.dt)
    t, tm = time_grid(sim)
    u = np.asarray(cfg.u(t), dtype=float)
    delta = np.asarray(cfg.delta(t), dtype=float)
    forcing_mid = np.asarray(cfg.u(tm), dtype=float) + np.asarray(cfg.delta(tm), dtype=float)
    x, bad = _kernels.integrate_relaxation(
        cfg.x0, u + delta, forcing_mid, 1.0, sim.dt, STATE_LIMIT)
    _raise_if_diverged(bad, sim.dt, "plant state")
    y = x.copy()
    if _adds_noise(cfg.noise):
        y = y + bl_white_noise(cfg.noise, t)
    return TimeSeries(t=t, channels={"x": x, "y": y, "u": u, "delta_true": delta})


def estimate_delta(ts: TimeSeries, p: DiffParams) -> TimeSeries:
    """Reconstruct the disturbance from a recorded plant run.

    Drives the differentiator with the sampled y sequence, causally: within
    each step the input is interpolated linearly between the sample that
    opens the step and the one that closes it (no future samples beyond the
    step, no acausal smoothing).  Appends channels x1_hat, x2_hat and
    delta_hat = x2_hat + x1_hat - u.
    """
    y = ts.channel("y")
    u = ts.channel("u")
    dt = ts.dt
    y_mid = 0.5 * (y[:-1] + y[1:])
    x1h, x2h, bad = _kernels.integrate_hybrid(
        0.0, 0.0, y, y_mid, p.eps, p.a0, p.a1, p.b0, p.b1, p.alpha,
        dt, STATE_LIMIT)
    _raise_if_diverged(bad, dt, "estimator state")
    return TimeSeries(t=ts.t, channels={**ts.channels, "x1_hat": x1h,
                                        "x2_hat": x2h,
                                        "delta_hat": x2h + x1h - u})
