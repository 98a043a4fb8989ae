"""Fixed-step simulation of the differentiator family and tracking metrics.

Integration uses the classical 4-stage Runge-Kutta method on a uniform
grid.  The step size must resolve the fast differentiator dynamics, whose
rates scale as 1/eps, and must split each hold of a noise of nonzero power
into whole steps: the default rule is dt = min(eps/20, Ts/10, 1e-3), shrunk
to the next step that divides the hold interval Ts (a zero-power noise sets
no Ts).  A run takes at most MAX_STEPS steps; time_grid checks this before
it allocates.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .dynamics import DiffParams, DiffState
from .signals import (MAX_STEPS, NoiseSpec, SignalSpec, _adds_noise,
                      bl_white_noise, sinusoid, sinusoid_derivative)

#: States beyond this magnitude abort the integration as diverged.
STATE_LIMIT = 1e9


class InstabilityError(RuntimeError):
    """A run diverged (|x| > STATE_LIMIT) or did not settle, at time t."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step integration setup: step dt on [0, t_end] from initial."""

    dt: float
    t_end: float
    initial: DiffState = field(default_factory=lambda: DiffState(0.0, 0.0))

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if not 0.0 < self.t_end < math.inf:
            raise ValueError(
                f"t_end must be finite and positive, got {self.t_end}")
        if not (math.isfinite(self.initial.x1)
                and math.isfinite(self.initial.x2)):
            raise ValueError(f"initial state must be finite, got "
                             f"{self.initial}")


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled simulation record: shared time base plus named channels."""

    t: np.ndarray
    channels: dict

    def __post_init__(self):
        n = len(self.t)
        for name, values in self.channels.items():
            if len(values) != n:
                raise ValueError(f"channel {name!r} length {len(values)} != {n}")

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    def channel(self, name: str) -> np.ndarray:
        try:
            return self.channels[name]
        except KeyError:
            raise KeyError(
                f"no channel {name!r}; have {sorted(self.channels)}") from None


def default_dt(p: DiffParams, spec: Optional[SignalSpec] = None) -> float:
    """Step-size rule dt = min(eps/20, Ts/10, 1e-3), shrunk to divide Ts."""
    dt = min(p.eps / 20.0, 1e-3)
    if spec is not None and _adds_noise(spec.noise):
        hold = spec.noise.sample_time
        try:
            dt = hold / math.ceil(hold / min(dt, hold / 10.0))
        except (ZeroDivisionError, OverflowError):  # hold/10 or the count
            raise ValueError(f"no step of at most {dt:g} s divides noise "
                             f"sample_time={hold:g}") from None
    return dt


def rk4_step(rhs, state, t: float, dt: float, u):
    """One classical Runge-Kutta step of state' = rhs(state, v).

    The input signal u(t) is evaluated at t, t + dt/2 and t + dt,
    consistently across the four stages.  Works for float or ndarray states.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    va = u(t)
    vm = u(t + 0.5 * dt)
    vb = u(t + dt)
    k1 = rhs(state, va)
    k2 = rhs(state + 0.5 * dt * k1, vm)
    k3 = rhs(state + 0.5 * dt * k2, vm)
    k4 = rhs(state + dt * k3, vb)
    return state + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def time_grid(cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Step grid t_i = i*dt (n+1 points) and the step midpoints (n points).

    Raises before allocating anything when n would exceed MAX_STEPS.
    """
    steps = cfg.t_end / cfg.dt
    if steps > MAX_STEPS:
        raise ValueError(
            f"t_end={cfg.t_end:g} at dt={cfg.dt:g} needs {steps:.4g} steps, "
            f"more than MAX_STEPS={MAX_STEPS}")
    n = int(round(steps))
    if n < 1:
        raise ValueError("t_end shorter than one step")
    t = np.arange(n + 1, dtype=float) * cfg.dt
    return t, t[:-1] + 0.5 * cfg.dt


def _raise_if_diverged(bad: int, dt: float, subject: str) -> None:
    """Turn a kernel's first divergent step index into an InstabilityError."""
    if bad >= 0:
        t_bad = bad * dt
        raise InstabilityError(
            f"{subject} exceeded {STATE_LIMIT:g} at t={t_bad:g} s "
            f"(dt={dt:g} too large?)", t=t_bad)


def _raise_if_beyond(start, subject: str) -> None:
    """An InstabilityError at t=0 where a start component exceeds STATE_LIMIT."""
    if any(abs(x) > STATE_LIMIT for x in start):
        named = ", ".join(f"{x:g}" for x in start)
        raise InstabilityError(f"{subject} start ({named}) exceeds "
                               f"{STATE_LIMIT:g} at t=0 s", t=0.0)


def _check_hold(noise: Optional[NoiseSpec], dt: float) -> None:
    """Raise unless dt splits each hold of a nonzero noise into whole steps."""
    if _adds_noise(noise):
        holds = noise.sample_time / dt
        if not (0.0 < holds < math.inf
                and abs(holds - round(holds)) <= 1e-9 * holds):
            raise ValueError(
                f"dt={dt:g} does not divide noise sample_time="
                f"{noise.sample_time:g}")


def _run(spec: SignalSpec, cfg: SimConfig, kernel) -> TimeSeries:
    """Shared run path: hold check, input synthesis, kernel(v, v_mid), channels."""
    _check_hold(spec.noise, cfg.dt)
    t, tm = time_grid(cfg)
    _raise_if_beyond((cfg.initial.x1, cfg.initial.x2), "state")
    A, w = spec.amplitude, spec.omega
    v, v_mid = sinusoid(A, w, t), sinusoid(A, w, tm)
    # tm and the noise are freed before the kernel allocates x1 and x2, and
    # v_mid once it returns, before the reference channels are built: a run
    # holds t, v, v_mid and the states, then t and the five channels
    del tm
    if _adds_noise(spec.noise):
        # dt divides the hold, so step i's midpoint lies in the hold of t[i]
        noise = bl_white_noise(spec.noise, t)
        v += noise
        v_mid += noise[:-1]
        del noise
    x1, x2, bad = kernel(v, v_mid)
    del v_mid
    _raise_if_diverged(bad, cfg.dt, "state")
    # SignalSpec checked A*omega, and sinusoid each omega*t, before the kernel
    return TimeSeries(t=t, channels={
        "v": v, "x1": x1, "x2": x2, "v_clean": sinusoid(A, w, t),
        "dv_clean": sinusoid_derivative(A, w, t)})


def run(p: DiffParams, spec: SignalSpec, cfg: SimConfig) -> TimeSeries:
    """Simulate the differentiator over the signal.

    Returns channels v (input incl. noise), x1, x2, v_clean and dv_clean
    (noise-free reference and its exact derivative).  Noise is sampled on
    its own hold grid; cfg.dt must divide the hold interval so a hold
    never changes inside a step.
    """
    return _run(spec, cfg, lambda v, vm: _kernels.integrate_hybrid(
        cfg.initial.x1, cfg.initial.x2, v, vm,
        p.eps, p.a0, p.a1, p.b0, p.b1, p.alpha, cfg.dt, STATE_LIMIT))


def run_highgain(p: DiffParams, spec: SignalSpec, cfg: SimConfig) -> TimeSeries:
    """Simulate the gain-scaled realization (w coordinates, linear case only)."""
    if not p.is_linear:
        raise ValueError("gain-scaled realization requires a1 = b1 = 0")
    return _run(spec, cfg, lambda v, vm: _kernels.integrate_highgain(
        cfg.initial.x1, cfg.initial.x2, v, vm, p.eps, p.a0, p.b0,
        cfg.dt, STATE_LIMIT))


def rms_error(ts: TimeSeries, channel: str, reference: str,
              window: tuple[float, float]) -> float:
    """Root-mean-square of channel - reference over the time window."""
    t0, t1 = window
    if t0 > t1:
        raise ValueError("window start exceeds window end")
    if t0 < ts.t[0] - 1e-12 or t1 > ts.t[-1] + 1e-12:
        raise ValueError(
            f"window [{t0:g}, {t1:g}] outside record [{ts.t[0]:g}, {ts.t[-1]:g}]")
    mask = (ts.t >= t0) & (ts.t <= t1)
    if not np.any(mask):
        raise ValueError("window contains no samples")
    diff = ts.channel(channel)[mask] - ts.channel(reference)[mask]
    return float(np.sqrt(np.mean(diff * diff)))


def eps_ladder(p: DiffParams, eps_values: Sequence[float]) -> list[DiffParams]:
    """Same gain set across a ladder of eps values."""
    return [replace(p, eps=float(e)) for e in eps_values]
