"""Test inputs: sinusoids and band-limited white noise with hold semantics.

The noise generator mimics the usual simulation-block convention: a zero-mean
Gaussian value with variance power/sample_time is drawn for each hold
interval [k*Ts, (k+1)*Ts) and held constant across it.  Draws come from
numpy's default PCG64 generator seeded with the spec'd integer seed, so a
given (seed, k) pair always yields the same value on every platform pinned
to the same numpy generation algorithm (standard_normal via ziggurat).

bl_white_noise evaluates the noise at any times.  A simulation run calls it
once, on its step grid, and gives each step midpoint the hold of its step,
which is the same value because the step divides the hold interval.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

#: Seed used whenever the caller does not supply one (never wall-clock).
DEFAULT_SEED = 12345


@dataclass(frozen=True)
class NoiseSpec:
    """Band-limited white noise: held Gaussian draws, variance power/sample_time."""

    power: float
    sample_time: float
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if not 0.0 <= self.power < math.inf:
            raise ValueError(
                f"noise power must be finite and non-negative, got {self.power}")
        if not 0.0 < self.sample_time < math.inf:
            raise ValueError(
                f"sample_time must be finite and positive, got {self.sample_time}")

    @property
    def sigma(self) -> float:
        """Standard deviation of each held value."""
        return math.sqrt(self.power / self.sample_time)


@dataclass(frozen=True)
class SignalSpec:
    """Sinusoid A*sin(omega*t), optionally with additive hold noise."""

    amplitude: float
    omega: float
    noise: Optional[NoiseSpec] = None

    def __post_init__(self):
        for name in ("amplitude", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if not math.isfinite(self.amplitude * self.omega):
            raise ValueError("the peak derivative amplitude*omega overflows")

    def with_seed(self, seed: int) -> "SignalSpec":
        if self.noise is None:
            return self
        return replace(self, noise=replace(self.noise, seed=seed))


def sinusoid(A: float, omega: float, t):
    """A*sin(omega*t); accepts scalars or arrays."""
    return A * np.sin(omega * np.asarray(t, dtype=float))


def sinusoid_derivative(A: float, omega: float, t):
    """Exact derivative A*omega*cos(omega*t) for reference channels."""
    return A * omega * np.cos(omega * np.asarray(t, dtype=float))


def noise_holds(spec: NoiseSpec, n: int) -> np.ndarray:
    """First n held noise values, a deterministic function of spec.seed."""
    rng = np.random.default_rng(spec.seed)
    return rng.standard_normal(n) * spec.sigma


def bl_white_noise(spec: NoiseSpec, t):
    """Noise value(s) at time(s) t >= 0 (constant inside each hold interval).

    The hold index is floor(t/Ts) with a tiny forward nudge so that grid
    times landing a rounding error below a hold boundary still pick up the
    new hold.
    """
    t = np.asarray(t, dtype=float)
    if spec.power == 0.0:
        return np.zeros_like(t) if t.ndim else 0.0
    k = np.floor(t / spec.sample_time + 1e-9).astype(np.int64)
    holds = noise_holds(spec, int(np.max(k)) + 1)
    out = holds[k]
    return out if t.ndim else float(out)

