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
#: Most steps of a run (about 65 B each), and holds past a noise call's first.
MAX_STEPS = 2**24


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
        if self.seed < 0:
            raise ValueError(f"noise seed must be non-negative, got {self.seed}")

    @property
    def sigma(self) -> float:
        """Standard deviation of each held value."""
        return math.sqrt(self.power / self.sample_time)


def _adds_noise(noise: Optional[NoiseSpec]) -> bool:
    """Whether noise changes a signal: given, and of nonzero power."""
    return noise is not None and noise.power > 0.0


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
    """First n held noise values, a deterministic function of spec.seed;
    ValueError where sigma overflows or n > MAX_STEPS + 1, before any draw."""
    if not spec.sigma < math.inf:
        raise ValueError(f"noise variance power/sample_time overflows in {spec}")
    if n > MAX_STEPS + 1:
        raise ValueError(f"{n:.10g} noise holds, more than MAX_STEPS + 1 = "
                         f"{MAX_STEPS + 1}")
    rng = np.random.default_rng(spec.seed)
    return rng.standard_normal(n) * spec.sigma


def bl_white_noise(spec: NoiseSpec, t):
    """Noise value(s) at time(s) t >= 0 (constant inside each hold interval).

    The hold index is floor(t/Ts) with a tiny forward nudge so that grid
    times landing a rounding error below a hold boundary still pick up the
    new hold.  ValueError where t < 0 or not finite, or from noise_holds.
    """
    t = np.asarray(t, dtype=float)
    bad = ~((0.0 <= t) & (t < np.inf))
    if bad.any():
        raise ValueError(
            f"noise time must be finite and non-negative, got {t[bad][0]}")
    if not _adds_noise(spec):
        return np.zeros_like(t) if t.ndim else 0.0
    k = float(np.max(t, initial=-spec.sample_time)) / spec.sample_time + 1e-9
    holds = noise_holds(spec, math.floor(k) + 1 if k < math.inf else k)
    out = holds[np.floor(t / spec.sample_time + 1e-9).astype(np.int64)]
    return out if t.ndim else float(out)

