"""Equivalent linearization of the differentiator family.

Under a sinusoidal input of amplitude A, the signed-power nonlinearity is
replaced by its amplitude-dependent equivalent gain (the fundamental-harmonic
ratio, a closed form in Gamma functions).  The differentiator then collapses
to a second-order low-pass system whose natural frequency and damping are
computed here, with its analytic frequency response.
"""

import math
from dataclasses import dataclass

from .dynamics import DiffParams


class OverdampedError(ValueError):
    """Equivalent damping ratio fell outside (0, 1)."""


class DegenerateError(ValueError):
    """No second-order equivalent exists: a gain is zero or overflows."""


@dataclass(frozen=True)
class EquivalentLinearization:
    """Second-order equivalent system G(s) = k_pos / (s^2 + k_vel*s + k_pos).

    omega_n and zeta are the usual natural frequency and damping ratio,
    omega_d = omega_n*sqrt(1 - zeta^2) the damped frequency, and
    k_pos = omega_n^2, k_vel = 2*zeta*omega_n the raw coefficients.
    """

    omega_n: float
    zeta: float
    omega_d: float
    k_pos: float
    k_vel: float

    @property
    def numerator(self) -> tuple[float]:
        return (self.k_pos,)

    @property
    def denominator(self) -> tuple[float, float, float]:
        return (1.0, self.k_vel, self.k_pos)


@dataclass(frozen=True)
class FreqPoint:
    """One point of a frequency response (phase in degrees, lag negative)."""

    omega: float
    mag: float
    mag_db: float
    phase_deg: float


def omega_factor(alpha: float) -> float:
    """Fundamental-harmonic factor (2/pi) * int_0^pi |sin t|^(alpha+1) dt.

    Equals 1 at alpha = 1 and 4/pi at alpha = 0; strictly between 1 and 2
    for alpha in (0, 1).  The Wallis integral in closed form:
    2/sqrt(pi) * Gamma(alpha/2 + 1) / Gamma(alpha/2 + 3/2).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return (2.0 / math.sqrt(math.pi)
            * math.gamma(alpha / 2.0 + 1.0) / math.gamma(alpha / 2.0 + 1.5))


def describing_gain(A: float, alpha: float) -> float:
    """Equivalent gain of sig(.)^alpha at oscillation amplitude A.

    N(A) = omega_factor(alpha) * A^(alpha-1): strictly decreasing in A for
    alpha < 1, identically 1 for alpha = 1.
    """
    if not 0.0 < A < math.inf:
        raise ValueError(f"amplitude must be finite and positive, got {A}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    try:
        return omega_factor(alpha) * A ** (alpha - 1.0)
    except OverflowError:  # A^(alpha-1) for a tiny A
        raise ValueError(
            f"equivalent gain at amplitude {A:g} overflows") from None


def _equivalent_gains(p: DiffParams, A: float) -> tuple[float, float]:
    """Position and velocity gains (a0 + a1*N(A), b0 + b1*N(A)) at amplitude A."""
    n_pos = describing_gain(A, p.alpha)
    kp_gain = p.a0 + p.a1 * n_pos
    if kp_gain <= 0.0:
        raise DegenerateError("effective position gain is zero")
    return kp_gain, p.b0 + p.b1 * n_pos


def natural_frequency(p: DiffParams, A: float) -> float:
    """Natural frequency of the equivalent system, sqrt(a0 + a1*N(A))/eps.

    Raises DegenerateError when it underflows to 0 or overflows.
    """
    omega_n = math.sqrt(_equivalent_gains(p, A)[0]) / p.eps
    if not 0.0 < omega_n < math.inf:
        raise DegenerateError(
            f"natural frequency {omega_n:g} rad/s is not a positive finite "
            "number")
    return omega_n


def linearize(p: DiffParams, A: float) -> EquivalentLinearization:
    """Equivalent second-order linearization at input amplitude A.

    omega_n = sqrt(a0 + a1*N(A)) / eps
    zeta    = (b0 + b1*N(A)) / (2*sqrt(a0 + a1*N(A)))

    For a purely linear parameter set the result is independent of A.
    Raises OverdampedError when the damping ratio leaves (0, 1), since the
    damped-frequency and phase formulas assume an underdamped system.
    """
    kp_gain, kv_gain = _equivalent_gains(p, A)
    omega_n = math.sqrt(kp_gain) / p.eps
    zeta = kv_gain / (2.0 * math.sqrt(kp_gain))
    if not 0.0 < zeta < 1.0:
        raise OverdampedError(
            f"damping ratio {zeta:.6g} outside (0, 1); "
            "equivalent system is not underdamped")
    omega_d = omega_n * math.sqrt(1.0 - zeta * zeta)
    k_pos, k_vel = kp_gain / (p.eps * p.eps), kv_gain / p.eps
    if not (0.0 < k_pos < math.inf and k_vel < math.inf):
        raise DegenerateError(
            f"equivalent gains k_pos={k_pos:g}, k_vel={k_vel:g} are not "
            "positive finite numbers")
    return EquivalentLinearization(
        omega_n=omega_n, zeta=zeta, omega_d=omega_d, k_pos=k_pos, k_vel=k_vel)


def _freq_point(omega, mag: float, phase: float, name: str,
                corner: float) -> FreqPoint:
    """FreqPoint of a magnitude 1/sqrt(D); raises ValueError if D overflowed."""
    if not mag > 0.0:
        raise ValueError(
            f"omega={omega:g} rad/s is too far above {name}={corner:g} rad/s: "
            "the magnitude's denominator overflows")
    return FreqPoint(omega=omega, mag=mag, mag_db=20.0 * math.log10(mag),
                     phase_deg=phase)


def freq_response(lin: EquivalentLinearization, omega: float) -> FreqPoint:
    """Analytic frequency response of the equivalent second-order system.

    Magnitude 1/sqrt((1 - u^2)^2 + 4*zeta^2*u^2) with u = omega/omega_n;
    phase in (-180, 0] degrees, exactly -90 at omega = omega_n.  Raises
    ValueError when the magnitude's denominator overflows (omega far above
    omega_n).
    """
    if not omega > 0.0:
        raise ValueError("omega must be positive")
    u = float(omega) / lin.omega_n  # float overflows to inf without a warning
    u2 = u * u
    try:
        mag = 1.0 / math.sqrt((1.0 - u2) ** 2 + 4.0 * lin.zeta ** 2 * u2)
    except OverflowError:  # (1 - u^2)^2 far above omega_n
        mag = 0.0
    phase = -math.degrees(math.atan2(2.0 * lin.zeta * u, 1.0 - u2))
    return _freq_point(omega, mag, phase, "omega_n", lin.omega_n)


def first_order_response(a0: float, eps: float, omega: float) -> FreqPoint:
    """Frequency response of the classical first-order filter.

    G(s) = c/(s + c) with corner c = sqrt(a0)/eps; rolls off at
    -20 dB/decade, half the slope of the second-order differentiator.
    Raises ValueError as freq_response does, far above the corner.
    """
    if not (a0 > 0.0 and eps > 0.0 and omega > 0.0):
        raise ValueError("a0, eps and omega must all be positive")
    w_ratio = float(omega) * eps / math.sqrt(a0)
    mag = 1.0 / math.sqrt(w_ratio * w_ratio + 1.0)
    phase = -math.degrees(math.atan(w_ratio))
    return _freq_point(omega, mag, phase, "corner sqrt(a0)/eps",
                       math.sqrt(a0) / eps)


def _increasing(omegas: list) -> list:
    """omegas, if they strictly increase; else ValueError."""
    if not all(hi > lo for lo, hi in zip(omegas, omegas[1:])):
        raise ValueError("frequency grid must be strictly increasing")
    return omegas


def bode_table(lin: EquivalentLinearization, omegas) -> list[FreqPoint]:
    """Tabulate freq_response over a strictly increasing frequency grid."""
    return [freq_response(lin, w) for w in _increasing(list(omegas))]
