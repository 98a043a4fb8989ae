"""Differentiator family: parameters, state, and right-hand sides.

One parameter set covers the whole family.  With ``a1 = b1 = 0`` the system
is the purely linear differentiator, with ``a0 = b0 = 0`` the purely
nonlinear one, and with all four gains positive the hybrid of both.
"""

import math
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class DiffParams:
    """Gains of a tracking differentiator.

    eps is the perturbation parameter (R = 1/eps is the familiar gain
    knob); a0/b0 weight the linear position/velocity terms and a1/b1 the
    signed-power ones with exponent alpha.
    """

    eps: float
    a0: float = 0.0
    a1: float = 0.0
    b0: float = 0.0
    b1: float = 0.0
    alpha: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(
                    f"{f.name} must be finite, got {getattr(self, f.name)}")
        if not self.eps > 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not self.r * self.r < math.inf:
            raise ValueError(f"eps={self.eps:g} is too small: 1/eps^2 overflows")
        for name in ("a0", "a1", "b0", "b1"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        if not self.a0 + self.a1 > 0.0:
            raise ValueError("a0 + a1 must be positive (no position feedback)")
        if not self.b0 + self.b1 > 0.0:
            raise ValueError("b0 + b1 must be positive (no velocity feedback)")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if (self.a1 > 0.0 or self.b1 > 0.0) and self.alpha >= 1.0:
            raise ValueError("alpha < 1 required when a1 or b1 is positive")

    @property
    def r(self) -> float:
        """Gain parameter R = 1/eps."""
        return 1.0 / self.eps

    @property
    def is_linear(self) -> bool:
        return self.a1 == 0.0 and self.b1 == 0.0


@dataclass(frozen=True)
class DiffState:
    """State pair: x1 tracks the input signal, x2 its derivative."""

    x1: float
    x2: float


def sig_pow(y: float, alpha: float) -> float:
    """Signed power |y|^alpha * sgn(y); continuous, odd, increasing."""
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    s = 1.0 if y > 0.0 else (-1.0 if y < 0.0 else 0.0)
    return s * abs(y) ** alpha


def hybrid_rhs(state: DiffState, v: float, p: DiffParams) -> DiffState:
    """Right-hand side of the differentiator driven by input value v.

    Returns (x1', x2') with

        x1' = x2
        eps^2 * x2' = -a0*e - a1*sig(e)^alpha - b0*eps*x2
                      - b1*sig(eps*x2)^alpha,      e = x1 - v.
    """
    e = state.x1 - v
    ev = p.eps * state.x2
    d2 = -(p.a0 * e + p.a1 * sig_pow(e, p.alpha) + p.b0 * ev
           + p.b1 * sig_pow(ev, p.alpha)) / (p.eps * p.eps)
    return DiffState(state.x2, d2)


def highgain_rhs(state: DiffState, v: float, p: DiffParams) -> DiffState:
    """Right-hand side of the equivalent gain-scaled realization (linear only).

        w1' = w2 - (b0/eps)*(w1 - v)
        w2' = -(a0/eps^2)*(w1 - v)

    The v -> w2 transfer function equals the v -> x2 transfer function of
    the plain realization.
    """
    if not p.is_linear:
        raise ValueError("gain-scaled realization requires a1 = b1 = 0")
    e = state.x1 - v
    return DiffState(state.x2 - p.b0 * e / p.eps, -p.a0 * e / (p.eps * p.eps))


def w_of_x(state: DiffState, p: DiffParams) -> DiffState:
    """Map plain coordinates to the gain-scaled chart: w1 = x1 + eps*b0*x2/a0."""
    if not p.is_linear:
        raise ValueError("coordinate change requires a1 = b1 = 0")
    return DiffState(state.x1 + p.eps * p.b0 * state.x2 / p.a0, state.x2)


def first_order_filter_rhs(x: float, v: float, a0: float, eps: float) -> float:
    """Classical first-order filter x' = (sqrt(a0)/eps) * (v - x)."""
    if not a0 > 0.0:
        raise ValueError("a0 must be positive")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    return a0 ** 0.5 / eps * (v - x)
