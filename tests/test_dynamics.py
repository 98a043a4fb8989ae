import math

import numpy as np
import pytest

from tdlab.dynamics import (
    DiffParams,
    DiffState,
    first_order_filter_rhs,
    highgain_rhs,
    hybrid_rhs,
    sig_pow,
    w_of_x,
)

P3A = DiffParams(eps=1 / 45, a0=0.05, b0=0.3)


def ulps_apart(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / np.spacing(max(abs(a), abs(b)))


class TestDiffParams:
    def test_r_alias(self):
        assert DiffParams(eps=0.01, a0=1.0, b0=1.0).r == pytest.approx(100.0)

    @pytest.mark.parametrize("kwargs", [
        dict(eps=0.0, a0=1.0, b0=1.0),
        dict(eps=-1.0, a0=1.0, b0=1.0),
        dict(eps=0.1, a0=0.0, a1=0.0, b0=1.0),          # no position feedback
        dict(eps=0.1, a0=1.0, b0=0.0, b1=0.0),          # no velocity feedback
        dict(eps=0.1, a0=1.0, b0=1.0, alpha=0.0),
        dict(eps=0.1, a0=1.0, b0=1.0, alpha=1.5),
        dict(eps=0.1, a0=1.0, a1=0.1, b0=1.0, alpha=1.0),  # nonlinear needs alpha<1
        dict(eps=0.1, a0=1.0, a1=-0.1, b0=1.0, alpha=0.5),
        dict(eps=1e-300, a0=1.0, b0=1.0),                 # 1/eps^2 overflows
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DiffParams(**kwargs)

    def test_family_members_valid(self):
        DiffParams(eps=1 / 45, a1=0.099, b1=0.268, alpha=0.5)   # pure nonlinear
        DiffParams(eps=0.01, a0=0.1, a1=0.015, b0=0.3, b1=0.015,
                   alpha=0.6)                                   # hybrid


class TestSigPow:
    def test_zero(self):
        assert sig_pow(0.0, 0.5) == 0.0

    def test_odd_symmetry_value(self):
        assert sig_pow(-4.0, 0.5) == pytest.approx(-2.0, abs=1e-15)

    def test_identity_at_one(self):
        assert sig_pow(2.0, 1.0) == 2.0

    def test_odd_exact(self):
        for alpha in (0.3, 0.5, 0.6, 1.0):
            for y in np.linspace(-3.0, 3.0, 41):
                assert sig_pow(-y, alpha) == -sig_pow(y, alpha)

    def test_identity_everywhere_at_alpha_one(self):
        for y in np.linspace(-10.0, 10.0, 31):
            assert sig_pow(y, 1.0) == y

    def test_strictly_increasing(self):
        ys = np.linspace(-2.0, 2.0, 101)
        vals = [sig_pow(y, 0.5) for y in ys]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            sig_pow(1.0, 0.0)


class TestHybridRhs:
    def test_equilibrium(self):
        d = hybrid_rhs(DiffState(1.7, 0.0), 1.7, P3A)
        assert d.x1 == 0.0 and d.x2 == 0.0

    def test_linear_position_term(self):
        # x2' = a0/eps^2 * (v - x1) = 0.05 * 45^2 = 101.25
        d = hybrid_rhs(DiffState(0.0, 0.0), 1.0, P3A)
        assert d.x1 == 0.0
        assert d.x2 == pytest.approx(101.25, rel=1e-12)

    def test_nonlinear_position_term(self):
        p = DiffParams(eps=1 / 45, a1=0.099, b1=0.268, alpha=0.5)
        d = hybrid_rhs(DiffState(1.0, 0.0), 0.0, p)
        assert d.x2 == pytest.approx(-200.475, rel=1e-12)

    def test_degree_one_homogeneous_linear(self):
        state = DiffState(0.4, -1.2)
        v = 0.9
        base = hybrid_rhs(state, v, P3A)
        for lam in (0.5, 2.0, -3.0, 7.25):
            scaled = hybrid_rhs(DiffState(lam * state.x1, lam * state.x2),
                                lam * v, P3A)
            assert scaled.x1 == pytest.approx(lam * base.x1, rel=1e-12)
            assert scaled.x2 == pytest.approx(lam * base.x2, rel=1e-12)

    def test_matches_dedicated_linear_form(self):
        # x2' = (-a0*(x1 - v) - b0*eps*x2) / eps^2, written independently
        rng = np.random.default_rng(3)
        for _ in range(50):
            x1, x2, v = rng.uniform(-5, 5, size=3)
            expected = (-P3A.a0 * (x1 - v) - P3A.b0 * P3A.eps * x2) / P3A.eps ** 2
            got = hybrid_rhs(DiffState(x1, x2), v, P3A)
            assert ulps_apart(got.x2, expected) <= 2.0

    def test_matches_dedicated_nonlinear_form(self):
        p = DiffParams(eps=1 / 45, a1=0.099, b1=0.268, alpha=0.5)
        rng = np.random.default_rng(4)
        for _ in range(50):
            x1, x2, v = rng.uniform(-5, 5, size=3)
            e = x1 - v
            expected = (-p.a1 * abs(e) ** 0.5 * np.sign(e)
                        - p.b1 * abs(p.eps * x2) ** 0.5 * np.sign(x2)) / p.eps ** 2
            got = hybrid_rhs(DiffState(x1, x2), v, p)
            assert ulps_apart(got.x2, expected) <= 2.0


class TestHighGainRhs:
    def test_equilibrium(self):
        d = highgain_rhs(DiffState(0.3, 0.0), 0.3, P3A)
        assert d.x1 == 0.0 and d.x2 == 0.0

    def test_gain_values(self):
        # w1' = b0/eps = 13.5, w2' = a0/eps^2 = 101.25 at unit error
        d = highgain_rhs(DiffState(0.0, 0.0), 1.0, P3A)
        assert d.x1 == pytest.approx(13.5, rel=1e-12)
        assert d.x2 == pytest.approx(101.25, rel=1e-12)

    def test_rejects_nonlinear(self):
        p = DiffParams(eps=0.1, a0=1.0, a1=0.1, b0=1.0, alpha=0.5)
        with pytest.raises(ValueError):
            highgain_rhs(DiffState(0.0, 0.0), 0.0, p)


class TestCoordinateChange:
    def test_zero_velocity_fixed_point(self):
        w = w_of_x(DiffState(2.5, 0.0), P3A)
        assert w.x1 == 2.5 and w.x2 == 0.0

    def test_shift_value(self):
        # eps*b0/a0 = (1/45)*0.3/0.05 = 2/15
        w = w_of_x(DiffState(0.0, 1.0), P3A)
        assert w.x1 == pytest.approx(2.0 / 15.0, rel=1e-12)
        assert w.x2 == 1.0

    def test_rejects_nonlinear(self):
        p = DiffParams(eps=0.1, a0=1.0, a1=0.1, b0=1.0, alpha=0.5)
        with pytest.raises(ValueError):
            w_of_x(DiffState(0.0, 0.0), p)


class TestFirstOrderFilter:
    def test_equilibrium(self):
        assert first_order_filter_rhs(0.8, 0.8, 0.05, 1 / 45) == 0.0

    def test_gain(self):
        # sqrt(0.05)*45 = 10.0623...
        got = first_order_filter_rhs(0.0, 1.0, 0.05, 1 / 45)
        assert got == pytest.approx(math.sqrt(0.05) * 45.0, rel=1e-12)

    def test_unit_dc_gain_of_step_response(self):
        # integrate x' = k (1 - x) for ten time constants
        from tdlab.simulate import rk4_step

        k = math.sqrt(0.05) * 45.0
        dt = 1e-3
        n = int(round(10.0 / k / dt))
        x = 0.0
        rhs = lambda state, v: first_order_filter_rhs(state, v, 0.05, 1 / 45)
        for i in range(n):
            x = rk4_step(rhs, x, i * dt, dt, lambda t: 1.0)
        assert x == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("a0,eps", [(0.0, 0.1), (-1.0, 0.1), (0.05, 0.0)])
    def test_rejects_bad_params(self, a0, eps):
        with pytest.raises(ValueError):
            first_order_filter_rhs(0.0, 1.0, a0, eps)
