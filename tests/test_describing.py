import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from tdlab.describing import (
    DegenerateError,
    EquivalentLinearization,
    OverdampedError,
    asymptote_db,
    bode_table,
    describing_gain,
    first_order_response,
    freq_response,
    linearize,
    natural_frequency,
    omega_factor,
)
from tdlab.dynamics import DiffParams
from tdlab.simulate import default_skip
from tdlab.sweep import measure_point

P3A = DiffParams(eps=1 / 45, a0=0.05, b0=0.3)
P3B = DiffParams(eps=1 / 45, a1=0.099, b1=0.268, alpha=0.5)
P3C_HYBRID = DiffParams(eps=1 / 45, a0=0.005, a1=0.005, b0=0.05, b1=0.005,
                        alpha=0.5)
P3C_LINEAR = DiffParams(eps=1 / 45, a0=0.005, b0=0.05)


class TestOmegaFactor:
    def test_unity_at_alpha_one(self):
        assert omega_factor(1.0) == pytest.approx(1.0, abs=1e-6)

    def test_half(self):
        assert omega_factor(0.5) == pytest.approx(1.1128, abs=5e-4)

    def test_zero(self):
        assert omega_factor(0.0) == pytest.approx(4.0 / math.pi, abs=1e-6)

    def test_quadrature_oracle(self):
        # the defining integral, evaluated numerically
        for alpha in np.linspace(0.0, 1.0, 21):
            val, _ = quad(lambda th: abs(math.sin(th)) ** (alpha + 1.0),
                          0.0, math.pi, epsabs=1e-10, epsrel=1e-10)
            assert omega_factor(alpha) == pytest.approx(2.0 / math.pi * val,
                                                        rel=1e-10)

    @pytest.mark.parametrize("alpha", [-0.01, 1.01, 5.0])
    def test_rejects_out_of_range(self, alpha):
        with pytest.raises(ValueError):
            omega_factor(alpha)

    def test_bound_and_monotonicity_on_grid(self):
        grid = np.linspace(0.0, 1.0, 101)
        vals = [omega_factor(a) for a in grid]
        for v in vals[1:-1]:                       # 99 interior points
            assert 1.0 < v < 2.0
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[0] == pytest.approx(4.0 / math.pi, abs=1e-6)
        assert vals[-1] == pytest.approx(1.0, abs=1e-6)


class TestDescribingGain:
    def test_unit_amplitude(self):
        assert describing_gain(1.0, 0.5) == pytest.approx(1.1128, abs=5e-4)

    def test_amplitude_five(self):
        assert describing_gain(5.0, 0.5) == pytest.approx(0.49766, abs=3e-4)

    def test_amplitude_five_direct_quadrature(self):
        # independent oracle: full fundamental-component integral at A = 5
        A, alpha = 5.0, 0.5

        def integrand(th):
            y = A * math.sin(th)
            return abs(y) ** alpha * math.copysign(1.0, y) * math.sin(th)

        val, _ = quad(integrand, 0.0, math.pi, epsabs=1e-12)
        assert describing_gain(A, alpha) == pytest.approx(
            2.0 / (math.pi * A) * val, abs=1e-9)

    def test_linear_element_has_unity_gain(self):
        assert describing_gain(17.3, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_strictly_decreasing_in_amplitude(self):
        amps = np.logspace(-1, 1, 25)
        vals = [describing_gain(A, 0.5) for A in amps]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("A", [0.0, -1.0])
    def test_rejects_nonpositive_amplitude(self, A):
        with pytest.raises(ValueError):
            describing_gain(A, 0.5)

    def test_overflow_is_a_value_error(self):
        # A^(alpha-1) = 5e-324^-0.999 is beyond the largest float
        with pytest.raises(ValueError, match="overflows"):
            describing_gain(5e-324, 1e-3)


class TestLinearize:
    def test_linear_case(self):
        lin = linearize(P3A, 1.0)
        assert lin.omega_n == pytest.approx(10.062, abs=1e-3)
        assert lin.zeta == pytest.approx(0.67, abs=5e-3)
        assert lin.k_pos == pytest.approx(101.25, rel=1e-9)
        assert lin.k_vel == pytest.approx(13.5, rel=1e-9)

    def test_linear_case_independent_of_amplitude(self):
        ref = linearize(P3A, 1.0)
        for A in (0.01, 0.5, 5.0, 100.0):
            lin = linearize(P3A, A)
            assert lin.omega_n == ref.omega_n
            assert lin.zeta == ref.zeta

    def test_nonlinear_case_at_amplitude_five(self):
        lin = linearize(P3B, 5.0)
        assert lin.omega_n == pytest.approx(10.0, abs=0.05)
        assert lin.zeta == pytest.approx(0.3, abs=5e-3)
        assert lin.denominator[0] == 1.0
        assert lin.denominator[1] == pytest.approx(6.0, abs=0.05)
        assert lin.denominator[2] == pytest.approx(99.768, abs=0.1)

    def test_hybrid_case(self):
        lin = linearize(P3C_HYBRID, 0.5)
        assert lin.k_pos == pytest.approx(26.06, abs=0.05)
        assert lin.k_vel == pytest.approx(2.6, abs=0.01)

    def test_hybrid_linear_subcase(self):
        lin = linearize(P3C_LINEAR, 0.5)
        assert lin.omega_n == pytest.approx(3.18, abs=0.01)
        assert lin.zeta == pytest.approx(0.35, abs=5e-3)

    def test_invariants(self):
        for p, A in ((P3A, 1.0), (P3B, 5.0), (P3C_HYBRID, 0.5)):
            lin = linearize(p, A)
            assert lin.omega_d == pytest.approx(
                lin.omega_n * math.sqrt(1 - lin.zeta ** 2), rel=1e-12)
            assert lin.k_pos == pytest.approx(lin.omega_n ** 2, rel=1e-12)
            assert lin.k_vel == pytest.approx(2 * lin.zeta * lin.omega_n,
                                              rel=1e-12)

    def test_pure_nonlinear_closed_form_reduction(self):
        # omega_n = sqrt(a1)/eps * sqrt(N), zeta = b1*sqrt(N)/(2*sqrt(a1))
        for A in (0.5, 2.0, 5.0):
            n_gain = describing_gain(A, P3B.alpha)
            lin = linearize(P3B, A)
            assert lin.omega_n == pytest.approx(
                math.sqrt(P3B.a1) / P3B.eps * math.sqrt(n_gain), rel=1e-9)
            assert lin.zeta == pytest.approx(
                P3B.b1 * math.sqrt(n_gain) / (2 * math.sqrt(P3B.a1)), rel=1e-9)

    def test_natural_frequency_decreasing_in_amplitude(self):
        amps = np.logspace(-1, 1, 15)
        wn_nonlinear = [natural_frequency(P3B, A) for A in amps]
        assert all(b < a for a, b in zip(wn_nonlinear, wn_nonlinear[1:]))
        p4h = DiffParams(eps=0.01, a0=0.1, a1=0.015, b0=0.3, b1=0.015,
                         alpha=0.6)
        wn_hybrid = [natural_frequency(p4h, A) for A in amps]
        assert all(b < a for a, b in zip(wn_hybrid, wn_hybrid[1:]))
        floor = math.sqrt(p4h.a0) / p4h.eps
        assert all(w > floor for w in wn_hybrid)

    def test_overdamped_rejected(self):
        with pytest.raises(OverdampedError):
            linearize(DiffParams(eps=1.0, a0=1.0, b0=2.0), 1.0)

    def test_rejects_nonpositive_amplitude(self):
        with pytest.raises(ValueError):
            linearize(P3A, 0.0)

    def test_overflowing_gain_is_degenerate(self):
        # k_pos = a0/eps^2 = 1e300/1e-200 overflows although each field is finite
        with pytest.raises(DegenerateError, match="k_pos=inf"):
            linearize(DiffParams(eps=1e-100, a0=1e300, b0=1.0), 1.0)


@pytest.mark.parametrize("call", [
    lambda p: natural_frequency(p, 1.0),
    lambda p: default_skip(p, 1.0),
    lambda p: measure_point(p, 1.0, 1.0, 1e-3),
], ids=["natural_frequency", "default_skip", "measure_point"])
def test_underflowing_natural_frequency_is_degenerate(call):
    # sqrt(5e-324)/1e300 underflows to 0; the callers divide by it
    p = DiffParams(eps=1e300, a0=5e-324, b0=5e-324)
    with pytest.raises(DegenerateError, match="natural frequency 0 rad/s"):
        call(p)


_GAIN = st.floats(0.0, 10.0, allow_subnormal=False)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(linear=st.booleans(), eps=st.floats(1e-3, 1.0), a0=_GAIN, a1=_GAIN,
       b0=_GAIN, b1=_GAIN, alpha=st.floats(0.05, 0.95),
       A=st.floats(1e-3, 1e3))
def test_natural_frequency_matches_linearize(linear, eps, a0, a1, b0, b1,
                                             alpha, A):
    # sweep plans its points with natural_frequency, the Bode tables use
    # linearize: both read one equivalent-gain rule, so they agree exactly
    if linear:
        a1 = b1 = 0.0
        alpha = 1.0
    assume(a0 + a1 > 0.0 and b0 + b1 > 0.0)
    p = DiffParams(eps=eps, a0=a0, a1=a1, b0=b0, b1=b1, alpha=alpha)
    try:
        lin = linearize(p, A)
    except OverdampedError:
        return
    assert natural_frequency(p, A) == lin.omega_n


class TestFreqResponse:
    def test_dc_limit(self):
        lin = linearize(P3A, 1.0)
        pt = freq_response(lin, lin.omega_n * 1e-9)
        assert pt.mag == pytest.approx(1.0, abs=1e-9)
        assert pt.phase_deg == pytest.approx(0.0, abs=1e-6)

    def test_at_natural_frequency(self):
        lin = linearize(P3A, 1.0)
        pt = freq_response(lin, lin.omega_n)
        assert pt.mag == pytest.approx(1.0 / (2 * lin.zeta), rel=1e-12)
        assert pt.phase_deg == -90.0

    def test_linear_case_at_two_rad_s(self):
        lin = linearize(P3A, 1.0)
        pt = freq_response(lin, 2.0)
        assert pt.mag == pytest.approx(1.0033, abs=1e-3)
        assert pt.phase_deg == pytest.approx(-15.5, abs=0.1)

    def test_phase_continuous_at_corner(self):
        lin = linearize(P3A, 1.0)
        below = freq_response(lin, lin.omega_n * (1 - 1e-9)).phase_deg
        above = freq_response(lin, lin.omega_n * (1 + 1e-9)).phase_deg
        assert below == pytest.approx(-90.0, abs=1e-5)
        assert above == pytest.approx(-90.0, abs=1e-5)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(zeta=st.floats(1e-3, 0.999), omega_n=st.floats(1e-2, 1e3),
           log_ratio=st.floats(-6.0, 6.0))
    def test_complex_arithmetic_oracle(self, zeta, omega_n, log_ratio):
        lin = EquivalentLinearization(
            omega_n=omega_n, zeta=zeta,
            omega_d=omega_n * math.sqrt(1.0 - zeta * zeta),
            k_pos=omega_n * omega_n, k_vel=2.0 * zeta * omega_n)
        omega = omega_n * 10.0 ** log_ratio
        u = omega / lin.omega_n
        g = 1.0 / complex(1.0 - u * u, 2.0 * lin.zeta * u)
        pt = freq_response(lin, omega)
        assert pt.mag == pytest.approx(abs(g), rel=1e-12)
        assert pt.phase_deg == pytest.approx(
            math.degrees(cmath.phase(g)), abs=1e-9)
        assert -180.0 < pt.phase_deg <= 0.0

    @pytest.mark.parametrize("omega", [1e100, np.float64(1e200), 1.7e308])
    def test_far_above_natural_frequency_is_a_value_error(self, omega):
        # the denominator overflows (finite, numpy and inf u^2), and no
        # RuntimeWarning escapes: the test configuration turns it into an error
        lin = linearize(P3A, 1.0)
        with pytest.raises(ValueError, match=r"omega=1\S* rad/s .* omega_n="):
            freq_response(lin, omega)

    def test_mag_db_consistency(self):
        lin = linearize(P3B, 5.0)
        pt = freq_response(lin, 7.7)
        assert pt.mag_db == pytest.approx(20 * math.log10(pt.mag), rel=1e-12)


class TestAsymptote:
    def test_low_frequency(self):
        lin = linearize(P3A, 1.0)
        assert asymptote_db(lin, lin.omega_n / 10) == 0.0

    def test_one_decade_above(self):
        lin = linearize(P3A, 1.0)
        assert asymptote_db(lin, 10 * lin.omega_n) == pytest.approx(-40.0,
                                                                    rel=1e-12)

    def test_converges_to_exact_response(self):
        lin = linearize(P3A, 1.0)
        omega = 100 * lin.omega_n
        exact = freq_response(lin, omega).mag_db
        assert abs(asymptote_db(lin, omega) - exact) <= 1.0


class TestFirstOrderResponse:
    def test_dc_limit(self):
        pt = first_order_response(0.05, 1 / 45, 1e-9)
        assert pt.mag == pytest.approx(1.0, abs=1e-9)
        assert pt.phase_deg == pytest.approx(0.0, abs=1e-6)

    def test_corner_frequency(self):
        corner = math.sqrt(0.05) * 45
        pt = first_order_response(0.05, 1 / 45, corner)
        assert pt.mag == pytest.approx(1 / math.sqrt(2), rel=1e-12)
        assert pt.phase_deg == pytest.approx(-45.0, rel=1e-12)

    def test_second_order_attenuates_more_at_high_frequency(self):
        corner = math.sqrt(0.05) * 45
        first = first_order_response(0.05, 1 / 45, 100 * corner)
        assert first.mag_db == pytest.approx(-40.0, abs=0.1)
        lin = linearize(P3A, 1.0)
        second = freq_response(lin, 100 * lin.omega_n)
        assert second.mag_db == pytest.approx(-80.0, abs=0.5)
        assert second.mag_db < first.mag_db

    def test_rejects_nonpositive_args(self):
        with pytest.raises(ValueError):
            first_order_response(0.0, 0.1, 1.0)

    @pytest.mark.parametrize("omega", [1e200, np.float64(1e300)])
    def test_far_above_corner_is_a_value_error(self, omega):
        with pytest.raises(ValueError, match=r"omega=1e\+[23]00 rad/s .* corner"):
            first_order_response(0.05, 1 / 45, omega)


class TestBodeTable:
    def test_empty_grid(self):
        lin = linearize(P3A, 1.0)
        assert bode_table(lin, []) == []

    def test_single_point_at_corner(self):
        lin = linearize(P3A, 1.0)
        pts = bode_table(lin, [lin.omega_n])
        assert len(pts) == 1
        assert pts[0].phase_deg == -90.0

    def test_rejects_non_increasing_grid(self):
        lin = linearize(P3A, 1.0)
        with pytest.raises(ValueError):
            bode_table(lin, [1.0, 2.0, 2.0])

    def test_resonance_peak_on_log_grid(self):
        # zeta = 0.6708 < 1/sqrt(2): shallow peak 1/(2*zeta*sqrt(1-zeta^2))
        # near omega_n*sqrt(1-2*zeta^2)
        lin = linearize(P3A, 1.0)
        grid = np.logspace(math.log10(0.1 * lin.omega_n),
                           math.log10(100 * lin.omega_n), 400)
        pts = bode_table(lin, grid)
        mags = np.array([p.mag for p in pts])
        peak_expected = 1.0 / (2 * lin.zeta * math.sqrt(1 - lin.zeta ** 2))
        omega_peak_expected = lin.omega_n * math.sqrt(1 - 2 * lin.zeta ** 2)
        i = int(np.argmax(mags))
        assert mags[i] == pytest.approx(peak_expected, abs=1e-4)
        assert grid[i] == pytest.approx(omega_peak_expected, rel=0.05)
        # beyond the corner the response must roll off monotonically
        beyond = mags[grid > 1.2 * lin.omega_n]
        assert all(b < a for a, b in zip(beyond, beyond[1:]))
