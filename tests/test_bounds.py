"""Analytic bound formulas and the monotone kernels.

Three-decimal reference values for the band endpoint R_alpha (0.698,
0.741, 0.784, 0.823, 0.857, 0.885, 0.909 for alpha = 4..10 and 0.744 at
alpha = 1) are checked at +-5e-4.  Derived constants were frozen from the
extended-precision oracle in test_entropy.py conventions (mpmath, 50
digits); exact rationals are asserted tightly.
"""

import math
import re

import mpmath as mp
import numpy as np
import pytest

from pauli_tsallis import (
    BlochVector,
    UnsupportedAlphaError,
    alpha_log,
    bound_set,
    entropic_sum,
    h_tilde,
    integer_order,
    interpolated_lower_bound,
    kernel_f,
    kernel_g,
    rescaled_band,
)
mp.mp.dps = 50

# Oracle-frozen constants (50-digit evaluation of the defining formulas,
# rounded to double precision).
H_TILDE_1 = 0.5157067364635543
H_TILDE_HALF = 0.6955493547161966
TWO_LN_HALF_2 = 1.6568542494923806  # 2 ln_0.5(2) = 4 (sqrt 2 - 1)
R_REFERENCE = {
    1: 0.744,
    4: 0.698,
    5: 0.741,
    6: 0.784,
    7: 0.823,
    8: 0.857,
    9: 0.885,
    10: 0.909,
}


class TestIntegerOrder:
    def test_detects_integers_within_tolerance(self):
        assert integer_order(3.0) == 3
        assert integer_order(3.0 + 1e-13) == 3
        assert integer_order(3.0 + 1e-9) is None
        assert integer_order(2.5) is None


class TestLowerBound:
    def test_shannon_value(self):
        bs = bound_set(1.0)
        assert bs.lower_is_tight
        assert bs.lower == pytest.approx(2.0 * math.log(2.0), abs=1e-15)

    def test_integer_two(self):
        bs = bound_set(2.0)
        assert bs.lower_is_tight
        assert bs.lower == pytest.approx(1.0, abs=1e-15)
        # the interpolated formula coincides there
        assert interpolated_lower_bound(2.0) == pytest.approx(bs.lower, abs=1e-15)

    def test_order_half(self):
        bs = bound_set(0.5)
        assert bs.lower_is_tight
        assert bs.lower == pytest.approx(TWO_LN_HALF_2, abs=1e-15)

    def test_just_above_one_interpolates_to_one(self):
        bs = bound_set(1.0 + 1e-9)
        assert not bs.lower_is_tight
        assert bs.lower == pytest.approx(1.0, abs=1e-9)

    def test_noninteger_branch(self):
        bs = bound_set(2.5)
        assert not bs.lower_is_tight
        # 2 (1 - 1/2)/1.5 + (1/2)(0.5)/1.5 = 5/6
        assert bs.lower == pytest.approx(5.0 / 6.0, abs=1e-15)

    def test_continuity_from_below_at_one(self):
        for eps in (1e-2, 1e-4, 1e-6):
            bs = bound_set(1.0 - eps)
            assert bs.lower_is_tight
            assert abs(bs.lower - 2.0 * math.log(2.0)) <= 0.5 * eps

    def test_interpolation_equals_tight_value_at_integers(self):
        for n in range(2, 11):
            assert abs(interpolated_lower_bound(float(n)) - 2.0 * alpha_log(2.0, float(n))) <= 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bound_set(0.0)
        with pytest.raises(ValueError):
            bound_set(-2.0)


class TestUpperBoundMixed:
    def test_values(self):
        assert bound_set(1.0).upper_mixed == pytest.approx(3.0 * math.log(2.0), abs=1e-15)
        assert bound_set(2.0).upper_mixed == pytest.approx(1.5, abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.0, 4.2, 9.0])
    def test_attained_at_completely_mixed_state(self, alpha):
        value = entropic_sum(BlochVector(0.0, 0.0, 0.0), alpha)
        assert value == pytest.approx(bound_set(alpha).upper_mixed, abs=1e-14)


class TestHTilde:
    def test_exact_rationals(self):
        assert h_tilde(2.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert h_tilde(3.0) == pytest.approx(0.25, abs=1e-15)

    def test_shannon_value(self):
        assert h_tilde(1.0) == pytest.approx(H_TILDE_1, abs=1e-15)
        assert h_tilde(1.0) / math.log(2.0) == pytest.approx(R_REFERENCE[1], abs=5e-4)

    def test_order_half(self):
        assert h_tilde(0.5) == pytest.approx(H_TILDE_HALF, abs=1e-15)


class TestUpperBoundPure:
    def test_constant_orders(self):
        assert bound_set(2.0).upper_pure == pytest.approx(1.0, abs=1e-15)
        assert bound_set(3.0).upper_pure == pytest.approx(0.75, abs=1e-15)

    def test_order_half(self):
        assert bound_set(0.5).upper_pure == pytest.approx(3.0 * H_TILDE_HALF, abs=1e-14)

    def test_absent_for_noninteger_above_one(self):
        assert bound_set(2.5).upper_pure is None
        assert bound_set(1.0 + 1e-6).upper_pure is None


class TestRescaledBand:
    @pytest.mark.parametrize("alpha,expected", sorted(R_REFERENCE.items()))
    def test_reference_values(self, alpha, expected):
        low, high = rescaled_band(float(alpha))
        assert low == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert high == pytest.approx(expected, abs=5e-4)

    def test_constant_orders_collapse_to_lower_endpoint(self):
        for alpha in (2.0, 3.0):
            low, high = rescaled_band(alpha)
            assert high == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_small_order_limit(self):
        _, high = rescaled_band(0.01)
        assert abs(high - 1.0) <= 0.01

    def test_band_ordering(self):
        for alpha in list(np.linspace(0.05, 1.0, 20)) + list(range(2, 13)):
            low, high = rescaled_band(float(alpha))
            assert 2.0 / 3.0 - 1e-12 <= high <= 1.0

    def test_unsupported_orders_raise(self):
        with pytest.raises(UnsupportedAlphaError):
            rescaled_band(2.5)
        with pytest.raises(UnsupportedAlphaError):
            rescaled_band(1.0 + 1e-6)


# Orders from near 0 to the last doubles below 1, and points from 1e-8 to
# the last double below 1, for the extended-precision sweep of kernel_f.
KERNEL_F_ORDERS = [1e-9, 1e-6, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0 - 1e-4,
                   1.0 - 1e-7, 1.0 - 1e-10, 1.0 - 1e-13, 1.0 - 2.0**-52, 1.0 - 2.0**-53, 1.0]
KERNEL_F_POINTS = np.geomspace(1e-8, 0.5, 60).tolist() + (1.0 - np.geomspace(0.5, 2.0**-53, 60)).tolist()[1:]


class TestKernelF:
    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.9, 1.0])
    def test_value_two_at_origin(self, alpha):
        assert kernel_f(0.0, alpha) == 2.0

    def test_small_u_oracle_value(self):
        # quotient evaluated at 50 digits: f_0.5(1e-6) = 2.00000000000125
        assert kernel_f(1e-6, 0.5) == pytest.approx(2.00000000000125, abs=1e-14)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9, 1.0])
    def test_monotone_pairwise(self, alpha):
        assert kernel_f(0.3, alpha) < kernel_f(0.7, alpha)

    @pytest.mark.parametrize("alpha", [round(0.1 * k, 1) for k in range(1, 11)]
                             + [1e-9, 1.0 - 1e-7, 1.0 - 1e-12, 1.0 - 2.0**-53])
    def test_strictly_increasing_on_grid(self, alpha):
        u = np.linspace(0.0, 1.0, 1002)[1:-1]
        values = [kernel_f(float(x), alpha) for x in u]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("alpha", KERNEL_F_ORDERS)
    def test_matches_extended_precision(self, alpha):
        # the defining quotient at 50 digits: near alpha = 1 and u = 0 its
        # cancellation still leaves over 25 digits
        a = mp.mpf(alpha)
        for u in KERNEL_F_POINTS:
            x = mp.mpf(u)
            if alpha == 1.0:
                exact = 2 * mp.atanh(x) / x
            else:
                exact = ((1 - x) ** (a - 1) - (1 + x) ** (a - 1)) / ((1 - a) * x)
            assert abs(kernel_f(u, alpha) - exact) <= 1e-14 * exact, u

    @pytest.mark.parametrize("alpha", [0.5, 1.0 - 2.0**-53, 1.0])
    @pytest.mark.parametrize("u", [0.0, 5e-324, 1e-310, 1e-9])
    def test_two_below_small_u(self, u, alpha):
        # f_alpha(u) - 2 < 2 u^2 there, below half an ulp of 2; the bare
        # form would divide by an underflowed b u
        assert kernel_f(u, alpha) == 2.0

    def test_series_matches_extended_precision(self):
        for alpha in (0.25, 0.5, 0.9):
            for u in (1e-8, 1e-5, 5e-4):
                a, x = mp.mpf(alpha), mp.mpf(u)
                exact = ((1 - x) ** (a - 1) - (1 + x) ** (a - 1)) / ((1 - a) * x)
                assert kernel_f(u, alpha) == pytest.approx(float(exact), rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kernel_f(-0.1, 0.5)
        with pytest.raises(ValueError):
            kernel_f(1.0, 0.5)
        with pytest.raises(ValueError):
            kernel_f(0.5, 1.5)
        with pytest.raises(ValueError, match=re.escape("u in [0, 1), got nan")):
            kernel_f(math.nan, 0.5)
        # an array error names its first offending u
        with pytest.raises(ValueError, match=re.escape("u in [0, 1), got 1.0")):
            kernel_f(np.array([0.5, 1.0, -1.0, math.nan]), 1.0)


class TestKernelG:
    def test_constant_orders_exact(self):
        for u in (0.0, 1e-5, 0.3, 0.999, 1.0):
            assert kernel_g(u, 1) == 0.0
            assert kernel_g(u, 2) == 2.0
            assert kernel_g(u, 3) == 4.0

    def test_order_four_half(self):
        # 2 C(3,1) + 2 C(3,3) u^2 at u = 1/2: 6 + 2/4 = 6.5
        assert kernel_g(0.5, 4) == pytest.approx(6.5, abs=1e-15)

    @pytest.mark.parametrize("n", range(4, 13))
    def test_strictly_increasing_on_grid(self, n):
        u = np.linspace(0.0, 1.0, 1002)[1:-1]
        values = [kernel_g(float(x), n) for x in u]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("n", [4, 5, 8, 12])
    def test_matches_extended_precision(self, n):
        # the polynomial has no cancellation on [0, 1], where a quotient form
        # loses ~1e-13 relative near u = 1e-3
        for u in np.geomspace(5e-4, 1.0, 200).tolist():
            x = mp.mpf(u)
            exact = ((1 + x) ** (n - 1) - (1 - x) ** (n - 1)) / x
            assert abs(kernel_g(u, n) - exact) <= 1e-15 * exact, u

    def test_accepts_integral_floats(self):
        assert kernel_g(0.25, 4.0) == kernel_g(0.25, 4)

    def test_large_finite_order(self):
        # g_1027(1/2) = ((3/2)^1026 - (1/2)^1026) * 2, about 9.3e180
        exact = ((mp.mpf(1.5) ** 1026) - mp.mpf(0.5) ** 1026) * 2
        assert abs(kernel_g(0.5, 1027) - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("alpha,u", [(1026, 0.9987001299870013), (1027, 1.0), (2000, 0.5),
                                         (1e5, 0.5), (1e16, 0.0), (1e300, 0.5)])
    def test_beyond_float_range_raises(self, alpha, u):
        # neither inf nor an OverflowError: the order is named in a ValueError
        with pytest.raises(ValueError, match=re.escape(f"alpha={float(alpha)!r}")):
            kernel_g(u, alpha)

    @pytest.mark.parametrize(
        "kernel,alpha",
        [pytest.param(kernel_g, n, id=str(n)) for n in (1, 2, 3, 4, 5, 8, 12, 40, 200, 1025)]
        + [pytest.param(kernel_f, a, id=f"f-{a!r}") for a in KERNEL_F_ORDERS],
    )
    def test_array_is_bitwise_scalar(self, kernel, alpha):
        u = np.arange(1, 10_001) / 10_001  # check_kernel_monotonicity's grid
        values = kernel(u, alpha)
        assert values.shape == u.shape
        assert values.tobytes() == np.array([kernel(float(x), alpha) for x in u]).tobytes()
        if kernel is kernel_f:  # the points of the extended-precision sweep, 0 and subnormals too
            points = np.array([0.0, 5e-324, 1e-310, *KERNEL_F_POINTS])
            assert kernel(points, alpha).tobytes() == np.array([kernel(float(x), alpha) for x in points]).tobytes()

    def test_array_errors_name_the_first_u(self):
        with pytest.raises(ValueError, match=re.escape("u in [0, 1], got 1.5")):
            kernel_g(np.array([0.5, 1.5, -1.0]), 4)
        # the first u of the grid at which a scalar call fails
        u = np.arange(1, 10_001) / 10_001
        for x in u[-50:]:
            try:
                kernel_g(float(x), 1026)
            except ValueError:
                first = float(x)
                break
        with pytest.raises(ValueError, match=re.escape(f"alpha=1026.0 exceeds the float range at u={first!r}")):
            kernel_g(u, 1026)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kernel_g(1.1, 4)
        with pytest.raises(ValueError):
            kernel_g(-0.1, 4)
        # NaN is outside [0, 1], also at the constant orders
        for n in (2, 4):
            with pytest.raises(ValueError, match=re.escape("u in [0, 1], got nan")):
                kernel_g(math.nan, n)
        with pytest.raises(ValueError, match=re.escape("u in [0, 1], got nan")):
            kernel_g(np.array([0.5, math.nan]), 4)
        with pytest.raises(ValueError):
            kernel_g(0.5, 2.5)
        with pytest.raises(ValueError):
            kernel_g(0.5, 0)


@pytest.mark.parametrize("call", [bound_set, lambda a: kernel_g(0.5, a), integer_order])
def test_int_order_beyond_float_range_is_value_error(call):
    # not the OverflowError of float(10**400)
    with pytest.raises(ValueError, match="entropic order must be a positive real"):
        call(10**400)


class TestBoundSet:
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 1.0, 2.0, 3.0, 4.0, 7.0])
    def test_supported_orders_fully_populated(self, alpha):
        bs = bound_set(alpha)
        assert bs.lower <= bs.upper_mixed
        assert bs.upper_pure is not None
        assert bs.upper_pure <= bs.upper_mixed + 1e-12
        assert bs.lower <= bs.upper_pure + 1e-12
        assert bs.r_alpha == pytest.approx(bs.h_tilde / alpha_log(2.0, alpha), abs=1e-15)
        assert bs.upper_pure_is_tight

    def test_noninteger_above_one_has_no_pure_data(self):
        bs = bound_set(2.5)
        assert not bs.lower_is_tight
        assert bs.upper_pure is None
        assert bs.h_tilde is None
        assert bs.r_alpha is None
        assert not bs.upper_pure_is_tight
