"""Special-function checks against closed forms and quadrature oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import psi
from scipy.stats import gamma as gamma_dist
from scipy.stats import norm

from nigmix import special
from nigmix.special import (
    digamma,
    log_bessel_k,
    sqrt_gamma_moment,
    trunc_normal_moments,
)
from tests_support_naive import log_bessel_k_kve

XS = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0]


def log_k_half(x):
    return 0.5 * np.log(np.pi / (2.0 * x)) - x


class TestLogBesselK:
    def test_half_integer_closed_forms(self):
        for x in XS:
            expected = {
                0.5: log_k_half(x),
                1.5: log_k_half(x) + math.log1p(1.0 / x),
                2.5: log_k_half(x) + math.log(1.0 + 3.0 / x + 3.0 / x**2),
            }
            for nu, ref in expected.items():
                got = log_bessel_k(nu, x)
                assert got == pytest.approx(ref, rel=1e-12)

    def test_order_symmetry(self):
        for nu in (0.0, 0.7, 1.0, 3.5, 11.0):
            for x in XS:
                assert log_bessel_k(-nu, x) == log_bessel_k(nu, x)

    def test_order_recurrence(self):
        # K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x)
        for nu in (0.5, 1.0, 2.0, 5.5):
            for x in XS:
                up = log_bessel_k(nu + 1.0, x)
                lo = log_bessel_k(nu - 1.0, x)
                mid = log_bessel_k(nu, x)
                rhs = np.logaddexp(lo, math.log(2.0 * nu / x) + mid)
                assert up == pytest.approx(rhs, rel=1e-9)

    def test_integral_representation(self):
        # K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt
        for nu in (0.0, 1.0, 2.5):
            for x in (0.3, 1.0, 4.0):
                val, _ = quad(
                    lambda t: math.exp(-x * math.cosh(t)) * math.cosh(nu * t),
                    0.0,
                    60.0,
                    limit=200,
                )
                assert log_bessel_k(nu, x) == pytest.approx(
                    math.log(val), rel=1e-10
                )

    def test_deep_underflow_argument(self):
        # Uniform asymptotics: K_nu(x) ~ sqrt(pi/(2x)) e^-x for x >> nu^2.
        got = log_bessel_k(1.0, 800.0)
        assert math.isfinite(got)
        assert got == pytest.approx(log_k_half(800.0), rel=1e-3)

    def test_small_argument_large_order(self):
        # kve itself overflows here; K_nu(x) ~ (Gamma(nu)/2) (2/x)^nu.
        from scipy.special import gammaln

        nu, x = 64.0, 1e-8
        expected = gammaln(nu) - math.log(2.0) + nu * math.log(2.0 / x)
        assert log_bessel_k(nu, x) == pytest.approx(expected, rel=1e-10)

    def test_matches_kve(self):
        # Integer and half-integer orders take the upward recurrence; the
        # grid stops where kve still holds (x <= 1e9).
        x = np.logspace(-3, 9, 400)
        for nu in np.arange(0.0, 11.0, 0.5):
            ref = log_bessel_k_kve(nu, x)
            for order in (nu, -nu):
                err = np.abs(log_bessel_k(order, x) - ref)
                assert np.all(err <= 1e-14 * np.maximum(1.0, np.abs(ref))), order

    def test_large_argument_without_fallback(self, monkeypatch):
        # kve is NaN above x of about 1.07e9; the recurrence orders must not
        # need the arbitrary-precision fallback there.  Reference: the
        # Hankel expansion K_nu(x) e^x ~ sqrt(pi/(2x)) (1 + (4 nu^2 - 1)/(8x)).
        def no_fallback(nu, x):
            raise AssertionError(f"fallback reached at nu={nu}, x={x}")

        monkeypatch.setattr(special, "_log_k_mpmath", no_fallback)
        x = np.array([1.1e9, 1e10, 1e12])
        for nu in (0.0, 1.0, 2.0, 1.5, 5.5, 6.5):
            got = log_bessel_k(nu, x)
            ref = (
                log_k_half(x)
                + np.log1p((4.0 * nu * nu - 1.0) / (8.0 * x))
            )
            assert np.all(np.isfinite(got))
            # Resolution of a log value near -x is a few ulps of x.
            assert np.all(np.abs(got - ref) <= 4.0 * np.spacing(x))

    def test_vectorized(self):
        xs = np.array(XS)
        out = log_bessel_k(1.0, xs)
        assert out.shape == xs.shape
        for x, v in zip(xs, out):
            assert v == log_bessel_k(1.0, float(x))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_bessel_k(1.0, 0.0)
        with pytest.raises(ValueError):
            log_bessel_k(1.0, -1.0)
        with pytest.raises(ValueError):
            log_bessel_k(1.0, math.nan)
        for bad in (math.inf, -math.inf, np.array([1.0, math.nan, 2.0])):
            with pytest.raises(ValueError):
                log_bessel_k(1.0, bad)
        with pytest.raises(ValueError):
            log_bessel_k(100.0, 1.0)


class TestDigamma:
    def test_recurrence(self):
        for x in (0.1, 0.5, 1.0, 3.7, 10.0, 123.4):
            assert digamma(x + 1.0) == pytest.approx(
                digamma(x) + 1.0 / x, rel=1e-12
            )

    def test_known_value(self):
        # psi(1) = -Euler-Mascheroni
        assert digamma(1.0) == pytest.approx(-0.5772156649015329, abs=1e-14)

    def test_domain(self):
        for bad in (0.0, -2.0, math.nan, math.inf, -math.inf):
            for x in (bad, np.float64(bad), np.array(bad)):
                with pytest.raises(ValueError):
                    digamma(x)

    def test_scalar_and_array_inputs_agree_with_psi(self):
        for x in (1e-3, 0.5, 1.0, 3.7, 1e6):
            ref = psi(x)
            for arg in (x, np.float64(x)):
                got = digamma(arg)
                assert type(got) is float
                assert got == ref
            assert digamma(np.array(x)) == ref
        xs = np.array([0.25, 2.0, 40.0])
        assert np.array_equal(digamma(xs), psi(xs))


class TestTruncNormalMoments:
    @pytest.mark.parametrize(
        "m,s",
        [(0.0, 1.0), (2.0, 0.5), (-1.5, 1.0), (-8.0, 1.0), (5.0, 2.0),
         (-30.0, 1.0), (0.3, 10.0)],
    )
    def test_against_quadrature(self, m, s):
        z = norm.sf(-m / s)

        def integrand(x, k):
            return x**k * norm.pdf(x, loc=m, scale=s) / z

        hi = m + 12.0 * s
        mean_ref, _ = quad(integrand, 0.0, max(hi, 12.0 * s), args=(1,), limit=300)
        second_ref, _ = quad(integrand, 0.0, max(hi, 12.0 * s), args=(2,), limit=300)
        mean, second = trunc_normal_moments(m, s)
        assert mean == pytest.approx(mean_ref, rel=1e-9)
        assert second == pytest.approx(second_ref, rel=1e-9)

    def test_far_above_truncation_matches_untruncated(self):
        mean, second = trunc_normal_moments(50.0, 1.0)
        assert mean == pytest.approx(50.0, rel=1e-14)
        assert second == pytest.approx(50.0**2 + 1.0, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            trunc_normal_moments(0.0, 0.0)
        with pytest.raises(ValueError):
            trunc_normal_moments(math.nan, 1.0)


class TestSqrtGammaMoment:
    @pytest.mark.parametrize("shape,rate", [(0.5, 1.0), (2.0, 3.0), (75.0, 0.2)])
    def test_against_quadrature(self, shape, rate):
        ref, _ = quad(
            lambda x: math.sqrt(x) * gamma_dist.pdf(x, shape, scale=1.0 / rate),
            0.0,
            gamma_dist.ppf(1.0 - 1e-14, shape, scale=1.0 / rate),
            limit=300,
        )
        assert sqrt_gamma_moment(shape, rate) == pytest.approx(ref, rel=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            sqrt_gamma_moment(0.0, 1.0)
        with pytest.raises(ValueError):
            sqrt_gamma_moment(1.0, -1.0)
