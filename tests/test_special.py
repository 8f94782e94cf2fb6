"""Special-function checks against closed forms and quadrature oracles."""

import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfcx
from scipy.stats import gamma as gamma_dist
from scipy.stats import norm

from nigmix import special
from nigmix.special import log_bessel_k, trunc_normal_moments
from tests_support_naive import (
    log_bessel_k_kve,
    sqrt_gamma_moment,
    trunc_normal_moments_scalar,
)

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
        for nu in (0.0, 1.0, 3.5, 11.0):
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

    def test_pair_is_two_single_calls(self):
        # The pair is log K_nu and the ratio K_||nu|-1| / K_nu, formed from
        # two single calls' logs.  The first argument of each set overflows
        # the scaled function at the higher orders, so the pair reaches the
        # mpmath fallback there.
        for x in (np.array([1e-60, 1e-6, 0.3, 2.0, 40.0, 1e12]), 0.7):
            for nu in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 5.5, 7.0, -5.5, 60.5):
                log_k, ratio = log_bessel_k(nu, x, pair=True)
                ref = log_bessel_k(nu, x)
                assert np.array_equal(log_k, ref), nu
                lower = log_bessel_k(abs(abs(nu) - 1.0), x)
                assert np.array_equal(ratio, np.exp(lower - ref)), nu

    def test_vectorized(self):
        xs = np.array(XS)
        out = log_bessel_k(1.0, xs)
        assert out.shape == xs.shape
        for x, v in zip(xs, out):
            assert v == log_bessel_k(1.0, float(x))
        # An empty argument gives empty results, at every order and paired.
        for nu in (0.0, 0.5, 1.0, 5.5):
            assert log_bessel_k(nu, np.array([])).shape == (0,)
            pair = log_bessel_k(nu, np.empty((0, 3)), pair=True)
            assert [a.shape for a in pair] == [(0, 3), (0, 3)]

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_bessel_k(1.0, 0.0)
        with pytest.raises(ValueError):
            log_bessel_k(1.0, -1.0)
        with pytest.raises(ValueError):
            log_bessel_k(1.0, math.nan)
        for bad in (math.inf, -math.inf, np.array([1.0, math.nan, 2.0]),
                    np.array([[1.0], [0.0]])):
            with pytest.raises(ValueError, match="finite and > 0"):
                log_bessel_k(1.0, bad)
        for order in (100.0, 0.3):
            with pytest.raises(ValueError):
                log_bessel_k(order, 1.0)


def _trunc_rows():
    rng = np.random.default_rng(0)
    n = 10_000
    # Locations from far below to far above the truncation point, on scales
    # from 1e-6 to 1e6.
    s = 10.0 ** rng.uniform(-6.0, 6.0, n)
    m = s * np.concatenate([rng.uniform(-40.0, 60.0, n // 2),
                            -(10.0 ** rng.uniform(0.0, 8.0, n - n // 2))])
    far = [(38.5, 1.0), (50.0, 1.0), (4e3, 2.0), (1e10, 3.0), (2.5, 1e-20),
           (1e150, 1e-3), (1e300, 1.0), (1e300, 1e150)]
    # A variance that rounds below 0 far below zero, and the NaN of inf * 0
    # where m / s overflows: both are clamped to 0.
    clamped = [(-1e4, 1.0), (-7e5, 1.0), (-1e7, 1.0), (1.0, 1e-310),
               (1e300, 1e-10), (5.0, 1e-308)]
    return {
        "random": (m, s),
        "far_above": tuple(np.array(far).T),
        "clamped": tuple(np.array(clamped).T),
    }


TRUNC_ROWS = _trunc_rows()


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
        # From m / s of about 38, where erfcx overflows, up to 1e300, and
        # past the overflow of m / s itself: the untruncated moments exactly.
        for m, s in [(38.5, 1.0), (50.0, 1.0), (4e3, 2.0), (1e10, 3.0),
                     (2.5, 1e-20), (1e150, 1e-3), (1e300, 1.0), (1e300, 1e150),
                     (1.0, 1e-310)]:
            assert math.isinf(erfcx(-m / s / math.sqrt(2.0)))
            assert trunc_normal_moments(m, s) == (m, s * s + m * m)

    @pytest.mark.parametrize("rows", ["random", "far_above", "clamped"])
    def test_array_equals_the_scalar_reference(self, rows):
        m, s = TRUNC_ROWS[rows]
        pairs = zip(m.tolist(), s.tolist())
        ref = np.array([trunc_normal_moments_scalar(a, b) for a, b in pairs])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = np.column_stack(trunc_normal_moments(m, s))
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        if rows == "clamped":
            # A variance of 0 leaves the second moment at mean^2 (inf at
            # m = 1e300).
            with np.errstate(over="ignore"):
                assert np.array_equal(got[:, 1], got[:, 0] * got[:, 0])

    def test_scalar_scale_broadcasts(self):
        # The unig quadrature passes one s for all of its nodes.
        m = TRUNC_ROWS["random"][0][:96]
        ref = np.array([trunc_normal_moments_scalar(a, 0.7) for a in m.tolist()])
        got = np.column_stack(trunc_normal_moments(m, 0.7))
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize(
        "m,s,error",
        [(0.0, 0.0, ValueError), (math.nan, 1.0, ValueError),
         (1.0, -1.0, ValueError), (math.inf, 1.0, ValueError),
         (1.0, math.inf, ValueError),
         # m / s overflows to -inf, where erfcx underflows to 0.
         (-1e300, 1e-10, FloatingPointError)],
    )
    def test_errors_match_the_scalar_reference(self, m, s, error):
        with pytest.raises(error) as want:
            trunc_normal_moments_scalar(m, s)
        good = TRUNC_ROWS["random"]
        for args in ((m, s), (np.append(good[0][:5], m), np.append(good[1][:5], s))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(error) as got:
                    trunc_normal_moments(*args)
            assert str(got.value) == str(want.value)

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


@pytest.mark.parametrize("order", ["nigmix first", "scipy.special first"])
def test_same_ufuncs_in_either_import_order(order):
    # A fresh process, since this one has imported scipy.special: importing
    # nigmix first leaves no scipy.special entry behind, and in both orders
    # nigmix's seven ufuncs are scipy.special's objects, under its seterr.
    script = textwrap.dedent("""
        import sys
        import warnings

        if ORDER == "nigmix first":
            import nigmix
            left = [m for m in sys.modules if m.split(".")[:2] == ["scipy", "special"]]
            assert not left, left
            import scipy.special
        else:
            import scipy.special
            import nigmix
        from nigmix import special, vb_mnig, vb_unig

        names = {
            special: ["erfcx", "gammaincinv", "gammaln", "k0e", "k1e", "psi", "xlogy"],
            vb_unig: ["gammaincinv", "gammaln", "psi", "xlogy"],
            vb_mnig: ["psi"],
        }
        for module, attrs in names.items():
            for name in attrs:
                assert getattr(module, name) is getattr(scipy.special, name), name
        scipy.special.seterr(all="warn")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            special.k0e(-1.0)
        assert [w.category for w in caught] == [scipy.special.SpecialFunctionWarning]
    """).replace("ORDER", repr(order))
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("broken", ["no extension", "a ufunc missing"])
def test_falls_back_to_the_scipy_special_package(broken):
    # A fresh process in which nigmix's lookup of scipy's _special_ufuncs
    # finds no file, or loads it without xlogy, as an older scipy would:
    # nigmix then imports scipy.special and binds the package's objects.
    script = textwrap.dedent("""
        import importlib.machinery
        import sys
        import warnings

        if BROKEN == "no extension":
            find_spec = importlib.machinery.PathFinder.find_spec

            def without_extension(name, path=None, target=None):
                # Imports ask for the full name, so only nigmix's lookup fails.
                return None if name == "_special_ufuncs" else find_spec(name, path, target)

            importlib.machinery.PathFinder.find_spec = without_extension
        else:
            import importlib.abc  # registers the real loader class first

            class WithoutXlogy(importlib.machinery.ExtensionFileLoader):
                def create_module(self, spec):
                    module = super().create_module(spec)
                    del module.xlogy
                    return module

            importlib.machinery.ExtensionFileLoader = WithoutXlogy
        import nigmix
        assert "scipy.special" in sys.modules
        import scipy.special
        from nigmix import special, vb_mnig, vb_unig

        for module in (special, vb_mnig, vb_unig):
            for name in ["erfcx", "gammaincinv", "gammaln", "k0e", "k1e", "psi", "xlogy"]:
                if hasattr(module, name):
                    assert getattr(module, name) is getattr(scipy.special, name), name
        scipy.special.seterr(all="warn")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            special.xlogy(1.0, -1.0 + 0j)
            special.k0e(-1.0)
        assert [w.category for w in caught] == [scipy.special.SpecialFunctionWarning]
    """).replace("BROKEN", repr(broken))
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self")
def test_import_maps_one_scipy_extension_and_starts_no_thread():
    # A fresh process with OpenBLAS threading at its default, so that an
    # OpenBLAS loaded by the import would start its threads.  numpy's own
    # starts at `import numpy`; `import nigmix` then maps no library from
    # scipy.libs/ and no scipy extension but special/_special_ufuncs,
    # starts no thread and leaves no scipy module in sys.modules.
    script = textwrap.dedent("""
        import importlib.util
        import os
        import sys

        import numpy
        threads = len(os.listdir("/proc/self/task"))
        import nigmix

        scipy = os.path.realpath(os.path.dirname(importlib.util.find_spec("scipy").origin))
        with open("/proc/self/maps") as fh:
            mapped = {line.split(maxsplit=5)[5].strip() for line in fh
                      if len(line.split(maxsplit=5)) == 6}
        libs = [path for path in mapped if path.startswith(scipy + ".libs" + os.sep)]
        assert not libs, libs
        extensions = [os.path.relpath(path, scipy) for path in mapped
                      if path.startswith(scipy + os.sep)]
        assert [path.split(".")[0] for path in extensions] == ["special/_special_ufuncs"], (
            extensions)
        assert len(os.listdir("/proc/self/task")) == threads
        left = [m for m in sys.modules if m.split(".")[0] == "scipy"]
        assert not left, left
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**env, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
