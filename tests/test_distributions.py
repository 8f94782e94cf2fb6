"""Density, moment, and sampling checks against quadrature oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from nigmix.distributions import (
    LabeledSample,
    MixtureSpec,
    MNIGParams,
    UNIGParams,
    gig_moments,
    mnig_log_density,
    sample_ig,
    sample_mixture,
    unig_density,
    unig_log_density,
)
from tests_support_naive import gig_log_density, ig_density, unig_to_tilde

UNIG_CASES = [
    UNIGParams(mu=0.0, beta=0.0, delta=1.0, gamma=1.0),
    UNIGParams(mu=2.0, beta=1.5, delta=0.7, gamma=2.0),
    UNIGParams(mu=-3.0, beta=-1.0, delta=2.0, gamma=0.8),
]


class TestGIG:
    def test_density_normalized(self):
        for lam, chi, psi in [(-1.0, 2.0, 3.0), (0.5, 1.0, 1.0), (-5.5, 4.0, 0.3)]:
            total, _ = quad(
                lambda u: math.exp(gig_log_density(u, lam, chi, psi)),
                0.0,
                np.inf,
                limit=300,
            )
            assert total == pytest.approx(1.0, rel=1e-9)

    def test_moments_match_quadrature(self):
        rng = np.random.default_rng(5)
        lams = [-1.0] + [-(d + 1) / 2.0 for d in (1, 2, 5, 10)] + [0.5, 2.0]
        lams += [0.0, -0.5]
        for lam in lams:
            for _ in range(4):
                chi = float(rng.uniform(0.1, 20.0))
                psi = float(rng.uniform(0.1, 20.0))
                e_u, e_uinv = gig_moments(lam, chi, psi)
                for k, got in ((1, e_u), (-1, e_uinv)):
                    ref, _ = quad(
                        lambda u: u**k * math.exp(gig_log_density(u, lam, chi, psi)),
                        0.0,
                        np.inf,
                        limit=400,
                    )
                    assert got == pytest.approx(ref, rel=1e-8)

    def test_cauchy_schwarz_strict(self):
        # E[U] E[1/U] > 1 keeps downstream discriminants positive.
        e_u, e_uinv = gig_moments(-1.0, 3.0, 5.0)
        assert e_u * e_uinv > 1.0

    def test_broadcasting(self):
        chi = np.array([[1.0, 2.0], [3.0, 4.0]])
        psi = np.array([0.5, 1.5])
        e_u, e_uinv = gig_moments(-1.0, chi, psi)
        assert e_u.shape == (2, 2)
        assert e_u[1, 1] == pytest.approx(
            gig_moments(-1.0, 4.0, 1.5)[0], rel=1e-14
        )
        assert e_u[1, 0] == pytest.approx(
            gig_moments(-1.0, 3.0, 0.5)[0], rel=1e-14
        )
        e_u, e_uinv = gig_moments(-1.0, np.empty((0, 2)), psi)
        assert e_u.shape == e_uinv.shape == (0, 2)
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="chi > 0 and psi > 0"):
                gig_moments(-1.0, chi, np.array([0.5, bad]))

    def test_ig_is_gig_special_case(self):
        # IG(delta, gamma) = GIG(-1/2, delta^2, gamma^2)
        u = np.linspace(0.05, 8.0, 50)
        direct = ig_density(u, 1.3, 0.9)
        via_gig = np.exp(gig_log_density(u, -0.5, 1.3**2, 0.9**2))
        assert np.allclose(direct, via_gig, rtol=1e-12)


class TestUNIGDensity:
    @pytest.mark.parametrize("p", UNIG_CASES)
    def test_normalized(self, p):
        total, _ = quad(lambda y: unig_density(y, p), -np.inf, np.inf, limit=400)
        assert total == pytest.approx(1.0, rel=1e-8)

    @pytest.mark.parametrize("p", UNIG_CASES)
    def test_mean_and_variance(self, p):
        mean, _ = quad(lambda y: y * unig_density(y, p), -np.inf, np.inf, limit=400)
        second, _ = quad(
            lambda y: y * y * unig_density(y, p), -np.inf, np.inf, limit=400
        )
        assert mean == pytest.approx(p.mean, rel=1e-7)
        assert second - mean**2 == pytest.approx(p.variance, rel=1e-6)

    def test_mixture_representation(self):
        # f(y) = int N(y | mu + beta u, u) IG(u | delta, gamma) du
        p = UNIG_CASES[1]
        for y in (-1.0, 1.5, 4.0):
            ref, _ = quad(
                lambda u: math.exp(
                    -0.5 * (y - p.mu - p.beta * u) ** 2 / u
                    - 0.5 * math.log(2.0 * math.pi * u)
                )
                * float(ig_density(u, p.delta, p.gamma)),
                0.0,
                np.inf,
                limit=400,
            )
            assert math.exp(unig_log_density(y, p)) == pytest.approx(ref, rel=1e-8)


class TestMNIGDensity:
    def test_d1_reduction(self):
        for p in UNIG_CASES:
            pt = unig_to_tilde(p)
            ys = np.linspace(p.mean - 5, p.mean + 5, 21)
            uni = unig_log_density(ys, p)
            multi = mnig_log_density(ys.reshape(-1, 1), pt)
            assert np.allclose(uni, multi, atol=1e-10)

    def test_d2_normalized(self):
        p = MNIGParams(
            mu_t=[0.5, -1.0],
            beta_t=[0.3, -0.2],
            sigma_t=[[1.0, 0.3], [0.3, 0.8]],
            gamma_t=1.1,
        )
        total, _ = dblquad(
            lambda y2, y1: math.exp(mnig_log_density(np.array([y1, y2]), p)),
            -14.0,
            14.0,
            lambda _: -14.0,
            lambda _: 14.0,
            epsabs=1e-9,
        )
        assert total == pytest.approx(1.0, rel=1e-6)

    def test_mixture_representation_d2(self):
        p = MNIGParams(
            mu_t=[0.0, 1.0],
            beta_t=[0.4, 0.1],
            sigma_t=[[1.2, 0.2], [0.2, 0.9]],
            gamma_t=0.9,
        )
        siginv = np.linalg.inv(p.sigma_t)
        logdet = float(np.linalg.slogdet(p.sigma_t)[1])
        y = np.array([1.0, 0.5])

        def integrand(u):
            diff = y - p.mu_t - u * p.beta_t
            return math.exp(
                -0.5 * float(diff @ siginv @ diff) / u
                - math.log(2.0 * math.pi * u)
                - 0.5 * logdet
            ) * float(ig_density(u, 1.0, p.gamma_t))

        ref, _ = quad(integrand, 0.0, np.inf, limit=400)
        assert math.exp(mnig_log_density(y, p)) == pytest.approx(ref, rel=1e-8)

    def test_shape_contract(self):
        p = MNIGParams(
            mu_t=[0.0, 0.0], beta_t=[0.0, 0.0], sigma_t=np.eye(2), gamma_t=1.0
        )
        single = mnig_log_density(np.zeros(2), p)
        batch = mnig_log_density(np.zeros((3, 2)), p)
        assert isinstance(single, float)
        assert batch.shape == (3,)
        assert mnig_log_density(np.empty((0, 2)), p).shape == (0,)
        assert unig_density(np.array([]), UNIG_CASES[0]).shape == (0,)
        with pytest.raises(ValueError):
            mnig_log_density(np.zeros((3, 4)), p)


class TestSampling:
    def test_ig_moments(self):
        rng = np.random.default_rng(0)
        delta, gamma = 1.5, 0.8
        u = sample_ig(delta, gamma, 400_000, rng)
        assert u.min() > 0.0
        assert u.mean() == pytest.approx(delta / gamma, rel=0.01)
        assert u.var() == pytest.approx(delta / gamma**3, rel=0.05)

    def test_ig_distribution_ks(self):
        from scipy.stats import invgauss, kstest

        rng = np.random.default_rng(1)
        delta, gamma = 1.2, 1.7
        u = sample_ig(delta, gamma, 20_000, rng)
        # scipy invgauss(mu_s, scale=lam): mean mu_s * lam, shape lam.
        stat = kstest(
            u, invgauss(delta / gamma / delta**2, scale=delta**2).cdf
        )
        assert stat.pvalue > 0.01

    @pytest.mark.parametrize("component, n", [
        (UNIGParams(mu=0.0, beta=0.0, delta=1e-4, gamma=1e-4), 2000),
        (MNIGParams(mu_t=[0.0, 0.0], beta_t=[0.0, 0.0], sigma_t=np.eye(2),
                    gamma_t=1e-8), 10_000),
    ], ids=["unig-delta-gamma-1e-4", "mnig-gamma_t-1e-8"])
    def test_ig_small_root_far_from_the_mean(self, component, n):
        # A small delta gamma puts y = mean nu / (2 shape) near 1e8, where
        # the direct small root cancels to zero or below.  The draws stay
        # positive and IG-distributed, and the observations finite.
        from scipy.stats import invgauss, kstest

        unig = isinstance(component, UNIGParams)
        delta, gamma = (component.delta, component.gamma) if unig else (
            1.0, component.gamma_t)
        u = sample_ig(delta, gamma, n, np.random.default_rng(0))
        assert np.isfinite(u).all() and u.min() > 0.0
        stat = kstest(u, invgauss(delta / gamma / delta**2, scale=delta**2).cdf)
        assert stat.pvalue > 0.01
        spec = MixtureSpec(weights=[1.0], components=(component,))
        assert np.isfinite(sample_mixture(spec, n, seed=0).observations).all()

    def test_mixture_counts_and_determinism(self):
        spec = MixtureSpec(
            weights=[0.5, 0.5],
            components=(
                UNIGParams(mu=0.0, beta=1.0, delta=1.0, gamma=2.0),
                UNIGParams(mu=12.0, beta=-1.0, delta=1.0, gamma=2.0),
            ),
        )
        s1 = sample_mixture(spec, 100, seed=9, counts=(40, 60))
        s2 = sample_mixture(spec, 100, seed=9, counts=(40, 60))
        assert isinstance(s1, LabeledSample)
        assert np.array_equal(s1.observations, s2.observations)
        assert (s1.labels == 1).sum() == 40
        assert (s1.labels == 2).sum() == 60
        s3 = sample_mixture(spec, 100, seed=10, counts=(40, 60))
        assert not np.array_equal(s1.observations, s3.observations)

    def test_unig_sample_moments(self):
        p = UNIG_CASES[1]
        spec = MixtureSpec(weights=[1.0], components=(p,))
        s = sample_mixture(spec, 300_000, seed=2)
        assert s.observations.mean() == pytest.approx(p.mean, abs=0.02)
        assert s.observations.var() == pytest.approx(p.variance, rel=0.03)

    def test_mnig_sample_moments(self):
        p = MNIGParams(
            mu_t=[1.0, -2.0],
            beta_t=[0.5, 0.2],
            sigma_t=[[1.0, 0.3], [0.3, 1.5]],
            gamma_t=1.4,
        )
        spec = MixtureSpec(weights=[1.0], components=(p,))
        s = sample_mixture(spec, 300_000, seed=3)
        # Y = mu + U beta + sqrt(U) L z with U ~ IG(1, gamma):
        # E[Y] = mu + beta / gamma, Cov = Sigma/gamma + beta beta^T / gamma^3.
        mean_ref = np.asarray(p.mu_t) + np.asarray(p.beta_t) / p.gamma_t
        cov_ref = (
            np.asarray(p.sigma_t) / p.gamma_t
            + np.outer(p.beta_t, p.beta_t) / p.gamma_t**3
        )
        assert np.allclose(s.observations.mean(axis=0), mean_ref, atol=0.02)
        assert np.allclose(np.cov(s.observations.T), cov_ref, atol=0.03)

    def test_invalid_counts(self):
        spec = MixtureSpec(weights=[1.0], components=(UNIG_CASES[0],))
        with pytest.raises(ValueError):
            sample_mixture(spec, 10, seed=0, counts=(5, 5))


class TestValidation:
    def test_unig_params_rejected(self):
        with pytest.raises(ValueError):
            UNIGParams(mu=0.0, beta=0.0, delta=-1.0, gamma=1.0)
        with pytest.raises(ValueError):
            UNIGParams(mu=0.0, beta=0.0, delta=1.0, gamma=0.0)

    def test_mnig_params_rejected(self):
        with pytest.raises(Exception):
            MNIGParams(
                mu_t=[0.0, 0.0],
                beta_t=[0.0, 0.0],
                sigma_t=[[1.0, 2.0], [2.0, 1.0]],
                gamma_t=1.0,
            )

    def test_mixture_weights_rejected(self):
        with pytest.raises(ValueError):
            MixtureSpec(weights=[0.7, 0.7], components=tuple(UNIG_CASES[:2]))

    @pytest.mark.parametrize("field", ["mu", "beta", "delta", "gamma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_unig_params_not_finite_rejected(self, field, value):
        params = {"mu": 0.0, "beta": 0.0, "delta": 1.0, "gamma": 1.0, field: value}
        with pytest.raises(ValueError, match="finite"):
            UNIGParams(**params)

    @pytest.mark.parametrize("field, value", [
        ("mu_t", [0.0, math.nan]),
        ("mu_t", [-math.inf, 0.0]),
        ("beta_t", [math.inf, 0.0]),
        ("beta_t", [0.0, math.nan]),
        ("gamma_t", math.inf),
        ("gamma_t", math.nan),
    ])
    def test_mnig_params_not_finite_rejected(self, field, value):
        params = {"mu_t": [0.0, 0.0], "beta_t": [0.0, 0.0],
                  "sigma_t": np.eye(2), "gamma_t": 1.0, field: value}
        with pytest.raises(ValueError, match="finite"):
            MNIGParams(**params)

    @pytest.mark.parametrize("weights", [
        [math.nan, math.nan], [math.nan, 1.0], [math.inf, 0.5], [math.inf, -math.inf],
    ])
    def test_mixture_weights_not_finite_rejected(self, weights):
        with pytest.raises(ValueError, match="finite"):
            MixtureSpec(weights=weights, components=tuple(UNIG_CASES[:2]))
