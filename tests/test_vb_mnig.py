"""Multivariate engine: update exactness, Wishart expectations, fit, and
the one-dimensional agreement with the univariate engine."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from nigmix import vb_mnig
from nigmix._vbcore import DegenerateComponent, normalize_log_scores
from nigmix.config import FitConfig
from nigmix.distributions import gig_moments, sample_mixture
from nigmix.evaluation import adjusted_rand_index
from nigmix.presets import simulation_preset
from nigmix.vb_mnig import (
    ComponentHyperM,
    ExpectationBundleM,
    component_log_scores_m,
    expectations_from_hypers_m,
    fit_m,
    flat_priors_m,
    init_fit_m,
    posterior_means,
    update_hypers_m,
    update_responsibilities_m,
)
from nigmix.vb_unig import (
    expectations_from_hypers,
    init_fit,
    update_hypers,
    update_responsibilities,
)
from tests_support_naive import gig_moments_kve, log_bessel_k_kve, random_m


def random_state(seed, n=20, k=2, d=3):
    rng = np.random.default_rng(seed)
    data = rng.normal(0.0, 2.0, (n, d))
    resp = rng.dirichlet(np.ones(k), size=n)
    e_u = rng.uniform(0.3, 2.5, (n, k))
    e_uinv = 1.0 / e_u + rng.uniform(0.05, 0.8, (n, k))
    priors = flat_priors_m(k, d, 1e-8, float(np.trace(np.cov(data.T))))
    return data, resp, (e_u, e_uinv), priors


def naive_update(priors, resp, lat, data):
    """Literal summation mirror of the conjugate updates (no 1/2 factors on
    the scalar latent accumulators, unlike the univariate engine)."""
    e_u, e_uinv = lat
    n, d = data.shape
    out = []
    for g, p in enumerate(priors):
        a0, a3, a4 = p.a0, p.a3, p.a4
        a1 = p.a1.copy()
        a2 = p.a2.copy()
        scatter = np.zeros((d, d))
        for i in range(n):
            z = resp[i, g]
            a0 += z
            a1 = a1 + z * data[i]
            a2 = a2 + z * e_uinv[i, g] * data[i]
            a3 += z * e_u[i, g]
            a4 += z * e_uinv[i, g]
            scatter += z * e_uinv[i, g] * np.outer(data[i], data[i])
        D = a3 * a4 - a0**2
        mu = (a3 * a2 - a0 * a1) / D
        beta = (a4 * a1 - a0 * a2) / D
        V = (
            p.V
            + scatter
            - np.outer(a2, mu) - np.outer(mu, a2)
            + a4 * np.outer(mu, mu)
            - np.outer(beta, a1) - np.outer(a1, beta)
            + a0 * (np.outer(beta, mu) + np.outer(mu, beta))
            + a3 * np.outer(beta, beta)
        )
        out.append(ComponentHyperM(a0, a1, a2, a3, a4, 0.5 * (V + V.T)))
    return out


class TestUpdateHypers:
    def test_matches_naive_summation(self):
        for seed in range(20):
            data, resp, lat, priors = random_state(seed)
            fast = update_hypers_m(priors, resp, lat, data)
            slow = naive_update(priors, resp, lat, data)
            for f, s in zip(fast, slow):
                assert f.a0 == pytest.approx(s.a0, rel=1e-12)
                assert f.a3 == pytest.approx(s.a3, rel=1e-12)
                assert f.a4 == pytest.approx(s.a4, rel=1e-12)
                assert np.allclose(f.a1, s.a1, rtol=1e-12, atol=1e-12)
                assert np.allclose(f.a2, s.a2, rtol=1e-12, atol=1e-12)
                assert np.allclose(f.V, s.V, rtol=1e-10, atol=1e-10)

    def test_scale_accumulator_symmetric(self):
        data, resp, lat, priors = random_state(3)
        for h in update_hypers_m(priors, resp, lat, data):
            assert np.array_equal(h.V, h.V.T)

    def test_count_mass(self):
        data, resp, lat, priors = random_state(0)
        hypers = update_hypers_m(priors, resp, lat, data)
        total = sum(h.a0 for h in hypers)
        assert total == pytest.approx(
            sum(p.a0 for p in priors) + data.shape[0], abs=1e-10
        )


def example_hyper(seed=1):
    data, resp, lat, priors = random_state(seed)
    return update_hypers_m(priors, resp, lat, data)[0]


class TestExpectations:
    def test_wishart_moments_monte_carlo(self):
        from scipy.stats import wishart

        h = example_hyper()
        b = expectations_from_hypers_m(h, 2 * h.a0)
        dist = wishart(df=h.a0, scale=np.linalg.inv(h.V))
        assert np.allclose(b.e_prec, dist.mean(), rtol=1e-10)
        draws = dist.rvs(40_000, random_state=np.random.default_rng(0))
        logdets = np.linalg.slogdet(draws)[1]
        assert b.elog_det_prec == pytest.approx(logdets.mean(), abs=0.01)

    def test_location_and_trace_terms(self):
        h = example_hyper()
        b = expectations_from_hypers_m(h, 2 * h.a0)
        mu_bar, beta_bar = posterior_means(h)
        assert np.allclose(b.mu_bar, mu_bar)
        # block inverse of [[a4, a0], [a0, a3]] (x) Prec
        D = h.a3 * h.a4 - h.a0**2
        assert b.c_mu == pytest.approx(h.a3 / D, rel=1e-14)
        assert b.c_beta == pytest.approx(h.a4 / D, rel=1e-14)
        assert b.c_cross == pytest.approx(-h.a0 / D, rel=1e-14)

    def test_tail_weight_moments(self):
        from scipy.stats import norm

        h = example_hyper()
        b = expectations_from_hypers_m(h, 2 * h.a0)
        m = h.a0 / h.a3
        s = math.sqrt(1.0 / (2.0 * h.a3))
        z = norm.sf(0.0, loc=m, scale=s)
        mean_ref, _ = quad(
            lambda g: g * norm.pdf(g, loc=m, scale=s) / z, 0.0, m + 12 * s
        )
        sq_ref, _ = quad(
            lambda g: g * g * norm.pdf(g, loc=m, scale=s) / z, 0.0, m + 12 * s
        )
        assert b.gamma_t == pytest.approx(mean_ref, rel=1e-9)
        assert b.gamma_t_sq == pytest.approx(sq_ref, rel=1e-9)

    def test_degenerate_states_rejected(self):
        d = 3
        v = np.eye(d)
        with pytest.raises(DegenerateComponent):
            # disc <= 0
            expectations_from_hypers_m(
                ComponentHyperM(5.0, np.zeros(d), np.zeros(d), 1.0, 1.0, v), 10.0
            )
        with pytest.raises(DegenerateComponent):
            # Wishart degrees of freedom below d - 1
            expectations_from_hypers_m(
                ComponentHyperM(1.0, np.zeros(d), np.zeros(d), 9.0, 9.0, v), 10.0
            )


class TestScores:
    def test_score_matches_latent_integral(self):
        h = example_hyper(2)
        b = expectations_from_hypers_m(h, 2 * h.a0)
        d = h.dim
        lam = -(d + 1) / 2.0
        ys = np.array([[0.5, -1.0, 2.0], [0.0, 0.0, 0.0]])
        scores, e_a, e_b = component_log_scores_m(ys, b)
        for y, sc, ea in zip(ys, scores, e_a):
            centered = y - b.mu_bar
            ec = (
                b.gamma_t
                + float(centered @ b.e_prec @ b.beta_bar)
                + d * b.c_cross
            )
            integral, _ = quad(
                lambda u: u ** (lam - 1.0)
                * math.exp(-0.5 * (ea / u + e_b * u)),
                0.0,
                np.inf,
                limit=400,
            )
            ref = b.log_pi + 0.5 * b.elog_det_prec + ec + math.log(integral)
            assert sc == pytest.approx(ref, rel=1e-9)

    def test_responsibility_normalization_and_latents(self):
        data, resp0, lat, priors = random_state(7)
        hypers = update_hypers_m(priors, resp0, lat, data)
        total = sum(h.a0 for h in hypers)
        bundles = [expectations_from_hypers_m(h, total) for h in hypers]
        resp, (e_u, e_uinv), flags = update_responsibilities_m(data, bundles)
        assert not flags
        assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-12)
        lam = -(data.shape[1] + 1) / 2.0
        _, ea0, eb0 = component_log_scores_m(data, bundles[0])
        ref_u, ref_uinv = gig_moments(lam, ea0, eb0)
        assert np.allclose(e_u[:, 0], ref_u, rtol=1e-12)
        assert np.allclose(e_uinv[:, 0], ref_uinv, rtol=1e-12)

    def test_one_sweep_matches_kve_reference(self, monkeypatch):
        data, resp0, lat, priors = random_m(7)
        hypers = update_hypers_m(priors, resp0, lat, data)
        total = sum(h.a0 for h in hypers)
        bundles = [expectations_from_hypers_m(h, total) for h in hypers]
        resp, (e_u, e_uinv), _ = update_responsibilities_m(data, bundles)
        # Reference: log K through kve in every score, moments from three
        # kve orders.
        monkeypatch.setattr(vb_mnig, "log_bessel_k", log_bessel_k_kve)
        cols = [component_log_scores_m(data, b) for b in bundles]
        ref_resp, _ = normalize_log_scores(np.column_stack([c[0] for c in cols]))
        ref_u, ref_uinv = gig_moments_kve(
            -(data.shape[1] + 1) / 2.0,
            np.column_stack([c[1] for c in cols]),
            np.array([c[2] for c in cols]),
        )
        for got, ref in ((resp, ref_resp), (e_u, ref_u), (e_uinv, ref_uinv)):
            assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def unig_bundle_to_mnig(b) -> ExpectationBundleM:
    """Tilde map at the expectation level: scale = exp(E[log delta^2])."""
    s = math.exp(b.log_delta_sq)
    return ExpectationBundleM(
        log_pi=b.log_pi,
        elog_det_prec=-b.log_delta_sq,
        e_prec=np.array([[1.0 / s]]),
        mu_bar=np.array([b.mu]),
        beta_bar=np.array([s * b.beta]),
        c_mu=(b.delta_sq - s + b.var_mu) / s,
        c_beta=s * b.var_beta,
        c_cross=-b.cov_mu_beta,
        gamma_t=b.delta_gamma,
        gamma_t_sq=s * b.gamma_sq,
    )


class TestCrossEngine:
    def test_d1_responsibilities_agree(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            y = np.concatenate(
                [rng.normal(0, 1, 30), rng.normal(5, 1.5, 30)]
            )
            resp, lat, priors = init_fit(y, 3, "kmeans", 1e-8, seed)
            hypers = update_hypers(priors, resp, lat, y)
            total = sum(h.a0 for h in hypers)
            bundles = [expectations_from_hypers(h, total) for h in hypers]
            r_uni, _, _ = update_responsibilities(y, bundles)
            r_multi, _, _ = update_responsibilities_m(
                y.reshape(-1, 1), [unig_bundle_to_mnig(b) for b in bundles]
            )
            assert np.abs(r_uni - r_multi).max() < 1e-8


class TestFit:
    def test_two_component_recovery(self):
        spec, counts = simulation_preset("study4")
        s = sample_mixture(spec, sum(counts), seed=21, counts=counts)
        res = fit_m(s.observations, FitConfig(model="mnig", g_init=5, seed=0))
        assert res.n_components == 2
        assert adjusted_rand_index(s.labels, res.labels) > 0.95

    def test_determinism(self):
        spec, counts = simulation_preset("study4")
        s = sample_mixture(spec, sum(counts), seed=22, counts=counts)
        cfg = FitConfig(model="mnig", g_init=4, seed=3)
        r1 = fit_m(s.observations, cfg)
        r2 = fit_m(s.observations, cfg)
        assert np.array_equal(r1.resp, r2.resp)
        assert r1.surviving == r2.surviving

    def test_count_mass_every_iteration(self):
        spec, counts = simulation_preset("study4")
        s = sample_mixture(spec, sum(counts), seed=23, counts=counts)
        cfg = FitConfig(model="mnig", g_init=5, seed=0)
        res = fit_m(s.observations, cfg)
        g_prev = cfg.g_init
        n = sum(counts)
        for entry in res.trace:
            expected = g_prev * cfg.hyper_init + n
            assert entry["count_mass"] == pytest.approx(expected, abs=1e-10)
            g_prev = entry["g_alive"]

    def test_init_contract(self):
        data = np.random.default_rng(0).normal(0, 1, (50, 2))
        resp, (e_u, e_uinv), priors = init_fit_m(data, 3, "kmeans", 1e-8, 0)
        assert resp.shape == (50, 3)
        assert np.all(e_u > 0) and np.all(e_uinv > 0)
        assert len(priors) == 3
        assert priors[0].V.shape == (2, 2)
