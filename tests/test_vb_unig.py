"""Univariate engine: update exactness, expectation oracles, pruning, fit."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import gamma as gamma_dist
from scipy.stats import norm

from nigmix import _vbcore, special
from nigmix._vbcore import DegenerateComponent, DegenerateFit, normalize_log_scores
from nigmix.config import FitConfig
from nigmix.distributions import gig_moments
from nigmix.evaluation import adjusted_rand_index
from nigmix.presets import simulation_preset
from nigmix.distributions import sample_mixture
from nigmix.vb_unig import (
    ComponentHyper,
    component_log_scores,
    expectations_from_hypers,
    fit,
    fitted_density,
    flat_priors,
    init_fit,
    prune,
    update_hypers,
    update_responsibilities,
)
from tests_support_naive import (
    gig_moments_kve,
    log_bessel_k_kve,
    log_score_u,
    naive_update_u,
    random_u,
)


class TestUpdateHypers:
    def test_matches_naive_summation(self):
        for seed in range(20):
            data, resp, lat, priors = random_u(seed)
            fast = update_hypers(priors, resp, lat, data)
            slow = naive_update_u(priors, resp, lat, data)
            for f, s in zip(fast, slow):
                for name in ("a0", "a1", "a2", "a3", "a4"):
                    assert getattr(f, name) == pytest.approx(
                        getattr(s, name), rel=1e-12, abs=1e-12
                    )

    def test_count_mass(self):
        data, resp, lat, priors = random_u(0)
        hypers = update_hypers(priors, resp, lat, data)
        total = sum(h.a0 for h in hypers)
        assert total == pytest.approx(
            sum(p.a0 for p in priors) + len(data), abs=1e-10
        )


def example_hyper():
    data, resp, lat, priors = random_u(1)
    return update_hypers(priors, resp, lat, data)[0]


class TestExpectations:
    def test_scale_posterior_moments(self):
        h = example_hyper()
        b = expectations_from_hypers(h, 3 * h.a0)
        shape = h.a0 / 2.0 + 1.0
        rate = h.gamma_rate
        for func, got in [
            (lambda t: t, b.delta_sq),
            (np.log, b.log_delta_sq),
            (np.sqrt, b.delta),
        ]:
            ref, _ = quad(
                lambda t: func(t) * gamma_dist.pdf(t, shape, scale=1.0 / rate),
                0.0,
                gamma_dist.ppf(1 - 1e-14, shape, scale=1.0 / rate),
                limit=400,
            )
            assert got == pytest.approx(ref, rel=1e-8)

    def test_location_posterior_moments(self):
        # Bivariate-normal moments recovered by direct 2-d quadrature over
        # the unnormalized posterior kernel of (mu, beta).
        from scipy.integrate import dblquad

        h = example_hyper()
        b = expectations_from_hypers(h, 3 * h.a0)

        def kernel(mu, beta):
            return math.exp(
                h.a1 * beta + h.a2 * mu - h.a0 * mu * beta
                - h.a3 * beta**2 - h.a4 * mu**2
            )

        s_mu = math.sqrt(b.var_mu)
        s_be = math.sqrt(b.var_beta)
        lims = (
            b.mu - 8 * s_mu, b.mu + 8 * s_mu,
            lambda _: b.beta - 8 * s_be, lambda _: b.beta + 8 * s_be,
        )
        z, _ = dblquad(lambda be, mu: kernel(mu, be), *lims)
        for f, got, tol in [
            (lambda mu, be: mu, b.mu, 1e-8),
            (lambda mu, be: be, b.beta, 1e-8),
            (lambda mu, be: mu * mu, b.mu_sq, 1e-7),
            (lambda mu, be: be * be, b.beta_sq, 1e-7),
            (lambda mu, be: mu * be - b.mu * b.beta, b.cov_mu_beta, 1e-5),
        ]:
            ref, _ = dblquad(lambda be, mu: f(mu, be) * kernel(mu, be), *lims)
            assert got == pytest.approx(ref / z, rel=tol, abs=1e-9)

    def test_tail_weight_posterior_moments(self):
        # Joint quadrature over the scale Gamma and the conditional truncated
        # normal; exercises the quadrature branch of the implementation.
        h0 = example_hyper()
        h = ComponentHyper(h0.a0, h0.a1, h0.a2, 8.0 * h0.a3, h0.a4)
        b = expectations_from_hypers(h, 3 * h.a0)
        shape = h.a0 / 2.0 + 1.0
        rate = h.gamma_rate
        ratio = h.a0 / (2.0 * h.a3)
        s = math.sqrt(1.0 / (2.0 * h.a3))

        def averaged(stat):
            def outer(t):
                delta = math.sqrt(t)
                m = ratio * delta
                z = norm.sf(0.0, loc=m, scale=s)
                inner, _ = quad(
                    lambda g: stat(delta, g) * norm.pdf(g, loc=m, scale=s) / z,
                    0.0,
                    m + 10 * s,
                    limit=200,
                )
                return inner * gamma_dist.pdf(t, shape, scale=1.0 / rate)

            val, _ = quad(
                outer,
                gamma_dist.ppf(1e-12, shape, scale=1.0 / rate),
                gamma_dist.ppf(1 - 1e-12, shape, scale=1.0 / rate),
                limit=200,
            )
            return val

        assert b.gamma == pytest.approx(averaged(lambda d, g: g), rel=1e-6)
        assert b.gamma_sq == pytest.approx(averaged(lambda d, g: g * g), rel=1e-6)
        assert b.delta_gamma == pytest.approx(
            averaged(lambda d, g: d * g), rel=1e-6
        )

    def test_degenerate_hyper_rejected(self):
        bad = ComponentHyper(10.0, 0.0, 0.0, 1.0, 1.0)  # a0^2/(4 a3) > a4
        with pytest.raises(DegenerateComponent):
            expectations_from_hypers(bad, 30.0)


class TestScoresAndResponsibilities:
    def test_score_matches_latent_integral(self):
        # The marginal score is the closed form of
        # int_0^inf u^(-2) exp(E[C] - (E[A]/u + E[B] u)/2) du
        # times exp(E[log pi] + E[log delta^2]/2) / (2 pi).
        h = example_hyper()
        b = expectations_from_hypers(h, 3 * h.a0)
        ys = np.array([-2.0, 0.5, 3.0])
        scores, e_a, e_b = component_log_scores(ys, b)
        for y, sc, ea in zip(ys, scores, e_a):
            ec = b.delta_gamma + y * b.beta - (b.mu * b.beta + b.cov_mu_beta)
            integral, _ = quad(
                lambda u: u**-2.0 * math.exp(-0.5 * (ea / u + e_b * u)),
                0.0,
                np.inf,
                limit=400,
            )
            ref = b.log_pi + 0.5 * b.log_delta_sq + ec + math.log(integral)
            assert sc == pytest.approx(ref, rel=1e-9)

    def test_responsibilities_softmax_and_latents(self):
        data, resp0, lat, priors = random_u(4)
        hypers = update_hypers(priors, resp0, lat, data)
        total = sum(h.a0 for h in hypers)
        bundles = [expectations_from_hypers(h, total) for h in hypers]
        resp, (e_u, e_uinv), flags = update_responsibilities(data, bundles)
        assert not flags
        assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-12)
        raw = np.column_stack(
            [component_log_scores(data, b)[0] for b in bundles]
        )
        manual = np.exp(raw - raw.max(axis=1, keepdims=True))
        manual /= manual.sum(axis=1, keepdims=True)
        assert np.allclose(resp, manual, atol=1e-13)
        # latent moments come from the per-pair GIG posterior
        _, ea0, eb0 = component_log_scores(data, bundles[0])
        ref_u, ref_uinv = gig_moments(-1.0, ea0, eb0)
        assert np.allclose(e_u[:, 0], ref_u, rtol=1e-12)
        assert np.allclose(e_uinv[:, 0], ref_uinv, rtol=1e-12)

    def test_responsibilities_equal_stacked_component_scores(self):
        # The sweep scores all components in one broadcast.  Each column
        # must be bit for bit the score of that component alone, which is
        # the one-bundle formula evaluated term by term.
        for seed in (4, 6):
            data, resp0, lat, priors = random_u(seed)
            hypers = update_hypers(priors, resp0, lat, data)
            total = sum(h.a0 for h in hypers)
            bundles = [expectations_from_hypers(h, total) for h in hypers]
            resp, (e_u, e_uinv), _ = update_responsibilities(data, bundles)
            cols = [component_log_scores(data, b) for b in bundles]
            for col, b in zip(cols, bundles):
                for got, ref in zip(col, log_score_u(data, b)):
                    assert np.array_equal(got, ref)
            ref_resp, _ = normalize_log_scores(np.column_stack([c[0] for c in cols]))
            ref_u, ref_uinv = gig_moments(
                -1.0, np.column_stack([c[1] for c in cols]), np.array([c[2] for c in cols])
            )
            assert np.array_equal(resp, ref_resp)
            assert np.array_equal(e_u, ref_u)
            assert np.array_equal(e_uinv, ref_uinv)

    def test_one_sweep_matches_kve_reference(self, monkeypatch):
        data, resp0, lat, priors = random_u(4)
        hypers = update_hypers(priors, resp0, lat, data)
        total = sum(h.a0 for h in hypers)
        bundles = [expectations_from_hypers(h, total) for h in hypers]
        resp, (e_u, e_uinv), _ = update_responsibilities(data, bundles)
        # Reference: log K through kve in every score, moments from three
        # kve orders.
        monkeypatch.setattr(_vbcore, "log_bessel_k", log_bessel_k_kve)
        cols = [component_log_scores(data, b) for b in bundles]
        ref_resp, _ = normalize_log_scores(np.column_stack([c[0] for c in cols]))
        ref_u, ref_uinv = gig_moments_kve(
            -1.0, np.column_stack([c[1] for c in cols]), np.array([c[2] for c in cols])
        )
        for got, ref in ((resp, ref_resp), (e_u, ref_u), (e_uinv, ref_uinv)):
            assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    def test_component_permutation_equivariance(self):
        data, resp0, lat, priors = random_u(6)
        hypers = update_hypers(priors, resp0, lat, data)
        total = sum(h.a0 for h in hypers)
        bundles = [expectations_from_hypers(h, total) for h in hypers]
        resp, _, _ = update_responsibilities(data, bundles)
        perm = [2, 0, 1]
        resp_p, _, _ = update_responsibilities(data, [bundles[j] for j in perm])
        assert np.allclose(resp[:, perm], resp_p, atol=1e-14)


class TestPrune:
    def test_drops_light_components(self):
        resp = np.array([[0.9, 0.08, 0.02]] * 30)
        hypers = flat_priors(3, 1e-8)
        out, kept, removed = prune(resp, hypers, 1.0)
        assert removed == [2]
        assert len(kept) == 2
        assert np.allclose(out.sum(axis=1), 1.0)

    def test_keeps_everything_above_threshold(self):
        resp = np.full((10, 2), 0.5)
        out, kept, removed = prune(resp, flat_priors(2, 1e-8), 1.0)
        assert removed == []
        assert out is resp

    def test_all_pruned_raises(self):
        resp = np.full((3, 2), 0.1)
        with pytest.raises(DegenerateFit):
            prune(resp, flat_priors(2, 1e-8), 5.0)

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            prune(np.ones((3, 1)), flat_priors(1, 1e-8), 0.0)


class TestFit:
    def test_two_component_recovery(self):
        spec, counts = simulation_preset("study1")
        s = sample_mixture(spec, sum(counts), seed=11, counts=counts)
        res = fit(s.observations, FitConfig(model="unig", g_init=10, seed=0))
        assert res.n_components == 2
        assert res.converged
        assert adjusted_rand_index(s.labels, res.labels) > 0.95

    def test_large_bessel_argument_needs_no_fallback(self, monkeypatch):
        # study2 replicate 7 drives the Bessel argument past 1e9, where kve
        # gives NaN and every element used to go through mpmath.
        def no_fallback(nu, x):
            raise AssertionError(f"fallback reached at nu={nu}, x={x}")

        monkeypatch.setattr(special, "_log_k_mpmath", no_fallback)
        spec, counts = simulation_preset("study2")
        s = sample_mixture(spec, sum(counts), seed=1007, counts=counts)
        res = fit(s.observations, FitConfig(model="unig", g_init=10, seed=7))
        assert np.all(np.isfinite(res.resp))
        assert np.abs(res.resp.sum(axis=1) - 1.0).max() <= 1e-12

    def test_determinism(self):
        spec, counts = simulation_preset("study1")
        s = sample_mixture(spec, sum(counts), seed=12, counts=counts)
        cfg = FitConfig(model="unig", g_init=8, seed=5)
        r1 = fit(s.observations, cfg)
        r2 = fit(s.observations, cfg)
        assert np.array_equal(r1.resp, r2.resp)
        assert r1.surviving == r2.surviving
        assert r1.iterations == r2.iterations

    def test_count_mass_every_iteration(self):
        spec, counts = simulation_preset("study1")
        s = sample_mixture(spec, sum(counts), seed=13, counts=counts)
        cfg = FitConfig(model="unig", g_init=6, seed=1)
        res = fit(s.observations, cfg)
        n = sum(counts)
        g_prev = cfg.g_init
        for entry in res.trace:
            expected = g_prev * cfg.hyper_init + n
            assert entry["count_mass"] == pytest.approx(expected, abs=1e-10)
            g_prev = entry["g_alive"]

    def test_random_init_mode(self):
        spec, counts = simulation_preset("study1")
        s = sample_mixture(spec, sum(counts), seed=14, counts=counts)
        res = fit(
            s.observations,
            FitConfig(model="unig", g_init=10, init_mode="random", seed=2),
        )
        assert res.n_components == 2

    def test_fitted_density_integrates(self):
        spec, counts = simulation_preset("study1")
        s = sample_mixture(spec, sum(counts), seed=15, counts=counts)
        res = fit(s.observations, FitConfig(model="unig", g_init=6, seed=0))
        total, _ = quad(
            lambda y: float(fitted_density(res, np.array([y]))[0]),
            -30.0,
            40.0,
            limit=300,
        )
        assert total == pytest.approx(1.0, rel=1e-4)

    def test_init_fit_contract(self):
        data = np.linspace(-2, 10, 40)
        resp, (e_u, e_uinv), priors = init_fit(data, 4, "kmeans", 1e-8, 0)
        assert resp.shape == (40, 4)
        assert set(np.unique(resp)) <= {0.0, 1.0}
        assert np.all(e_u > 0) and np.all(e_uinv > 0)
        assert len(priors) == 4
        with pytest.raises(ValueError):
            init_fit(np.array([]), 2)
        with pytest.raises(ValueError):
            init_fit(data, 40)
