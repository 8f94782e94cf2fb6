"""Multivariate engine: update exactness, Wishart expectations, scores and
fit.  The one-dimensional agreement with the univariate engine is
``test_acceptance.py::test_12_cross_engine_identity``."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from nigmix._vbcore import DegenerateComponent, normalize_log_scores
from nigmix.config import FitConfig
from nigmix.distributions import gig_moments, sample_mixture
from nigmix.evaluation import adjusted_rand_index
from nigmix.presets import simulation_preset
from nigmix.vb_mnig import (
    ComponentHyperM,
    expectations_from_hypers_m,
    fit_m,
    init_fit_m,
    posterior_means,
    update_hypers_m,
    update_responsibilities_m,
)
import tests_support_naive
from tests_support_naive import (
    gig_moments_kve,
    log_bessel_k_kve,
    log_score_m,
    naive_update_m,
    random_m,
    update_hypers_m_loop,
    update_responsibilities_m_loop,
)


class TestUpdateHypers:
    def test_matches_naive_summation(self):
        for seed in range(20):
            data, resp, lat, priors = random_m(seed)
            fast = update_hypers_m(priors, resp, lat, data)
            slow = naive_update_m(priors, resp, lat, data)
            for f, s in zip(fast, slow):
                assert f.a0 == pytest.approx(s.a0, rel=1e-12)
                assert f.a3 == pytest.approx(s.a3, rel=1e-12)
                assert f.a4 == pytest.approx(s.a4, rel=1e-12)
                assert np.allclose(f.a1, s.a1, rtol=1e-12, atol=1e-12)
                assert np.allclose(f.a2, s.a2, rtol=1e-12, atol=1e-12)
                assert np.allclose(f.V, s.V, rtol=1e-10, atol=1e-10)

    def test_scale_accumulator_symmetric(self):
        data, resp, lat, priors = random_m(3)
        for h in update_hypers_m(priors, resp, lat, data):
            assert np.array_equal(h.V, h.V.T)

    def test_count_mass(self):
        data, resp, lat, priors = random_m(0)
        hypers = update_hypers_m(priors, resp, lat, data)
        total = sum(h.a0 for h in hypers)
        assert total == pytest.approx(
            sum(p.a0 for p in priors) + data.shape[0], abs=1e-10
        )


def example_hyper(seed=1):
    data, resp, lat, priors = random_m(seed)
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
        scores, e_a, e_b = log_score_m(ys, b)
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
        data, resp0, lat, priors = random_m(7)
        hypers = update_hypers_m(priors, resp0, lat, data)
        total = sum(h.a0 for h in hypers)
        bundles = [expectations_from_hypers_m(h, total) for h in hypers]
        resp, (e_u, e_uinv), flags = update_responsibilities_m(data, bundles)
        assert not flags
        assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-12)
        lam = -(data.shape[1] + 1) / 2.0
        raw = np.column_stack([log_score_m(data, b)[0] for b in bundles])
        manual = np.exp(raw - raw.max(axis=1, keepdims=True))
        manual /= manual.sum(axis=1, keepdims=True)
        assert np.allclose(resp, manual, atol=1e-13)
        _, ea0, eb0 = log_score_m(data, bundles[0])
        ref_u, ref_uinv = gig_moments(lam, ea0, eb0)
        assert np.allclose(e_u[:, 0], ref_u, rtol=1e-12)
        assert np.allclose(e_uinv[:, 0], ref_uinv, rtol=1e-12)

    def test_responsibilities_equal_stacked_component_scores(self):
        # Each column of the sweep's scores must be bit for bit the score of
        # that component alone, the one-bundle formula evaluated term by term.
        for seed in (7, 8):
            data, resp0, lat, priors = random_m(seed, k=3)
            hypers = update_hypers_m(priors, resp0, lat, data)
            total = sum(h.a0 for h in hypers)
            bundles = [expectations_from_hypers_m(h, total) for h in hypers]
            resp, (e_u, e_uinv), _ = update_responsibilities_m(data, bundles)
            cols = [log_score_m(data, b) for b in bundles]
            ref_resp, _ = normalize_log_scores(np.array([c[0] for c in cols]))
            ref_u, ref_uinv = gig_moments(
                -(data.shape[1] + 1) / 2.0,
                np.column_stack([c[1] for c in cols]),
                np.array([c[2] for c in cols]),
            )
            assert np.array_equal(resp, ref_resp)
            assert np.array_equal(e_u, ref_u)
            assert np.array_equal(e_uinv, ref_uinv)

    def test_one_sweep_matches_kve_reference(self, monkeypatch):
        data, resp0, lat, priors = random_m(7)
        hypers = update_hypers_m(priors, resp0, lat, data)
        total = sum(h.a0 for h in hypers)
        bundles = [expectations_from_hypers_m(h, total) for h in hypers]
        resp, (e_u, e_uinv), _ = update_responsibilities_m(data, bundles)
        # Reference: log K through kve in every score, moments from three
        # kve orders.
        monkeypatch.setattr(tests_support_naive, "log_bessel_k", log_bessel_k_kve)
        cols = [log_score_m(data, b) for b in bundles]
        ref_resp, _ = normalize_log_scores(np.array([c[0] for c in cols]))
        ref_u, ref_uinv = gig_moments_kve(
            -(data.shape[1] + 1) / 2.0,
            np.column_stack([c[1] for c in cols]),
            np.array([c[2] for c in cols]),
        )
        for got, ref in ((resp, ref_resp), (e_u, ref_u), (e_uinv, ref_uinv)):
            assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def sweep_states():
    """(data, resp, lat, priors) at d = 1, 2, 3 and 10 with k = 1..10
    components, then the initial and a mid-fit state of study4 and study5
    at g_init = 10."""
    for d in (1, 2, 3, 10):
        for k in range(1, 11):
            # Enough rows that every component keeps a Wishart df above d - 1.
            yield random_m(10 * d + k, n=30 * k, k=k, d=d)
    for name in ("study4", "study5"):
        spec, counts = simulation_preset(name)
        s = sample_mixture(spec, sum(counts), seed=1000, counts=counts)
        resp, lat, priors = init_fit_m(s.observations, 10, "kmeans", 1e-8, 0)
        yield s.observations, resp, lat, priors
        res = fit_m(s.observations, FitConfig(model="mnig", g_init=10, max_iter=15))
        resp, lat, _ = update_responsibilities_m(s.observations, res.bundles)
        yield s.observations, resp, lat, priors[: len(res.bundles)]


def assert_hypers_equal(got, ref):
    assert len(got) == len(ref)
    for f, s in zip(got, ref):
        for field in dataclasses.fields(ComponentHyperM):
            assert np.array_equal(getattr(f, field.name), getattr(s, field.name))


class TestStackedSteps:
    """The stacked steps take each component's floating-point steps one
    for one, so they equal the one-component loops bit for bit."""

    def test_hypers_equal_the_component_loop(self):
        for data, resp, lat, priors in sweep_states():
            assert_hypers_equal(
                update_hypers_m(priors, resp, lat, data),
                update_hypers_m_loop(priors, resp, lat, data),
            )

    def test_count_mass_squared_as_a_scalar(self):
        # A count mass whose square by pow, as the scalar a0**2 takes it,
        # differs in the last bit from the array square a0 * a0.
        data, resp, lat, priors = random_m(3, k=2)
        mass = resp[:, 0].sum()
        prior_a0 = next(
            p for p in 1e-8 * np.arange(1.0, 1e5)
            if (p + mass) ** 2 != (p + mass) * (p + mass)
        )
        priors[0] = dataclasses.replace(priors[0], a0=float(prior_a0))
        assert_hypers_equal(
            update_hypers_m(priors, resp, lat, data),
            update_hypers_m_loop(priors, resp, lat, data),
        )

    def test_responsibilities_equal_the_component_loop(self):
        for data, resp, lat, priors in sweep_states():
            hypers = update_hypers_m(priors, resp, lat, data)
            total = sum(h.a0 for h in hypers)
            bundles = []
            for h in hypers:
                # The sweep drops a degenerate component before scoring.
                try:
                    bundles.append(expectations_from_hypers_m(h, total))
                except DegenerateComponent:
                    pass
            new_resp, (e_u, e_uinv), flags = update_responsibilities_m(data, bundles)
            ref_resp, (ref_u, ref_uinv), ref_flags = update_responsibilities_m_loop(
                data, bundles
            )
            assert np.array_equal(new_resp, ref_resp) and flags == ref_flags
            assert np.array_equal(e_u, ref_u) and np.array_equal(e_uinv, ref_uinv)
            for a in (new_resp, e_u, e_uinv):
                assert a.flags.c_contiguous


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
