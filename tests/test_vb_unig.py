"""Univariate engine: update exactness, expectation oracles, pruning, fit."""

import dataclasses
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import gamma as gamma_dist
from scipy.stats import norm

from nigmix import special, vb_unig
from nigmix._vbcore import DegenerateFit, normalize_log_scores, take
from nigmix.config import FitConfig, InvalidData
from nigmix.distributions import gig_moments
from nigmix.evaluation import adjusted_rand_index
from nigmix.presets import simulation_preset
from nigmix.distributions import sample_mixture
from nigmix.vb_unig import (
    ComponentHyper,
    ExpectationBundle,
    expectations_from_hypers,
    fit,
    fitted_density,
    init_fit,
    prune,
    update_hypers,
    update_responsibilities,
)
import tests_support_naive
from tests_support_naive import (
    assert_stacks_equal,
    expectations_loop,
    expectations_one,
    first_sweep_state,
    gamma_quadrature_loop,
    gig_moments_kve,
    log_bessel_k_kve,
    log_score_u,
    naive_update_u,
    random_hypers_u,
    random_u,
    row,
    rows,
    update_hypers_loop,
)

FIELDS = ("a0", "a1", "a2", "a3", "a4")


class TestUpdateHypers:
    def test_matches_naive_summation(self):
        for seed in range(20):
            data, resp, lat, priors = random_u(seed)
            fast = update_hypers(priors, resp, lat, data)
            slow = naive_update_u(priors, resp, lat, data)
            for name in FIELDS:
                assert getattr(fast, name) == pytest.approx(
                    getattr(slow, name), rel=1e-12, abs=1e-12
                )

    def test_count_mass(self):
        data, resp, lat, priors = random_u(0)
        hypers = update_hypers(priors, resp, lat, data)
        total = sum(hypers.a0.tolist())
        assert total == pytest.approx(
            sum(priors.a0.tolist()) + len(data), abs=1e-10
        )


def example_hyper():
    """The first component of a random state, as a one-row stack."""
    data, resp, lat, priors = random_u(1)
    return take(update_hypers(priors, resp, lat, data), [0])


def one_bundle(hypers):
    """Row and bundle, as scalars, of a one-row hyper stack."""
    bundles, dropped = expectations_from_hypers(hypers, 3 * hypers.a0[0])
    assert not dropped
    return row(hypers, 0), row(bundles, 0)


def sweep_bundles(seed):
    """Data and the bundle stack of one sweep from a random state."""
    data, resp0, lat, priors = random_u(seed)
    hypers = update_hypers(priors, resp0, lat, data)
    bundles, dropped = expectations_from_hypers(hypers, sum(hypers.a0.tolist()))
    assert not dropped
    return data, bundles


class TestExpectations:
    def test_scale_posterior_moments(self):
        h, b = one_bundle(example_hyper())
        shape = h.a0 / 2.0 + 1.0
        rate = h.a4 - h.a0**2 / (4.0 * h.a3)
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

        h, b = one_bundle(example_hyper())

        def kernel(mu, beta):
            return math.exp(
                h.a1 * beta + h.a2 * mu - h.a0 * mu * beta
                - h.a3 * beta**2 - h.a4 * mu**2
            )

        s_mu = math.sqrt(b.mu_sq - b.mu**2)
        s_be = math.sqrt(b.beta_sq - b.beta**2)
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
        h, b = one_bundle(dataclasses.replace(h0, a3=8.0 * h0.a3))
        shape = h.a0 / 2.0 + 1.0
        rate = h.a4 - h.a0**2 / (4.0 * h.a3)
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
        # a0^2/(4 a3) > a4
        bad = ComponentHyper(*np.array([[10.0, 0.0, 0.0, 1.0, 1.0]]).T)
        bundles, dropped = expectations_from_hypers(bad, 30.0)
        assert dropped == [(0, "non-positive gamma rate")]
        assert bundles.log_pi.shape == (0,)


class TestScoresAndResponsibilities:
    def test_score_matches_latent_integral(self):
        # The marginal score is the closed form of
        # int_0^inf u^(-2) exp(E[C] - (E[A]/u + E[B] u)/2) du
        # times exp(E[log pi] + E[log delta^2]/2) / (2 pi).
        _, b = one_bundle(example_hyper())
        ys = np.array([-2.0, 0.5, 3.0])
        scores, e_a, e_b = log_score_u(ys, b)
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
        data, bundles = sweep_bundles(4)
        resp, (e_u, e_uinv), flags = update_responsibilities(data, bundles)
        assert not flags
        assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-12)
        raw = np.column_stack([log_score_u(data, b)[0] for b in rows(bundles)])
        manual = np.exp(raw - raw.max(axis=1, keepdims=True))
        manual /= manual.sum(axis=1, keepdims=True)
        assert np.allclose(resp, manual, atol=1e-13)
        # latent moments come from the per-pair GIG posterior
        _, ea0, eb0 = log_score_u(data, row(bundles, 0))
        ref_u, ref_uinv = gig_moments(-1.0, ea0, eb0)
        assert np.allclose(e_u[:, 0], ref_u, rtol=1e-12)
        assert np.allclose(e_uinv[:, 0], ref_uinv, rtol=1e-12)

    def test_responsibilities_equal_stacked_component_scores(self):
        # The sweep scores all components in one broadcast.  Each column
        # must be bit for bit the score of that component alone, which is
        # the one-bundle formula evaluated term by term.
        for seed in (4, 6):
            data, bundles = sweep_bundles(seed)
            resp, (e_u, e_uinv), _ = update_responsibilities(data, bundles)
            cols = [log_score_u(data, b) for b in rows(bundles)]
            ref_resp, _ = normalize_log_scores(np.array([c[0] for c in cols]))
            ref_u, ref_uinv = gig_moments(
                -1.0, np.column_stack([c[1] for c in cols]), np.array([c[2] for c in cols])
            )
            assert np.array_equal(resp, ref_resp)
            assert np.array_equal(e_u, ref_u)
            assert np.array_equal(e_uinv, ref_uinv)

    def test_one_sweep_matches_kve_reference(self, monkeypatch):
        data, bundles = sweep_bundles(4)
        resp, (e_u, e_uinv), _ = update_responsibilities(data, bundles)
        # Reference: log K through kve in every score, moments from three
        # kve orders.
        monkeypatch.setattr(tests_support_naive, "log_bessel_k", log_bessel_k_kve)
        cols = [log_score_u(data, b) for b in rows(bundles)]
        ref_resp, _ = normalize_log_scores(np.array([c[0] for c in cols]))
        ref_u, ref_uinv = gig_moments_kve(
            -1.0, np.column_stack([c[1] for c in cols]), np.array([c[2] for c in cols])
        )
        for got, ref in ((resp, ref_resp), (e_u, ref_u), (e_uinv, ref_uinv)):
            assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    def test_component_permutation_equivariance(self):
        data, bundles = sweep_bundles(6)
        resp, _, _ = update_responsibilities(data, bundles)
        perm = [2, 0, 1]
        resp_p, _, _ = update_responsibilities(data, take(bundles, perm))
        assert np.allclose(resp[:, perm], resp_p, atol=1e-14)


def unig_states():
    """(data, resp, lat, priors) with k = 1..10 components, then the initial
    and a mid-fit state of study1 and study2 at g_init = 10."""
    for k in range(1, 11):
        yield random_u(k, n=30 * k, k=k)
    for name in ("study1", "study2"):
        spec, counts = simulation_preset(name)
        y = sample_mixture(spec, sum(counts), seed=1000, counts=counts).observations
        y = y.reshape(-1)
        resp, lat, priors = first_sweep_state(init_fit, y, 10, 1e-8, 0)
        yield y, resp, lat, priors
        res = fit(y, FitConfig(model="unig", g_init=10, max_iter=15))
        resp, lat, _ = update_responsibilities(y, res.bundles)
        yield y, resp, lat, take(priors, np.arange(len(res.surviving)))


class TestStackedSteps:
    """The stacked hyper step and the row-by-row expectation step take each
    component's floating-point steps one for one, so they equal the
    one-component loops bit for bit."""

    def test_hypers_equal_the_component_loop(self):
        for data, resp, lat, priors in unig_states():
            assert_stacks_equal(
                update_hypers(priors, resp, lat, data),
                update_hypers_loop(priors, resp, lat, data),
            )

    def test_expectations_equal_the_component_loop(self, monkeypatch):
        quadrature_rows = []

        def counted(*args):
            quadrature_rows.append(args)
            return quadrature(*args)

        quadrature = vb_unig._gamma_quadrature
        monkeypatch.setattr(vb_unig, "_gamma_quadrature", counted)
        for data, resp, lat, priors in unig_states():
            hypers = update_hypers(priors, resp, lat, data)
            total = sum(hypers.a0.tolist())
            got, dropped = expectations_from_hypers(hypers, total)
            ref, ref_dropped = expectations_loop(
                expectations_one, ExpectationBundle, hypers, total
            )
            assert dropped == ref_dropped
            assert_stacks_equal(got, ref)
        # Both branches of the tail-weight moments are covered.
        assert 0 < len(quadrature_rows)

    def test_expectations_equal_the_component_loop_on_many_rows(self):
        # The scalar and array squares differ on about 1e-3 of values, so
        # ten thousand rows show any square taken the array way.
        hypers = random_hypers_u(0, 10_000)
        got, dropped = expectations_from_hypers(hypers, 5e4)
        ref, ref_dropped = expectations_loop(
            expectations_one, ExpectationBundle, hypers, 5e4
        )
        assert dropped == ref_dropped == []
        assert_stacks_equal(got, ref)

    def test_drop_reasons_in_component_order(self):
        data, resp, lat, priors = random_u(1)
        valid = np.array([getattr(update_hypers(priors, resp, lat, data), name)
                          for name in FIELDS]).T
        bad = [
            [-1.0, 0.0, 0.0, 1.0, 1.0],
            [10.0, 0.0, 0.0, 1.0, 1.0],
            # The gamma rate is 2**-52, but sqrt(a3 a4) rounds to 1.
            [2.0, 0.0, 0.0, 1.0, 1.0 + 2.0**-52],
            [1.0, 0.0, 0.0, np.nan, 1.0],
        ]
        table = [valid[0], *bad[:3], valid[1], bad[3], valid[2]]
        hypers = ComponentHyper(*np.array(table).T)
        got, dropped = expectations_from_hypers(hypers, 30.0)
        ref, ref_dropped = expectations_loop(
            expectations_one, ExpectationBundle, hypers, 30.0
        )
        assert dropped == ref_dropped == [
            (1, "non-positive hyperparameter"),
            (2, "non-positive gamma rate"),
            (3, "correlation at the boundary"),
            (5, "non-positive hyperparameter"),
        ]
        assert_stacks_equal(got, ref)

    def test_rows_out_of_float_range(self):
        # Python floats raise where the loop's numpy scalars go to inf: a0**2
        # overflows in row 1.  In row 2 a3 * a4 underflows to zero, which
        # leaves the loop's rho at -inf.
        valid = random_hypers_u(2, 2)
        table = [
            [getattr(valid, name)[0] for name in FIELDS],
            [1e300, 0.0, 0.0, 1e300, 1e300],
            [1e-200, 0.0, 0.0, 1e-200, 1e-200],
            [getattr(valid, name)[1] for name in FIELDS],
        ]
        hypers = ComponentHyper(*np.array(table).T)
        got, dropped = expectations_from_hypers(hypers, 30.0)
        assert dropped == [
            (1, "expectations overflow"),
            (2, "correlation at the boundary"),
        ]
        with np.errstate(over="ignore", divide="ignore"):
            ref, ref_dropped = expectations_loop(
                expectations_one, ExpectationBundle, hypers, 30.0
            )
        assert ref_dropped == [
            (1, "non-positive gamma rate"),
            (2, "correlation at the boundary"),
        ]
        assert_stacks_equal(got, ref)


def quadrature_calls(name, replicates, monkeypatch):
    """The (a0, rate, ratio, s) of every ``_gamma_quadrature`` call in the
    first ten sweeps of the census fits of ``name``: sample seed 1000 + r,
    fit seed r, g_init 10."""
    calls = []
    quadrature = vb_unig._gamma_quadrature

    def recorded(*args):
        calls.append(args)
        return quadrature(*args)

    spec, counts = simulation_preset(name)
    with monkeypatch.context() as patch:
        patch.setattr(vb_unig, "_gamma_quadrature", recorded)
        for r in replicates:
            y = sample_mixture(spec, sum(counts), seed=1000 + r, counts=counts)
            fit(y.observations, FitConfig(model="unig", g_init=10, seed=r,
                                          max_iter=10))
    return calls


class TestQuadrature:
    """The tail-weight quadrature takes its nodes from a pinned table and
    the moments of all nodes from one array call, with the bits of
    ``leggauss`` and of one scalar call per node."""

    def test_nodes_are_leggauss_bit_for_bit(self):
        nodes, weights = vb_unig._NODES, vb_unig._WEIGHTS
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(96)
        assert np.array_equal(nodes.view(np.int64), ref_nodes.view(np.int64))
        assert np.array_equal(weights.view(np.int64), ref_weights.view(np.int64))
        assert not (nodes.flags.writeable or weights.flags.writeable)

    @pytest.mark.parametrize("name", ["study1", "study2"])
    def test_equals_the_node_loop_on_fit_states(self, name, monkeypatch):
        calls = quadrature_calls(name, range(4), monkeypatch)
        assert len(calls) >= 20
        for args in calls:
            assert vb_unig._gamma_quadrature(*args) == gamma_quadrature_loop(*args)

    def test_equals_the_node_loop_on_random_rows(self):
        h = random_hypers_u(3, 500)
        for a0, a3, a4 in zip(h.a0.tolist(), h.a3.tolist(), h.a4.tolist()):
            args = (a0, a4 - a0**2 / (4.0 * a3), a0 / (2.0 * a3),
                    math.sqrt(1.0 / (2.0 * a3)))
            assert vb_unig._gamma_quadrature(*args) == gamma_quadrature_loop(*args)

    def test_fit_makes_no_eigenvalue_solve(self):
        # A fresh process, with numpy patched before nigmix is imported, so
        # an eigenvalue solve anywhere in the import or the fit fails it.
        code = textwrap.dedent("""
            import numpy as np

            def refuse(*args, **kwargs):
                raise AssertionError("eigenvalue solve in a unig fit")

            np.polynomial.legendre.leggauss = refuse
            np.linalg.eigvalsh = refuse
            import nigmix
            from nigmix import vb_unig
            from nigmix.distributions import sample_mixture

            calls = []
            quadrature = vb_unig._gamma_quadrature
            vb_unig._gamma_quadrature = lambda *a: calls.append(a) or quadrature(*a)
            spec, counts = nigmix.simulation_preset("study2")
            y = sample_mixture(spec, sum(counts), seed=1000, counts=counts)
            nigmix.fit(y.observations, nigmix.FitConfig(model="unig", g_init=10))
            assert calls
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(vb_unig.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestPrune:
    def test_drops_light_components(self):
        resp = np.array([[0.9, 0.08, 0.02]] * 30)
        out, keep = prune(resp, 1.0)
        assert keep == [0, 1]
        assert out.shape == (30, 2)
        assert np.allclose(out.sum(axis=1), 1.0)

    def test_keeps_everything_above_threshold(self):
        resp = np.full((10, 2), 0.5)
        out, keep = prune(resp, 1.0)
        assert keep == [0, 1]
        assert out is resp

    def test_row_on_a_pruned_column_becomes_uniform(self):
        # The last row's whole mass is on column 2, which is pruned.
        resp = np.array([[0.7, 0.3, 0.0]] * 9 + [[0.0, 0.0, 1.0]])
        out, keep = prune(resp, 2.0)
        assert keep == [0, 1]
        assert out[-1].tolist() == [0.5, 0.5]
        assert np.allclose(out[:-1], [0.7, 0.3])
        assert np.allclose(out.sum(axis=1), 1.0)

    def test_all_pruned_raises(self):
        resp = np.full((3, 2), 0.1)
        with pytest.raises(DegenerateFit):
            prune(resp, 5.0)

    def test_bad_threshold(self):
        # prune trusts its threshold; FitConfig is where it is checked.
        with pytest.raises(InvalidData):
            FitConfig(prune_threshold=0.0)


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
        assert fitted_density(res, []).shape == (0,)

    def test_init_fit_contract(self):
        data = np.linspace(-2, 10, 40)
        resp, (e_u, e_uinv), _ = first_sweep_state(init_fit, data, 4, 1e-8, 0)
        assert resp.shape == (40, 4)
        assert set(np.unique(resp)) <= {0.0, 1.0}
        assert np.all(e_u > 0) and np.all(e_uinv > 0)
        lam, chi, priors = init_fit(data, resp, 1e-8)
        assert lam == -1.0
        assert chi.shape == (40, 4) and np.all(chi >= 1.0)
        assert all(getattr(priors, name).shape == (4,) for name in FIELDS)
        with pytest.raises(ValueError):
            fit(np.array([]), FitConfig(g_init=2))
        with pytest.raises(ValueError):
            fit(data, FitConfig(g_init=40))
