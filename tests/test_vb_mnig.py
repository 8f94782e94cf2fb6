"""Multivariate engine: update exactness, Wishart expectations, scores and
fit.  The one-dimensional agreement with the univariate engine is
``test_acceptance.py::test_12_cross_engine_identity``."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from nigmix import vb_mnig
from nigmix.cli import main
from nigmix._vbcore import normalize_log_scores, take
from nigmix.config import FitConfig, InvalidData
from nigmix.distributions import gig_moments, sample_mixture
from nigmix.evaluation import adjusted_rand_index
from nigmix.linalg import NotPositiveDefinite, spd_inverse_logdet_jittered
from nigmix.presets import simulation_preset
from nigmix.vb_mnig import (
    ComponentHyperM,
    ExpectationBundleM,
    expectations_from_hypers_m,
    fit_m,
    flat_priors_m,
    init_fit_m,
    update_hypers_m,
    update_responsibilities_m,
)
import tests_support_naive
from tests_support_naive import (
    assert_stacks_equal,
    expectations_loop,
    expectations_one_m,
    first_sweep_state,
    gig_moments_kve,
    log_bessel_k_kve,
    log_score_m,
    naive_update_m,
    random_hypers_m,
    random_m,
    row,
    rows,
    update_hypers_m_loop,
    update_responsibilities_m_loop,
)


class TestUpdateHypers:
    def test_matches_naive_summation(self):
        for seed in range(20):
            data, resp, lat, priors = random_m(seed)
            fast = update_hypers_m(priors, resp, lat, data)
            slow = naive_update_m(priors, resp, lat, data)
            for f, s in zip(rows(fast), rows(slow)):
                assert f.a0 == pytest.approx(s.a0, rel=1e-12)
                assert f.a3 == pytest.approx(s.a3, rel=1e-12)
                assert f.a4 == pytest.approx(s.a4, rel=1e-12)
                assert np.allclose(f.a1, s.a1, rtol=1e-12, atol=1e-12)
                assert np.allclose(f.a2, s.a2, rtol=1e-12, atol=1e-12)
                assert np.allclose(f.V, s.V, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("d", [2, 3, 10])
    def test_scale_accumulator_near_the_normal_limit(self, d):
        # Latent scales that barely vary put D = a3 a4 - a0^2 at 1e-2 down to
        # 1e-10 of a3 a4, where the terms of V cancel.  Against a 50-digit V
        # from the same accumulators, each row keeps its error within
        # 4 eps a3 a4 / D of its largest entry (0.6 of that is the most seen).
        rng = np.random.default_rng(d)
        n, etas = 40 * d, 10.0 ** -np.arange(1.0, 6.0)
        k = len(etas)
        data = rng.normal(rng.normal(0.0, 3.0, d), 2.0, (n, d))
        resp = rng.dirichlet(np.ones(k), size=n)
        e_u = 1.0 + etas * rng.normal(size=(n, k))
        e_uinv = (1.0 + etas**2 * rng.uniform(0.0, 1.0, (n, k))) / e_u
        priors = flat_priors_m(k, d, 1e-8, float(np.trace(np.cov(data.T))))
        hypers = update_hypers_m(priors, resp, (e_u, e_uinv), data)
        ratio = hypers.disc / (hypers.a3 * hypers.a4)
        assert ratio.max() > 5e-3 and ratio.min() < 5e-10
        ref = tests_support_naive.scale_accumulator_mp(
            priors, hypers, resp * e_uinv, data
        )
        err = np.abs(hypers.V - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
        assert np.all(err <= 4.0 * np.finfo(float).eps / ratio), (err, ratio)

    def test_scale_accumulator_symmetric(self):
        data, resp, lat, priors = random_m(3)
        V = update_hypers_m(priors, resp, lat, data).V
        assert np.array_equal(V, V.transpose(0, 2, 1))

    def test_count_mass(self):
        data, resp, lat, priors = random_m(0)
        hypers = update_hypers_m(priors, resp, lat, data)
        total = sum(hypers.a0.tolist())
        assert total == pytest.approx(
            sum(priors.a0.tolist()) + data.shape[0], abs=1e-10
        )


def example_hyper(seed=1):
    """Row and bundle, as arrays of one component, of the first component
    of a random state."""
    data, resp, lat, priors = random_m(seed)
    hypers = take(update_hypers_m(priors, resp, lat, data), [0])
    bundles, dropped = expectations_from_hypers_m(hypers, 2 * hypers.a0[0])
    assert not dropped
    return row(hypers, 0), row(bundles, 0)


def sweep_bundles(seed, **kwargs):
    """Data and the bundle stack of one sweep from a random state."""
    data, resp0, lat, priors = random_m(seed, **kwargs)
    hypers = update_hypers_m(priors, resp0, lat, data)
    bundles, dropped = expectations_from_hypers_m(hypers, sum(hypers.a0.tolist()))
    assert not dropped
    return data, bundles


class TestExpectations:
    def test_wishart_moments_monte_carlo(self):
        from scipy.stats import wishart

        h, b = example_hyper()
        dist = wishart(df=h.a0, scale=np.linalg.inv(h.V))
        assert np.allclose(b.e_prec, dist.mean(), rtol=1e-10)
        draws = dist.rvs(40_000, random_state=np.random.default_rng(0))
        logdets = np.linalg.slogdet(draws)[1]
        assert b.elog_det_prec == pytest.approx(logdets.mean(), abs=0.01)

    def test_location_and_trace_terms(self):
        h, b = example_hyper()
        mu_bar = (h.a3 * h.a2 - h.a0 * h.a1) / (h.a3 * h.a4 - h.a0**2)
        assert np.allclose(b.mu_bar, mu_bar)
        # block inverse of [[a4, a0], [a0, a3]] (x) Prec
        D = h.a3 * h.a4 - h.a0**2
        assert b.c_mu == pytest.approx(h.a3 / D, rel=1e-14)
        assert b.c_beta == pytest.approx(h.a4 / D, rel=1e-14)
        assert b.c_cross == pytest.approx(-h.a0 / D, rel=1e-14)

    def test_tail_weight_moments(self):
        from scipy.stats import norm

        h, b = example_hyper()
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
        zeros = np.zeros((2, d))
        hypers = ComponentHyperM(
            # disc <= 0, then Wishart degrees of freedom below d - 1
            np.array([5.0, 1.0]), zeros, zeros, np.array([1.0, 9.0]),
            np.array([1.0, 9.0]), np.tile(np.eye(d), (2, 1, 1)),
        )
        bundles, dropped = expectations_from_hypers_m(hypers, 10.0)
        assert [g for g, _ in dropped] == [0, 1]
        assert bundles.e_prec.shape == (0, d, d)


class TestScores:
    def test_score_matches_latent_integral(self):
        h, b = example_hyper(2)
        d = h.a1.shape[0]
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
        data, bundles = sweep_bundles(7)
        resp, (e_u, e_uinv), flags = update_responsibilities_m(data, bundles)
        assert not flags
        assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-12)
        lam = -(data.shape[1] + 1) / 2.0
        raw = np.column_stack([log_score_m(data, b)[0] for b in rows(bundles)])
        manual = np.exp(raw - raw.max(axis=1, keepdims=True))
        manual /= manual.sum(axis=1, keepdims=True)
        assert np.allclose(resp, manual, atol=1e-13)
        _, ea0, eb0 = log_score_m(data, row(bundles, 0))
        ref_u, ref_uinv = gig_moments(lam, ea0, eb0)
        assert np.allclose(e_u[:, 0], ref_u, rtol=1e-12)
        assert np.allclose(e_uinv[:, 0], ref_uinv, rtol=1e-12)

    def test_responsibilities_equal_stacked_component_scores(self):
        # Each column of the sweep's scores must be bit for bit the score of
        # that component alone, the one-bundle formula evaluated term by term.
        for seed in (7, 8):
            data, bundles = sweep_bundles(seed, k=3)
            resp, (e_u, e_uinv), _ = update_responsibilities_m(data, bundles)
            cols = [log_score_m(data, b) for b in rows(bundles)]
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
        data, bundles = sweep_bundles(7)
        resp, (e_u, e_uinv), _ = update_responsibilities_m(data, bundles)
        # Reference: log K through kve in every score, moments from three
        # kve orders.
        monkeypatch.setattr(tests_support_naive, "log_bessel_k", log_bessel_k_kve)
        cols = [log_score_m(data, b) for b in rows(bundles)]
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
        resp, lat, priors = first_sweep_state(init_fit_m, s.observations, 10, 1e-8, 0)
        yield s.observations, resp, lat, priors
        res = fit_m(s.observations, FitConfig(model="mnig", g_init=10, max_iter=15))
        resp, lat, _ = update_responsibilities_m(s.observations, res.bundles)
        yield s.observations, resp, lat, take(priors, np.arange(len(res.surviving)))


class TestStackedSteps:
    """The stacked steps, and the expectation step's one pass over the hyper
    rows that checks each row and factors the scale accumulator of those
    that pass, take each component's floating-point steps one for one, so
    they equal the one-component loops bit for bit."""

    def test_hypers_equal_the_component_loop(self):
        for data, resp, lat, priors in sweep_states():
            assert_stacks_equal(
                update_hypers_m(priors, resp, lat, data),
                update_hypers_m_loop(priors, resp, lat, data),
            )

    def test_expectations_equal_the_component_loop(self):
        for data, resp, lat, priors in sweep_states():
            hypers = update_hypers_m(priors, resp, lat, data)
            total = sum(hypers.a0.tolist())
            got, dropped = expectations_from_hypers_m(hypers, total)
            ref, ref_dropped = expectations_loop(
                expectations_one_m, ExpectationBundleM, hypers, total
            )
            assert dropped == ref_dropped
            assert_stacks_equal(got, ref)

    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    def test_expectations_equal_the_component_loop_on_many_rows(self, d):
        hypers = random_hypers_m(d, 3000, d)
        got, dropped = expectations_from_hypers_m(hypers, 2e4)
        ref, ref_dropped = expectations_loop(
            expectations_one_m, ExpectationBundleM, hypers, 2e4
        )
        assert dropped == ref_dropped == []
        assert_stacks_equal(got, ref)

    def test_drop_reasons_in_component_order(self, monkeypatch):
        # Rows 1-3 fail the scalar checks and never reach the Cholesky;
        # row 4 passes them and fails it, and the rows left are inverted
        # again.
        data, resp, lat, priors = random_m(1, k=3)
        valid = update_hypers_m(priors, resp, lat, data)
        d = data.shape[1]
        table = [row(valid, 0), row(valid, 1), row(valid, 1), row(valid, 1),
                 row(valid, 1), row(valid, 2)]
        table[1].a0 = -1.0
        table[2].a0, table[2].a3, table[2].a4 = 5.0, 1.0, 1.0
        table[3].a0, table[3].a3, table[3].a4 = 0.5, 9.0, 9.0
        table[4].V = -np.eye(d)
        hypers = tests_support_naive.stack(ComponentHyperM, table)
        factored = []

        def recorded(m):
            factored.append(m)
            return inverse(m)

        inverse = vb_mnig.spd_inverse_logdet_jittered
        monkeypatch.setattr(vb_mnig, "spd_inverse_logdet_jittered", recorded)
        got, dropped = expectations_from_hypers_m(hypers, 60.0)
        assert len(factored) == 2
        assert np.array_equal(factored[0], hypers.V[[0, 4, 5]])
        assert np.array_equal(factored[1], hypers.V[[0, 5]])
        ref, ref_dropped = expectations_loop(
            expectations_one_m, ExpectationBundleM, hypers, 60.0
        )
        assert dropped == ref_dropped == [
            (1, "non-positive hyperparameter"),
            (2, "joint-normal precision not positive"),
            (3, "Wishart degrees of freedom too small"),
            (4, "scale accumulator not SPD: pivot 0 is not positive"),
        ]
        assert_stacks_equal(got, ref)

    def test_count_mass_squared_as_a_scalar(self):
        # A count mass whose square by pow, as the scalar a0**2 takes it,
        # differs in the last bit from the array square a0 * a0.
        data, resp, lat, priors = random_m(3, k=2)
        mass = resp[:, 0].sum()
        prior_a0 = next(
            p for p in 1e-8 * np.arange(1.0, 1e5)
            if (p + mass) ** 2 != (p + mass) * (p + mass)
        )
        priors = dataclasses.replace(priors, a0=np.r_[prior_a0, priors.a0[1:]])
        assert_stacks_equal(
            update_hypers_m(priors, resp, lat, data),
            update_hypers_m_loop(priors, resp, lat, data),
        )

    def test_responsibilities_equal_the_component_loop(self):
        for data, resp, lat, priors in sweep_states():
            hypers = update_hypers_m(priors, resp, lat, data)
            bundles, _ = expectations_from_hypers_m(hypers, sum(hypers.a0.tolist()))
            new_resp, (e_u, e_uinv), flags = update_responsibilities_m(data, bundles)
            ref_resp, (ref_u, ref_uinv), ref_flags = update_responsibilities_m_loop(
                data, bundles
            )
            assert np.array_equal(new_resp, ref_resp) and flags == ref_flags
            assert np.array_equal(e_u, ref_u) and np.array_equal(e_uinv, ref_uinv)
            for a in (new_resp, e_u, e_uinv):
                assert a.flags.c_contiguous


def test_steps_write_only_buffers_they_own():
    # The hyper and score steps write each component's (n, d) terms into
    # buffers of their own: the data, resp, the latent moments and the
    # prior, hyper and bundle stacks are only read, and nothing returned
    # shares memory with them.
    states = [random_m(7 * d + k, n=30 * k, k=k, d=d)
              for d in (1, 2, 10) for k in (1, 3, 8)]
    for data, resp, lat, priors in states:
        inputs = [data, resp, *lat, *vars(priors).values()]
        before = [a.copy() for a in inputs]
        hypers = update_hypers_m(priors, resp, lat, data)
        assert all(np.array_equal(a, b) for a, b in zip(inputs, before))
        assert not any(np.shares_memory(h, a)
                       for h in vars(hypers).values() for a in inputs)
        bundles, _ = expectations_from_hypers_m(hypers, sum(hypers.a0.tolist()))
        read = [data, *vars(hypers).values(), *vars(bundles).values()]
        before = [a.copy() for a in read]
        new_resp, new_lat, _ = update_responsibilities_m(data, bundles)
        assert all(np.array_equal(a, b) for a, b in zip(read, before))
        assert not any(np.shares_memory(out, a)
                       for out in (new_resp, *new_lat) for a in (*inputs, *read))


def test_stack_that_does_not_factor_is_redone_row_by_row():
    # Every row passes the scalar checks.  Rows 1 and 2 have a NaN and a
    # negative pivot, and each is dropped with its own; row 3 factors only on
    # its jitter retry, which no other row takes.
    data, resp, lat, priors = random_m(2, n=60, k=5)
    hypers = update_hypers_m(priors, resp, lat, data)
    V = hypers.V.copy()
    V[1, 1, 2] = V[1, 2, 1] = np.nan
    V[2] = np.diag([1.0, -1.0, 1.0])
    V[3] = np.diag([1.0, 1.0, 0.0])
    hypers = dataclasses.replace(hypers, V=V)
    got, dropped = expectations_from_hypers_m(hypers, 60.0)
    ref, ref_dropped = expectations_loop(
        expectations_one_m, ExpectationBundleM, hypers, 60.0
    )
    assert dropped == ref_dropped == [
        (1, "scale accumulator not SPD: pivot 2 is not positive"),
        (2, "scale accumulator not SPD: pivot 1 is not positive"),
    ]
    assert_stacks_equal(got, ref)


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

    @pytest.mark.parametrize("init_mode", ["kmeans", "random"])
    def test_rank_check_comes_before_the_start(self, init_mode):
        # k-means squared distances overflow on these columns, while each
        # column's centred range squared does not: the rank check rejects
        # them under either start.
        rng = np.random.default_rng(0)
        data = np.column_stack([np.full(50, 3.0), rng.uniform(-1e154, 1e154, 50)])
        config = FitConfig(model="mnig", g_init=3, init_mode=init_mode)
        with pytest.raises(InvalidData):
            fit_m(data, config)

    def test_start_falls_back_where_covariances_are_not_finite(
        self, monkeypatch, tmp_path
    ):
        # At 1e200 every start covariance has an inf diagonal, and the
        # 1e-10 * trace jitter puts NaN off it.  None factors, so each
        # component starts from the scaled identity, and the fit exits 4.
        data = np.random.default_rng(0).uniform(-1.0, 1.0, (40, 2)) * 1e200
        outcomes = []

        def recorded(cov):
            try:
                out = spd_inverse_logdet_jittered(cov)
            except NotPositiveDefinite:
                outcomes.append("fallback")
                raise
            outcomes.append("factored")
            return out

        monkeypatch.setattr(vb_mnig, "spd_inverse_logdet_jittered", recorded)
        with np.errstate(all="ignore"):
            init_fit_m(data, np.eye(5)[np.arange(40) % 5], 1e-8)
        assert outcomes == ["fallback"] * 5
        outcomes.clear()
        (tmp_path / "far.csv").write_text("x1,x2\n" + "".join(
            f"{x1!r},{x2!r}\n" for x1, x2 in data.tolist()
        ))
        argv = ["fit", str(tmp_path / "far.csv"), str(tmp_path / "far.json"),
                "--model", "mnig", "--init-mode", "random", "--g-init", "5"]
        assert main(argv) == 4
        assert outcomes[:5] == ["fallback"] * 5

    def test_init_contract(self):
        data = np.random.default_rng(0).normal(0, 1, (50, 2))
        resp, (e_u, e_uinv), _ = first_sweep_state(init_fit_m, data, 3, 1e-8, 0)
        assert resp.shape == (50, 3)
        assert np.all(e_u > 0) and np.all(e_uinv > 0)
        lam, chi, priors = init_fit_m(data, resp, 1e-8)
        assert lam == -1.5
        assert chi.shape == (50, 3) and np.all(chi >= 1.0)
        assert priors.a0.shape == (3,)
        assert priors.V.shape == (3, 2, 2)
