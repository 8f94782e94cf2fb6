"""The sweep driver shared by both engines."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from nigmix._vbcore import (
    DegenerateComponent,
    DegenerateFit,
    gig_responsibilities,
    initial_partition,
    kmeans_labels,
    normalize_log_scores,
)
from nigmix.config import FitConfig, InvalidData
from nigmix.distributions import gig_moments, sample_mixture
from nigmix.presets import simulation_preset
from nigmix.special import log_bessel_k
from nigmix.vb_mnig import ExpectationBundleM, fit_m, update_responsibilities_m
from nigmix.vb_unig import ExpectationBundle, fit, update_responsibilities
from tests_support_naive import kmeans_labels_broadcast, softmax_rows


# k = 8..12 and 16 take numpy's eight-accumulator fold, 129 and 200 its halving.
@pytest.mark.parametrize("k", [*range(1, 13), 16, 129, 200])
def test_normalize_log_scores_is_the_row_softmax(k):
    rng = np.random.default_rng(k)
    scores = rng.normal(0.0, 2.0, (k, 60))
    scores[:, 7] = -np.inf
    scores[0, 9] = -np.inf
    scores[:, 11] = np.nan
    # The softmax consumes its argument, so the reference reads the original.
    resp, flags = normalize_log_scores(scores.copy())
    ref, ref_flags = softmax_rows(scores.T)
    assert np.array_equal(resp, ref)
    underflow = (7, 9, 11) if k == 1 else (7, 11)
    assert flags == ref_flags == [f"underflow_row:{i}" for i in underflow]
    assert resp.shape == (60, k) and resp.flags.c_contiguous


# Replicates (sample seed 1000 + r, fit seed r, g_init 10) whose sweeps drop
# a component because its expectation bundle cannot be formed.
@pytest.mark.parametrize(
    "engine, model, preset, rep",
    [(fit, "unig", "study1", 1), (fit_m, "mnig", "study5", 2)],
)
def test_degenerate_component_drop(engine, model, preset, rep):
    spec, counts = simulation_preset(preset)
    sample = sample_mixture(spec, sum(counts), seed=1000 + rep, counts=counts)
    res = engine(sample.observations, FitConfig(model=model, g_init=10, seed=rep))
    flagged = {
        int(f.split(":")[1]) for f in res.flags if f.startswith("degenerate_component:")
    }
    assert flagged
    assert flagged.isdisjoint(res.surviving)
    g = len(res.surviving)
    assert g == res.hypers.a0.shape[0] == res.bundles.log_pi.shape[0]
    assert g == res.resp.shape[1]
    assert np.abs(res.resp.sum(axis=1) - 1.0).max() <= 1e-12
    assert 1 <= res.labels.min() and res.labels.max() <= g
    alive = [entry["g_alive"] for entry in res.trace]
    assert all(later <= earlier for earlier, later in zip(alive, alive[1:]))
    # A sweep that loses a component reports no change and cannot converge.
    for earlier, later in zip(res.trace, res.trace[1:]):
        if later["g_alive"] < earlier["g_alive"]:
            assert later["max_resp_change"] is None
    assert res.converged
    assert res.trace[-1]["max_resp_change"] is not None
    assert res.trace[-1]["g_alive"] == res.trace[-2]["g_alive"]


@pytest.mark.filterwarnings("ignore:invalid value encountered in sqrt")
@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
def test_gig_log_k_names_the_component(bad):
    # The log K of the latent GIG posterior rejects the argument, and the
    # shared responsibilities step names the first row that holds it.
    chi = np.full((3, 4), 2.0)
    chi[2, 1] = bad
    with pytest.raises(DegenerateComponent) as info:
        gig_responsibilities(
            -1.5, np.zeros((3, 4)), chi, np.array([[1.0], [2.0], [3.0]])
        )
    assert info.value.args[0] == 2


@pytest.mark.parametrize(
    "step, data",
    [
        (update_responsibilities, np.ones(4)),
        (update_responsibilities_m, np.ones((4, 2))),
    ],
)
def test_no_live_components(step, data):
    # Both engines reach the one guard in the shared step.
    if data.ndim == 1:
        empty = ExpectationBundle(*[np.empty(0)] * 12)
    else:
        vectors = np.empty((0, 2))
        empty = ExpectationBundleM(np.empty(0), np.empty(0), np.empty((0, 2, 2)),
                                   vectors, vectors, *[np.empty(0)] * 5)
    with pytest.raises(DegenerateFit, match="no live components"):
        step(data, empty)


X = np.random.default_rng(0).normal(0.0, 1.0, (150, 2))
MNIG = FitConfig(model="mnig")


# Every input check runs in the engine entry or in the sweep it starts, so
# library callers get the errors the command line reports as exit 3.
@pytest.mark.parametrize(
    "engine, data, config",
    [
        (fit, X, FitConfig()),
        (fit_m, np.column_stack([X, np.full(150, 3.0)]), MNIG),
        (fit_m, np.column_stack([X, X[:, 0]]), MNIG),
        (fit_m, X[:, 0], MNIG),
        (fit, X[:, 0], MNIG),
        (fit, np.where(np.arange(150) == 7, np.nan, X[:, 0]), FitConfig()),
        (fit, X[:0, 0], FitConfig()),
        (fit_m, X[:0], MNIG),
        (fit, X[:10, 0], FitConfig(g_init=10)),
        (fit_m, X[:10], MNIG),
        (fit, X[:, 0] + 2j, FitConfig()),
        (fit_m, X + 2j, MNIG),
        (fit, X[:, 0].astype(str), FitConfig()),
        (fit_m, X.astype(str), MNIG),
        (fit, X[:, 0].astype(object), FitConfig()),
        (fit_m, X.astype(object), MNIG),
        (fit, [[1.0]] * 20 + [[2.0, 3.0]], FitConfig()),
        (fit_m, [[1.0, 2.0]] * 20 + [[3.0]], MNIG),
    ],
    ids=["unig-wide", "mnig-constant-column", "mnig-duplicate-column",
         "mnig-1d", "unig-mnig-config", "unig-nan", "unig-n0", "mnig-n0",
         "unig-n-g_init", "mnig-n-g_init", "unig-complex", "mnig-complex",
         "unig-string", "mnig-string", "unig-object", "mnig-object",
         "unig-ragged", "mnig-ragged"],
)
def test_invalid_fit_input_raises(engine, data, config):
    with warnings.catch_warnings():
        # Complex input must not be cast with a ComplexWarning and fitted.
        warnings.simplefilter("error")
        with pytest.raises(InvalidData):
            engine(data, config)


@pytest.mark.parametrize("field", ["g_init", "max_iter", "seed"])
def test_config_counts_must_be_integers(field):
    # Caught by the config, not as a numpy TypeError inside the start.
    for value in (2.5, 3.0, "3"):
        with pytest.raises(InvalidData):
            FitConfig(**{field: value})


@pytest.mark.parametrize("field", ["hyper_init", "prune_threshold", "tol"])
def test_config_amounts_must_be_finite_and_positive(field):
    # An infinite prior mass or count threshold would leave no live
    # component, which is a degenerate fit rather than bad input.
    for value in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidData):
            FitConfig(**{field: value})


def test_config_takes_numpy_integers():
    config = FitConfig(g_init=np.int64(2), max_iter=np.int32(5), seed=np.uint8(1))
    assert fit(X[:, 0], config).iterations <= 5


@pytest.mark.parametrize("dtype", [np.int64, np.bool_, np.float32])
def test_fit_takes_integer_bool_and_float32_data(dtype):
    # Columns with few distinct values, so that each dtype holds them exactly.
    cols = np.column_stack([X[:, 0] > 0.0, np.round(X[:, 1]) % 2]).astype(dtype)
    for engine, data, config in ((fit, cols[:, 0], FitConfig(g_init=2)),
                                 (fit_m, cols, FitConfig(model="mnig", g_init=2))):
        got = engine(data, config)
        ref = engine(data.astype(float), config)
        assert np.array_equal(got.resp, ref.resp) and got.trace == ref.trace


def traced_peak(step, *args) -> int:
    """tracemalloc's peak over one call of ``step``."""
    tracemalloc.start()
    try:
        step(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def fit_peak(engine, model: str, preset: str, n: int) -> int:
    """tracemalloc's peak over five sweeps at g_init 10 on n draws."""
    spec, _ = simulation_preset(preset)
    data = sample_mixture(spec, n, seed=1).observations
    return traced_peak(engine, data, FitConfig(model=model, g_init=10, max_iter=5))


def test_fit_working_set():
    # The responsibilities step writes each intermediate into a buffer it
    # owns, so a unig fit never holds more than 7 arrays of n x g_init
    # doubles at once (6.5 measured; 9.3 with an array per intermediate).
    assert fit_peak(fit, "unig", "study1", 3000) <= 7 * 3000 * 10 * 8


def test_fit_working_set_m():
    # The mnig steps form their (n, d) terms one component at a time in
    # buffers released before the shared responsibilities step, so at d = 10
    # an mnig fit holds 7.2 arrays of n x g_init doubles, where (k, n, d)
    # temporaries took it to 23.1.
    assert fit_peak(fit_m, "mnig", "study5", 3500) <= 8 * 3500 * 10 * 8


def test_initial_partition_working_set():
    # The Lloyd step forms one centre's (n, d) squares at a time: 2.7 arrays
    # of n x g_init doubles at d = 10, 12.3 with the (n, k, d) broadcast.
    spec, _ = simulation_preset("study5")
    data = sample_mixture(spec, 3500, seed=1).observations
    rng = np.random.default_rng(0)
    assert traced_peak(initial_partition, data, 10, "kmeans", rng) <= 3 * 3500 * 10 * 8


@pytest.mark.parametrize("d", [1, 2, 10])
def test_kmeans_labels_equal_the_broadcast_step(d):
    # Summing one centre's squares along d takes the broadcast's reduction,
    # so the labels are the same; the grid data repeat rows and tie the
    # distances to several centres, where argmin keeps the first.
    for seed in range(4):
        rng = np.random.default_rng(seed)
        for data in (rng.normal(0.0, 2.0, (90, d)),
                     rng.integers(-2, 3, (90, d)).astype(float)):
            data = data[:, 0] if d == 1 and seed % 2 else data
            for k in range(2, 11):
                got = kmeans_labels(data, k, np.random.default_rng(seed + k))
                ref = kmeans_labels_broadcast(data, k, np.random.default_rng(seed + k))
                assert np.array_equal(got, ref), (seed, k)


def test_step_functions_own_only_the_buffers_they_consume():
    # The responsibilities step writes into the head it is given and into
    # the arrays it made, and hands those on to the steps it calls, which
    # write into them; chi and psi are only read throughout.
    rng = np.random.default_rng(5)
    x = rng.uniform(1e-3, 30.0, (3, 40))
    for nu in (0.5, 1.0, 1.5, 5.5):
        for pair in (False, True):
            arg = x.copy()
            got = log_bessel_k(nu, arg, pair=pair)
            outs = got if pair else (got,)
            assert np.array_equal(arg, x)
            assert all(not np.shares_memory(out, arg) for out in outs)
            if pair:
                assert not np.shares_memory(*outs)
    chi = rng.uniform(0.5, 20.0, (3, 40))
    psi = rng.uniform(0.5, 5.0, (3, 1))
    for lam in (-1.0, -1.5, 2.5):
        before = chi.copy(), psi.copy()
        # Without buffers every argument is left as it was.
        ref = gig_moments(lam, chi, psi)
        assert not any(np.shares_memory(m, a) for m in ref for a in (chi, psi))
        # With them, the moments are written into the two buffers given.
        omega = np.sqrt(chi * psi)
        _, ratio = log_bessel_k(lam, omega, pair=True)
        moments = gig_moments(lam, chi, psi, omega, ratio)
        assert {id(m) for m in moments} == {id(omega), id(ratio)}
        assert all(np.array_equal(m, r) for m, r in zip(moments, ref))
        assert np.array_equal(chi, before[0]) and np.array_equal(psi, before[1])
        # The shared step consumes the head alone.
        head = rng.normal(0.0, 1.0, chi.shape)
        resp, lat, _ = gig_responsibilities(lam, head, chi, psi)
        assert np.array_equal(chi, before[0]) and np.array_equal(psi, before[1])
        for out in (resp, *lat):
            assert out.flags.c_contiguous and out.shape == chi.T.shape
            assert not any(np.shares_memory(out, a) for a in (head, chi, psi))
    # Both of the softmax's summation paths, with an underflow row: the
    # softmax runs in the scores it is given and returns a new array.
    for k in (3, 12):
        scores = rng.normal(0.0, 3.0, (k, 40))
        scores[:, 3] = -np.inf
        ref, _ = softmax_rows(scores.T)
        resp, _ = normalize_log_scores(given := scores.copy())
        assert np.array_equal(resp, ref)
        assert not np.shares_memory(resp, given)
        assert not np.array_equal(given, scores)
