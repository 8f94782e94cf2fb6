"""The sweep's Bessel, moment and softmax work runs inside the layers the
benchmark traces, so a change that routes it around them fails here, in
about a second, and not only in the benchmark's traced run: each engine's
fit must enter every span that its benchmark workload requires."""

import importlib.util
from pathlib import Path

import nigmix.cli  # noqa: F401  (the tracer wraps io and cli as well)
from nigmix import vb_mnig, vb_unig
from nigmix.config import FitConfig
from nigmix.distributions import sample_mixture
from nigmix.presets import simulation_preset

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def traced_fit(tracing, fit, name, config):
    """``fit`` on the study ``name`` sample of seed 1000, under a tracer."""
    mixture, counts = simulation_preset(name)
    sample = sample_mixture(mixture, sum(counts), seed=1000, counts=counts)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = fit(sample.observations, config)
    finally:
        tracer.uninstall()
    return tracer, res


def assert_spans_entered(tracing, tracer, res, workload):
    assert res.iterations > 1
    for span in (
        "special.log_bessel_k",
        "distributions.gig_moments",
        "vbcore.normalize_log_scores",
    ):
        assert tracer.calls[span] >= res.iterations, span
    for span in tracing.REQUIRED_SPANS[workload]:
        assert tracer.calls[span] > 0, span


def test_sweep_work_runs_in_traced_spans():
    tracing = load_tracing()
    # vb_mnig.fit_m is read from the module at call time, so the tracer's
    # binding of it is the one called.
    tracer, res = traced_fit(
        tracing, lambda *a: vb_mnig.fit_m(*a), "study5",
        FitConfig(model="mnig", g_init=10),
    )
    assert_spans_entered(tracing, tracer, res, "mnig-studies")


def test_unig_sweep_work_runs_in_traced_spans():
    # study2 replicate 0 reaches the tail-weight quadrature, and with it
    # special.trunc_normal_moments.
    tracing = load_tracing()
    tracer, res = traced_fit(
        tracing, lambda *a: vb_unig.fit(*a), "study2",
        FitConfig(model="unig", g_init=10, seed=0),
    )
    assert_spans_entered(tracing, tracer, res, "unig-study2")
