"""The sweep's Bessel, moment and softmax work runs inside the layers the
benchmark traces, so a change that routes it around them fails here, in
about a second, and not only in the benchmark's traced run."""

import importlib.util
from pathlib import Path

import nigmix.cli  # noqa: F401  (the tracer wraps io and cli as well)
from nigmix import vb_mnig
from nigmix.config import FitConfig
from nigmix.distributions import sample_mixture
from nigmix.presets import simulation_preset

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_sweep_work_runs_in_traced_spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    mixture, counts = simulation_preset("study5")
    sample = sample_mixture(mixture, sum(counts), seed=1000, counts=counts)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = vb_mnig.fit_m(sample.observations, FitConfig(model="mnig", g_init=10))
    finally:
        tracer.uninstall()
    assert res.iterations > 1
    for span in (
        "special.log_bessel_k",
        "distributions.gig_moments",
        "vbcore.normalize_log_scores",
    ):
        assert tracer.calls[span] >= res.iterations, span
