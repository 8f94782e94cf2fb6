"""The sweep driver shared by both engines."""

import numpy as np
import pytest

from nigmix._vbcore import DegenerateComponent, gig_log_k
from nigmix.config import FitConfig
from nigmix.distributions import sample_mixture
from nigmix.presets import simulation_preset
from nigmix.vb_mnig import fit_m
from nigmix.vb_unig import fit


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
    assert g == len(res.hypers) == len(res.bundles) == res.resp.shape[1]
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
    chi = np.full((3, 4), 2.0)
    chi[2, 1] = bad
    with pytest.raises(DegenerateComponent) as info:
        gig_log_k(-1.5, chi, np.array([[1.0], [2.0], [3.0]]))
    assert info.value.args[0] == 2
