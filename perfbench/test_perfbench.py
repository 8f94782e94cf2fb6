"""Counter exactness of the traced run.

Runs each workload's traced run twice on the same code and requires every
``.calls`` value and every exact counter to repeat, every span the
workload lists to be entered, and the fitted labels to repeat.  Takes about
five minutes on a 2-core machine:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import EXACT_COUNTERS, REQUIRED_SPANS, SPANS  # noqa: E402


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--trace", "1"],
        stdout=subprocess.PIPE, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stdout
    lines = proc.stdout.strip().splitlines()
    digest = [ln.split()[2] for ln in lines if " labels_sha256 " in ln]
    return {"result": json.loads(lines[-1]), "labels_sha256": digest}


@pytest.mark.parametrize("workload", sorted(REQUIRED_SPANS))
def test_traced_counts_repeat_exactly(workload):
    first, second = traced_run(workload), traced_run(workload)
    a, b = first["result"], second["result"]
    assert a["correct"] and b["correct"]
    assert a["attempted"] == b["attempted"]
    exact = [f"{name}.calls" for name, _, _ in SPANS] + EXACT_COUNTERS
    for key in exact:
        assert a["metrics"][key]["value"] == b["metrics"][key]["value"], key
    assert first["labels_sha256"] == second["labels_sha256"]
    for span in REQUIRED_SPANS[workload]:
        assert a["metrics"][f"{span}.calls"]["value"] > 0, span

