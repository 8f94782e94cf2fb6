"""Every layer the benchmark traces, and every setting its workloads pass
to ``FitConfig``, resolves in the package, so a rename fails here and not
only in the benchmark's own, much slower, test."""

import ast
import importlib
import importlib.util
from dataclasses import fields
from pathlib import Path

from nigmix.config import FitConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def test_traced_spans_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"nigmix.{module}.{func}"
        for _, module, func in tracing.SPANS
        if not callable(getattr(importlib.import_module(f"nigmix.{module}"), func, None))
    ]
    assert tracing.SPANS and not missing


def test_workload_fit_configs_name_fields():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "FitConfig"
    ]
    keywords = {k.arg for call in calls for k in call.keywords}
    assert calls and keywords <= {f.name for f in fields(FitConfig)}
