"""Every layer the benchmark traces resolves in the package, so a rename
fails here and not only in the benchmark's own, much slower, test."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
