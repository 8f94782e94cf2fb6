"""One workload in one fresh, single-threaded process.

Started by ``run.py``; prints one JSON object on its last line of output.
``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so set-up time counts interpreter start, ``import nigmix`` and
input generation.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

# Before numpy is imported: OpenBLAS would otherwise start up to 64 threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import nigmix  # noqa: E402

if not os.path.abspath(nigmix.__file__).startswith(SRC + os.sep):
    sys.exit(f"nigmix was imported from {nigmix.__file__}, not from {SRC}")

from tracing import REQUIRED_SPANS, Tracer  # noqa: E402
from workloads import TRUE_G, WORKLOADS, FitOutcome, labels_digest  # noqa: E402


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_cases(workload, indices):
    """Fit the given cases in order; returns outcomes and the seconds of
    each call into the program."""
    outcomes, seconds = [], []
    for i in indices:
        case = workload.case(i)
        t0 = time.perf_counter()
        try:
            result = workload.call(case)
            elapsed = time.perf_counter() - t0
            outcome = workload.outcome(case, result)
        except Exception as exc:  # a fit that raises is a counted failure
            traceback.print_exc()
            elapsed = time.perf_counter() - t0
            outcome = FitOutcome.failure(f"case {i} raised {type(exc).__name__}: {exc}")
        seconds.append(elapsed)
        outcomes.append(outcome)
    return outcomes, seconds


def closed_loop(workload, run_seconds: float):
    """One client: the next fit starts when the previous one has returned.
    Fits run in whole passes of ``pass_cases`` until ``run_seconds`` have
    passed, so every run holds the same mix of cases."""
    outcomes, seconds = [], []
    start = time.perf_counter()
    i = 0
    while True:
        o, s = run_cases(workload, range(i, i + workload.pass_cases))
        outcomes += o
        seconds += s
        i += workload.pass_cases
        if time.perf_counter() - start >= run_seconds:
            return outcomes, seconds, time.perf_counter() - start


def answer_summary(outcomes) -> dict:
    n = len(outcomes)
    errors = [o.error for o in outcomes if o.error is not None]
    return {
        "attempted": n,
        "failed": len(errors),
        "errors": errors,
        "converged_frac": sum(o.converged for o in outcomes) / n,
        "g_true_frac": sum(o.n_components == TRUE_G for o in outcomes) / n,
        "ari_mean": statistics.fmean(o.ari for o in outcomes),
        "labels_sha256": labels_digest(outcomes),
    }


def untraced(workload, run_seconds: float, setup_s: float) -> dict:
    outcomes, seconds, wall = closed_loop(workload, run_seconds)
    iterations = sum(o.iterations for o in outcomes)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        **answer_summary(outcomes),
        "metrics": {
            "fits_per_s": len(outcomes) / wall,
            "fit_s_p50": statistics.median(seconds),
            "sweep_ms_per_iter": 1000.0 * sum(seconds) / max(iterations, 1),
            "setup_s": setup_s,
            "peak_rss_mb": peak_kib / 1024.0,
        },
    }


def traced(workload) -> dict:
    """Fit the workload's fixed trace cases untraced, then traced."""
    indices = range(workload.trace_cases)
    plain, plain_s = run_cases(workload, indices)
    tracer = Tracer()
    tracer.install()
    try:
        outcomes, seconds = run_cases(workload, indices)
    finally:
        tracer.uninstall()
    summary = answer_summary(outcomes)
    if labels_digest(plain) != summary["labels_sha256"]:
        summary["errors"].append("tracing changed the fitted labels")
        summary["failed"] += 1
    fit_s = sum(seconds)
    metrics = tracer.metrics(fit_s)
    metrics["sweep.iterations"] = sum(o.iterations for o in outcomes)
    metrics["sweep.component_iters"] = sum(o.component_iters for o in outcomes)
    metrics["sweep.degenerate_drops"] = sum(o.degenerate_drops for o in outcomes)
    metrics["sweep.underflow_rows"] = sum(o.underflow_rows for o in outcomes)
    metrics["trace.overhead_frac"] = fit_s / sum(plain_s) - 1.0
    missing = [s for s in REQUIRED_SPANS[workload.name] if metrics[f"{s}.calls"] == 0]
    if missing:
        summary["errors"].append(f"spans never entered: {', '.join(missing)}")
        summary["failed"] += 1
    return {**summary, "metrics": metrics}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-",
                               dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            report = {"setup_s": setup_s}
        elif args.trace:
            report = traced(workload)
        else:
            report = untraced(workload, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["env"] = environment()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
