"""nigmix benchmark: end-to-end fit metrics and a per-layer traced run.

    python3 perfbench/run.py --workload unig-study2 --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload, default seeds, both modes

With ``--trace 0`` a workload's fits run in a closed loop with one client
and the last line of output carries the end-to-end metrics; with
``--trace 1`` the workload's fixed trace cases run untraced and then traced,
and the last line carries the per-layer metrics.  Metric names and units
are read from BENCHMARK.json.  Every fit's output is checked; the command
exits 1 when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
# Workloads in run order, with the seeds of the baseline in README.md: study
# sample seeds start at 1000, and the large unig dataset is
# `nigmix simulate --preset study1 --n 3000 --seed 1`.
DEFAULT_SEEDS = {"unig-study2": 1000, "unig-large": 1, "mnig-studies": 1000}
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker process to completion and return its JSON report."""
    cmd = [sys.executable, WORKER, *args, "--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded the time limit: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(args)}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"worker printed nothing: {' '.join(args)}")
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace, deadline):
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn(args + ["--setup-only"], deadline)["setup_s"])
    report = spawn(args, deadline)
    if not trace:
        setups.append(report["metrics"]["setup_s"])
        report["metrics"]["setup_s"] = statistics.median(setups)
        report["setup_samples"] = len(setups)
    return report


def print_report(name, seed, trace, report, declared):
    env = report["env"]
    print(f"# {name} seed={seed} {'traced' if trace else 'untraced'}: "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas={env['blas']} "
          f"blas_threads={env['blas_threads']}")
    n = report["attempted"]
    counts = {} if trace else {"fits_per_s": n, "fit_s_p50": n, "sweep_ms_per_iter": n,
                               "setup_s": report["setup_samples"], "peak_rss_mb": 1}
    for metric, unit in declared.items():
        count = f"n={counts[metric]}" if metric in counts else ""
        value = report["metrics"][metric]
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"{name:13s} {metric:48s} {shown} {unit:7s} {count}")
    for metric in ("ari_mean", "converged_frac", "g_true_frac"):
        unit = "ari" if metric == "ari_mean" else "share"
        print(f"{name:13s} {metric:48s} {report[metric]:14.6g} {unit:7s} n={n}")
    print(f"{name:13s} {'failed_frac':48s} {report['failed'] / n:14.6g} "
          f"{'share':7s} {report['failed']}/{n}")
    print(f"{name:13s} labels_sha256 {report['labels_sha256']} over {n} fits")
    for err in report["errors"]:
        print(f"{name:13s} FAILED CHECK: {err}")


def declared_metrics(bench: dict, trace: bool) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=list(DEFAULT_SEEDS),
                   help="run one workload (default: every workload, both modes)")
    p.add_argument("--seed", type=int, help="input seed (default: per workload)")
    p.add_argument("--seconds", type=float,
                   help="run length (default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed is not None and args.seed < 0:
        p.error("--seed must be non-negative")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds

    if args.workload:
        runs = [(args.workload, args.trace)]
    else:
        runs = [(w, t) for w in DEFAULT_SEEDS for t in (0, 1)]
    start = time.monotonic()
    ok = True
    try:
        for name, trace in runs:
            seed = DEFAULT_SEEDS[name] if args.seed is None else args.seed
            deadline = time.monotonic() + TIME_LIMIT_S
            declared = declared_metrics(bench, bool(trace))
            report = run_workload(name, seed, seconds, trace, deadline)
            if set(report["metrics"]) != set(declared):
                raise BenchError("worker metrics differ from BENCHMARK.json: "
                                 f"{sorted(set(report['metrics']) ^ set(declared))}")
            print_report(name, seed, trace, report, declared)
            ok &= report["failed"] == 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(os.path.join(ROOT, ".perfbench_work"))
        except OSError:
            pass
    print(f"# total {time.monotonic() - start:.1f} s")
    if args.workload:
        print(json.dumps({
            "correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {m: {"value": report["metrics"][m], "unit": u}
                        for m, u in declared.items()},
        }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
