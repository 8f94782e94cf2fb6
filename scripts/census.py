#!/usr/bin/env python3
"""Fit the census sets and write one JSON of their answers, or compare two.

    python scripts/census.py CENSUS.json                  # write this tree's
    python scripts/census.py NEW.json --compare CENSUS.json

The census sets are the fits a change that must keep every answer is
checked on: study1 replicates 0, 1, 4, 9 and 88; study2 replicates 0..13;
study4 and study5 replicates 0..7 at sample seeds 1000 + r and 2000 + r
(fit seed r); and the study1 mixture at n = 3000, sample seed 1, with the
default settings of ``nigmix fit``.  For each fit the JSON holds the
sha256 of its sorted-key ``io.result_to_dict``, G, the iterations,
``converged``, the ARI, the trace length and the sha256 of its labels; for
each study and seed base it holds the census line ``nigmix reproduce``
prints.  ``--compare`` prints every fit whose entry differs from OLD.json
and the fields that moved, and exits 1 when any did.

The fits go through ``cli.census`` and ``cli.run_fit``; no package code
serves this script.  It runs from a checkout without installing the
package, in about ten seconds on one core.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nigmix import cli  # noqa: E402
from nigmix.config import FitConfig  # noqa: E402
from nigmix.distributions import sample_mixture  # noqa: E402
from nigmix.evaluation import adjusted_rand_index  # noqa: E402
from nigmix.io import result_to_dict  # noqa: E402
from nigmix.presets import simulation_preset  # noqa: E402

# The entry fields --compare prints old and new values of.
SHOWN = ["G", "iterations", "converged", "ari", "trace_length"]


def _sha256(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def entry(result, ari: float) -> dict:
    return {
        "digest": _sha256(result_to_dict(result)),
        "G": result.n_components,
        "iterations": result.iterations,
        "converged": result.converged,
        "ari": float(ari),
        "trace_length": len(result.trace),
        "labels_sha256": _sha256(result.labels.tolist()),
    }


@contextlib.contextmanager
def recorded(results: list, aris: list):
    """Keep each fit and ARI ``cli.census`` makes, through the module
    globals it calls them by."""
    run_fit, ari = cli.run_fit, cli.adjusted_rand_index

    def record_fit(*args):
        results.append(run_fit(*args))
        return results[-1]

    def record_ari(*args):
        aris.append(ari(*args))
        return aris[-1]

    cli.run_fit, cli.adjusted_rand_index = record_fit, record_ari
    try:
        yield
    finally:
        cli.run_fit, cli.adjusted_rand_index = run_fit, ari


def census_sets() -> list[tuple[str, int, list[tuple[int, int]]]]:
    """(study, sample seed base, (sample seed, fit seed) pairs) per census."""
    at_2000 = [(s + 1000, f) for s, f in cli.replicate_seeds(8)]
    study1 = cli.replicate_seeds(89)
    return [
        ("study1", 1000, [study1[r] for r in (0, 1, 4, 9, 88)]),
        ("study2", 1000, cli.replicate_seeds(14)),
        ("study4", 1000, cli.replicate_seeds(8)),
        ("study4", 2000, at_2000),
        ("study5", 1000, cli.replicate_seeds(8)),
        ("study5", 2000, at_2000),
    ]


def run() -> dict:
    fits, lines = {}, {}
    for name, base, seeds in census_sets():
        results, aris = [], []
        with recorded(results, aris):
            summary = cli.census(name, seeds)
        lines[f"{name}@{base}"] = cli.census_line(summary)
        for (sample_seed, fit_seed), result, ari in zip(seeds, results, aris):
            fits[f"{name}/{sample_seed}/{fit_seed}"] = entry(result, ari)
    # The unig-large benchmark's data: `nigmix simulate --preset study1
    # --n 3000 --seed 1`, which draws the labels at random at that n.
    spec, _ = simulation_preset("study1")
    sample = sample_mixture(spec, 3000, seed=1)
    result = cli.run_fit(FitConfig(), sample.observations)
    ari = adjusted_rand_index(sample.labels, result.labels)
    fits["study1-n3000/1/0"] = entry(result, ari)
    return {"fits": fits, "census": lines}


def moved(old: dict, new: dict) -> list[str]:
    """One line per fit or census line that differs between two censuses."""
    out = []
    for key in sorted(old["fits"].keys() | new["fits"].keys()):
        a, b = old["fits"].get(key), new["fits"].get(key)
        if a is None or b is None:
            out.append(f"{key}: only in {'new' if a is None else 'old'}")
            continue
        changes = ["labels"] if a["labels_sha256"] != b["labels_sha256"] else []
        changes += [f"{f} {a[f]} -> {b[f]}" for f in SHOWN if a[f] != b[f]]
        if changes or a["digest"] != b["digest"]:
            out.append(f"{key}: " + (", ".join(changes) or "digest only"))
    for key in sorted(old["census"].keys() & new["census"].keys()):
        if old["census"][key] != new["census"][key]:
            out.append(f"{key}: {old['census'][key]} -> {new['census'][key]}")
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("output", help="JSON file to write this tree's census to")
    p.add_argument("--compare", metavar="OLD.json",
                   help="census JSON of another tree to compare against")
    args = p.parse_args()
    old = json.loads(Path(args.compare).read_text()) if args.compare else None
    t0 = time.perf_counter()
    new = run()
    Path(args.output).write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"{len(new['fits'])} fits in {time.perf_counter() - t0:.1f} s; "
          f"wrote {args.output}")
    for key, line in new["census"].items():
        print(f"{key:12s} {line}")
    if old is None:
        return 0
    changes = moved(old, new)
    print(f"compared with {args.compare}: {len(changes)} moved")
    for line in changes:
        print(line)
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main())
