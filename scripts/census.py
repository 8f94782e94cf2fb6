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
prints.  Each fit's (n, G) responsibilities go to the ``.npz`` beside the
JSON (NEW.npz for NEW.json), one ``np.savez_compressed`` array per fit
key; it is about 0.35 MB and is not checked in.  ``--compare`` prints
every fit whose entry differs from OLD.json and the fields that moved,
and exits 1 when any did.  When OLD.npz exists, a moved fit whose
responsibilities keep their shape also shows its max |Δresp|, and the
summary line gives the largest max |Δresp| over all such fits, moved or
not; without OLD.npz it says that Δresp is not available.

Each census set's fits and ARIs are the ``fits`` and ``aris`` of the
summary ``cli.census`` returns, and the n = 3000 fit is one
``cli.run_fit`` call; the script rebinds nothing in ``cli``, and no other
package code serves it.  It runs from a checkout without installing the
package, in about ten seconds on one core.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

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


def run() -> tuple[dict, dict]:
    """This tree's census, and each fit's responsibilities by fit key."""
    fitted, lines = {}, {}
    for name, base, seeds in census_sets():
        summary = cli.census(name, seeds)
        lines[f"{name}@{base}"] = cli.census_line(summary)
        for (sample_seed, fit_seed), result, ari in zip(seeds, summary.fits,
                                                        summary.aris):
            fitted[f"{name}/{sample_seed}/{fit_seed}"] = result, ari
    # The unig-large benchmark's data: `nigmix simulate --preset study1
    # --n 3000 --seed 1`, which draws the labels at random at that n.
    spec, _ = simulation_preset("study1")
    sample = sample_mixture(spec, 3000, seed=1)
    result = cli.run_fit(FitConfig(), sample.observations)
    fitted["study1-n3000/1/0"] = (
        result, adjusted_rand_index(sample.labels, result.labels))
    fits = {key: entry(result, ari) for key, (result, ari) in fitted.items()}
    resp = {key: result.resp for key, (result, _) in fitted.items()}
    return {"fits": fits, "census": lines}, resp


def write_census(path: Path, census: dict, resp: dict) -> None:
    """The census JSON at ``path`` and the responsibilities in the .npz
    beside it."""
    path.write_text(json.dumps(census, indent=1, sort_keys=True) + "\n")
    np.savez_compressed(path.with_suffix(".npz"), **resp)


def read_census(path: Path) -> tuple[dict, dict | None]:
    """The census JSON at ``path``, and the responsibilities in the .npz
    beside it, or None when there is no such file."""
    census, npz = json.loads(path.read_text()), path.with_suffix(".npz")
    if not npz.exists():
        return census, None
    with np.load(npz) as stored:
        return census, dict(stored)


def resp_gaps(old: dict, new: dict) -> dict[str, float]:
    """max |Δresp| of each fit whose responsibilities both trees hold in
    the same shape."""
    return {key: float(np.max(np.abs(old[key] - new[key]), initial=0.0))
            for key in old.keys() & new.keys()
            if old[key].shape == new[key].shape}


def moved(old: dict, new: dict, gaps: dict) -> list[str]:
    """One line per fit or census line that differs between two censuses;
    a moved fit in ``gaps`` also shows its max |Δresp|."""
    out = []
    for key in sorted(old["fits"].keys() | new["fits"].keys()):
        a, b = old["fits"].get(key), new["fits"].get(key)
        if a is None or b is None:
            out.append(f"{key}: only in {'new' if a is None else 'old'}")
            continue
        changes = ["labels"] if a["labels_sha256"] != b["labels_sha256"] else []
        changes += [f"{f} {a[f]} -> {b[f]}" for f in SHOWN if a[f] != b[f]]
        if changes or a["digest"] != b["digest"]:
            changes = changes or ["digest only"]
            if key in gaps:
                changes.append(f"max|Δresp| {gaps[key]:.3g}")
            out.append(f"{key}: " + ", ".join(changes))
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
    out, old_path = Path(args.output), args.compare and Path(args.compare)
    # Read before the run, whose output may overwrite OLD's files.
    old, old_resp = read_census(old_path) if old_path else (None, None)
    t0 = time.perf_counter()
    new, resp = run()
    write_census(out, new, resp)
    print(f"{len(new['fits'])} fits in {time.perf_counter() - t0:.1f} s; "
          f"wrote {out} and {out.with_suffix('.npz')}")
    for key, line in new["census"].items():
        print(f"{key:12s} {line}")
    if old is None:
        return 0
    if old_resp is None:
        gaps = {}
        note = f"Δresp not available: no {old_path.with_suffix('.npz')}"
    else:
        gaps = resp_gaps(old_resp, resp)
        note = f"max|Δresp| {max(gaps.values(), default=math.nan):.3g}"
    changes = moved(old, new, gaps)
    print(f"compared with {old_path}: {len(changes)} moved; {note}")
    for line in changes:
        print(line)
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main())
