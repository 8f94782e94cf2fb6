"""Run-record hashes of the study presets, pinned.

A refactor of the engines must leave every number of a fit, and so the
hash of its run record, exactly as it was.  Each case simulates a preset
sample at seed 4 and fits it from the command line at seed 0, from a
k-means start and, for one case per engine, from a random partition.  The
hash must not depend on how many threads OpenBLAS runs either.  Test ids
name the preset, the engine and g_init, not the pinned hash, so that a
re-pin changes a value and not a test name.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nigmix
from nigmix.cli import main
from nigmix.io import read_json, run_record_hash


@pytest.mark.parametrize("preset, model, g_init, prefix", [
    ("study1", "unig", 10, "edbe629996281c7c"),
    ("study2", "unig", 10, "650316d186b550f5"),
    ("study4", "mnig", 5, "6642d799299bee1e"),
    ("study5", "mnig", 10, "9d236fe2282b3ad2"),
], ids=["study1-unig-10", "study2-unig-10", "study4-mnig-5", "study5-mnig-10"])
def test_run_record_hash(tmp_path, preset, model, g_init, prefix):
    code, digest = fit_record_hash(tmp_path, preset, model, g_init)
    assert code in (0, 2)
    assert digest.startswith(prefix)


@pytest.mark.parametrize("preset, model, g_init, prefix", [
    ("study1", "unig", 10, "a12ab4c528b9859a"),
    ("study4", "mnig", 5, "130447f79484c524"),
], ids=["study1-unig-10", "study4-mnig-5"])
def test_run_record_hash_random_partition(tmp_path, preset, model, g_init, prefix):
    # The start from a seeded random partition rather than k-means.
    code, digest = fit_record_hash(tmp_path, preset, model, g_init,
                                   "--init-mode", "random")
    assert code == 0
    assert digest.startswith(prefix)


def fit_record_hash(tmp_path, preset, model, g_init, *flags):
    """The exit code and run-record hash of a seed-0 fit of the preset's
    seed-4 sample."""
    csv_path = tmp_path / f"{preset}.csv"
    out = tmp_path / f"{preset}.json"
    assert main(["simulate", str(csv_path), "--preset", preset, "--seed", "4"]) == 0
    code = main(["fit", str(csv_path), str(out), "--model", model,
                 "--g-init", str(g_init), "--label-column", "label", "--seed", "0",
                 *flags])
    return code, run_record_hash(read_json(out))


def test_run_record_hash_equal_across_blas_threads(tmp_path):
    # study5 is d = 10, where the SPD inverse is large enough for OpenBLAS to
    # split its work between threads.
    csv_path = tmp_path / "study5.csv"
    assert main(["simulate", str(csv_path), "--preset", "study5", "--seed", "4"]) == 0
    hashes = []
    for threads in ("1", "2"):
        out = tmp_path / f"study5_{threads}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(nigmix.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "nigmix.cli", "fit", str(csv_path), str(out),
             "--model", "mnig", "--g-init", "10", "--label-column", "label",
             "--seed", "0"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode in (0, 2), proc.stderr
        hashes.append(run_record_hash(read_json(out)))
    assert hashes[0] == hashes[1]
