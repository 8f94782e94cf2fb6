"""Run-record hashes of the study presets, pinned.

A refactor of the engines must leave every number of a fit, and so the
hash of its run record, exactly as it was.  Each case simulates a preset
sample at seed 4 and fits it from the command line at seed 0.
"""

import pytest

from nigmix.cli import main
from nigmix.io import read_json, run_record_hash


@pytest.mark.parametrize("preset, model, g_init, prefix", [
    ("study1", "unig", 10, "edbe629996281c7c"),
    ("study2", "unig", 10, "650316d186b550f5"),
    ("study4", "mnig", 5, "c8855ed9570126ca"),
    ("study5", "mnig", 10, "d39f9cf9cb5a6fce"),
])
def test_run_record_hash(tmp_path, preset, model, g_init, prefix):
    csv_path = tmp_path / f"{preset}.csv"
    out = tmp_path / f"{preset}.json"
    assert main(["simulate", str(csv_path), "--preset", preset, "--seed", "4"]) == 0
    code = main(["fit", str(csv_path), str(out), "--model", model,
                 "--g-init", str(g_init), "--label-column", "label", "--seed", "0"])
    assert code in (0, 2)
    assert run_record_hash(read_json(out)).startswith(prefix)
