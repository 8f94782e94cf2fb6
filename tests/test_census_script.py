"""``scripts/census.py``'s comparison of two censuses, on hand-made entries;
no fit runs here."""

import importlib.util
from pathlib import Path

import numpy as np

CENSUS = Path(__file__).resolve().parents[1] / "scripts" / "census.py"


def _census_script():
    spec = importlib.util.spec_from_file_location("census_script", CENSUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


census = _census_script()

ENTRY = {"digest": "d0", "G": 2, "iterations": 120, "converged": True,
         "ari": 0.98, "trace_length": 120, "labels_sha256": "l0"}
LINE = "study4: G=2 in 8/8 runs, converged 1/8, mean ARI 0.984 (sd 0.008)"
KEY = "study4/1000/0"


def one_fit(**changed):
    return {"fits": {KEY: {**ENTRY, **changed}}, "census": {"study4@1000": LINE}}


def test_identical_entries_do_not_move():
    assert census.moved(one_fit(), one_fit(), {}) == []


def test_changed_fields_are_named():
    assert census.moved(one_fit(), one_fit(iterations=121), {}) == [
        f"{KEY}: iterations 120 -> 121"
    ]
    assert census.moved(one_fit(), one_fit(labels_sha256="l1", G=3), {}) == [
        f"{KEY}: labels, G 2 -> 3"
    ]


def test_digest_only_move():
    assert census.moved(one_fit(), one_fit(digest="d1"), {}) == [f"{KEY}: digest only"]


def test_changed_census_line():
    new = one_fit()
    new["census"]["study4@1000"] = LINE.replace("0.984", "0.983")
    assert census.moved(one_fit(), new, {}) == [
        f"study4@1000: {LINE} -> {new['census']['study4@1000']}"
    ]


def test_resp_gap_of_a_moved_fit(tmp_path):
    old = np.array([[0.25, 0.75], [1.0, 0.0]])
    new = old + np.array([[3e-13, -3e-13], [0.0, 0.0]])
    # Fit keys hold slashes; they round-trip through the .npz file.
    census.write_census(tmp_path / "OLD.json", one_fit(), {KEY: old, "other": old})
    stored, old_resp = census.read_census(tmp_path / "OLD.json")
    assert stored == one_fit() and old_resp.keys() == {KEY, "other"}
    assert np.array_equal(old_resp[KEY], old)
    # A fit whose G moved has no gap.
    gaps = census.resp_gaps(old_resp, {KEY: new, "other": old[:, :1]})
    assert gaps == {KEY: np.abs(new - old).max()}
    assert 2.9e-13 < gaps[KEY] < 3.1e-13
    assert census.moved(one_fit(), one_fit(digest="d1"), gaps) == [
        f"{KEY}: digest only, max|Δresp| {gaps[KEY]:.3g}"
    ]
    # An unmoved fit lists nothing, whatever its gap.
    assert census.moved(one_fit(), one_fit(), gaps) == []


def test_no_npz_beside_the_json(tmp_path):
    (tmp_path / "OLD.json").write_text('{"fits": {}, "census": {}}')
    assert census.read_census(tmp_path / "OLD.json") == ({"fits": {}, "census": {}}, None)
