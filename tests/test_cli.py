"""CSV ingestion, JSON persistence, and the command-line surface."""

import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from nigmix import cli
from nigmix.cli import main
from nigmix.config import FitConfig
from nigmix.distributions import MixtureSpec, UNIGParams, sample_mixture
from nigmix.io import (
    file_fingerprint,
    ingest_csv,
    make_run_record,
    mixture_spec_from_dict,
    mixture_spec_to_dict,
    read_json,
    result_from_dict,
    result_to_dict,
    run_record_hash,
    write_json,
    write_sample_csv,
)
from nigmix.presets import STUDIES, simulation_preset
from nigmix.vb_mnig import fit_m
from nigmix.vb_unig import fit


@pytest.fixture()
def study1_csv(tmp_path):
    spec, counts = simulation_preset("study1")
    sample = sample_mixture(spec, sum(counts), seed=31, counts=counts)
    path = tmp_path / "study1.csv"
    write_sample_csv(path, sample)
    return path, sample


class TestIngest:
    def test_roundtrip(self, study1_csv, tmp_path):
        path, sample = study1_csv
        data, labels = ingest_csv(path, label_column="label")
        assert np.array_equal(data, sample.observations)
        assert np.array_equal(labels, sample.labels)

    def test_column_selection_and_order(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,c\n1,2,3\n4,5,6\n")
        data, _ = ingest_csv(p, columns=["c", "a"])
        assert data.tolist() == [[3.0, 1.0], [6.0, 4.0]]

    def test_non_numeric_cell_reports_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x\n1.5\noops\n")
        with pytest.raises(ValueError, match="row 3"):
            ingest_csv(p)

    def test_string_labels_coded(self, tmp_path):
        p = tmp_path / "lab.csv"
        p.write_text("x,species\n1,cat\n2,dog\n3,cat\n")
        _, labels = ingest_csv(p, label_column="species")
        assert labels.tolist() == [1, 2, 1]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ingest_csv(tmp_path / "absent.csv")

    def test_byte_order_mark(self, study1_csv, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with a UTF-8
        # byte-order mark, which must not become part of the first name.
        path, sample = study1_csv
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        data, labels = ingest_csv(bom, columns=["x1"], label_column="label")
        assert np.array_equal(data, sample.observations)
        assert np.array_equal(labels, sample.labels)
        assert main(["fit", str(bom), str(tmp_path / "out.json"),
                     "--columns", "x1", "--label-column", "label"]) in (0, 2)

    @pytest.mark.parametrize("cells, coded", [
        (["2", "1"], [2, 1]),
        (["1.0", "-3", "9007199254740991"], [1, -3, 2**53 - 1]),
        (["1", "2.5", "2"], [1, 2, 3]),
        (["1", "inf"], [1, 2]),
        (["-inf", "1e400", "-inf", "nan"], [1, 2, 1, 3]),
        (["1", "9007199254740992"], [1, 2]),
    ])
    def test_label_column_coding(self, tmp_path, cells, coded):
        # Whole numbers below 2**53 keep their values; any other column is
        # coded by first appearance, as text is.
        p = tmp_path / "lab.csv"
        p.write_text("x,label\n" + "".join(f"{i},{c}\n" for i, c in enumerate(cells)))
        _, labels = ingest_csv(p, label_column="label")
        assert labels.dtype == int and labels.tolist() == coded


class TestSerialization:
    def test_mixture_spec_roundtrip(self):
        spec, _ = simulation_preset("study4")
        back = mixture_spec_from_dict(mixture_spec_to_dict(spec))
        assert back.weights == pytest.approx(spec.weights)
        for a, b in zip(spec.components, back.components):
            assert np.allclose(a.mu_t, b.mu_t)
            assert np.allclose(a.sigma_t, b.sigma_t)

    def test_result_roundtrip(self, study1_csv):
        _, sample = study1_csv
        spec, counts = simulation_preset("study5")
        sample5 = sample_mixture(spec, sum(counts), seed=1002, counts=counts)
        cases = [
            (fit, sample.observations, FitConfig(model="unig", g_init=5, seed=0)),
            (fit_m, sample5.observations, FitConfig(model="mnig", g_init=10, seed=2)),
        ]
        for engine, data, config in cases:
            d = result_to_dict(engine(data, config))
            back = result_from_dict(d)
            assert back.model == config.model
            assert result_to_dict(back) == d
            assert isinstance(back.resp, np.ndarray)
            assert isinstance(back.labels, np.ndarray)
            # Each field stacks its per-component entries along a first axis.
            for key in ("hypers", "bundles"):
                stack, entries = getattr(back, key), d[key]
                for name, value in entries[0].items():
                    field = getattr(stack, name)
                    assert isinstance(field, np.ndarray), name
                    assert field.shape == (len(entries), *np.shape(value)), name

    def test_run_record_hash_ignores_timings(self, study1_csv):
        path, sample = study1_csv
        res = fit(
            sample.observations, FitConfig(model="unig", g_init=5, seed=0)
        )
        cfg = FitConfig(model="unig", g_init=5, seed=0)
        r1 = make_run_record(cfg, res, file_fingerprint(path), {"fit_seconds": 1.0})
        r2 = make_run_record(cfg, res, file_fingerprint(path), {"fit_seconds": 99.0})
        assert run_record_hash(r1) == run_record_hash(r2)

    def test_run_record_hash_streams(self):
        # The digest of the one-shot compact dump, with the JSON streamed
        # into the hash: an n = 3000 record held 1.6 MB more as one string.
        spec, _ = simulation_preset("study1")
        data = sample_mixture(spec, 3000, seed=1).observations
        cfg = FitConfig(max_iter=5)
        record = make_run_record(cfg, fit(data, cfg), "0" * 64, {"fit_seconds": 1.0})
        tracemalloc.start()
        try:
            got = run_record_hash(record)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1e6
        del record["timings"]
        blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
        assert got == hashlib.sha256(blob.encode()).hexdigest()

    @pytest.mark.parametrize("given, plain", [
        ({"g_init": np.int64(5)}, {"g_init": 5}),
        ({"max_iter": np.int32(40)}, {"max_iter": 40}),
        ({"seed": True}, {"seed": 1}),
        ({"tol": np.float32(1e-6)}, {"tol": float(np.float32(1e-6))}),
        ({"prune_threshold": 2}, {"prune_threshold": 2.0}),
    ], ids=["int64", "int32", "bool", "float32", "int-float"])
    def test_config_records_plain_numbers(self, study1_csv, tmp_path, given, plain):
        # A numpy or bool setting records and hashes as its plain twin.
        path, sample = study1_csv
        hashes = []
        for settings in (given, plain):
            cfg = FitConfig(**{"g_init": 5, "max_iter": 40, **settings})
            record = make_run_record(cfg, fit(sample.observations, cfg),
                                     file_fingerprint(path), {})
            write_json(tmp_path / "record.json", record)
            hashes.append(run_record_hash(record))
        assert hashes[0] == hashes[1]


class TestCliCommands:
    def test_simulate_then_fit(self, tmp_path):
        csv_path = tmp_path / "sim.csv"
        out_path = tmp_path / "fit.json"
        assert main(["simulate", str(csv_path), "--preset", "study1",
                     "--seed", "1"]) == 0
        code = main([
            "fit", str(csv_path), str(out_path),
            "--model", "unig", "--g-init", "10",
            "--label-column", "label", "--seed", "0",
        ])
        assert code == 0
        record = read_json(out_path)
        assert record["result"]["model"] == "unig"
        assert len(record["result"]["surviving"]) == 2
        labels = (tmp_path / "fit.labels.csv").read_text().splitlines()
        assert labels[0] == "label"
        assert len(labels) == 301

    def test_fit_record_is_strict_json(self, tmp_path):
        # study5 at seed 4 prunes during the fit, so the trace holds entries
        # without a responsibility change.
        csv_path = tmp_path / "sim.csv"
        out_path = tmp_path / "fit.json"
        assert main(["simulate", str(csv_path), "--preset", "study5",
                     "--seed", "4"]) == 0
        assert main(["fit", str(csv_path), str(out_path), "--model", "mnig",
                     "--label-column", "label", "--seed", "0"]) == 0

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        record = json.loads(out_path.read_text(), parse_constant=reject)
        changes = [e["max_resp_change"] for e in record["result"]["trace"]]
        assert None in changes

    def test_fit_records_column_selection(self, tmp_path):
        csv_path = tmp_path / "sim.csv"
        out_path = tmp_path / "fit.json"
        assert main(["simulate", str(csv_path), "--preset", "study4",
                     "--seed", "4"]) == 0
        assert main(["fit", str(csv_path), str(out_path), "--model", "mnig",
                     "--g-init", "5", "--columns", "x2,x1",
                     "--label-column", "label", "--max-iter", "5"]) == 2
        # The fit settings, then the CSV selection the data were read with.
        config = read_json(out_path)["config"]
        names = [f.name for f in fields(FitConfig)]
        assert list(config) == [*names, "columns", "label_column"]
        assert config["columns"] == ["x2", "x1"]
        assert config["label_column"] == "label"

    def test_fit_missing_input_exits_3(self, tmp_path):
        code = main(["fit", str(tmp_path / "none.csv"), str(tmp_path / "o.json")])
        assert code == 3

    def test_fit_malformed_input_exits_3(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x\n1\nnope\n")
        assert main(["fit", str(p), str(tmp_path / "o.json")]) == 3

    def test_fit_wrong_dimension_exits_3(self, tmp_path):
        p = tmp_path / "wide.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        assert main(["fit", str(p), str(tmp_path / "o.json"),
                     "--model", "unig"]) == 3

    def test_fit_far_outlier_exits_4(self, tmp_path, capsys):
        # At 1e8 the score's e_a cancels to zero, so the latent posterior
        # of one component has no valid Bessel argument.
        csv_path = tmp_path / "sim.csv"
        assert main(["simulate", str(csv_path), "--preset", "study1",
                     "--seed", "4"]) == 0
        with open(csv_path, "a", encoding="utf-8") as fh:
            fh.write("100000000.0,1\n")
        capsys.readouterr()
        code = main(["fit", str(csv_path), str(tmp_path / "fit.json"),
                     "--label-column", "label"])
        assert code == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: degenerate fit: component ")

    def test_simulate_custom_spec(self, tmp_path):
        spec = MixtureSpec(
            weights=[0.4, 0.6],
            components=(
                UNIGParams(mu=0.0, beta=0.5, delta=1.0, gamma=1.0),
                UNIGParams(mu=8.0, beta=0.0, delta=1.0, gamma=2.0),
            ),
        )
        spec_path = tmp_path / "spec.json"
        write_json(spec_path, mixture_spec_to_dict(spec))
        out = tmp_path / "sim.csv"
        assert main(["simulate", str(out), "--spec", str(spec_path),
                     "--n", "50", "--seed", "1"]) == 0
        data, labels = ingest_csv(out, label_column="label")
        assert data.shape == (50, 1)
        assert set(np.unique(labels)) <= {1, 2}

    def test_simulate_invalid_spec_exits_3(self, tmp_path):
        mnig = {"type": "mnig", "mu_t": [0.0, 0.0], "beta_t": [0.0, 0.0],
                "gamma_t": 1.0}
        components = [
            {**mnig, "sigma_t": [[1.0, 2.0], [2.0, 1.0]]},
            {**mnig, "sigma_t": [[float("nan"), 0.0], [0.0, 1.0]]},
            mnig,  # no sigma_t
        ]
        spec_path = tmp_path / "spec.json"
        for comp in components:
            write_json(spec_path, {"weights": [1.0], "components": [comp]})
            assert main(["simulate", str(tmp_path / "x.csv"),
                         "--spec", str(spec_path)]) == 3

    def test_simulate_rejects_mixed_components(self, tmp_path, capsys):
        # Every sample fills one (n, d) array, so a unig component beside a
        # 2-d mnig one, or mnig components of d = 2 and 3, are invalid.
        unig = {"type": "unig", "mu": 0.0, "beta": 0.0, "delta": 1.0, "gamma": 1.0}

        def mnig(d):
            return {"type": "mnig", "mu_t": [0.0] * d, "beta_t": [0.0] * d,
                    "sigma_t": np.eye(d).tolist(), "gamma_t": 1.0}

        spec_path, out = tmp_path / "spec.json", tmp_path / "x.csv"
        for components in ([mnig(2), unig], [mnig(2), mnig(3)]):
            write_json(spec_path, {"weights": [0.5, 0.5], "components": components})
            assert main(["simulate", str(out), "--spec", str(spec_path),
                         "--n", "50"]) == 3
            assert "invalid mixture spec" in capsys.readouterr().err
            assert not out.exists() and not out.with_suffix(".spec.json").exists()

    def test_simulate_requires_source(self, tmp_path):
        assert main(["simulate", str(tmp_path / "x.csv")]) == 3

    def test_evaluate(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("label\n" + "\n".join("1" * 5 + "2" * 5) + "\n")
        b.write_text("label\n" + "\n".join("2" * 5 + "1" * 5) + "\n")
        assert main(["evaluate", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "ARI: 1.000000" in out

    def test_evaluate_length_mismatch(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("label\n1\n2\n")
        b.write_text("label\n1\n")
        assert main(["evaluate", str(a), str(b)]) == 3

    @pytest.mark.parametrize("cell", ["2.5", "9007199254740992"])
    def test_evaluate_rejects_labels_that_are_not_whole(self, tmp_path, capsys, cell):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text(f"label\n1\n{cell}\n2\n")
        b.write_text("label\n1\n2\n2\n")
        assert main(["evaluate", str(a), str(b)]) == 3
        assert capsys.readouterr().err == (
            f"error: {a}: labels must be integers below 2**53\n"
        )

    @pytest.mark.parametrize("cells", [
        ["1", "2.5"], ["1", "inf"], ["-inf", "1e400"], ["nan", "cat"],
    ], ids=["decimal", "inf", "-inf-1e400", "nan-text"])
    def test_fit_takes_any_label_column(self, study1_csv, tmp_path, cells):
        # The label column is left out of the fit, whatever its cells hold.
        path, _ = study1_csv
        lines = path.read_text().splitlines(keepends=True)
        relabeled = tmp_path / "relabeled.csv"
        relabeled.write_text(lines[0] + "".join(
            line.rsplit(",", 1)[0] + f",{cells[i % 2]}\n"
            for i, line in enumerate(lines[1:])
        ))
        argv = ["--label-column", "label", "--g-init", "5", "--seed", "0"]
        assert main(["fit", str(path), str(tmp_path / "a.json"), *argv]) == 0
        assert main(["fit", str(relabeled), str(tmp_path / "b.json"), *argv]) == 0
        a, b = (read_json(tmp_path / n) for n in ("a.json", "b.json"))
        assert a["result"] == b["result"]

    def test_density_grid(self, tmp_path):
        csv_path = tmp_path / "sim.csv"
        model_path = tmp_path / "fit.json"
        grid_path = tmp_path / "grid.csv"
        main(["simulate", str(csv_path), "--preset", "study1", "--seed", "1"])
        main(["fit", str(csv_path), str(model_path), "--model", "unig",
              "--g-init", "10", "--label-column", "label"])
        code = main(["density-grid", str(model_path), str(grid_path),
                     "--range", "-10", "25", "--points", "101"])
        assert code == 0
        rows = grid_path.read_text().splitlines()
        assert rows[0] == "x,density"
        assert len(rows) == 102
        dens = np.array([float(r.split(",")[1]) for r in rows[1:]])
        assert np.all(dens >= 0.0)

    def _fit_mnig(self, tmp_path, preset, seed, g_init):
        csv_path = tmp_path / "sim.csv"
        model_path = tmp_path / "fit.json"
        main(["simulate", str(csv_path), "--preset", preset, "--seed", seed])
        assert main(["fit", str(csv_path), str(model_path), "--model", "mnig",
                     "--g-init", g_init, "--label-column", "label",
                     "--seed", "0"]) == 0
        return model_path

    def test_density_grid_bivariate(self, tmp_path):
        model_path = self._fit_mnig(tmp_path, "study4", "3", "5")
        grid_path = tmp_path / "grid.csv"
        code = main(["density-grid", str(model_path), str(grid_path),
                     "--range", "-14", "2", "--range2", "-14", "-1",
                     "--points", "21"])
        assert code == 0
        rows = grid_path.read_text().splitlines()
        assert rows[0] == "x1,x2,density"
        grid = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        assert grid.shape == (441, 3)
        assert np.all(np.isfinite(grid[:, 2])) and np.all(grid[:, 2] >= 0.0)
        assert np.array_equal(np.unique(grid[:, 0]), np.linspace(-14.0, 2.0, 21))
        assert np.array_equal(np.unique(grid[:, 1]), np.linspace(-14.0, -1.0, 21))

    def test_density_grid_out_of_memory_exits_3(self, tmp_path, monkeypatch, capsys):
        # A lattice too large for memory ends in one error line, not a
        # traceback.  The allocation is made to fail rather than attempted:
        # --points 100000 asks for about 75 GiB.
        model_path = self._fit_mnig(tmp_path, "study4", "3", "5")
        capsys.readouterr()

        def no_memory(*axes, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setattr(np, "meshgrid", no_memory)
        grid_path = tmp_path / "grid.csv"
        assert main(["density-grid", str(model_path), str(grid_path),
                     "--range", "-14", "2", "--points", "100000"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: out of memory: Unable to allocate 74.5 GiB"
        ]
        assert not grid_path.exists()

    def test_density_grid_needs_two_dimensions(self, tmp_path, capsys):
        model_path = self._fit_mnig(tmp_path, "study5", "4", "10")
        capsys.readouterr()
        assert main(["density-grid", str(model_path), str(tmp_path / "grid.csv"),
                     "--range", "-3", "3"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: lattice export requires 2-dimensional models, got d=10"
        ]

    def test_density_grid_without_range_exits_3(self, tmp_path):
        assert main(["density-grid", str(tmp_path / "no.json"),
                     str(tmp_path / "g.csv")]) == 3

    def test_unknown_flag_exits_3(self, tmp_path):
        assert main(["fit", str(tmp_path / "x.csv"), str(tmp_path / "o.json"),
                     "--bogus"]) == 3

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "usage: nigmix" in capsys.readouterr().out

    def test_density_grid_missing_model(self, tmp_path):
        assert main(["density-grid", str(tmp_path / "no.json"),
                     str(tmp_path / "g.csv"), "--range", "0", "1"]) == 3

    def test_hash_determinism(self, tmp_path):
        csv_path = tmp_path / "sim.csv"
        main(["simulate", str(csv_path), "--preset", "study1", "--seed", "1"])
        hashes = []
        for name in ("f1.json", "f2.json"):
            out = tmp_path / name
            main(["fit", str(csv_path), str(out), "--model", "unig",
                  "--g-init", "6", "--label-column", "label"])
            hashes.append(run_record_hash(read_json(out)))
        assert hashes[0] == hashes[1]

    @pytest.mark.parametrize("study, expected", [
        ("study1", ["study1: G=2 in 2/2 runs", "converged 2/2"]),
        ("study4", ["study4: G=2 in 2/2 runs"]),
    ], ids=["study1", "study4"])
    def test_reproduce_small(self, capsys, study, expected):
        assert main(["reproduce", study, "--replicates", "2"]) == 0
        out = capsys.readouterr().out
        assert all(text in out for text in expected)


def _write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def _preset_sample(preset):
    spec, counts = simulation_preset(preset)
    return sample_mixture(spec, sum(counts), seed=42, counts=counts)


CRAB_SP_SEX = {1: ("B", "M"), 2: ("O", "F")}


@pytest.fixture(scope="module")
def stand_in_data(tmp_path_factory):
    """A data directory of stand-ins for the real datasets, drawn from the
    presets: faithful from study4, crabs (five columns, converted from an
    R-style export with sp/sex columns by scripts/fetch_datasets.py) and
    fish (three columns) from study5, and enzyme from study1."""
    root = tmp_path_factory.mktemp("data")
    s4, s5, s1 = (_preset_sample(p) for p in ("study4", "study5", "study1"))
    _write_rows(root / "faithful.csv", ["eruptions", "waiting"],
                s4.observations.tolist())
    _write_rows(root / "fish.csv", ["Species", "Length3", "Height", "Width"],
                [[lab, *row[:3]] for lab, row in
                 zip(s5.labels.tolist(), s5.observations.tolist())])
    _write_rows(root / "enzyme.csv", ["activity"],
                [[v] for v in s1.observations.reshape(-1).tolist()])
    _write_rows(root / "crabs_raw.csv",
                ['""', "sp", "sex", "index", "FL", "RW", "CL", "CW", "BD"],
                [[f'"{i}"', *CRAB_SP_SEX[lab], i, *row[:5]] for i, (lab, row) in
                 enumerate(zip(s5.labels.tolist(), s5.observations.tolist()), 1)])
    script = Path(__file__).resolve().parents[1] / "scripts" / "fetch_datasets.py"
    subprocess.run(
        [sys.executable, str(script), "--convert", str(root / "crabs_raw.csv"),
         "crabs.csv"],
        env={**os.environ, "NIGMIX_DATA": str(root)}, check=True,
        capture_output=True,
    )
    return root


def test_fetch_datasets_convert_codes_crab_classes(stand_in_data):
    with open(stand_in_data / "crabs_raw.csv", newline="") as fh:
        raw = list(csv.DictReader(fh))
    with open(stand_in_data / "crabs.csv", newline="") as fh:
        converted = list(csv.reader(fh))
    assert converted[0] == ["class4", "FL", "RW", "CL", "CW", "BD"]
    class4 = {("B", "M"): "1", ("O", "F"): "4"}
    assert converted[1:] == [
        [class4[r["sp"], r["sex"]], r["FL"], r["RW"], r["CL"], r["CW"], r["BD"]]
        for r in raw
    ]


def _fetch_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "fetch_datasets.py"
    spec = importlib.util.spec_from_file_location("fetch_datasets", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fetch_datasets_mirrors_every_real_study():
    files = {study.file for study in STUDIES.values() if study.file}
    assert files <= set(_fetch_script().SOURCES)


@pytest.mark.parametrize("name", ["study3", "faithful"])
def test_simulation_preset_names_the_four_presets(tmp_path, name):
    # A real study has no preset, so it is as unknown as a name no study has.
    with pytest.raises(KeyError, match=r"\['study1', 'study2', 'study4', 'study5'\]"):
        simulation_preset(name)
    assert main(["simulate", str(tmp_path / "s.csv"), "--preset", name]) == 3


def test_fetch_datasets_convert_keeps_study_columns(tmp_path):
    # An rrcov-style fish export, with columns no study reads, converted by
    # the script run from the checkout without the package on the path.
    raw = [["", "Weight", "Length1", "Length2", "Length3", "Height", "Width",
            "Species"]]
    raw += [[str(i), "242", "23.2", "25.4", f"30.{i}", "38.4", "13.4", str(i % 7 + 1)]
            for i in range(1, 6)]
    _write_rows(tmp_path / "fish_raw.csv", raw[0], raw[1:])
    script = Path(__file__).resolve().parents[1] / "scripts" / "fetch_datasets.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    subprocess.run(
        [sys.executable, str(script), "--convert", str(tmp_path / "fish_raw.csv"),
         "fish.csv"],
        env={**env, "NIGMIX_DATA": str(tmp_path / "data")}, cwd=tmp_path,
        check=True, capture_output=True,
    )
    with open(tmp_path / "data" / "fish.csv", newline="") as fh:
        converted = list(csv.reader(fh))
    fishcatch = STUDIES["fishcatch"]
    assert converted[0] == [fishcatch.label_column, *fishcatch.columns]
    assert converted[0] == ["Species", "Length3", "Height", "Width"]
    assert converted[1:] == [[r[7], r[4], r[5], r[6]] for r in raw[1:]]


def test_fetch_datasets_download_reads_a_byte_order_mark(tmp_path, monkeypatch):
    # A mirror that serves its CSV with a byte-order mark, without network.
    script = _fetch_script()
    served = []

    def urlopen(url, timeout):
        served.append(url)
        return io.BytesIO(b'\xef\xbb\xbf"eruptions","waiting"\r\n3.6,79\r\n1.8,54\r\n')

    monkeypatch.setattr(script.urllib.request, "urlopen", urlopen)
    url = "https://mirror.invalid/faithful.csv"
    monkeypatch.setattr(script, "SOURCES", {"faithful.csv": url})
    monkeypatch.setenv("NIGMIX_DATA", str(tmp_path / "data"))
    assert script.main(["--download"]) == 0
    assert served == [url]
    with open(tmp_path / "data" / "faithful.csv", newline="") as fh:
        converted = list(csv.reader(fh))
    assert converted == [["eruptions", "waiting"], ["3.6", "79"], ["1.8", "54"]]


def test_fetch_datasets_convert_reads_a_byte_order_mark(tmp_path):
    # A faithful export saved as Excel's "CSV UTF-8", which starts with a
    # byte-order mark before the quoted first name.
    raw = tmp_path / "faithful_raw.csv"
    raw.write_bytes(b'\xef\xbb\xbf"eruptions","waiting"\r\n3.6,79\r\n1.8,54\r\n')
    script = Path(__file__).resolve().parents[1] / "scripts" / "fetch_datasets.py"
    subprocess.run(
        [sys.executable, str(script), "--convert", str(raw), "faithful.csv"],
        env={**os.environ, "NIGMIX_DATA": str(tmp_path / "data")},
        check=True, capture_output=True,
    )
    with open(tmp_path / "data" / "faithful.csv", newline="") as fh:
        converted = list(csv.reader(fh))
    assert converted == [["eruptions", "waiting"], ["3.6", "79"], ["1.8", "54"]]


# The stand-ins' whole output, so that any change to the real-data path
# shows; the fishcatch cross-tab rows are the two stand-in species.
@pytest.mark.parametrize("study, expected", [
    ("faithful", "faithful: G=2\n"),
    ("crabs", "crabs: G=2, ARI 1.000\n"),
    ("fishcatch", "fishcatch: G=2, merged-truth ARI 0.989\n"
                  "[[149   1]\n [  0 200]]\n"),
    ("enzyme", "enzyme: G=2\n"),
], ids=["faithful", "crabs", "fishcatch", "enzyme"])
def test_reproduce_real_data_stand_ins(
    stand_in_data, monkeypatch, capsys, study, expected
):
    # Exercises the real-data code paths only; the real data stay unbundled.
    monkeypatch.setenv("NIGMIX_DATA", str(stand_in_data))
    assert main(["reproduce", study]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("make_faithful", [
    None,
    lambda lines: ["eruptions,duration\n"] + lines[1:],
    lambda lines: lines[:3] + [lines[3].split(",")[0] + ",n/a\n"] + lines[4:],
    lambda lines: lines[:5],
], ids=["missing", "no-waiting-column", "non-numeric-cell", "four-rows"])
def test_reproduce_bad_real_data_exits_3(
    stand_in_data, tmp_path, monkeypatch, capsys, make_faithful
):
    if make_faithful is not None:
        text = (stand_in_data / "faithful.csv").read_text()
        lines = make_faithful(text.splitlines(keepends=True))
        (tmp_path / "faithful.csv").write_text("".join(lines))
    monkeypatch.setenv("NIGMIX_DATA", str(tmp_path))
    assert main(["reproduce", "faithful"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def readme_commands():
    """The ``nigmix ...`` lines of the README's command-line block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("nigmix ")]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # Each line runs as written, in order, in an empty directory.
    commands = readme_commands()
    assert {c[0] for c in commands} == {
        "simulate", "fit", "evaluate", "density-grid", "reproduce"
    }
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code = main(argv)
        assert code in ((0, 2) if argv[0] == "fit" else (0,)), (argv, code)


def test_readme_quick_start_runs(capsys):
    # The README's library block runs as written.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1].split("```python", 1)[1]
    exec(block.split("```", 1)[0], {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "2 True"


@pytest.fixture(scope="module")
def bad_inputs(tmp_path_factory):
    """A study1, a study4 and a study5 sample, CSVs made bad in one way
    each, and a converged study1 and study4 fit for density-grid, with
    copies whose first component holds a value no density has."""
    root = tmp_path_factory.mktemp("bad_inputs")
    for preset in ("study1", "study4", "study5"):
        spec, counts = simulation_preset(preset)
        write_sample_csv(root / f"{preset}.csv",
                         sample_mixture(spec, sum(counts), seed=4, counts=counts))
    spec, counts = simulation_preset("study1")
    write_sample_csv(root / "study1_1000.csv",
                     sample_mixture(spec, sum(counts), seed=1000, counts=counts))
    assert main(["fit", str(root / "study1_1000.csv"), str(root / "fit1.json"),
                 "--label-column", "label", "--g-init", "10", "--seed", "0"]) == 0
    assert main(["fit", str(root / "study4.csv"), str(root / "fit4.json"),
                 "--label-column", "label", "--model", "mnig", "--g-init", "5",
                 "--init-mode", "random", "--seed", "0"]) == 0
    for name, source, field, value in (
        ("delta_neg", "fit1", "delta", -1.0),
        ("mu_nan", "fit1", "mu", math.nan),
        ("prec_indefinite", "fit4", "e_prec", [[1.0, 0.0], [0.0, -1.0]]),
        ("gamma_neg", "fit4", "gamma_t", -1.0),
    ):
        record = read_json(root / f"{source}.json")
        record["result"]["bundles"][0][field] = value
        write_json(root / f"{name}.json", record)
    study1 = (root / "study1.csv").read_text()
    study5 = (root / "study5.csv").read_text()
    # An input that `fit ... s1.json` would overwrite with its labels.
    (root / "s1.labels.csv").write_text(study1)
    lines = study1.splitlines(keepends=True)
    (root / "header.csv").write_text(lines[0])
    (root / "few.csv").write_text("".join(lines[:4]))
    for cell in ("nan", "inf"):
        bad_row = cell + "," + lines[4].split(",", 1)[1]
        (root / f"{cell}.csv").write_text("".join(lines[:4] + [bad_row] + lines[5:]))
    (root / "far1.csv").write_text(study1 + "1e100,1\n")
    # A first row that stops before its label cell, then eleven full rows.
    (root / "short_label.csv").write_text("".join([lines[0], "1.0\n", *lines[1:12]]))
    (root / "huge1.csv").write_text(study1 + "1e200,1\n-1e200,2\n")
    (root / "huge5.csv").write_text(
        study5 + ",".join(["1e200"] * 10) + ",1\n"
        + ",".join(["-1e200"] * 10) + ",2\n"
    )
    # Every row near the largest double: no component's start covariance
    # factors, and init_fit_m falls back to a scaled identity.  (At 1e200
    # the covariances have an inf diagonal, and it falls back as well; see
    # test_vb_mnig.py.)
    far = np.random.default_rng(0).uniform(-1.0, 1.0, (40, 2)) * 1.7e308
    (root / "huge_all.csv").write_text("x1,x2,label\n" + "".join(
        f"{x1!r},{x2!r},{i % 2 + 1}\n" for i, (x1, x2) in enumerate(far.tolist())
    ))
    # A third study4 column before the label: constant, or a copy of x1.
    study4 = [line.split(",") for line in (root / "study4.csv").read_text().split()]
    for name, third in (("const4", lambda row: "3.0"), ("dup4", lambda row: row[0])):
        (root / f"{name}.csv").write_text("".join(
            ",".join([*row[:2], "x3" if i == 0 else third(row), row[2]]) + "\n"
            for i, row in enumerate(study4)
        ))
    # Label files: header only, one row, and two that do not hold integers.
    for name, cells in (
        ("labels0", []), ("labels1", [1]), ("labels_ref", [1, 1, 2, 2]),
        ("labels_frac", [1.5, 1.2, 2, 2]), ("labels_huge", [1e300, 1, 2, 2]),
    ):
        (root / f"{name}.csv").write_text("".join(f"{c}\n" for c in ["label", *cells]))
    (root / "dir").mkdir()
    (root / "dir_labels.labels.csv").mkdir()
    # A spec named as `simulate sim.csv` names its own sidecar.
    write_json(root / "sim.spec.json", mixture_spec_to_dict(spec))
    # Specs with one parameter, or the weights, not finite.
    for name, preset, key, value in (
        ("spec_mu_nan", "study4", "mu_t", [0.0, math.nan]),
        ("spec_beta_inf", "study4", "beta_t", [math.inf, 0.0]),
        ("spec_gamma_inf", "study4", "gamma_t", math.inf),
        ("spec_delta_inf", "study1", "delta", math.inf),
        ("spec_mu1_nan", "study1", "mu", math.nan),
    ):
        bad = mixture_spec_to_dict(simulation_preset(preset)[0])
        bad["components"][1][key] = value
        write_json(root / f"{name}.json", bad)
    write_json(root / "spec_weights_nan.json",
               {**mixture_spec_to_dict(spec), "weights": [math.nan, math.nan]})
    return root


def fit_argv(csv, *flags):
    return ["fit", "{}/" + csv, "{}/out.json", "--label-column", "label", *flags]


def grid_argv(*flags):
    return ["density-grid", "{}/fit1.json", "{}/grid.csv", *flags]


def evaluate_argv(labels, other):
    return ["evaluate", f"{{}}/{labels}.csv", f"{{}}/{other}.csv"]


def merge_argv(groups):
    return ["evaluate", "{}/fit1.labels.csv", "{}/fit1.labels.csv", "--merge", groups]


@pytest.mark.parametrize("argv, code", [
    (fit_argv("study1.csv", "--g-init", "1"), 3),
    (fit_argv("study1.csv", "--hyper-init", "0"), 3),
    (fit_argv("study1.csv", "--prune-threshold", "nan"), 3),
    (fit_argv("study1.csv", "--max-iter", "0"), 3),
    (fit_argv("study1.csv", "--seed", "-1"), 3),
    (["simulate", "{}/sim.csv", "--preset", "study1", "--n", "0"], 3),
    (["simulate", "{}/sim.csv", "--preset", "study1", "--seed", "-1"], 3),
    (["reproduce", "study1", "--replicates", "0"], 3),
    (fit_argv("header.csv"), 3),
    (fit_argv("few.csv", "--g-init", "3"), 3),
    (fit_argv("nan.csv"), 3),
    (fit_argv("inf.csv"), 3),
    (fit_argv("far1.csv"), 4),
    (fit_argv("huge1.csv", "--init-mode", "kmeans"), 4),
    (fit_argv("huge1.csv", "--init-mode", "random"), 4),
    (fit_argv("huge5.csv", "--model", "mnig", "--init-mode", "kmeans"), 4),
    (fit_argv("huge5.csv", "--model", "mnig", "--init-mode", "random"), 4),
    (fit_argv("study1.csv", "--tol", "nan"), 3),
    (fit_argv("study1.csv", "--tol", "-1"), 3),
    (fit_argv("study1.csv", "--tol", "0"), 3),
    (fit_argv("study1.csv", "--tol", "inf"), 3),
    (grid_argv("--range", "-5", "5", "--points", "-1"), 3),
    (grid_argv("--range", "-5", "5", "--points", "0"), 3),
    (grid_argv("--range", "5", "nan"), 3),
    (grid_argv("--range", "inf", "5"), 3),
    (fit_argv("const4.csv", "--model", "mnig"), 3),
    (fit_argv("dup4.csv", "--model", "mnig"), 3),
    (fit_argv("study1.csv", "--hyper-init", "1e300"), 4),
    (merge_argv("1+x"), 3),
    (merge_argv("+"), 3),
    (merge_argv("1+2,2+3"), 3),
    (evaluate_argv("labels0", "labels0"), 3),
    (evaluate_argv("labels1", "labels1"), 3),
    (evaluate_argv("labels_frac", "labels_ref"), 3),
    (evaluate_argv("labels_huge", "labels_ref"), 3),
    # Paths that cannot be read or written: a missing directory, or a
    # directory where a file should be.
    (["simulate", "{}/nonexistent/x.csv", "--preset", "study1"], 3),
    (["fit", "{}/study1.csv", "{}/nonexistent/out.json", "--label-column", "label"], 3),
    (["density-grid", "{}/fit1.json", "{}/nonexistent/g.csv", "--range", "0", "1"], 3),
    (["fit", "{}/dir", "{}/out.json"], 3),
    (["evaluate", "{}/dir", "{}/labels_ref.csv"], 3),
    (["fit", "{}/study1.csv", "{}/dir", "--label-column", "label"], 3),
    # A record or labels path that names the input file.
    (["fit", "{}/study1.csv", "{}/study1.csv", "--label-column", "label"], 3),
    (["fit", "{}/s1.labels.csv", "{}/s1.json", "--label-column", "label"], 3),
    # A grid or sidecar path that names the model record or spec read.
    (["density-grid", "{}/fit1.json", "{}/fit1.json", "--range", "0", "1",
      "--points", "3"], 3),
    (["simulate", "{}/sim.csv", "--spec", "{}/sim.spec.json"], 3),
    # Both sources of the mixture, each valid alone, or neither.
    (["simulate", "{}/pp.csv", "--preset", "study1", "--spec", "{}/sim.spec.json"], 3),
    (["simulate", "{}/pp.csv"], 3),
    # A model record whose bundle values no NIG density has.
    (["density-grid", "{}/delta_neg.json", "{}/grid.csv", "--range", "0", "1"], 3),
    (["density-grid", "{}/mu_nan.json", "{}/grid.csv", "--range", "0", "1"], 3),
    (["density-grid", "{}/prec_indefinite.json", "{}/grid.csv",
      "--range", "0", "1"], 3),
    (["density-grid", "{}/gamma_neg.json", "{}/grid.csv", "--range", "0", "1"], 3),
    (fit_argv("short_label.csv", "--g-init", "2"), 3),
    (fit_argv("study1.csv", "--hyper-init", "inf"), 3),
    (fit_argv("study1.csv", "--prune-threshold", "inf"), 3),
    (fit_argv("huge_all.csv", "--model", "mnig", "--init-mode", "random",
              "--g-init", "5"), 4),
    # A spec whose parameters or weights are not finite, which would
    # otherwise simulate rows of NaN.
    *((["simulate", "{}/sim_bad.csv", "--spec", f"{{}}/{name}.json", "--n", "50",
        "--seed", "1"], 3)
      for name in ("spec_mu_nan", "spec_beta_inf", "spec_gamma_inf",
                   "spec_delta_inf", "spec_mu1_nan", "spec_weights_nan")),
])
def test_invalid_input_exit_code(bad_inputs, capsys, argv, code):
    # One error line on stderr and no warning, which numpy would print there,
    # and no file written or changed.
    files = {p: p.read_bytes() for p in bad_inputs.rglob("*") if p.is_file()}
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([a.format(bad_inputs) for a in argv]) == code
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert {p: p.read_bytes() for p in bad_inputs.rglob("*") if p.is_file()} == files


@pytest.mark.parametrize("source, output", [
    ("study1.csv", "nonexistent/out.json"),
    ("study1.csv", "dir"),
    ("study1.csv", "dir_labels.json"),
    ("study1.csv", "study1.csv"),
    ("s1.labels.csv", "s1.json"),
])
def test_fit_checks_outputs_before_fitting(bad_inputs, monkeypatch, capsys,
                                           source, output):
    # A record or labels path that cannot be written, or that names the
    # input, exits 3 before the fit starts.
    def no_fit(config, data):
        raise AssertionError("run_fit was called")

    monkeypatch.setattr(cli, "run_fit", no_fit)
    assert main(["fit", str(bad_inputs / source), str(bad_inputs / output),
                 "--label-column", "label"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
