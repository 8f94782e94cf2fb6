"""CSV ingestion, JSON persistence, and the command-line surface."""

import json

import numpy as np
import pytest

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
from nigmix.presets import simulation_preset
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
            objs = back.hypers + back.bundles
            for obj, fields in zip(objs, d["hypers"] + d["bundles"]):
                for name, value in fields.items():
                    if isinstance(value, list):
                        assert isinstance(getattr(obj, name), np.ndarray), name

    def test_run_record_hash_ignores_timings(self, study1_csv):
        path, sample = study1_csv
        res = fit(
            sample.observations, FitConfig(model="unig", g_init=5, seed=0)
        )
        cfg = FitConfig(model="unig", g_init=5, seed=0)
        r1 = make_run_record(cfg, res, file_fingerprint(path), {"fit_seconds": 1.0})
        r2 = make_run_record(cfg, res, file_fingerprint(path), {"fit_seconds": 99.0})
        assert run_record_hash(r1) == run_record_hash(r2)


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

    def test_reproduce_small(self, tmp_path, capsys):
        assert main(["reproduce", "study1", "--replicates", "2"]) == 0
        out = capsys.readouterr().out
        assert "study1: G=2 in 2/2 runs" in out
