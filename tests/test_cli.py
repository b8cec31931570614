import json
import os
import warnings

import numpy as np
import pytest

from dirmean.cli import main, read_dataset_csv, write_dataset_csv

GAUSS_2D = {
    "family": "gaussian",
    "eigenvalues": [1.0, 1.0],
    "rotation_seed": None,
    "mean": [0.25, -0.5],
    "dof": None,
    "shape": None,
    "contamination": None,
}

# small but feasible: variance third of 3N=1800 gives 600 pairs >= 4 * 125
TINY_CONFIG = {"gamma": 1.0, "c1": 1.0, "theta_var": 0.25, "theta_mean": 0.125, "refine_probes": 64}


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return str(path)


def scenario_doc(**overrides):
    doc = {
        "distribution": GAUSS_2D,
        "n_total": 1800,
        "delta": 0.05,
        "trials": 3,
        "estimators": ["dirmean", "empirical-mean", "median-of-means"],
        "probes": 6,
        "seed": 11,
        "config": TINY_CONFIG,
    }
    doc.update(overrides)
    return doc


def tree_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            p = os.path.join(base, name)
            out[os.path.relpath(p, root)] = open(p, "rb").read()
    return out


class TestDatasetCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((17, 3)) * 1e6
        path = tmp_path / "data.csv"
        write_dataset_csv(rows, str(path))
        back = read_dataset_csv(str(path))
        assert np.array_equal(back, rows)  # shortest round-trip decimals


class TestEstimateCommand:
    def test_generate_and_estimate(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {
            "distribution": GAUSS_2D, "n_total": 1800, "delta": 0.05, "config": TINY_CONFIG,
        })
        out = tmp_path / "out"
        assert main(["estimate", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
        doc = json.loads((out / "estimate.json").read_text())
        assert len(doc["mu_hat"]) == 2
        assert abs(doc["mu_hat"][0] - 0.25) < 0.3
        assert doc["converged"] is True

    def test_estimate_from_csv(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((1800, 2)) + [1.0, 2.0]
        data = tmp_path / "data.csv"
        write_dataset_csv(rows, str(data))
        cfg = write_json(tmp_path / "cfg.json", {
            "distribution": GAUSS_2D, "delta": 0.05, "config": TINY_CONFIG,
        })
        out = tmp_path / "out"
        code = main(["estimate", "--config", cfg, "--data", str(data), "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "estimate.json").read_text())
        assert abs(doc["mu_hat"][0] - 1.0) < 0.3 and abs(doc["mu_hat"][1] - 2.0) < 0.3

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_row_exits_1(self, tmp_path, capsys, value):
        rows = np.random.default_rng(2).standard_normal((1800, 2))
        rows[1500, 0] = value
        data = tmp_path / "data.csv"
        write_dataset_csv(rows, str(data))
        cfg = write_json(tmp_path / "cfg.json", {
            "distribution": GAUSS_2D, "delta": 0.05, "config": TINY_CONFIG,
        })
        code = main(["estimate", "--config", cfg, "--data", str(data), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith("ERROR 1: input row 1500 ")

    def test_missing_config_exits_1(self, capsys):
        assert main(["estimate"]) == 1
        assert "ERROR 1:" in capsys.readouterr().err

    def test_sizing_floor_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "distribution": GAUSS_2D, "n_total": 60, "delta": 0.01, "config": TINY_CONFIG,
        })
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR 2:")
        assert "minimal usable row count" in err


    def test_tiny_data_file_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_dataset_csv(np.ones((8, 2)), str(data))
        cfg = write_json(tmp_path / "cfg.json", {"distribution": GAUSS_2D, "delta": 0.01})
        assert main(["estimate", "--config", cfg, "--data", str(data), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("ERROR 2: 8 rows are too few for the mean stage")

    def test_invalid_config_field_exits_1_with_one_line(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "distribution": GAUSS_2D, "n_total": 1800, "delta": 0.05,
            "config": dict(TINY_CONFIG, refine_probes=0),
        })
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "ERROR 1: refine_probes must be at least 1\n"

    def test_empty_data_file_exits_1_with_one_line(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("")
        cfg = write_json(tmp_path / "cfg.json", {"distribution": GAUSS_2D, "delta": 0.01})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["estimate", "--config", cfg, "--data", str(data), "--out", str(tmp_path / "o")]) == 1
        assert caught == []
        assert capsys.readouterr().err == f"ERROR 1: data file {data} holds no rows\n"


class TestSimulateCommand:
    def test_byte_identical_across_runs_and_threads(self, tmp_path):
        cfg = write_json(tmp_path / "sc.json", scenario_doc())
        outs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / name
            code = main(["simulate", "--config", cfg, "--seed", "42",
                         "--out", str(out), "--threads", threads])
            assert code == 0
            outs.append(tree_bytes(out))
        assert outs[0] == outs[1] == outs[2]
        assert set(outs[0]) == {"trials.csv", "summary.json"}

    def test_trial_csv_shape(self, tmp_path):
        cfg = write_json(tmp_path / "sc.json", scenario_doc(trials=2, probes=5))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "trials.csv").read_text().strip().splitlines()
        assert lines[0] == "trial,estimator,dir_index,error,sigma_u,weak_term,strong_term_k1,strong_term_k2"
        assert len(lines) == 1 + 2 * 3 * 5

    def test_env_threads_fallback(self, tmp_path, monkeypatch):
        cfg = write_json(tmp_path / "sc.json", scenario_doc(trials=2))
        monkeypatch.setenv("DIRMEAN_THREADS", "2")
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0

    def test_bad_estimator_exits_1(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sc.json", scenario_doc(estimators=["catoni"]))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "ERROR 1:" in capsys.readouterr().err


class TestDiagnoseCommand:
    def test_writes_reports(self, tmp_path):
        cfg = write_json(tmp_path / "d.json", {
            "distribution": GAUSS_2D,
            "n": 2000,
            "delta_param": 0.005,
            "theta": 0.035,
            "small_ball": {"m": 16, "gamma": 0.05, "trials": 5000},
            "uniform": {"n_dirs": 5, "r": 0.0, "block_m": 1, "n_pairs": 1000},
        })
        out = tmp_path / "out"
        assert main(["diagnose", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
        names = set(os.listdir(out))
        assert {"ratio_conditions.json", "small_ball.json",
                "uniform_ratios.json", "uniform_ratios.csv"} <= names
        doc = json.loads((out / "ratio_conditions.json").read_text())
        assert "ratio_conditions" in doc and "quantile_sandwich" in doc


class TestLowerboundCommand:
    def test_writes_report(self, tmp_path):
        cfg = write_json(tmp_path / "lb.json", {
            "eigenvalues": [1.0 / i for i in range(1, 31)],
            "n_samples": 1000, "delta": 0.05, "C": 1.0, "trials": 300,
        })
        out = tmp_path / "out"
        assert main(["lowerbound", "--config", cfg, "--seed", "9", "--out", str(out)]) == 0
        doc = json.loads((out / "lowerbound.json").read_text())
        assert doc["k0"] > 1.0 and doc["trials"] == 300

    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "ERROR 1:" in capsys.readouterr().err
