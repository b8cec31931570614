import dataclasses
import json
import os
import warnings

import numpy as np
import pytest

from dirmean.cli import main, read_dataset_csv

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
TINY_CONFIG = {"m0": 1, "theta_var": 0.25, "theta_mean": 0.125}


BASELINES = ["empirical-mean", "median-of-means"]  # no dirmean, whose planner checks delta itself
MISSING = object()  # a scenario_doc override that drops the field


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
    return {name: value for name, value in doc.items() if value is not MISSING}


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
        np.savetxt(path, rows, delimiter=",", fmt="%.17g")
        back = read_dataset_csv(str(path))
        assert np.array_equal(back, rows)  # 17 significant digits recover every double


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

    def test_infeasible_estimate_prints_nothing(self, tmp_path, capfd):
        # the slab LP runs (iterations > 0), and HiGHS adds nothing to fd 1 or 2
        student = {"family": "elliptical-student", "eigenvalues": [0.5**k for k in range(10)], "mean": [0.0] * 10,
                   "dof": 5.0}
        cfg = write_json(tmp_path / "cfg.json", {"distribution": student, "n_total": 30000, "config": {"C_prime": 0.05}})
        out = tmp_path / "out"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "estimate.json").read_text())["iterations"] > 0
        captured = capfd.readouterr()
        assert captured.out == "" and captured.err == ""

    def test_estimate_from_csv(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((1800, 2)) + [1.0, 2.0]
        data = tmp_path / "data.csv"
        np.savetxt(data, rows, delimiter=",", fmt="%.17g")
        cfg = write_json(tmp_path / "cfg.json", {
            "distribution": GAUSS_2D, "delta": 0.05, "config": TINY_CONFIG,
        })
        out = tmp_path / "out"
        code = main(["estimate", "--config", cfg, "--data", str(data), "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "estimate.json").read_text())
        assert len(doc["mu_hat"]) == 2  # the data's columns match the distribution's dimension
        assert abs(doc["mu_hat"][0] - 1.0) < 0.3 and abs(doc["mu_hat"][1] - 2.0) < 0.3

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_row_exits_1(self, tmp_path, capsys, value):
        rows = np.random.default_rng(2).standard_normal((1800, 2))
        rows[1500, 0] = value
        data = tmp_path / "data.csv"
        np.savetxt(data, rows, delimiter=",", fmt="%.17g")
        cfg = write_json(tmp_path / "cfg.json", {
            "distribution": GAUSS_2D, "delta": 0.05, "config": TINY_CONFIG,
        })
        code = main(["estimate", "--config", cfg, "--data", str(data), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith("ERROR 1: input row 1500 ")

    def test_n_total_other_than_the_data_rows_exits_1(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        np.savetxt(data, np.random.default_rng(3).standard_normal((1800, 2)), delimiter=",", fmt="%.17g")
        cfg = write_json(tmp_path / "cfg.json", {
            "distribution": GAUSS_2D, "n_total": 3000, "delta": 0.05, "config": TINY_CONFIG,
        })
        assert main(["estimate", "--config", cfg, "--data", str(data), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "ERROR 1: n_total = 3000 differs from the 1800 rows of --data\n"
        assert not (tmp_path / "o").exists()

    def test_n_total_equal_to_the_data_rows_runs(self, tmp_path):
        data = tmp_path / "data.csv"
        np.savetxt(data, np.random.default_rng(3).standard_normal((1800, 2)), delimiter=",", fmt="%.17g")
        cfg = write_json(tmp_path / "cfg.json", {
            "distribution": GAUSS_2D, "n_total": 1800, "delta": 0.05, "config": TINY_CONFIG,
        })
        assert main(["estimate", "--config", cfg, "--data", str(data), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("columns", [1, 3])
    def test_data_columns_other_than_the_dimension_exit_1(self, tmp_path, capsys, columns):
        data = tmp_path / "data.csv"
        np.savetxt(data, np.random.default_rng(4).standard_normal((1800, columns)), delimiter=",", fmt="%.17g")
        cfg = write_json(tmp_path / "cfg.json", {"distribution": GAUSS_2D, "delta": 0.05, "config": TINY_CONFIG})
        assert main(["estimate", "--config", cfg, "--data", str(data), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"ERROR 1: distribution has dimension 2, but --data has {columns} columns\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 14.6 TiB for an array", "Unable to allocate 14.6 TiB for an array"),
        ("", "an allocation failed"),
    ])
    def test_memory_error_exits_1_in_one_line(self, tmp_path, capsys, monkeypatch, message, shown):
        def too_big(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr("dirmean.cli.sample_dataset", too_big)
        cfg = write_json(tmp_path / "cfg.json", {"distribution": GAUSS_2D, "n_total": 10**12})
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"ERROR 1: out of memory: {shown}\n"
        assert not (tmp_path / "o").exists()

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
        np.savetxt(data, np.ones((8, 2)), delimiter=",", fmt="%.17g")
        cfg = write_json(tmp_path / "cfg.json", {"distribution": GAUSS_2D, "delta": 0.01})
        assert main(["estimate", "--config", cfg, "--data", str(data), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("ERROR 2: 8 rows are too few for the mean stage")

    @pytest.mark.parametrize(
        "setting, named",
        [({"m0": 100000}, ["10000 pairs", "m0 = 100000", "theta_var = 0.02"]),
         ({"theta_var": 0.001}, ["m0 = 100", "theta_var = 0.001"]),
         ({"c_blocks": 1e6}, ["c_blocks = 1000000.0", "theta_mean = 0.125", "delta = 0.01"])],
        ids=["m0", "theta_var", "c_blocks"],
    )
    def test_sizing_error_names_the_settings_of_the_minimum(self, tmp_path, capsys, setting, named):
        cfg = write_json(tmp_path / "cfg.json", {"distribution": GAUSS_2D, "n_total": 30000, "config": setting})
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR 2: 30000 rows are too few for the ") and err.count("\n") == 1, err
        assert all(text in err for text in named) and "minimal usable row count: " in err, err
        assert not (tmp_path / "o").exists()

    def test_invalid_config_field_exits_1_with_one_line(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "distribution": GAUSS_2D, "n_total": 1800, "delta": 0.05,
            "config": dict(TINY_CONFIG, m0=0),
        })
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "ERROR 1: m0 must be at least 1, got 0\n"

    @pytest.mark.parametrize(
        "field, value", [("m0", 1.5), ("m0", 100.0)]
    )
    def test_non_integer_config_field_exits_1_naming_it(self, tmp_path, capsys, field, value):
        cfg = write_json(tmp_path / "cfg.json", {
            "distribution": GAUSS_2D, "n_total": 1800, "delta": 0.05,
            "config": dict(TINY_CONFIG, **{field: value}),
        })
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"ERROR 1: {field} must be an integer, got {value}\n"

    @pytest.mark.parametrize("field, value", [("n_total", 1800.5), ("seed", 1.5), ("n_total", True)])
    def test_non_integer_document_field_exits_1_naming_it(self, tmp_path, capsys, field, value):
        doc = {"distribution": GAUSS_2D, "n_total": 1800, "delta": 0.05, "config": TINY_CONFIG}
        cfg = write_json(tmp_path / "cfg.json", dict(doc, **{field: value}))
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"ERROR 1: {field} must be an integer, got {value}\n"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n_total", 0, "must be at least 1, got 0"),
            ("n_total", -5, "must be at least 1, got -5"),
            ("delta", "0.01", "must lie in [2.22507e-308, 1), got '0.01'"),
            ("delta", 0, "must lie in [2.22507e-308, 1), got 0"),
            ("delta", 1.5, "must lie in [2.22507e-308, 1), got 1.5"),
            ("distribution", [1], "must be a JSON object, got [1]"),
            ("distribution", None, "must be a JSON object, got None"),
            ("config", [1], "must be a JSON object, got [1]"),
        ],
    )
    def test_bad_document_value_exits_1_naming_it(self, tmp_path, capsys, field, value, message):
        doc = {"distribution": GAUSS_2D, "n_total": 1800, "delta": 0.05, "config": TINY_CONFIG, field: value}
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"ERROR 1: {field} {message}\n"
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_1_naming_the_source(self, tmp_path, capsys, threads):
        cfg = write_json(tmp_path / "sc.json", scenario_doc(trials=2))
        out = str(tmp_path / "o")
        assert main(["simulate", "--config", cfg, "--out", out, "--threads", threads]) == 1
        assert capsys.readouterr().err == f"ERROR 1: --threads must be at least 1, got {threads}\n"
        assert not (tmp_path / "o").exists()

    def test_bad_estimator_exits_1(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sc.json", scenario_doc(estimators=["catoni"]))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "ERROR 1:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"delta": 0, "estimators": BASELINES}, "delta"),
            ({"delta": 2.0, "estimators": BASELINES}, "delta"),
            ({"delta": float("nan"), "estimators": BASELINES}, "delta"),
            ({"delta": True, "estimators": BASELINES}, "delta"),
            ({"probes": 4.5, "estimators": BASELINES}, "probes"),
            ({"probes": 1}, "probes"),
            ({"n_total": 3000.9}, "n_total"),
            ({"n_total": 2, "estimators": BASELINES}, "n_total"),
            ({"trials": 2.7}, "trials"),
            ({"trials": True}, "trials"),
            ({"trials": 0}, "trials"),
            ({"seed": 1.5}, "seed"),
            ({"estimators": ["empirical-mean", "dirmean", "empirical-mean"]}, "estimators"),
            ({"estimators": "dirmean"}, "estimators must be a list"),
            ({"delta": MISSING}, "missing required fields: ['delta']"),
            ({"trials": MISSING, "n_total": MISSING}, "missing required fields: ['n_total', 'trials']"),
            ({"distribution": [1]}, "distribution"),
        ],
    )
    def test_malformed_scenario_exits_1_naming_the_field(self, tmp_path, capsys, overrides, field):
        cfg = write_json(tmp_path / "sc.json", scenario_doc(**overrides))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR 1: ") and err.count("\n") == 1
        assert field in err
        assert not (tmp_path / "o").exists()

    def test_empty_estimator_list_exits_1_before_any_trial(self, tmp_path, capsys, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("sampled before the estimator list was checked")

        monkeypatch.setattr("dirmean.harness.sample_dataset", no_draw)
        cfg = write_json(tmp_path / "sc.json", scenario_doc(estimators=[]))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR 1: estimators must be a list of one or more distinct names") and "got []" in err
        assert not (tmp_path / "o").exists()

    def test_summary_echoes_the_estimators_plans(self, tmp_path):
        from dirmean import DistributionSpec, PipelineConfig, derive_seed, estimate_mean, make_ground_truth, sample_dataset

        doc = scenario_doc(trials=2)
        cfg = write_json(tmp_path / "sc.json", doc)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--seed", "8", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        gt = make_ground_truth(DistributionSpec.from_json_dict(doc["distribution"]))
        ds = sample_dataset(gt, doc["n_total"], derive_seed(8, "trial-data", 0))
        est = estimate_mean(ds, doc["delta"], PipelineConfig.from_dict(TINY_CONFIG), seed=derive_seed(8, "trial-est", 0))
        assert summary["block_plan_mean"] == dataclasses.asdict(est.block_plan_mean)
        assert summary["block_plan_var"] == dataclasses.asdict(est.block_plan_var)
        assert summary["scenario"]["seed"] == 8

    def test_no_plans_without_dirmean(self, tmp_path):
        cfg = write_json(tmp_path / "sc.json", scenario_doc(trials=2, estimators=["empirical-mean"]))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"scenario", "summary"}


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


    def test_unreachable_uniform_r_exits_1_before_any_draw(self, tmp_path, capsys, monkeypatch):
        # sqrt(2) sigma(u) is at most sqrt(2 lambda_1) = sqrt(2) < 1.45
        def no_draw(*args, **kwargs):
            raise AssertionError("sampled before the r check")

        monkeypatch.setattr("dirmean.cli.sample_marginal", no_draw)
        monkeypatch.setattr("dirmean.cli.sample_dataset", no_draw)
        doc = {"distribution": dict(GAUSS_2D, eigenvalues=[1.0, 0.5]), "uniform": {"r": 1.45}}
        cfg = write_json(tmp_path / "d.json", doc)
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == ("ERROR 1: no direction has sqrt(2) sigma(u) >= r = 1.45: the largest value is "
                       f"sqrt(2 lambda_1) = {np.sqrt(2.0)}\n")
        assert not (tmp_path / "o").exists()

    def test_reachable_uniform_r_samples_its_directions(self, tmp_path):
        doc = {"distribution": dict(GAUSS_2D, eigenvalues=[1.0, 0.5]), "n": 2000,
               "small_ball": {"m": 4, "trials": 200}, "uniform": {"n_dirs": 5, "r": 1.3}}
        cfg = write_json(tmp_path / "d.json", doc)
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o" / "uniform_ratios.json").read_text())
        assert report["r_used"] == 1.3 and report["n_directions"] == 5

    def test_integer_r_writes_the_bytes_of_a_float_r(self, tmp_path):
        outs = []
        for r in (0, 0.0):
            doc = {"distribution": GAUSS_2D, "n": 2000, "small_ball": {"m": 4, "trials": 200},
                   "uniform": {"n_dirs": 3, "r": r, "n_pairs": 500}}
            cfg = write_json(tmp_path / "d.json", doc)
            assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / f"o{r!r}")]) == 0
            outs.append((tmp_path / f"o{r!r}" / "uniform_ratios.json").read_bytes())
        assert outs[0] == outs[1] and b'"r_used": 0.0,' in outs[0]

    @pytest.mark.parametrize("dist", [dict(GAUSS_2D, family="elliptical-lognormal", shape=1.0),
                                      dict(GAUSS_2D, family="gaussian-with-point-contamination",
                                           contamination={"fraction": 0.1, "offset": [1.0, 1.0]})])
    def test_family_without_a_marginal_law_exits_1_before_any_draw(self, tmp_path, capsys, monkeypatch, dist):
        def no_draw(*args, **kwargs):
            raise AssertionError("sampled before the marginal law was resolved")

        monkeypatch.setattr("dirmean.cli.sample_marginal", no_draw)
        monkeypatch.setattr("dirmean.cli.sample_dataset", no_draw)
        cfg = write_json(tmp_path / "d.json", {"distribution": dist})
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"ERROR 1: no analytic marginal law for family {dist['family']!r}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "dist",
        [dict(GAUSS_2D, eigenvalues=[0.0, 0.0]),
         dict(GAUSS_2D, family="elliptical-student", dof=5.0, eigenvalues=[0.0], mean=[1.0])],
        ids=["gaussian-2d", "student-1d"],
    )
    def test_zero_variance_along_e1_exits_1_writing_nothing(self, tmp_path, capsys, dist):
        out = tmp_path / "o"
        out.mkdir()
        cfg = write_json(tmp_path / "d.json", {"distribution": dist})
        assert main(["diagnose", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR 1: ") and err.count("\n") == 1 and "zero variance" in err, err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("uniform", [{}, {"n_dirs": 5}])
    def test_uniform_section_for_another_family_exits_1(self, tmp_path, capsys, uniform):
        student = dict(GAUSS_2D, family="elliptical-student", dof=5.0)
        cfg = write_json(tmp_path / "d.json", {"distribution": student, "n": 2000, "uniform": uniform})
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == "ERROR 1: uniform applies to the gaussian family only, not to 'elliptical-student'\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"n": 2000.5}, "n"),
            ({"seed": 2.5}, "seed"),
            ({"small_ball": {"m": 16.5}}, "small_ball.m"),
            ({"small_ball": {"trials": 5000.5}}, "small_ball.trials"),
            ({"uniform": {"n_pairs": 100.5}}, "uniform.n_pairs"),
            ({"uniform": {"block_m": 1.5}}, "uniform.block_m"),
            ({"uniform": {"n_dirs": 5.5}}, "uniform.n_dirs"),
        ],
    )
    def test_non_integer_field_exits_1_naming_it(self, tmp_path, capsys, overrides, field):
        cfg = write_json(tmp_path / "d.json", {"distribution": GAUSS_2D, "n": 2000, **overrides})
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR 1: {field} must be an integer, got ") and err.count("\n") == 1


    @pytest.mark.parametrize(
        "overrides, field, message",
        [
            ({"n": 0}, "n", "must be at least 1, got 0"),
            ({"n": -5}, "n", "must be at least 1, got -5"),
            ({"delta_param": "0.005"}, "delta_param", "must lie in (0, 1), got '0.005'"),
            ({"delta_param": 1.5}, "delta_param", "must lie in (0, 1), got 1.5"),
            ({"small_ball": {"m": 0}}, "small_ball.m", "must be at least 1, got 0"),
            ({"small_ball": {"trials": 0}}, "small_ball.trials", "must be at least 100, got 0"),
            ({"uniform": {"n_pairs": 0}}, "uniform.n_pairs", "must be at least 1, got 0"),
            ({"uniform": {"block_m": 0}}, "uniform.block_m", "must be at least 1, got 0"),
            ({"uniform": {"n_dirs": 0}}, "uniform.n_dirs", "must be at least 1, got 0"),
            ({"theta": "0.035"}, "theta", "must lie in (0, 0.5), got '0.035'"),
            ({"theta": 0.5}, "theta", "must lie in (0, 0.5), got 0.5"),
            ({"small_ball": {"m": 16, "trials": 5000, "gamma": "0.05"}}, "small_ball.gamma",
             "must lie in (0, 1), got '0.05'"),
            ({"uniform": {"r": "0.0"}}, "uniform.r", "must lie in (-inf, inf), got '0.0'"),
            ({"small_ball": [1]}, "small_ball", "must be a JSON object, got [1]"),
            ({"uniform": None}, "uniform", "must be a JSON object, got None"),
            ({"distribution": "gaussian"}, "distribution", "must be a JSON object, got 'gaussian'"),
        ],
    )
    def test_bad_value_exits_1_naming_it(self, tmp_path, capsys, overrides, field, message):
        doc = {"distribution": GAUSS_2D, "n": 2000, "small_ball": {"m": 16, "trials": 5000}, **overrides}
        cfg = write_json(tmp_path / "d.json", doc)
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"ERROR 1: {field} {message}\n"

    def test_n_too_small_to_trim_names_the_least_n(self, tmp_path, capsys):
        # at the default theta = 7 * 0.005 = 0.035, round(theta n) >= 1 first holds at n = 15
        doc = {"distribution": GAUSS_2D, "small_ball": {"m": 4, "trials": 500}, "uniform": {"n_dirs": 3}}
        cfg = write_json(tmp_path / "d.json", dict(doc, n=14))
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "ERROR 1: n = 14 is too small for theta = 0.035: the trim count round(theta n) "
            "must be at least 1, so n must be at least 15\n"
        )
        cfg = write_json(tmp_path / "d.json", dict(doc, n=15))
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("delta_param", [0.1, 0.05])
    def test_delta_param_too_large_for_default_theta_exits_1(self, tmp_path, capsys, delta_param):
        # the default theta = 7 delta_param leaves the sandwich levels usable
        # only for delta_param < 1/22; neither value may reach the sampling
        doc = {"distribution": GAUSS_2D, "n": 2000, "delta_param": delta_param}
        cfg = write_json(tmp_path / "d.json", doc)
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"ERROR 1: delta_param = {delta_param} is too large: the quantile sandwich needs "
            "theta >= 7 delta_param and 2 theta + 8 delta_param < 1, so delta_param must be "
            "below 1/22 (~0.04545) at the default theta = 7 delta_param\n"
        )
        assert not (tmp_path / "o").exists()

    def test_delta_param_too_large_for_set_theta_names_both(self, tmp_path, capsys):
        doc = {"distribution": GAUSS_2D, "n": 2000, "delta_param": 0.01, "theta": 0.05}
        cfg = write_json(tmp_path / "d.json", doc)
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "ERROR 1: delta_param = 0.01 is too large: the quantile sandwich needs "
            "theta >= 7 delta_param and 2 theta + 8 delta_param < 1, so delta_param must be "
            f"at most theta / 7 = {0.05 / 7} and below (1 - 2 theta) / 8 = {0.9 / 8} for theta = 0.05\n"
        )

    def test_delta_param_just_below_one_22nd_runs(self, tmp_path):
        doc = {"distribution": GAUSS_2D, "n": 2000, "delta_param": 0.0454,
               "small_ball": {"m": 4, "trials": 500}, "uniform": {"n_dirs": 3}}
        cfg = write_json(tmp_path / "d.json", doc)
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("theta, least", [(0.05, 10), (0.1, 5), (0.3, 2), (0.001, 500)])
    def test_least_n_is_the_first_that_trims(self, tmp_path, capsys, theta, least):
        doc = {"distribution": GAUSS_2D, "theta": theta, "delta_param": 1e-4, "n": least - 1}
        cfg = write_json(tmp_path / "d.json", doc)
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.endswith(f"so n must be at least {least}\n")


NAN, INF = float("nan"), float("inf")
STUDENT_2D = dict(GAUSS_2D, family="elliptical-student", dof=5.0)
LOGNORMAL_2D = dict(GAUSS_2D, family="elliptical-lognormal", shape=0.5)
CONTAMINATED_2D = dict(GAUSS_2D, family="gaussian-with-point-contamination",
                       contamination={"fraction": 0.1, "offset": [1.0, 1.0]})

# a distribution entry that is not a finite real number, the field the error
# must name and the field's rule: eigenvalues have the inclusive floor 0
EIGEN, ANY = "[0, inf)", "(-inf, inf)"
BAD_DISTRIBUTIONS = {
    "eigenvalue-nan": (dict(GAUSS_2D, eigenvalues=[1.0, NAN]), "eigenvalues[1]", NAN, EIGEN),
    "eigenvalue-nan-string": (dict(GAUSS_2D, eigenvalues=[1.0, "nan"]), "eigenvalues[1]", "nan", EIGEN),
    "eigenvalue-inf": (dict(GAUSS_2D, eigenvalues=[INF, 0.5]), "eigenvalues[0]", INF, EIGEN),
    "eigenvalue-strings": (dict(GAUSS_2D, eigenvalues=["1.0", "0.5"]), "eigenvalues[0]", "1.0", EIGEN),
    "mean-nan": (dict(GAUSS_2D, mean=[0.0, NAN]), "mean[1]", NAN, ANY),
    "mean-inf": (dict(GAUSS_2D, mean=[-INF, 0.0]), "mean[0]", -INF, ANY),
    "dof-nan": (dict(STUDENT_2D, dof=NAN), "dof", NAN, ANY),
    "dof-string": (dict(STUDENT_2D, dof="5"), "dof", "5", ANY),
    "shape-nan": (dict(LOGNORMAL_2D, shape=NAN), "shape", NAN, ANY),
    "offset-nan": (dict(CONTAMINATED_2D, contamination={"fraction": 0.1, "offset": [1.0, NAN]}),
                   "contamination.offset[1]", NAN, ANY),
    "fraction-string": (dict(CONTAMINATED_2D, contamination={"fraction": "x", "offset": [1.0, 1.0]}),
                        "contamination.fraction", "x", "[0, 0.5)"),
}


def assert_names_the_field(capsys, field, value, rule):
    assert capsys.readouterr().err == f"ERROR 1: {field} must lie in {rule}, got {value!r}\n"


class TestDistributionFields:
    @pytest.mark.parametrize("case", list(BAD_DISTRIBUTIONS))
    def test_estimate_exits_1_naming_the_field(self, tmp_path, capsys, case):
        dist, field, value, rule = BAD_DISTRIBUTIONS[case]
        cfg = write_json(tmp_path / "cfg.json", {"distribution": dist, "n_total": 1800, "delta": 0.05})
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert_names_the_field(capsys, field, value, rule)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("case", list(BAD_DISTRIBUTIONS))
    def test_simulate_exits_1_naming_the_field(self, tmp_path, capsys, case):
        dist, field, value, rule = BAD_DISTRIBUTIONS[case]
        cfg = write_json(tmp_path / "sc.json", scenario_doc(distribution=dist))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert_names_the_field(capsys, field, value, rule)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", [1.5, "7", True])
    def test_non_integer_rotation_seed_exits_1_naming_it(self, tmp_path, capsys, seed):
        cfg = write_json(tmp_path / "cfg.json", {
            "distribution": dict(GAUSS_2D, rotation_seed=seed), "n_total": 1800, "delta": 0.05,
        })
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"ERROR 1: rotation_seed must be an integer, got {seed!r}\n"

    @pytest.mark.parametrize(
        "eigenvalues, field, value",
        [([1.0, NAN], "eigenvalues[1]", NAN), ([1.0, "nan"], "eigenvalues[1]", "nan"),
         ([INF, 0.5], "eigenvalues[0]", INF), (["1.0", "0.5"], "eigenvalues[0]", "1.0")],
    )
    def test_lowerbound_eigenvalues_exit_1_naming_the_entry(self, tmp_path, capsys, eigenvalues, field, value):
        doc = {"eigenvalues": eigenvalues, "n_samples": 1000, "trials": 300}
        cfg = write_json(tmp_path / "lb.json", doc)
        assert main(["lowerbound", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert_names_the_field(capsys, field, value, EIGEN)
        assert not (tmp_path / "o").exists()


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

    @pytest.mark.parametrize("field, value", [("n_samples", 1000.5), ("trials", 300.5), ("seed", 9.5)])
    def test_non_integer_field_exits_1_naming_it(self, tmp_path, capsys, field, value):
        doc = {"eigenvalues": [1.0, 0.5], "n_samples": 1000, "trials": 300}
        cfg = write_json(tmp_path / "lb.json", dict(doc, **{field: value}))
        assert main(["lowerbound", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"ERROR 1: {field} must be an integer, got {value}\n"

    @pytest.mark.parametrize(
        "field, value, message",
        [("n_samples", 0, "be at least 1, got 0"), ("trials", 0, "be at least 1, got 0"),
         ("delta", 0.0, "lie in [2.22507e-308, 1), got 0.0"), ("delta", 1.5, "lie in [2.22507e-308, 1), got 1.5"),
         ("C", "1.0", "lie in (0, inf), got '1.0'"), ("C", 0.0, "lie in (0, inf), got 0.0")],
    )
    def test_out_of_range_field_exits_1_naming_it(self, tmp_path, capsys, field, value, message):
        doc = {"eigenvalues": [1.0, 0.5], "n_samples": 1000, "trials": 300}
        cfg = write_json(tmp_path / "lb.json", dict(doc, **{field: value}))
        assert main(["lowerbound", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"ERROR 1: {field} must {message}\n"

    def test_string_delta_exits_1_naming_it(self, tmp_path, capsys):
        doc = {"eigenvalues": [1.0, 0.5], "n_samples": 1000, "trials": 300, "delta": "0.01"}
        cfg = write_json(tmp_path / "lb.json", doc)
        assert main(["lowerbound", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "ERROR 1: delta must lie in [2.22507e-308, 1), got '0.01'\n"

    @pytest.mark.parametrize("command", ["estimate", "simulate", "diagnose", "lowerbound"])
    @pytest.mark.parametrize("doc", [None, [1], "x"])
    def test_non_object_document_exits_1_naming_it(self, tmp_path, capsys, command, doc):
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"ERROR 1: config document {cfg} must be a JSON object, got {doc!r}\n"
        assert not (tmp_path / "o").exists()

    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "ERROR 1:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["estimate", "simulate", "diagnose", "lowerbound"])
    def test_no_format_flag(self, command, capsys):
        assert main([command, "--format", "json"]) == 1
        assert "unrecognized arguments: --format json" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["estimate", "diagnose", "lowerbound"])
    def test_threads_flag_only_on_simulate(self, tmp_path, capsys, command):
        # only simulate runs trials in parallel
        cfg = write_json(tmp_path / "cfg.json", {"distribution": GAUSS_2D, "n_total": 1800, "delta": 0.05})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "2"]) == 1
        assert capsys.readouterr().err == "ERROR 1: unrecognized arguments: --threads 2\n"
        assert not (tmp_path / "o").exists()


# one small valid document per command
COMMAND_DOCS = {
    "estimate": {"distribution": GAUSS_2D, "n_total": 1800, "delta": 0.05, "config": TINY_CONFIG},
    "simulate": scenario_doc(trials=1),
    "diagnose": {"distribution": GAUSS_2D, "n": 400, "small_ball": {"m": 4, "trials": 200}, "uniform": {"n_dirs": 3}},
    "lowerbound": {"eigenvalues": [1.0, 0.5], "trials": 100},
}


class TestEdgeValues:
    @pytest.mark.parametrize("command", list(COMMAND_DOCS))
    def test_huge_document_seed_runs(self, tmp_path, capsys, command):
        cfg = write_json(tmp_path / "cfg.json", dict(COMMAND_DOCS[command], seed=2**130))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""

    def test_huge_seed_flag_runs(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", COMMAND_DOCS["estimate"])
        assert main(["estimate", "--config", cfg, "--seed", str(2**200), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("command", ["estimate", "simulate", "lowerbound"])
    def test_subnormal_delta_exits_1_naming_it(self, tmp_path, capsys, command):
        # 1 / 5e-324 overflows; the floor is the least normal float
        doc = dict(COMMAND_DOCS[command], delta=5e-324)
        if command == "simulate":
            doc["estimators"] = BASELINES
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "ERROR 1: delta must lie in [2.22507e-308, 1), got 5e-324\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, doc, message",
        [("simulate", scenario_doc(n_total=0), "n_total must be at least 3, got 0"),
         ("simulate", scenario_doc(n_total=2), "n_total must be at least 3, got 2"),
         ("estimate", dict(COMMAND_DOCS["estimate"], config=dict(TINY_CONFIG, m0=-2)),
          "m0 must be at least 1, got -2")],
        ids=["n_total-0", "n_total-2", "m0--2"],
    )
    def test_integer_error_names_the_floor_and_the_value(self, tmp_path, capsys, command, doc, message):
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"ERROR 1: {message}\n"

    @pytest.mark.parametrize("key, value", [("directions", 300), ("refine_rounds", 1), ("refine_probes", 64)])
    @pytest.mark.parametrize("command", ["estimate", "simulate"])
    def test_retired_config_key_exits_1_naming_it(self, tmp_path, capsys, command, key, value):
        doc = COMMAND_DOCS[command]
        cfg = write_json(tmp_path / "cfg.json", dict(doc, config=dict(doc["config"], **{key: value})))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"ERROR 1: unknown config keys: ['{key}']\n"
        assert not (tmp_path / "o").exists()
