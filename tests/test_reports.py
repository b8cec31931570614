"""Reports serialize by one rule: a dataclass is written as its fields.

Each check compares ``write_report`` bytes with the path it replaced: the
hand-written serializer (``naive_oracles.oracle_*``) run through
``_jsonable`` and the same ``json.dumps`` call, or, for the trial table,
the column-filling loop and the same CSV cell formatting.
"""

import json
import math

import numpy as np
import pytest

from dirmean import (
    BlockPlan,
    DistributionSpec,
    PipelineConfig,
    Scenario,
    SpectrumSpec,
    TrialTable,
    check_ratio_conditions,
    empirical_mean_lower_bound,
    estimate_mean,
    make_ground_truth,
    marginal_oracle,
    per_direction_quantiles,
    plan_mean_blocks,
    plan_variance_blocks,
    run_trials,
    sample_dataset,
    sample_marginal,
    small_ball_check,
    write_report,
)
from dirmean.harness import _csv_cell, _jsonable
from naive_oracles import (
    oracle_block_plan_dict,
    oracle_lower_bound_dict,
    oracle_mean_estimate_dict,
    oracle_per_direction_summary_dict,
    oracle_ratio_condition_dict,
    oracle_small_ball_dict,
    oracle_trial_rows,
)

TINY_CONFIG = PipelineConfig(m0=1, theta_var=0.25, theta_mean=0.125)


def gaussian_gt(eigs, mean=None):
    mean = tuple(mean) if mean is not None else (0.0,) * len(eigs)
    return make_ground_truth(DistributionSpec("gaussian", SpectrumSpec(tuple(eigs)), mean=mean))


def written(report, tmp_path, format="json"):
    path = tmp_path / f"report.{format}"
    write_report(report, str(path))
    return path.read_bytes()


def parent_json(doc) -> bytes:
    return (json.dumps(_jsonable(doc), sort_keys=True, indent=2) + "\n").encode()


def parent_csv(columns, rows) -> bytes:
    lines = [",".join(columns)] + [",".join(_csv_cell(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


class TestNumpyValues:
    @pytest.mark.parametrize(
        "value, plain",
        [
            (np.float64(0.1), 0.1),
            (np.float32(0.1), float(np.float32(0.1))),
            (np.int64(-3), -3),
            (np.uint8(7), 7),
            (np.bool_(True), True),
            (np.array(2.5), 2.5),
            (np.array(False), False),
            (np.array([[1, 2], [3, 4]]), [[1, 2], [3, 4]]),
            (np.array([[0.5, -0.0]]), [[0.5, -0.0]]),
            ({"a": np.arange(3), "b": (np.float64(1e-300), np.int32(2))}, {"a": [0, 1, 2], "b": [1e-300, 2]}),
        ],
        ids=["float64", "float32", "int64", "uint8", "bool_", "0d-float", "0d-bool", "2d-int", "2d-float", "nested"],
    )
    def test_same_json_as_the_python_value(self, value, plain):
        assert json.dumps(_jsonable(value)) == json.dumps(plain)
        assert type(_jsonable(value)) is type(plain)


class TestDataclassReports:
    @pytest.mark.parametrize(
        "plan",
        [plan_mean_blocks(10**4, 0.01), plan_variance_blocks(2 * 10**4)],
        ids=["mean", "variance"],
    )
    def test_block_plan(self, tmp_path, plan):
        assert written(plan, tmp_path) == parent_json(oracle_block_plan_dict(plan))

    @pytest.mark.parametrize(
        "config, feasible",
        [
            (PipelineConfig(), True),
            (PipelineConfig(C_prime=0.05), False),
        ],
        ids=["feasible", "infeasible"],
    )
    def test_mean_estimate(self, tmp_path, config, feasible):
        gt = gaussian_gt(np.geomspace(1.0, 1e-2, 5), mean=(1.0, -2.0, 0.5, 0.0, 3.0))
        est = estimate_mean(sample_dataset(gt, 3 * 10**4, 21), 0.01, config, seed=3)
        assert (est.rho_star == 0.0) == feasible
        assert type(est.probe_violation) is float
        text = written(est, tmp_path)
        assert text == parent_json(oracle_mean_estimate_dict(est))
        assert b"slabs" not in text

    def test_ratio_conditions(self, tmp_path):
        gt = gaussian_gt([1.0, 0.5])
        u = np.eye(2)[0]
        rep = check_ratio_conditions(sample_marginal(gt, u, 4000, 5), marginal_oracle(gt, u), 0.005, 0.035)
        assert written(rep, tmp_path) == parent_json(oracle_ratio_condition_dict(rep))

    def test_small_ball(self, tmp_path):
        rep = small_ball_check(gaussian_gt([1.0, 0.5]), m=4, gamma=1, trials=1000, seed=6)
        assert written(rep, tmp_path) == parent_json(oracle_small_ball_dict(rep))

    def test_lower_bound_leaves_out_the_statistics(self, tmp_path):
        rep = empirical_mean_lower_bound(
            SpectrumSpec(tuple(1.0 / np.arange(1, 31))), n_samples=1000, delta=0.05,
            c_assumed=1, trials=300, seed=9,
        )
        text = written(rep, tmp_path)
        assert text == parent_json(oracle_lower_bound_dict(rep))
        assert b"top_stats" not in text and b"complement_stats" not in text

    def test_summary_with_infinite_ratio(self, tmp_path):
        # a zero bound with a positive error: the ratio and fitted constant are inf
        sc = Scenario(
            distribution=DistributionSpec("gaussian", SpectrumSpec((1.0, 1.0)), mean=(0.0, 0.0)),
            n_total=300, delta=0.1, trials=4, estimators=("empirical-mean",), probes=2,
        )
        errors = np.arange(1.0, 9.0).reshape(4, 1, 2)
        table = TrialTable(sc, np.eye(2), errors, np.ones(2), np.zeros(2), 0.0, 0.0, k1=3, k2=10)
        summary = per_direction_quantiles(table, 0.25)
        assert summary.fitted_constants["empirical-mean"]["C_hat_k1"] == math.inf
        text = written(summary, tmp_path)
        assert text == parent_json(oracle_per_direction_summary_dict(summary))
        assert b"Infinity" in text

    def test_nested_reports_in_a_dict(self, tmp_path):
        sc = Scenario(
            distribution=DistributionSpec("gaussian", SpectrumSpec((1.0,)), mean=(0.0,)),
            n_total=300, delta=0.1, trials=2, probes=3,
        )
        plan = plan_mean_blocks(10**4, 0.01)
        got = written({"scenario": sc, "plan": plan}, tmp_path)
        assert got == parent_json({"scenario": sc.to_json_dict(), "plan": oracle_block_plan_dict(plan)})

    @pytest.mark.parametrize("report", [[1, 2], np.zeros(3), object(), BlockPlan], ids=repr)
    def test_neither_dict_nor_dataclass_instance_rejected(self, tmp_path, report):
        with pytest.raises(ValueError, match="cannot serialize"):
            write_report(report, str(tmp_path / "r.json"))


class TestTrialTable:
    SCENARIO = Scenario(
        distribution=DistributionSpec("elliptical-student", SpectrumSpec((1.0, 0.25)), mean=(0.5, -1.0), dof=5.0),
        n_total=1800, delta=0.05, trials=3,
        estimators=("median-of-means", "dirmean", "empirical-mean"), probes=5, seed=11, config=TINY_CONFIG,
    )

    def test_csv_matches_column_fill(self, tmp_path):
        table = run_trials(self.SCENARIO)
        rows = oracle_trial_rows(self.SCENARIO)
        assert list(table.csv_rows()) == rows
        assert written(table, tmp_path, "csv") == parent_csv(table.csv_columns, rows)

    def test_dense_layout(self):
        sc = self.SCENARIO
        table = run_trials(sc)
        assert table.errors.shape == (sc.trials, len(sc.estimators), 5)
        assert table.sigma_u.shape == table.weak_term.shape == (5,)
        assert isinstance(table.strong_term_k1, float) and isinstance(table.strong_term_k2, float)
        assert len(table) == sc.trials * len(sc.estimators) * 5
        for e, name in enumerate(sc.estimators):
            assert np.array_equal(table.select(name), table.errors[:, e])
