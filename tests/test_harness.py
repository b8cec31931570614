import json
import math
import os
import re

import numpy as np
import pytest
from scipy import stats

from dirmean import (
    DistributionSpec,
    Scenario,
    SpectrumSpec,
    baseline_empirical_mean,
    baseline_median_of_means,
    empirical_mean_lower_bound,
    per_direction_quantiles,
    probe_directions,
    run_trials,
    write_report,
)
from dirmean.rng import stream
from naive_oracles import oracle_empirical_mean, oracle_fsum_block_averages, oracle_median_of_means, summation_bound


def gaussian_scenario(**kwargs):
    defaults = dict(
        distribution=DistributionSpec("gaussian", SpectrumSpec((1.0, 1.0)), mean=(0.0, 0.0)),
        n_total=300,
        delta=0.1,
        trials=3,
        estimators=("empirical-mean",),
        seed=17,
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


def exact_block_means(rows, k_blocks):
    """The exact means of ``k_blocks`` contiguous blocks of ``len(rows) //
    k_blocks`` rows, and the summation bound on each."""
    m = rows.shape[0] // k_blocks
    scale = math.sqrt(m)
    return oracle_fsum_block_averages(m, k_blocks, rows) / scale, summation_bound(rows, m, k_blocks) / scale


class TestBaselines:
    def test_empirical_mean(self):
        assert np.array_equal(
            baseline_empirical_mean(np.array([[0.0, 0.0], [2.0, 2.0]])), [1.0, 1.0]
        )

    def test_single_row(self):
        assert np.array_equal(baseline_empirical_mean(np.array([[3.0, 4.0]])), [3.0, 4.0])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((50, 3))
        perm = rng.permutation(50)
        assert np.allclose(
            baseline_empirical_mean(rows), baseline_empirical_mean(rows[perm]), atol=1e-12
        )

    def test_mom_single_block_is_mean(self):
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((30, 2))
        assert np.allclose(baseline_median_of_means(rows, 1), rows.mean(axis=0))

    def test_mom_median_of_block_means(self):
        rows = np.concatenate([np.zeros(4), np.zeros(4), np.full(4, 100.0)])[:, None]
        assert baseline_median_of_means(rows, 3)[0] == 0.0

    def test_mom_rejects_too_many_blocks(self):
        with pytest.raises(ValueError):
            baseline_median_of_means(np.ones((5, 1)), 6)

    def test_mom_deterministic(self):
        rng = np.random.default_rng(2)
        rows = rng.standard_normal((40, 2))
        assert np.array_equal(
            baseline_median_of_means(rows, 7), baseline_median_of_means(rows, 7)
        )


class TestBaselineKernels:
    """Both baselines are block sums over a count, summed by the estimator's
    kernel.  At d = 1 that is numpy's pairwise sum, so the bytes are those of
    numpy's mean; at d >= 2 each block mean lies within the summation bound
    of the exact one (math.fsum)."""

    @pytest.mark.parametrize("d", [1, 2, 3, 10, 50])
    @pytest.mark.parametrize("n_rows", [1, 7, 1000, 10_001])
    def test_empirical_mean_matches_numpy_mean(self, d, n_rows):
        rows = np.random.default_rng(d * n_rows).standard_t(3, size=(n_rows, d))
        rows[:, 0] = -0.0
        got = baseline_empirical_mean(rows)
        if d == 1:
            expected = oracle_empirical_mean(rows)
            assert np.array_equal(got, expected) and np.array_equal(np.signbit(got), np.signbit(expected))
        else:
            exact, bound = exact_block_means(rows, 1)
            assert np.all(np.abs(got - exact[0]) <= bound[0])

    @pytest.mark.parametrize("d", [1, 2, 3, 10, 50])
    @pytest.mark.parametrize("n_rows, k_blocks", [(1, 1), (40, 7), (1000, 37), (10_001, 1), (10_001, 10_001)])
    def test_median_of_means_matches_numpy_means(self, d, n_rows, k_blocks):
        rows = np.random.default_rng(d + n_rows + k_blocks).standard_t(3, size=(n_rows, d))
        got = baseline_median_of_means(rows, k_blocks)
        if d == 1:
            assert np.array_equal(got, oracle_median_of_means(rows, k_blocks))
        else:
            # the median is 1-Lipschitz: it moves at most as far as the
            # farthest block mean
            exact, bound = exact_block_means(rows, k_blocks)
            assert np.all(np.abs(got - np.median(exact, axis=0)) <= bound.max(axis=0))


class TestRunTrials:
    def test_row_count(self):
        sc = gaussian_scenario(estimators=("empirical-mean", "median-of-means"), probes=5)
        table = run_trials(sc)
        assert len(table) == sc.trials * 2 * 5

    def test_constant_data_zero_errors(self):
        spec = DistributionSpec("gaussian", SpectrumSpec((0.0, 0.0)), mean=(1.0, 2.0))
        sc = gaussian_scenario(distribution=spec)
        table = run_trials(sc)
        assert np.allclose(table.errors, 0.0, atol=1e-12)

    def test_deterministic_bytes(self, tmp_path):
        sc = gaussian_scenario()
        t1 = run_trials(sc)
        t2 = run_trials(sc)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report(t1, str(p1))
        write_report(t2, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_thread_count_invariance(self):
        sc = gaussian_scenario(trials=6)
        serial = run_trials(sc, threads=1)
        parallel = run_trials(sc, threads=4)
        assert np.array_equal(serial.errors, parallel.errors)

    def test_probe_set_layout(self):
        probes = probe_directions(3, 8, seed=0)
        assert probes.shape == (8, 3)
        assert np.array_equal(probes[:3], np.eye(3))
        assert np.array_equal(probes[3:6], -np.eye(3))
        assert np.allclose(np.linalg.norm(probes, axis=1), 1.0, atol=1e-12)

    def test_probe_fill_is_normalized_gaussian_rows(self):
        # the shared sampler divides in place; the bytes equal the out-of-place formula
        g = stream(5, "probe-directions").standard_normal((4, 3))
        assert np.array_equal(probe_directions(3, 10, seed=5)[6:], g / np.linalg.norm(g, axis=1, keepdims=True))

    def test_empirical_mean_errors_match_gaussian_law(self):
        # exact sampling law: errors along unit directions are N(0, 1/rows)
        d = 5
        sc = gaussian_scenario(
            distribution=DistributionSpec("gaussian", SpectrumSpec((1.0,) * d), mean=(0.0,) * d),
            n_total=3000,
            trials=100,
            probes=10,
            delta=0.01,
            seed=23,
        )
        table = run_trials(sc)
        errs = table.select("empirical-mean")
        scale = 1.0 / math.sqrt(3000)
        for j in range(errs.shape[1]):
            p = stats.kstest(errs[:, j] / scale, "norm").pvalue
            assert p > 0.01


class TestScenarioChecks:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_total", 300.0),
            ("n_total", 2),
            ("trials", 2.5),
            ("trials", False),
            ("probes", 4.5),
            ("seed", 0.5),
            ("delta", 0.0),
            ("delta", 1.0),
            ("delta", math.nan),
            ("delta", "0.1"),
            ("estimators", ("empirical-mean", "empirical-mean")),
        ],
    )
    def test_rejected_with_field_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            gaussian_scenario(**{field: value})

    def test_numpy_scalars_accepted(self):
        sc = gaussian_scenario(n_total=np.int64(300), trials=np.int64(2), delta=np.float64(0.1), probes=np.int64(4))
        assert sc.n_probes == 4 and run_trials(sc).errors.shape == (2, 1, 4)


class TestPerDirectionQuantiles:
    def test_zero_errors_zero_quantiles(self):
        spec = DistributionSpec("gaussian", SpectrumSpec((0.0, 0.0)), mean=(0.0, 0.0))
        table = run_trials(gaussian_scenario(distribution=spec, trials=20))
        summary = per_direction_quantiles(table, 0.05)
        assert all(row["quantile"] == 0.0 for row in summary.rows)

    def test_median_at_half(self):
        sc = gaussian_scenario(trials=21, probes=4)
        table = run_trials(sc)
        summary = per_direction_quantiles(table, 0.5)
        errs = table.select("empirical-mean")
        for row in summary.rows:
            want = np.sort(errs[:, row["dir_index"]])[math.ceil(0.5 * 21) - 1]
            assert row["quantile"] == pytest.approx(want)

    def test_flagged_when_too_few_trials(self):
        sc = gaussian_scenario(trials=5)
        table = run_trials(sc)
        summary = per_direction_quantiles(table, 0.01)  # needs >= 100 trials
        assert summary.quantile_flagged
        errs = table.select("empirical-mean")
        for row in summary.rows:
            assert row["quantile"] == errs[:, row["dir_index"]].max()


class TestLowerBound:
    def test_k0_formula(self):
        rep = empirical_mean_lower_bound(
            SpectrumSpec((1.0,) * 20), n_samples=100, delta=math.exp(-1.0),
            c_assumed=1.0, trials=200, seed=0,
        )
        assert rep.k0 == pytest.approx(1.0 + (2.0 + math.sqrt(2.0)) ** 2)
        assert rep.k == 12

    def test_small_dimension_empty_complement(self):
        rep = empirical_mean_lower_bound(
            SpectrumSpec((1.0, 1.0)), n_samples=100, delta=0.01, c_assumed=1.0, trials=100, seed=1
        )
        assert rep.k == 2
        assert np.array_equal(rep.complement_stats, np.zeros(100))
        assert rep.complement_quantile == rep.complement_sampled_quantile == 0.0
        assert rep.strong_term_proxy == rep.tail_sum == 0.0

    def test_top_statistic_matches_chi_distribution(self):
        rep = empirical_mean_lower_bound(
            SpectrumSpec((1.0,) * 30), n_samples=100, delta=math.exp(-1.0),
            c_assumed=1.0, trials=10_000, seed=2,
        )
        p = stats.kstest(rep.top_stats, stats.chi(rep.k).cdf).pvalue
        assert p > 0.01

    @pytest.mark.parametrize(
        "field, args",
        [("n_samples", (100.5, 0.05, 10)), ("n_samples", (0, 0.05, 10)), ("trials", (100, 0.05, 10.0)),
         ("delta", (100, 1.0, 10))],
    )
    def test_rejects_bad_sizes_naming_the_field(self, field, args):
        n_samples, delta, trials = args
        with pytest.raises(ValueError, match=field):
            empirical_mean_lower_bound(SpectrumSpec((1.0, 0.5)), n_samples, delta, 1.0, trials, 0)

    def test_sampled_supremum_lower_bounds_exact(self):
        rep = empirical_mean_lower_bound(
            SpectrumSpec(tuple(1.0 / np.arange(1, 41))), n_samples=100, delta=0.05,
            c_assumed=0.5, trials=500, seed=3,
        )
        assert rep.complement_sampled_quantile <= rep.complement_quantile + 1e-12


class TestWriteReport:
    def test_json_round_trip(self, tmp_path):
        doc = {"b": 1.5, "a": [1, 2, 3], "c": {"x": True}}
        path = tmp_path / "r.json"
        write_report(doc, str(path))
        assert json.loads(path.read_text()) == doc

    def test_byte_stable(self, tmp_path):
        doc = {"values": [0.1, 0.2, 1e-17], "n": 12}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_report(doc, str(p1))
        write_report(doc, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_format_rejected(self, tmp_path):
        path = str(tmp_path / "x.xml")
        with pytest.raises(ValueError, match=f"^cannot tell the report format of {re.escape(path)}: "):
            write_report({}, path)
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("name", ["x", "x.json.tmp", "x.JSON"])
    def test_a_path_without_json_or_csv_extension_rejected(self, tmp_path, name):
        with pytest.raises(ValueError, match="its extension must be .json or .csv$"):
            write_report({}, str(tmp_path / name))

    def test_csv_requires_table(self, tmp_path):
        with pytest.raises(ValueError):
            write_report({"a": 1}, str(tmp_path / "x.csv"))

    def test_scenario_json_round_trip(self):
        sc = gaussian_scenario(probes=7)
        doc = sc.to_json_dict()
        assert Scenario.from_json_dict(json.loads(json.dumps(doc))) == sc
