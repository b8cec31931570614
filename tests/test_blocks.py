import numpy as np
import pytest

from dirmean import (
    PipelineConfig,
    SizingError,
    block_averages,
    pair_block_averages,
    pair_differences,
    plan_blocks,
)


class TestPairDifferences:
    def test_single_pair(self):
        out = pair_differences(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.array_equal(out, [[1.0, -1.0]])

    def test_identical_halves_zero(self):
        rows = np.vstack([np.arange(6.0).reshape(3, 2)] * 2)
        assert np.all(pair_differences(rows) == 0.0)

    def test_rejects_odd_count(self):
        with pytest.raises(ValueError):
            pair_differences(np.ones((3, 2)))

    def test_covariance_doubles(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((2 * 10**5, 2))
        diffs = pair_differences(rows)
        emp = np.cov(diffs.T, bias=True)
        assert np.max(np.abs(emp - 2.0 * np.eye(2))) < 0.05


class TestBlockAverages:
    def test_m1_identity(self):
        rows = np.arange(8.0).reshape(4, 2)
        assert np.array_equal(block_averages(rows, 1), rows)

    def test_sqrt_scaling(self):
        out = block_averages(np.array([[2.0], [4.0], [6.0], [8.0]]), 4)
        assert np.array_equal(out, [[10.0]])  # 20 / sqrt(4)

    def test_linearity_identity(self):
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((20, 3))
        m = 4
        z = block_averages(rows, m)
        lhs = z.mean(axis=0)
        rhs = np.sqrt(m) * rows[:20].mean(axis=0)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_discards_trailing_rows(self):
        rows = np.arange(14.0).reshape(7, 2)
        assert block_averages(rows, 3).shape == (2, 2)

    def test_rejects_oversized_block(self):
        with pytest.raises(ValueError):
            block_averages(np.ones((3, 2)), 4)

    def test_covariance_preserved_after_differencing(self):
        rng = np.random.default_rng(2)
        rows = rng.standard_normal((2 * 10**5, 2))
        z = block_averages(pair_differences(rows), 10)
        assert abs(z.mean(axis=0)).max() < 5 * np.sqrt(2.0 / z.shape[0])
        emp = np.cov(z.T, bias=True)
        assert np.max(np.abs(emp - 2.0 * np.eye(2))) < 5 * 2.0 * np.sqrt(2.0 / z.shape[0])


class TestPairBlockAverages:
    def test_default_count_is_every_full_block(self):
        rows = np.random.default_rng(3).standard_normal((2 * 107, 3))
        for m in (1, 2, 5, 107):
            expected = block_averages(pair_differences(rows), m)
            assert np.array_equal(pair_block_averages(rows, m), expected)

    def test_first_n_blocks_only(self):
        rows = np.random.default_rng(4).standard_normal((2 * 100, 2))
        z = pair_block_averages(rows, 7, 4)
        assert np.array_equal(z, block_averages(pair_differences(rows), 7)[:4])

    def test_rejects_odd_count(self):
        with pytest.raises(ValueError, match="even row count"):
            pair_block_averages(np.ones((7, 2)), 1)

    def test_rejects_bad_block_geometry(self):
        rows = np.ones((20, 2))
        with pytest.raises(ValueError, match="block size must be >= 1"):
            pair_block_averages(rows, 0)
        with pytest.raises(ValueError, match="exceeds row count"):
            pair_block_averages(rows, 11)
        for n in (0, 4):
            with pytest.raises(ValueError, match="do not fit"):
                pair_block_averages(rows, 3, n)


class TestPlanBlocks:
    def test_mean_purpose_pinned_example(self):
        plan = plan_blocks(10**4, 0.01, 1.0 / 8.0, "mean", PipelineConfig(c_blocks=8.0))
        assert plan.n == 48  # smallest multiple of 8 over ceil(8 log(e/delta)) = 45
        assert plan.m == 208
        assert plan.discarded == 16
        assert plan.trim_per_side == 6

    def test_variance_purpose_block_size(self):
        cfg = PipelineConfig(gamma=0.05, c1=1.0)
        plan = plan_blocks(20_000, None, 0.02, "variance", cfg)
        assert plan.m == 400  # ceil(1 / 0.05^2)
        assert plan.n == 50
        assert plan.discarded == 0

    def test_variance_enlarges_block_not_count(self):
        cfg = PipelineConfig(gamma=0.05, c1=1.0)
        plan = plan_blocks(39_999, None, 0.02, "variance", cfg)
        assert plan.n == 50  # 99 raw blocks floored to a multiple of 50
        assert plan.m == 799
        assert plan.discarded < plan.m

    def test_trim_count_integral(self):
        plan = plan_blocks(5000, 0.05, 1.0 / 8.0, "mean")
        assert plan.theta * plan.n == pytest.approx(plan.trim_per_side)
        assert plan.trim_per_side >= 1

    def test_infeasible_mean_names_minimal_n(self):
        with pytest.raises(SizingError) as err:
            plan_blocks(30, 0.01, 1.0 / 8.0, "mean")
        assert err.value.minimal_n == 48
        plan = plan_blocks(err.value.minimal_n, 0.01, 1.0 / 8.0, "mean")
        assert plan.n == 48 and plan.m == 1

    def test_infeasible_variance_names_minimal_n(self):
        with pytest.raises(SizingError) as err:
            plan_blocks(300, None, 0.02, "variance", PipelineConfig(gamma=0.1))
        assert err.value.minimal_n == 100 * 50

    def test_mean_blocks_nondecreasing_in_confidence(self):
        deltas = [0.2, 0.1, 0.05, 0.01, 0.001]
        ns = [plan_blocks(10**5, d, 1.0 / 8.0, "mean").n for d in deltas]
        assert all(a <= b for a, b in zip(ns, ns[1:]))

    def test_deterministic_and_total_on_feasible_domain(self):
        for n_rows in range(5000, 5200):
            a = plan_blocks(n_rows, 0.01, 1.0 / 8.0, "mean")
            b = plan_blocks(n_rows, 0.01, 1.0 / 8.0, "mean")
            assert a == b
            assert a.discarded < a.n
            assert a.used + a.discarded == n_rows

    def test_discard_below_block_size_at_default_scales(self):
        for n_rows in (10**4, 3 * 10**4, 10**5):
            plan = plan_blocks(n_rows, 0.01, 1.0 / 8.0, "mean")
            assert plan.discarded < plan.m
        for n_rows in (10**4, 2 * 10**4, 41_234):
            plan = plan_blocks(n_rows, None, 0.02, "variance")
            assert plan.discarded < plan.m

    def test_rejects_incompatible_theta(self):
        with pytest.raises(ValueError):
            plan_blocks(10**4, 0.01, 0.03, "mean")  # 0.03 * 34 is not integral

    def test_rejects_unknown_purpose(self):
        with pytest.raises(ValueError):
            plan_blocks(10**4, 0.01, 0.125, "median")
