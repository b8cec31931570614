import os
import subprocess
import sys

import numpy as np
import pytest

from dirmean import (
    PipelineConfig,
    SizingError,
    baseline_empirical_mean,
    baseline_median_of_means,
    block_averages,
    fit_marginal,
    fit_variance,
    pair_block_averages,
    plan_mean_blocks,
    plan_variance_blocks,
    trim_count,
)
from dirmean.blocks import NonFiniteRowError, block_sums
from naive_oracles import oracle_fsum_block_averages, pair_differences, summation_bound

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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
        # blocks of one row go through the general block sums, which return
        # each row, and each pair difference, byte for byte
        for d in (1, 2, 50):
            rows = np.random.default_rng(d).standard_t(3, size=(41, d))
            assert block_averages(rows, 1).tobytes() == rows.tobytes()
            assert pair_block_averages(rows[:40], 1).tobytes() == (rows[:20] - rows[20:40]).tobytes()

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
        with pytest.raises(ValueError, match=r"^m must be at least 1, got 0$"):
            pair_block_averages(rows, 0)
        with pytest.raises(ValueError, match="exceeds row count"):
            pair_block_averages(rows, 11)
        for n in (0, 4):
            with pytest.raises(ValueError, match="do not fit"):
                pair_block_averages(rows, 3, n)


@pytest.mark.parametrize(
    "name, call",
    [
        ("n_rows", lambda rows, v: plan_mean_blocks(v, 0.01)),
        ("n_pairs", lambda rows, v: plan_variance_blocks(v)),
        ("m", lambda rows, v: block_averages(rows, v)),
        ("m", lambda rows, v: pair_block_averages(rows, v)),
        ("n", lambda rows, v: pair_block_averages(rows, 3, v)),
        ("k_blocks", lambda rows, v: baseline_median_of_means(rows, v)),
    ],
    ids=["plan_blocks", "plan_variance_blocks", "block_averages", "pair_block_averages-m", "pair_block_averages-n",
         "median_of_means"],
)
@pytest.mark.parametrize("value", [1000.0, 2.5, 2.0, True])
def test_block_arguments_must_be_integers(name, call, value):
    rows = np.random.default_rng(6).standard_normal((20, 3))
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call(rows, value)


class TestBlasBlockAccuracy:
    """Both estimator kernels sum a block with BLAS products: every block
    average lies within the summation bound of the exact one.  At d = 50
    (m = 2083) and d = 200 (m >= 400) a block spans several BLAS panels."""

    @pytest.mark.parametrize("d", [1, 2, 50, 200])
    @pytest.mark.parametrize("m", [2, 3, 100, 2083])
    def test_block_averages_within_bound(self, d, m):
        rows = np.random.default_rng(d * m).standard_t(3, size=(3 * m + 1, d)) + 2.0
        exact = oracle_fsum_block_averages(m, 3, rows)
        assert np.all(np.abs(block_averages(rows, m) - exact) <= summation_bound(rows, m, 3))

    @pytest.mark.parametrize("d", [1, 2, 50, 200])
    @pytest.mark.parametrize("m", [2, 3, 100, 2083])
    def test_pair_block_averages_within_bound(self, d, m):
        rows = np.random.default_rng(d * m + 1).standard_t(3, size=(2 * (3 * m + 1), d)) + 2.0
        first, second = rows[: 3 * m + 1], rows[3 * m + 1 :]
        exact = oracle_fsum_block_averages(m, 3, first, -second)
        got = pair_block_averages(rows, m)
        assert np.all(np.abs(got - exact) <= summation_bound(first - second, m, 3))

    @pytest.mark.parametrize("d, m", [(2, 3), (50, 3), (200, 400)])
    def test_block_of_negative_zeros_sums_to_positive_zero(self, d, m):
        # a BLAS sum starts from +0.0; the baselines sum with the same kernel
        rows = np.vstack([np.full((m, d), -0.0), np.full((m, d), 0.0)])
        sums = (
            block_averages(rows, m)[:1],
            pair_block_averages(rows, m),
            baseline_empirical_mean(rows[:m]),
            baseline_median_of_means(rows[:m], 1),
        )
        for got in sums:
            assert np.all(got == 0.0) and not np.signbit(got).any()

    @pytest.mark.parametrize("d", [2, 200])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_row_is_named(self, d, value):
        # 4 blocks of m = 400 rows in both stages; at d = 200 row 350 of a
        # block is in its second BLAS panel
        m = 400
        config = PipelineConfig(m0=m, theta_var=0.25, theta_mean=0.25, c_blocks=1.0)
        rows = np.random.default_rng(d).standard_normal((8 * m, d))
        for bad in (2 * m + 350, 5 * m + 350):
            bad_rows = rows.copy()
            bad_rows[bad, d // 2] = value
            with pytest.raises(NonFiniteRowError) as err:
                fit_variance(bad_rows, config)
            assert err.value.row == bad
        rows[2 * m + 350, d // 2] = value
        with pytest.raises(NonFiniteRowError) as err:
            fit_marginal(rows[: 4 * m], 0.5, config)
        assert err.value.row == 2 * m + 350


THREADS_SCRIPT = """
import sys
import numpy as np
import dirmean
# 4 mean and 4 variance blocks of 10000 x 50 rows: 500 000 entries each,
# more than OpenBLAS sums in one thread when asked for two
rows = np.random.default_rng(5).standard_t(3, size=(120_000, 50))
config = dirmean.PipelineConfig(m0=10_000, theta_var=0.25, theta_mean=0.25, c_blocks=1.0)
marg = dirmean.fit_marginal(rows[:40_000], 0.5, config)
var = dirmean.fit_variance(rows[40_000:], config)
assert (marg.plan.n, marg.plan.m, var.plan.n, var.plan.m) == (4, 10_000, 4, 10_000)
est = dirmean.estimate_mean(rows, 0.5, config, seed=3)
mean = dirmean.baseline_empirical_mean(rows)
mom = dirmean.baseline_median_of_means(rows, 4)
# d = 200 from 3N = 3e4 rows: 50 x 200 variance blocks, so the learned
# directions take the wide Gram, and at C_prime = 0.05 the slab system is
# infeasible, so they move mu_hat
d = 200
spec = dirmean.DistributionSpec("elliptical-student", dirmean.SpectrumSpec(tuple(np.geomspace(1.0, 1e-3, d))),
                                (0.0,) * d, dof=3.0)
wide_rows = dirmean.sample_dataset(dirmean.make_ground_truth(spec), 30_000, 0)
wide = dirmean.estimate_mean(wide_rows, 0.01, dirmean.PipelineConfig(C_prime=0.05), seed=0)
assert wide.block_plan_var.n < d and wide.iterations > 0
np.savez(
    sys.argv[1], Y=marg.Y, Z=var.Z, mu_hat=est.mu_hat, rho_star=est.rho_star, iterations=est.iterations, mean=mean, mom=mom,
    wide_mu_hat=wide.mu_hat, wide_rho_star=wide.rho_star, wide_iterations=wide.iterations,
)
"""


def test_blas_thread_count_keeps_the_bytes(tmp_path):
    results = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}.npz"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", THREADS_SCRIPT, str(out)], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        results.append(np.load(out))
    for key in ("Y", "Z", "mu_hat", "rho_star", "iterations", "mean", "mom", "wide_mu_hat", "wide_rho_star",
                "wide_iterations"):
        assert results[0][key].tobytes() == results[1][key].tobytes(), key


class TestTrimCount:
    def test_rounds_halves_away_from_zero(self):
        # round() would give 2 at 2.5: the count rounds up at every half
        assert [trim_count(0.25, n) for n in (6, 10, 14)] == [2, 3, 4]
        assert trim_count(0.1, 4) == 0 and trim_count(0.125, 48) == 6


class TestPlanBlocks:
    def test_mean_purpose_pinned_example(self):
        plan = plan_mean_blocks(10**4, 0.01, PipelineConfig(c_blocks=8.0))
        assert plan.n == 48  # smallest multiple of 8 over ceil(8 log(e/delta)) = 45
        assert plan.m == 208
        assert plan.discarded == 16
        assert plan.trim_per_side == 6

    def test_variance_purpose_block_size(self):
        cfg = PipelineConfig(m0=400)
        plan = plan_variance_blocks(20_000, cfg)
        assert plan.m == 400
        assert plan.n == 50
        assert plan.discarded == 0

    def test_variance_enlarges_block_not_count(self):
        cfg = PipelineConfig(m0=400)
        plan = plan_variance_blocks(39_999, cfg)
        assert plan.n == 50  # 99 raw blocks floored to a multiple of 50
        assert plan.m == 799
        assert plan.discarded < plan.m

    def test_trim_count_integral(self):
        plan = plan_mean_blocks(5000, 0.05)
        assert plan.theta * plan.n == pytest.approx(plan.trim_per_side)
        assert plan.trim_per_side >= 1

    def test_infeasible_mean_names_minimal_n(self):
        with pytest.raises(SizingError) as err:
            plan_mean_blocks(30, 0.01)
        assert err.value.minimal_n == 48
        plan = plan_mean_blocks(err.value.minimal_n, 0.01)
        assert plan.n == 48 and plan.m == 1

    def test_infeasible_variance_names_minimal_n(self):
        with pytest.raises(SizingError) as err:
            plan_variance_blocks(300)
        assert err.value.minimal_n == 100 * 50

    def test_mean_blocks_nondecreasing_in_confidence(self):
        deltas = [0.2, 0.1, 0.05, 0.01, 0.001]
        ns = [plan_mean_blocks(10**5, d).n for d in deltas]
        assert all(a <= b for a, b in zip(ns, ns[1:]))

    def test_deterministic_and_total_on_feasible_domain(self):
        for n_rows in range(5000, 5200):
            a = plan_mean_blocks(n_rows, 0.01)
            b = plan_mean_blocks(n_rows, 0.01)
            assert a == b
            assert a.discarded < a.n
            assert a.used + a.discarded == n_rows

    def test_discard_below_block_size_at_default_scales(self):
        for n_rows in (10**4, 3 * 10**4, 10**5):
            plan = plan_mean_blocks(n_rows, 0.01)
            assert plan.discarded < plan.m
        for n_rows in (10**4, 2 * 10**4, 41_234):
            plan = plan_variance_blocks(n_rows)
            assert plan.discarded < plan.m

    def test_rejects_incompatible_theta(self):
        # 0.03 * 34 is not integral: the config is refused before any plan is made
        with pytest.raises(ValueError, match=r"^theta_mean = 0.03 does not make"):
            plan_mean_blocks(10**4, 0.01, PipelineConfig(theta_mean=0.03))

    def test_each_planner_reads_its_own_trim_fraction(self):
        config = PipelineConfig(m0=10, theta_var=0.05, theta_mean=0.25, c_blocks=4.0)
        mean_plan, var_plan = plan_mean_blocks(10**4, 0.01, config), plan_variance_blocks(10**4, config)
        assert (mean_plan.purpose, mean_plan.theta, mean_plan.n, mean_plan.trim_per_side) == ("mean", 0.25, 24, 6)
        assert (var_plan.purpose, var_plan.theta, var_plan.n, var_plan.trim_per_side) == ("variance", 0.05, 1000, 50)


class TestBlockSums:
    """block_sums is x3.sum(axis=1) to the bit at d = 1 (numpy's pairwise
    sum), and within the summation bound of it at d >= 2 (BLAS panels)."""

    @pytest.mark.parametrize("d", [1, 2, 3, 10, 50, 200])
    @pytest.mark.parametrize("m", [1, 2, 3, 100, 2083])
    @pytest.mark.parametrize("n", [1, 48, 1000])
    def test_matches_add_reduce(self, d, m, n):
        n = min(n, max(1, 2_000_000 // (m * d)))  # at most 16 MB: fewer blocks of the same shape
        x3 = np.random.default_rng(d * m + n).standard_t(3, size=(n, m, d))
        got, expected = block_sums(x3), x3.sum(axis=1)
        if d == 1:
            assert np.array_equal(got, expected)
        else:
            # each sum is within (m - 1) eps / 2 sum|x| of the exact one
            assert np.all(np.abs(got - expected) <= m * np.finfo(float).eps * np.abs(x3).sum(axis=1))

    @pytest.mark.parametrize("d", [1, 5])
    def test_writes_into_out(self, d):
        # pair_block_averages sums each chunk of blocks into a slice of its output
        x3 = np.random.default_rng(d).standard_normal((4, 9, d))
        out = np.full((6, d), np.nan)
        block_sums(x3, out=out[1:5])
        assert np.array_equal(out[1:5], block_sums(x3)) and np.isnan(out[[0, 5]]).all()
