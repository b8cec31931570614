import numpy as np
import pytest
from scipy import stats

from dirmean import (
    DistributionSpec,
    NoAnalyticOracleError,
    SpectrumSpec,
    block_averages,
    check_ratio_conditions,
    check_uniform_ratios,
    empirical_quantile_hat,
    interval_excess_sup,
    make_ground_truth,
    marginal_oracle,
    quantile_sandwich_check,
    sample_dataset,
    small_ball_alpha,
    small_ball_check,
)

from naive_oracles import brute_force_interval_sup, oracle_tail_ratio_margins, pair_differences

Z90 = 1.2815515655446004  # standard normal 0.9 quantile


def quantile_grid_sample(oracle, n):
    """Sample replaced by the oracle quantiles at levels (i - 1/2) / n."""
    return oracle.ppf((np.arange(n) + 0.5) / n)


class TestIntervalSup:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        oracle = stats.norm()
        for n in (5, 17, 50, 200):
            sample = rng.standard_normal(n)
            fast = interval_excess_sup(sample, oracle.cdf)
            slow = brute_force_interval_sup(sample, oracle.cdf)
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_single_point_dominates_empty(self):
        # a lone sample point contributes P_N = 1/n at zero true mass
        oracle = stats.norm()
        sample = np.array([0.0])
        assert interval_excess_sup(sample, oracle.cdf) >= 1.0 - 1.5 * 0.0 - 1e-12


class TestRatioConditions:
    def test_self_consistent_quantile_grid(self):
        oracle = stats.norm()
        sample = quantile_grid_sample(oracle, 2000)
        rep = check_ratio_conditions(sample, oracle, delta=0.01, theta=0.07)
        assert rep.tail_ratio_worst <= 0.0
        # on the perfect grid the interval excess stays near zero, far
        # below the 2 delta allowance
        assert rep.interval_excess_worst <= -2.0 * 0.01 + 0.01
        assert rep.balanced_ok
        assert rep.holds

    def test_one_sided_sample_fails_lower_tail(self):
        oracle = stats.norm()
        rng = np.random.default_rng(1)
        sample = np.abs(rng.standard_normal(2000))  # all positive
        rep = check_ratio_conditions(sample, oracle, delta=0.01, theta=0.005)
        assert rep.balanced_ok  # oracle-based: the true law is symmetric
        assert rep.tail_ratio_worst > 0.0  # empirical lower tail is empty
        assert not rep.holds

    def test_eta_formula(self):
        oracle = stats.norm()
        rep = check_ratio_conditions(np.array([0.5, -0.5, 1.0]), oracle, delta=0.02, theta=0.14)
        assert rep.eta == pytest.approx(4 * 0.14 + 16 * 0.02)
        # eta = 0.88 > 1/2 can never hold for a symmetric law
        assert not rep.balanced_ok

    def test_typical_normal_sample_holds(self):
        oracle = stats.norm()
        rng = np.random.default_rng(2)
        hits = 0
        for _ in range(50):
            rep = check_ratio_conditions(rng.standard_normal(10**4), oracle, 0.005, 0.035)
            hits += rep.holds
        assert hits >= 47

    def test_rejects_out_of_range_params(self):
        with pytest.raises(ValueError):
            check_ratio_conditions(np.ones(10), stats.norm(), delta=0.0, theta=0.1)

    @pytest.mark.parametrize("delta", [0.01, 0.05])
    @pytest.mark.parametrize("case", ["one-sided", "shifted", "signed-zeros", "shifted-law"])
    def test_mirrored_lower_tail_matches_direct_counts(self, case, delta):
        # asymmetric samples, so the two sides' margins differ; on the
        # shifted law no lower threshold has mass >= delta (its margin is -inf)
        rng = np.random.default_rng(17)
        oracle = stats.norm(loc=3.0) if case == "shifted-law" else stats.norm()
        sample = {
            "one-sided": np.abs(rng.standard_normal(400)),
            "shifted": rng.standard_normal(400) + 0.2,
            "signed-zeros": np.concatenate([[0.0] * 30, [-0.0] * 5, rng.standard_normal(300)]),
            "shifted-law": rng.standard_normal(400) + 3.0,
        }[case]
        upper, lower = oracle_tail_ratio_margins(sample, oracle, delta)
        assert upper != lower
        rep = check_ratio_conditions(sample, oracle, delta=delta, theta=0.001)
        assert rep.tail_ratio_worst == max(upper, lower)


class TestEmpiricalQuantiles:
    def test_basic(self):
        qp, qm = empirical_quantile_hat([9.0, 7.0, 5.0, 3.0], 0.25)
        assert (qp, qm) == (9.0, 3.0)

    def test_rejects_half(self):
        with pytest.raises(ValueError):
            empirical_quantile_hat([9.0, 7.0, 5.0, 3.0], 0.5)

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(11)
        values = rng.standard_normal(50)
        qp, qm = empirical_quantile_hat(values, 0.1)
        qp2, qm2 = empirical_quantile_hat(-values, 0.1)
        assert qp2 == -qm and qm2 == -qp

    def test_normal_upper_quantile_coverage(self):
        # order statistic at level 0.9 lands within +/-0.05 of the true
        # quantile in at least 95% of 200 trials (sd ~ 0.017 at N = 1e4)
        rng = np.random.default_rng(12)
        hits = 0
        for _ in range(200):
            z = rng.standard_normal(10**4)
            qp, _ = empirical_quantile_hat(z, 0.1)
            hits += abs(qp - Z90) <= 0.05
        assert hits >= 190


class TestQuantileSandwich:
    def test_derived_levels(self):
        # theta = 0.07, delta = 0.01 -> theta1 = 0.22, theta2 = 0.02
        assert 2 * 0.07 + 8 * 0.01 == pytest.approx(0.22)
        assert (2 * 0.07 - 8 * 0.01) / 3 == pytest.approx(0.02)

    def test_oracle_grid_sample_holds(self):
        oracle = stats.norm()
        sample = quantile_grid_sample(oracle, 5000)
        assert quantile_sandwich_check(sample, oracle, theta=0.07, delta=0.01)

    def test_requires_theta_at_least_7_delta(self):
        with pytest.raises(ValueError):
            quantile_sandwich_check(np.ones(100), stats.norm(), theta=0.05, delta=0.01)

    def test_normal_samples_high_coverage(self):
        oracle = stats.norm()
        rng = np.random.default_rng(3)
        hits = sum(
            quantile_sandwich_check(rng.standard_normal(10**4), oracle, 0.07, 0.01)
            for _ in range(100)
        )
        assert hits >= 95

    def test_ratio_conditions_imply_sandwich(self):
        # deterministic implication: whenever the ratio conditions hold on a
        # sample with theta >= 7 delta, the sandwich holds on that sample
        oracle = stats.norm()
        rng = np.random.default_rng(4)
        delta, theta = 0.005, 0.035
        held = 0
        for _ in range(200):
            sample = rng.standard_normal(10**4)
            rep = check_ratio_conditions(sample, oracle, delta, theta)
            if rep.holds:
                held += 1
                assert quantile_sandwich_check(sample, oracle, theta, delta)
        assert held >= 190  # the conditions themselves hold almost always


class TestUniformRatios:
    def _gaussian_gt(self, d=2):
        spec = DistributionSpec("gaussian", SpectrumSpec((1.0,) * d), mean=(0.0,) * d)
        return make_ground_truth(spec)

    def test_vacuous_empty_report(self):
        gt = self._gaussian_gt()
        rep = check_uniform_ratios(np.zeros((10, 2)), gt, 0.02, r=0.0, n_dirs=0, seed=0)
        assert rep.pass_fraction == 1.0
        assert rep.tail_margins.size == 0

    def test_gaussian_blocks_pass_fraction(self):
        gt = self._gaussian_gt()
        ds = sample_dataset(gt, 2 * 4000, seed=5)
        z = block_averages(pair_differences(ds), 1)
        rep = check_uniform_ratios(z, gt, 0.02, r=0.0, n_dirs=100, seed=6)
        assert rep.pass_fraction >= 0.95

    def test_direction_filter_respects_difference_law(self):
        # sigma filter uses the doubled covariance of the differences
        spec = DistributionSpec("gaussian", SpectrumSpec((1.0, 0.0)), mean=(0.0, 0.0))
        gt = make_ground_truth(spec)
        ds = sample_dataset(gt, 2 * 1000, seed=7)
        z = block_averages(pair_differences(ds), 1)
        rep = check_uniform_ratios(z, gt, 0.05, r=1.2, n_dirs=10, seed=8)
        # sqrt(2) sigma(u) >= 1.2 forces |u_1| >= 1.2 / sqrt(2)
        assert np.all(np.abs(rep.directions[:, 0]) >= 1.2 / np.sqrt(2.0) - 1e-12)

    def test_unreachable_r_refused_before_any_draw(self):
        # sqrt(2) sigma(u) <= sqrt(2 lambda_1) = sqrt(2) for eigenvalues (1, 0.5)
        gt = make_ground_truth(DistributionSpec("gaussian", SpectrumSpec((1.0, 0.5)), mean=(0.0, 0.0)))
        with pytest.raises(ValueError, match=r"no direction has sqrt\(2\) sigma\(u\) >= r = 1.45"):
            check_uniform_ratios(np.zeros((10, 2)), gt, 0.02, r=1.45, n_dirs=5, seed=0)
        assert check_uniform_ratios(np.zeros((10, 2)), gt, 0.02, r=1.3, n_dirs=5, seed=0).directions.shape == (5, 2)

    def test_student_family_has_no_block_oracle(self):
        spec = DistributionSpec(
            "elliptical-student", SpectrumSpec((1.0, 1.0)), mean=(0.0, 0.0), dof=3.0
        )
        gt = make_ground_truth(spec)
        with pytest.raises(NoAnalyticOracleError):
            check_uniform_ratios(np.zeros((10, 2)), gt, 0.02, 0.0, 5, 0)

    @pytest.mark.parametrize("delta_param, block_m", [(0.02, 1), (0.1, 3)])
    def test_margins_are_those_of_check_ratio_conditions(self, delta_param, block_m):
        gt = make_ground_truth(DistributionSpec("gaussian", SpectrumSpec((1.0, 0.3, 0.1)), mean=(1.0, 0.0, -2.0)))
        z = block_averages(pair_differences(sample_dataset(gt, 2 * 3000, seed=11)), block_m)
        rep = check_uniform_ratios(z, gt, delta_param, r=0.0, n_dirs=12, seed=12)
        for u, tail, interval in zip(rep.directions, rep.tail_margins, rep.interval_margins):
            one = check_ratio_conditions(z @ u, marginal_oracle(gt, u, scale=np.sqrt(2.0)), delta_param, theta=0.01)
            assert (one.tail_ratio_worst, one.interval_excess_worst) == (tail, interval)

    def test_csv_rows_match_margins(self):
        gt = self._gaussian_gt()
        ds = sample_dataset(gt, 2 * 2000, seed=9)
        z = block_averages(pair_differences(ds), 1)
        rep = check_uniform_ratios(z, gt, 0.02, r=0.0, n_dirs=7, seed=10)
        rows = list(rep.csv_rows())
        assert len(rows) == 7
        assert rows[0][0] == 0 and len(rows[0]) == len(rep.csv_columns)


class TestSmallBall:
    def test_alpha_substitution(self):
        assert small_ball_alpha(1.0 / 50.0, 1.0, 4.0) == pytest.approx(4e-4)

    def test_gaussian_sign_balance(self):
        spec = DistributionSpec("gaussian", SpectrumSpec((1.0, 1.0)), mean=(0.0, 0.0))
        gt = make_ground_truth(spec)
        rep = small_ball_check(gt, m=16, gamma=0.05, trials=20_000, seed=0)
        assert rep.sign_prob_pos == pytest.approx(0.5, abs=0.02)
        assert rep.sign_prob_neg == pytest.approx(0.5, abs=0.02)
        assert rep.sign_prob_pos >= 0.25 and rep.sign_prob_neg >= 0.25

    def test_student_lq_l2_within_bound(self):
        spec = DistributionSpec(
            "elliptical-student", SpectrumSpec((1.0,)), mean=(0.0,), dof=3.0
        )
        gt = make_ground_truth(spec)
        rep = small_ball_check(gt, m=50, gamma=0.05, trials=20_000, seed=1)
        assert rep.lq_l2_ratio <= rep.lq_l2_bound
        assert rep.small_ball_L > 0.0 and np.isfinite(rep.small_ball_L)

    def test_truncated_ratio_below_xi(self):
        spec = DistributionSpec("gaussian", SpectrumSpec((2.0, 1.0)), mean=(0.0, 0.0))
        gt = make_ground_truth(spec)
        rep = small_ball_check(gt, m=8, gamma=0.05, trials=50_000, seed=2)
        assert rep.truncated_ratio <= 2.0 * rep.xi  # MC slack on a tiny tail mass

    def test_rejects_tiny_trials(self):
        spec = DistributionSpec("gaussian", SpectrumSpec((1.0,)), mean=(0.0,))
        gt = make_ground_truth(spec)
        with pytest.raises(ValueError):
            small_ball_check(gt, m=4, gamma=0.05, trials=10, seed=0)
