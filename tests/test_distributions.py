import numpy as np
import pytest
from scipy import special, stats

from dirmean import (
    DistributionSpec,
    NoAnalyticOracleError,
    SpectrumSpec,
    directional_sigma,
    jitter,
    make_ground_truth,
    marginal_tail_prob,
    make_ground_truth as _mgt,
    sample_dataset,
    sample_marginal,
    student_kappa,
    tail_eigensum,
)
from dirmean.distributions import _lognormal_kappa
from naive_oracles import oracle_lognormal_kappa, oracle_sample_rows, oracle_student_kappa

KAPPA_GAUSSIAN = 1.3160740129524924  # (E g^4)^(1/4) / (E g^2)^(1/2) = 3^(1/4)


def gaussian_spec(eigs, mean=None, rotation_seed=None):
    d = len(eigs)
    return DistributionSpec(
        "gaussian", SpectrumSpec(tuple(eigs), rotation_seed), mean=tuple(mean or [0.0] * d)
    )


def student_spec(eigs, nu, mean=None):
    d = len(eigs)
    return DistributionSpec(
        "elliptical-student", SpectrumSpec(tuple(eigs)), mean=tuple(mean or [0.0] * d), dof=nu
    )


class TestSpecValidation:
    def test_rejects_increasing_spectrum(self):
        with pytest.raises(ValueError):
            SpectrumSpec((1.0, 2.0))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            SpectrumSpec((1.0, -0.5))

    def test_rejects_low_dof(self):
        with pytest.raises(ValueError):
            student_spec([1.0], nu=2.0)

    def test_rejects_large_contamination(self):
        with pytest.raises(ValueError):
            DistributionSpec(
                "gaussian-with-point-contamination",
                SpectrumSpec((1.0,)),
                mean=(0.0,),
                contamination_fraction=0.5,
                contamination_offset=(1.0,),
            )

    def test_json_round_trip(self):
        spec = DistributionSpec(
            "gaussian-with-point-contamination",
            SpectrumSpec((2.0, 1.0), rotation_seed=5),
            mean=(1.0, -1.0),
            contamination_fraction=0.1,
            contamination_offset=(3.0, 0.0),
        )
        assert DistributionSpec.from_json(spec.to_json()) == spec


class TestGroundTruth:
    def test_identity_covariance_every_direction(self):
        gt = make_ground_truth(gaussian_spec([1.0, 1.0]))
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = rng.standard_normal(2)
            u /= np.linalg.norm(u)
            assert directional_sigma(gt, u) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_kappa_closed_form(self):
        gt = make_ground_truth(gaussian_spec([3.0, 1.0]))
        assert gt.q_moment == 4.0
        assert gt.kappa == pytest.approx(KAPPA_GAUSSIAN, rel=1e-12)

    def test_student_kappa_matches_gamma_formula(self):
        nu = 3.0
        gt = make_ground_truth(student_spec([1.0, 1.0], nu=nu))
        q = gt.q_moment
        assert q == pytest.approx(2.5)
        # independent oracle: E|T_nu|^q in closed form via gamma functions
        moment = (
            nu ** (q / 2)
            * special.gamma((q + 1) / 2)
            * special.gamma((nu - q) / 2)
            / (np.sqrt(np.pi) * special.gamma(nu / 2))
        )
        kappa_oracle = moment ** (1 / q) / np.sqrt(nu / (nu - 2))
        assert kappa_oracle == pytest.approx(1.3509600385206135, rel=1e-9)
        assert gt.kappa == pytest.approx(kappa_oracle, rel=1e-6)

    def test_covariance_factor_reproduces_sigma(self):
        gt = make_ground_truth(gaussian_spec([4.0, 1.0]))
        assert directional_sigma(gt, [1.0, 0.0]) == pytest.approx(2.0)
        u = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert directional_sigma(gt, u) == pytest.approx(np.sqrt(2.5))

    def test_rejects_non_unit_direction(self):
        gt = make_ground_truth(gaussian_spec([1.0, 1.0]))
        with pytest.raises(ValueError):
            directional_sigma(gt, [1.0, 1.0])

    def test_contaminated_mixture_mean_and_covariance(self):
        spec = DistributionSpec(
            "gaussian-with-point-contamination",
            SpectrumSpec((1.0, 1.0)),
            mean=(0.5, -0.5),
            contamination_fraction=0.1,
            contamination_offset=(4.0, 0.0),
        )
        gt = make_ground_truth(spec)
        # exact mixture covariance: (1-f) Sigma + f (1-f) offset offset^t
        expected = 0.9 * np.eye(2) + 0.1 * 0.9 * np.outer([4.0, 0.0], [4.0, 0.0])
        assert np.allclose(gt.covariance, expected, atol=1e-12)
        assert np.allclose(gt.mu, [0.5, -0.5])
        assert gt.kappa > 1.0


class TestSampling:
    def test_determinism(self):
        gt = make_ground_truth(gaussian_spec([1.0, 1.0]))
        a = sample_dataset(gt, 4, seed=7)
        b = sample_dataset(gt, 4, seed=7)
        assert np.array_equal(a.rows, b.rows)
        c = sample_dataset(gt, 4, seed=8)
        assert not np.array_equal(a.rows, c.rows)

    @pytest.mark.parametrize("rotation_seed", [None, 4])
    @pytest.mark.parametrize(
        "family, extra",
        [
            ("gaussian", {}),
            ("elliptical-student", {"dof": 3.0}),
            ("elliptical-student", {"dof": 7.5}),
            ("elliptical-lognormal", {"shape": 0.5}),
            (
                "gaussian-with-point-contamination",
                {"contamination_fraction": 0.1, "contamination_offset": (3.0, 0.0, -1.0)},
            ),
        ],
    )
    def test_rows_match_out_of_place_oracle(self, family, extra, rotation_seed):
        # the in-place scaling performs the oracle's products and sums exactly
        spec = DistributionSpec(
            family, SpectrumSpec((4.0, 1.0, 0.25), rotation_seed), mean=(1.5, -2.0, 0.25), **extra
        )
        gt = make_ground_truth(spec)
        for n in (1, 7, 1000):
            assert np.array_equal(sample_dataset(gt, n, seed=9).rows, oracle_sample_rows(gt, n, 9))

    def test_law_of_large_numbers_covariance(self):
        gt = make_ground_truth(gaussian_spec([1.0, 0.5], rotation_seed=3))
        rows = sample_dataset(gt, 10**6, seed=11).rows
        emp = np.cov(rows.T, bias=True)
        assert np.max(np.abs(emp - gt.covariance)) < 0.01  # ~3 stderr at N=1e6

    def test_contaminated_exact_count(self):
        spec = DistributionSpec(
            "gaussian-with-point-contamination",
            SpectrumSpec((1.0, 1.0)),
            mean=(0.0, 0.0),
            contamination_fraction=0.1,
            contamination_offset=(10.0, 0.0),
        )
        gt = make_ground_truth(spec)
        n = 1003
        rows = sample_dataset(gt, n, seed=5).rows
        hits = np.all(rows == gt._point_value, axis=1).sum()
        assert hits == int(np.floor(0.1 * n))

    def test_sample_mean_converges_all_families(self):
        specs = [
            gaussian_spec([2.0, 1.0], mean=[1.0, -2.0]),
            student_spec([2.0, 1.0], nu=4.0, mean=[1.0, -2.0]),
            DistributionSpec(
                "elliptical-lognormal", SpectrumSpec((2.0, 1.0)), mean=(1.0, -2.0), shape=0.5
            ),
            DistributionSpec(
                "gaussian-with-point-contamination",
                SpectrumSpec((2.0, 1.0)),
                mean=(1.0, -2.0),
                contamination_fraction=0.05,
                contamination_offset=(3.0, 3.0),
            ),
        ]
        for spec in specs:
            gt = make_ground_truth(spec)
            rows = sample_dataset(gt, 200_000, seed=13).rows
            err = np.abs(rows.mean(axis=0) - gt.mu)
            tol = 5 * np.sqrt(np.diag(gt.covariance) / rows.shape[0])
            assert np.all(err < np.maximum(tol, 0.02)), spec.family

    def test_directional_variance_matches_mc_all_families(self):
        # per-family Monte Carlo within 5 empirical standard errors
        specs = [
            gaussian_spec([2.0, 1.0, 0.5]),
            student_spec([2.0, 1.0, 0.5], nu=5.0),
            DistributionSpec(
                "elliptical-lognormal", SpectrumSpec((2.0, 1.0, 0.5)), mean=(0.0,) * 3, shape=0.4
            ),
            DistributionSpec(
                "gaussian-with-point-contamination",
                SpectrumSpec((2.0, 1.0, 0.5)),
                mean=(0.0,) * 3,
                contamination_fraction=0.1,
                contamination_offset=(2.0, 0.0, 0.0),
            ),
        ]
        rng = np.random.default_rng(21)
        for spec in specs:
            gt = make_ground_truth(spec)
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            proj = sample_marginal(gt, u, 10**6, seed=17)
            sq = proj**2
            mc_var = sq.mean()
            stderr = sq.std() / np.sqrt(sq.size)
            assert abs(mc_var - directional_sigma(gt, u) ** 2) < 5 * stderr, spec.family

    def test_pairwise_difference_oracle_for_sigma(self):
        gt = make_ground_truth(gaussian_spec([3.0, 1.0], rotation_seed=2))
        u = np.array([0.6, 0.8])
        rows = sample_dataset(gt, 2 * 10**6, seed=23).rows
        half = rows.shape[0] // 2
        proj = (rows[:half] - rows[half:]) @ u
        half_sq = 0.5 * proj**2
        stderr = half_sq.std() / np.sqrt(half_sq.size)
        assert abs(half_sq.mean() - directional_sigma(gt, u) ** 2) < 3 * stderr


class TestTailEigensum:
    def test_basic_values(self):
        gt = make_ground_truth(gaussian_spec([4.0, 1.0, 1.0]))
        assert tail_eigensum(gt, 1) == pytest.approx(2.0)
        assert tail_eigensum(gt, 0) == pytest.approx(6.0)
        assert tail_eigensum(gt, 3) == 0.0

    def test_rejects_out_of_range(self):
        gt = make_ground_truth(gaussian_spec([4.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            tail_eigensum(gt, 4)

    def test_nonincreasing_in_k(self):
        gt = make_ground_truth(gaussian_spec([5.0, 3.0, 2.0, 0.5]))
        vals = [tail_eigensum(gt, k) for k in range(5)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[0] == pytest.approx(np.trace(gt.covariance))


class TestMarginalTailProb:
    def test_gaussian_values(self):
        gt = make_ground_truth(gaussian_spec([1.0, 1.0]))
        u = [1.0, 0.0]
        assert marginal_tail_prob(gt, u, 0.0) == pytest.approx(0.5)
        assert marginal_tail_prob(gt, u, 1.959964) == pytest.approx(0.025, abs=1e-6)

    def test_student_symmetry(self):
        gt = make_ground_truth(student_spec([1.0, 1.0], nu=3.0))
        assert marginal_tail_prob(gt, [0.0, 1.0], 0.0) == pytest.approx(0.5)

    def test_no_oracle_for_lognormal(self):
        spec = DistributionSpec(
            "elliptical-lognormal", SpectrumSpec((1.0,)), mean=(0.0,), shape=0.5
        )
        with pytest.raises(NoAnalyticOracleError):
            marginal_tail_prob(make_ground_truth(spec), [1.0], 0.0)

    def test_complement_identity_on_grid(self):
        gt = make_ground_truth(student_spec([2.0, 1.0], nu=4.0))
        u = np.array([0.8, -0.6])
        for t in np.linspace(-3, 3, 13):
            total = marginal_tail_prob(gt, u, t) + marginal_tail_prob(gt, -u, -t)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_student_scaled_quantile_against_scipy(self):
        gt = make_ground_truth(student_spec([4.0], nu=5.0))
        # sigma(u) = 2, radial scale sqrt(3/5); P{X > t} = t_5.sf(t / (2 sqrt(3/5)))
        t = 1.7
        expected = stats.t.sf(t / (2.0 * np.sqrt(3.0 / 5.0)), 5.0)
        assert marginal_tail_prob(gt, [1.0], t) == pytest.approx(expected, rel=1e-12)


class TestClosedForms:
    """The gamma-function moments and scipy laws against independent references."""

    @pytest.mark.parametrize("nu", [2.5, 3.0, 4.0, 5.0, 7.5, 10.0, 30.0])
    def test_student_kappa_matches_quadrature(self, nu):
        q = (nu + 2.0) / 2.0
        assert student_kappa(nu, q) == pytest.approx(oracle_student_kappa(nu, q), rel=1e-12, abs=0)

    def test_student_kappa_exact_at_nu_4(self):
        # E|T_4|^3 = 8 and E T_4^2 = 2, so kappa = 2 / sqrt(2)
        assert student_kappa(4.0, 3.0) == np.sqrt(2.0)

    @pytest.mark.parametrize("d", [1, 2, 3, 10, 50, 200])
    @pytest.mark.parametrize("shape", [0.25, 0.5, 1.0])
    def test_lognormal_kappa_matches_beta_ratio(self, d, shape):
        expected = oracle_lognormal_kappa(d, shape, 4.0)
        assert _lognormal_kappa(d, shape, 4.0) == pytest.approx(expected, rel=1e-13, abs=0)

    def test_tail_prob_is_the_scipy_law_bit_for_bit(self):
        # e3 has sigma(u) = 0: a point mass at 0, the limit of both laws
        eigs = [3.0, 0.5, 0.0]
        rng = np.random.default_rng(7)
        dirs = rng.standard_normal((6, 3))
        dirs = [*(dirs / np.linalg.norm(dirs, axis=1, keepdims=True)), np.array([0.0, 0.0, 1.0])]
        ts = [-4.0, -1.3, -1e-9, 0.0, 1e-9, 0.7, 2.5, 40.0]
        for spec in [gaussian_spec(eigs), *(student_spec(eigs, nu=nu) for nu in (2.5, 5.0, 30.0))]:
            gt = make_ground_truth(spec)
            assert directional_sigma(gt, dirs[-1]) == 0.0
            for u in dirs:
                sig = directional_sigma(gt, u)
                for t in ts:
                    if sig == 0.0:
                        expected = 0.0 if t >= 0 else 1.0
                    elif spec.dof is None:
                        expected = stats.norm.sf(t / sig)
                    else:
                        nu = spec.dof
                        expected = stats.t.sf(t / (sig * np.sqrt((nu - 2.0) / nu)), nu)
                    assert marginal_tail_prob(gt, u, t) == expected, (spec.family, spec.dof, u, t)


class TestJitter:
    def test_zero_scale_is_identity(self):
        gt = make_ground_truth(gaussian_spec([1.0, 1.0]))
        ds = sample_dataset(gt, 10, seed=1)
        out = jitter(ds, 0.0, seed=2)
        assert np.array_equal(out.rows, ds.rows)

    def test_determinism(self):
        gt = make_ground_truth(gaussian_spec([1.0, 1.0]))
        ds = sample_dataset(gt, 10, seed=1)
        a = jitter(ds, 1e-6, seed=2)
        b = jitter(ds, 1e-6, seed=2)
        assert np.array_equal(a.rows, b.rows)

    def test_breaks_integer_ties(self):
        from dirmean import Dataset

        rows = np.tile(np.arange(4.0), (6, 1))  # many duplicate projections
        ds = jitter(Dataset(rows), 1e-9, seed=3)
        u = np.array([0.3, 0.4, 0.5, np.sqrt(1 - 0.5)])
        u /= np.linalg.norm(u)
        proj = ds.rows @ u
        assert np.unique(proj).size == proj.size

    def test_rejects_negative_scale(self):
        gt = make_ground_truth(gaussian_spec([1.0]))
        with pytest.raises(ValueError):
            jitter(sample_dataset(gt, 3, 0), -1.0, 0)
