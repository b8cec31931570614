import dataclasses
import tracemalloc

import numpy as np
import pytest

import dirmean.blocks as blocks_module
from dirmean import (
    PipelineConfig,
    SpectrumSpec,
    VarianceEstimator,
    critical_level,
    directional_sigma,
    fit_variance,
    make_ground_truth,
    plan_variance_blocks,
    psi_profile,
    sample_dataset,
)
from dirmean.distributions import DistributionSpec
from naive_oracles import (
    oracle_fsum_block_averages,
    oracle_pair_block_averages,
    oracle_psi_profile,
    summation_bound,
)


def make_estimator(projection_rows, theta):
    """Estimator with d=1 blocks equal to the given projections."""
    z = np.asarray(projection_rows, dtype=float)[:, np.newaxis]
    plan = plan_variance_blocks(z.shape[0], PipelineConfig(m0=1, theta_var=theta))
    return VarianceEstimator(Z=z, plan=plan)


class TestPsiExamples:
    def test_absolute_mode_with_tie(self):
        est = make_estimator([2.0, -2.0, 1.0, -1.0], 0.25)
        # |p| ties at 2; the smaller block index is dropped
        assert psi_profile(est, [[1.0]])[0] == pytest.approx(0.75)

    def test_zero_blocks(self):
        est = make_estimator([0.0, 0.0, 0.0, 0.0], 0.25)
        assert psi_profile(est, [[1.0]])[0] == 0.0


class TestPsiInvariants:
    def _fit(self, seed=0):
        spec = DistributionSpec("gaussian", SpectrumSpec((2.0, 1.0, 0.5)), mean=(0.0,) * 3)
        gt = make_ground_truth(spec)
        ds = sample_dataset(gt, 2 * 10**4, seed)
        return fit_variance(ds)

    def test_direction_sign_symmetry_absolute(self):
        est = self._fit()
        rng = np.random.default_rng(1)
        for _ in range(20):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            assert psi_profile(est, [u])[0] == psi_profile(est, [-u])[0]

    def test_block_permutation_invariance(self):
        est = self._fit()
        rng = np.random.default_rng(2)
        perm = rng.permutation(est.plan.n)
        shuffled = VarianceEstimator(est.Z[perm], est.plan)
        u = np.array([0.6, 0.0, 0.8])
        assert psi_profile(est, [u])[0] == pytest.approx(psi_profile(shuffled, [u])[0], rel=1e-12)

    def test_trimming_never_exceeds_untrimmed(self):
        est = self._fit()
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            untrimmed = np.sum((est.Z @ u) ** 2) / (2.0 * est.plan.n)
            assert psi_profile(est, [u])[0] <= untrimmed + 1e-15

    def test_single_direction_matches_profile(self):
        est = self._fit()
        rng = np.random.default_rng(4)
        dirs = rng.standard_normal((32, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        prof = psi_profile(est, dirs)
        singles = np.array([psi_profile(est, [u])[0] for u in dirs])
        assert np.allclose(prof, singles, rtol=1e-12, atol=1e-15)

    def test_deterministic(self):
        a = self._fit(seed=5)
        b = self._fit(seed=5)
        assert np.array_equal(a.Z, b.Z)

    def test_identical_rows_give_zero(self):
        rows = np.tile(np.array([1.0, 2.0]), (400, 1))
        est = fit_variance(rows, PipelineConfig(m0=1, theta_var=0.02))
        assert psi_profile(est, [[1.0, 0.0]])[0] == 0.0


class TestPsiProfileKernel:
    """psi_profile squares and trims its projection in place; the values must
    be those of the copy-based composition, bit for bit."""

    def _est(self, n=1000, d=7, seed=0):
        z = np.random.default_rng(seed).standard_t(3, size=(n, d))
        plan = plan_variance_blocks(n, PipelineConfig(m0=1))
        return VarianceEstimator(Z=z, plan=plan)

    def _dirs(self, count, d, seed=1):
        dirs = np.random.default_rng(seed).standard_normal((count, d))
        return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)

    def test_absolute_matches_copy_based_partition(self):
        est = self._est()
        dirs = self._dirs(64, 7)
        proj = dirs @ est.Z.T
        n, k = proj.shape[1], est.plan.trim_per_side
        expected = np.partition(proj**2, n - k - 1, axis=1)[:, : n - k].sum(axis=1) / (2 * n)
        assert np.array_equal(psi_profile(est, dirs), expected)

    def test_caller_arrays_untouched(self):
        est = self._est()
        dirs = self._dirs(16, 7)
        z, d0 = est.Z.copy(), dirs.copy()
        psi_profile(est, dirs)
        assert np.array_equal(est.Z, z) and np.array_equal(dirs, d0)

    @pytest.mark.filterwarnings("error")
    def test_psi_overflow_raises_variance_stage_error(self):
        # no numpy overflow warning, no inf
        rows = np.random.default_rng(17).standard_normal((10000, 3)) * 1e155
        est = fit_variance(rows)
        with pytest.raises(ValueError, match="variance stage: the squared projections"):
            psi_profile(est, [[1.0, 0.0, 0.0]])


class TestFitVarianceBlocks:
    """fit_variance forms Z chunk by chunk from the paired rows; it must
    equal the plain difference-matrix composition exactly."""

    @staticmethod
    def _rows(d, m, n_blocks, seed, extra=7):
        rng = np.random.default_rng(seed)
        half = n_blocks * m + extra  # extra pairs are discarded by the plan
        return rng.standard_t(3, size=(2 * half, d)) * np.geomspace(1.0, 1e-3, d)

    @staticmethod
    def _config(m):
        # block size m0 = m, 50 blocks per trim modulus
        return PipelineConfig(m0=m)

    def _check(self, rows, config, m, n):
        est = fit_variance(rows, config)
        assert (est.plan.m, est.plan.n) == (m, n)
        assert np.array_equal(est.Z, oracle_pair_block_averages(rows, m, n))

    @pytest.mark.parametrize("d", [1, 2, 3, 10, 50, 200])
    @pytest.mark.parametrize("m", [1, 2, 100])
    def test_matches_oracle(self, d, m):
        # at d = 50 and 200 with m = 100 the 50 blocks span several chunks
        # of the real buffer and the last one is partly filled
        self._check(self._rows(d, m, 50, seed=d * 1000 + m), self._config(m), m, 50)

    @pytest.mark.parametrize("d", [1, 3, 10])
    @pytest.mark.parametrize("m", [2, 100])
    def test_partly_filled_last_chunk(self, d, m, monkeypatch):
        # 3 blocks per chunk: 100 blocks are 33 full chunks and one of 1 block
        monkeypatch.setattr(blocks_module, "_CHUNK_BYTES", 3 * 8 * m * d)
        self._check(self._rows(d, m, 100, seed=d + m), self._config(m), m, 100)

    @pytest.mark.parametrize("d", [1, 3])
    def test_block_larger_than_tiny_buffer(self, d, monkeypatch):
        monkeypatch.setattr(blocks_module, "_CHUNK_BYTES", 8)
        self._check(self._rows(d, 100, 50, seed=d), self._config(100), 100, 50)

    def test_block_larger_than_chunk_buffer(self):
        # one 1000 x 200 block is 1.6 MB, over the 512 KiB buffer: one block
        # per chunk, in a buffer of exactly one block
        m, d = 1000, 200
        assert 8 * m * d > blocks_module._CHUNK_BYTES
        rows = self._rows(d, m, 4, seed=3, extra=0)
        config = PipelineConfig(m0=m, theta_var=0.25)
        self._check(rows, config, m, 4)

    def test_odd_row_count_leaves_out_the_last_row(self):
        # row i pairs with row N // 2 + i, so the last of an odd count, here
        # NaN, reaches no block
        rows = self._rows(2, 100, 50, seed=9)
        est = fit_variance(np.vstack([rows, np.full((1, 2), np.nan)]), self._config(100))
        assert np.array_equal(est.Z, oracle_pair_block_averages(rows, 100, 50))

    def test_large_common_offset_costs_no_accuracy(self):
        # paired rows near 1e8 subtract exactly, so Z is within the summation
        # bound of the exact block sums; summing each half first and then
        # subtracting misses that bound by a factor of up to about 4e6
        m, n = 100, 50
        rows = self._rows(50, m, n, seed=8) + 1e8
        half = rows.shape[0] // 2
        first, second = rows[:half], rows[half:]
        exact = oracle_fsum_block_averages(m, n, first, -second)
        bound = summation_bound(first - second, m, n)
        assert np.all(np.abs(fit_variance(rows, self._config(m)).Z - exact) <= bound)


class TestWorkingMemory:
    """Neither variance kernel holds more than one working matrix."""

    def test_fit_variance_forms_no_difference_matrix(self):
        rows = np.random.default_rng(0).standard_normal((200_000, 50))
        diff_matrix_bytes = 100_000 * 50 * 8
        tracemalloc.start()
        try:
            fit_variance(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < diff_matrix_bytes / 4

    def test_psi_profile_holds_one_projection(self):
        n, d, count = 1000, 50, 512
        rng = np.random.default_rng(1)
        plan = plan_variance_blocks(n, PipelineConfig(m0=1))
        est = VarianceEstimator(Z=rng.standard_normal((n, d)), plan=plan)
        dirs = rng.standard_normal((count, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        tracemalloc.start()
        try:
            psi_profile(est, dirs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * count * 8


class TestCriticalLevel:
    def test_spiked_spectrum_arithmetic(self):
        lam = (4.0,) + (1.0,) * 100  # d = 101
        r = critical_level(SpectrumSpec(lam), n=10, c0=1.0)
        assert r**2 == pytest.approx(9.2)  # (1/10) * 92 unit eigenvalues

    def test_empty_tail(self):
        assert critical_level(SpectrumSpec((3.0, 2.0)), n=5, c0=1.0) == 0.0

    def test_single_block_gives_trace(self):
        lam = (4.0, 1.0, 1.0)
        r = critical_level(SpectrumSpec(lam), n=1, c0=1.0)
        assert r**2 == pytest.approx(6.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            critical_level(SpectrumSpec((1.0,)), n=0, c0=1.0)
        with pytest.raises(ValueError):
            critical_level(SpectrumSpec((1.0,)), n=5, c0=0.0)


class TestStatisticalGuarantees:
    def test_sandwich_in_typical_direction(self):
        # quick single-trial version; the acceptance suite runs the full grid
        spec = DistributionSpec("gaussian", SpectrumSpec((4.0, 1.0)), mean=(0.0, 0.0))
        gt = make_ground_truth(spec)
        ds = sample_dataset(gt, 4 * 10**4, 123)
        est = fit_variance(ds)
        for u in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
            s2 = directional_sigma(gt, u) ** 2
            assert s2 / 4.0 <= psi_profile(est, [u])[0] <= 2.0 * s2

    def test_low_variance_directions_below_critical_level(self):
        # spike spectrum: directions orthogonal to the spike have
        # sigma(u) = 1e-3 <= r, where psi must stay under 10 r^2
        d = 128
        lam = (1.0,) + (1e-6,) * (d - 1)
        spec = DistributionSpec("gaussian", SpectrumSpec(lam), mean=(0.0,) * d)
        gt = make_ground_truth(spec)
        rng = np.random.default_rng(7)
        checks = 0
        hits = 0
        for trial in range(10):
            ds = sample_dataset(gt, 10**4, 1000 + trial)
            est = fit_variance(ds)
            r = critical_level(gt.spectrum, est.plan.n, c0=1.0)
            assert directional_sigma(gt, np.eye(d)[1]) <= r
            for _ in range(40):
                v = rng.standard_normal(d)
                v[0] = 0.0  # orthogonal to the spike
                v /= np.linalg.norm(v)
                checks += 1
                hits += psi_profile(est, [v])[0] <= 10.0 * r**2
        assert hits / checks >= 0.99


class TestPsiProfileTallBlocks:
    """Tall blocks (1000 blocks, up to 512 directions): the kernel must give
    the copy-based values of the (directions, blocks) composition bit for
    bit, stay within rounding of the (blocks, directions) composition with
    its sequential sum over blocks, and hold one projection."""

    def _est(self, n=1000, d=50):
        z = np.random.default_rng(5).standard_t(3, size=(n, d))
        return VarianceEstimator(Z=z, plan=plan_variance_blocks(n, PipelineConfig(m0=1)))

    # (directions, trim_per_side or None for the plan's); trim 0 partitions at the last block
    @pytest.mark.parametrize(("count", "trim"), [pytest.param(count, None, id=str(count)) for count in (1, 2, 400, 512)]
                             + [pytest.param(400, 0, id="400-trim0")])
    def test_matches_copy_based_oracle(self, count, trim):
        est = self._est()
        if trim is not None:
            est = dataclasses.replace(est, plan=dataclasses.replace(est.plan, trim_per_side=trim))
        dirs = np.random.default_rng(count).standard_normal((count, 50))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        expected = oracle_psi_profile(est.Z, dirs, est.plan.trim_per_side)
        assert np.array_equal(psi_profile(est, dirs), expected)

    def test_d1_matches_copy_based_oracle(self):
        # d = 1: the projection rows are scaled copies of the one column
        z = np.random.default_rng(6).standard_t(3, size=(1000, 1))
        est = VarianceEstimator(Z=z, plan=plan_variance_blocks(1000, PipelineConfig(m0=1)))
        dirs = np.array([[1.0], [-1.0]])
        for u in (dirs[:1], dirs):
            assert np.array_equal(psi_profile(est, u), oracle_psi_profile(z, u, est.plan.trim_per_side))

    @pytest.mark.parametrize(
        ("count", "d", "trim"), [(400, 50, None), (512, 50, None), (400, 50, 0), (1, 50, None), (2, 1, None)]
    )
    def test_within_rounding_of_blocks_major_sum(self, count, d, trim):
        # the (blocks, directions) projection, partitioned and summed down its
        # columns, retains the same squares in another summation order
        z = np.random.default_rng(7).standard_t(3, size=(1000, d))
        plan = plan_variance_blocks(1000, PipelineConfig(m0=1))
        if trim is not None:
            plan = dataclasses.replace(plan, trim_per_side=trim)
        dirs = np.random.default_rng(count).standard_normal((count, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        sq = (z @ dirs.T) ** 2
        n, k = sq.shape[0], plan.trim_per_side
        if k > 0:
            sq = np.partition(sq, n - k - 1, axis=0)
        old = sq[: n - k].sum(axis=0) / (2.0 * n)
        got = psi_profile(VarianceEstimator(Z=z, plan=plan), dirs)
        np.testing.assert_allclose(got, old, rtol=1e-13, atol=0)

    def test_peak_is_one_projection(self):
        n, count = 1000, 512
        est = self._est(n)
        dirs = np.random.default_rng(2).standard_normal((count, 50))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        tracemalloc.start()
        try:
            psi_profile(est, dirs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * n * count * 8
