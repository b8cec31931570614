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
    plan_blocks,
    psi,
    psi_profile,
    sample_dataset,
)
from dirmean.distributions import DistributionSpec
from naive_oracles import oracle_pair_block_averages


def make_estimator(projection_rows, theta, trim_mode):
    """Estimator with d=1 blocks equal to the given projections."""
    z = np.asarray(projection_rows, dtype=float)[:, np.newaxis]
    plan = plan_blocks(z.shape[0], None, theta, "variance", PipelineConfig(gamma=1.0, theta_var=theta))
    return VarianceEstimator(Z=z, theta=theta, trim_mode=trim_mode, plan=plan)


class TestPsiExamples:
    def test_absolute_mode_with_tie(self):
        est = make_estimator([2.0, -2.0, 1.0, -1.0], 0.25, "absolute")
        # |p| ties at 2; the smaller block index is dropped
        assert psi(est, [1.0]) == pytest.approx(0.75)

    def test_signed_mode(self):
        est = make_estimator([2.0, -2.0, 1.0, -1.0], 0.25, "signed")
        assert psi(est, [1.0]) == pytest.approx(0.75)

    def test_zero_blocks(self):
        est = make_estimator([0.0, 0.0, 0.0, 0.0], 0.25, "absolute")
        assert psi(est, [1.0]) == 0.0

    def test_rejects_non_unit(self):
        est = make_estimator([1.0, 2.0, 3.0, 4.0], 0.25, "absolute")
        with pytest.raises(ValueError):
            psi(est, [2.0])


class TestPsiInvariants:
    def _fit(self, seed=0, trim_mode="absolute"):
        spec = DistributionSpec("gaussian", SpectrumSpec((2.0, 1.0, 0.5)), mean=(0.0,) * 3)
        gt = make_ground_truth(spec)
        ds = sample_dataset(gt, 2 * 10**4, seed)
        return fit_variance(ds, PipelineConfig(trim_mode=trim_mode))

    def test_direction_sign_symmetry_absolute(self):
        est = self._fit()
        rng = np.random.default_rng(1)
        for _ in range(20):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            assert psi(est, u) == psi(est, -u)

    def test_block_permutation_invariance(self):
        est = self._fit()
        rng = np.random.default_rng(2)
        perm = rng.permutation(est.n_blocks)
        shuffled = VarianceEstimator(est.Z[perm], est.theta, est.trim_mode, est.plan)
        u = np.array([0.6, 0.0, 0.8])
        assert psi(est, u) == pytest.approx(psi(shuffled, u), rel=1e-12)

    def test_trimming_never_exceeds_untrimmed(self):
        est = self._fit()
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            untrimmed = np.sum((est.Z @ u) ** 2) / (2.0 * est.n_blocks)
            assert psi(est, u) <= untrimmed + 1e-15

    def test_single_direction_matches_profile(self):
        for mode in ("absolute", "signed"):
            est = self._fit(trim_mode=mode)
            rng = np.random.default_rng(4)
            dirs = rng.standard_normal((32, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            prof = psi_profile(est, dirs)
            singles = np.array([psi(est, u) for u in dirs])
            assert np.allclose(prof, singles, rtol=1e-12, atol=1e-15)

    def test_deterministic(self):
        a = self._fit(seed=5)
        b = self._fit(seed=5)
        assert np.array_equal(a.Z, b.Z)

    def test_identical_rows_give_zero(self):
        rows = np.tile(np.array([1.0, 2.0]), (400, 1))
        est = fit_variance(rows, PipelineConfig(gamma=1.0, theta_var=0.02))
        assert psi(est, [1.0, 0.0]) == 0.0


class TestPsiProfileKernel:
    """psi_profile squares and trims its projection in place; the values must
    be those of the copy-based composition, bit for bit."""

    def _est(self, trim_mode, n=1000, d=7, seed=0):
        z = np.random.default_rng(seed).standard_t(3, size=(n, d))
        plan = plan_blocks(n, None, 0.02, "variance", PipelineConfig(gamma=1.0))
        return VarianceEstimator(Z=z, theta=0.02, trim_mode=trim_mode, plan=plan)

    def _dirs(self, count, d, seed=1):
        dirs = np.random.default_rng(seed).standard_normal((count, d))
        return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)

    def test_absolute_matches_copy_based_partition(self):
        est = self._est("absolute")
        dirs = self._dirs(64, 7)
        proj = est.Z @ dirs.T
        n, k = proj.shape[0], est.trim_per_side
        expected = np.partition(proj**2, n - k - 1, axis=0)[: n - k].sum(0) / (2 * n)
        assert np.array_equal(psi_profile(est, dirs), expected)

    def test_signed_matches_copy_based_sort(self):
        est = self._est("signed")
        dirs = self._dirs(64, 7)
        proj = est.Z @ dirs.T
        n, k = proj.shape[0], est.trim_per_side
        expected = (np.sort(proj, axis=0)[: n - k] ** 2).sum(0) / (2 * n)
        assert np.array_equal(psi_profile(est, dirs), expected)

    def test_single_direction_is_the_profile_row(self):
        for mode in ("absolute", "signed"):
            est = self._est(mode)
            u = self._dirs(1, 7)[0]
            assert psi(est, u) == psi_profile(est, u[np.newaxis])[0]

    def test_caller_arrays_untouched(self):
        est = self._est("absolute")
        dirs = self._dirs(16, 7)
        z, d0 = est.Z.copy(), dirs.copy()
        psi_profile(est, dirs)
        assert np.array_equal(est.Z, z) and np.array_equal(dirs, d0)

    @pytest.mark.filterwarnings("error")
    def test_psi_overflow_raises_variance_stage_error(self):
        # the single-direction path shares the guarded kernel: no numpy
        # overflow warning, no inf
        rows = np.random.default_rng(17).standard_normal((10000, 3)) * 1e155
        est = fit_variance(rows)
        with pytest.raises(ValueError, match="variance stage: the squared projections"):
            psi(est, [1.0, 0.0, 0.0])


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
        # block size m0 = ceil(c1 / gamma^2) = m, 50 blocks per trim modulus
        return PipelineConfig(gamma=1.0, c1=float(m))

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
        # one 1000 x 200 block is 1.6 MB, over the 1 MiB buffer: one block
        # per chunk, in a buffer of exactly one block
        m, d = 1000, 200
        assert 8 * m * d > blocks_module._CHUNK_BYTES
        rows = self._rows(d, m, 4, seed=3, extra=0)
        config = PipelineConfig(gamma=1.0, c1=float(m), theta_var=0.25)
        self._check(rows, config, m, 4)

    def test_rejects_odd_row_count(self):
        with pytest.raises(ValueError, match="even row count"):
            fit_variance(np.ones((10001, 2)))


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

    @pytest.mark.parametrize("trim_mode", ["absolute", "signed"])
    def test_psi_profile_holds_one_projection(self, trim_mode):
        n, d, count = 1000, 50, 512
        rng = np.random.default_rng(1)
        plan = plan_blocks(n, None, 0.02, "variance", PipelineConfig(gamma=1.0))
        est = VarianceEstimator(Z=rng.standard_normal((n, d)), theta=0.02, trim_mode=trim_mode, plan=plan)
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
            assert s2 / 4.0 <= psi(est, u) <= 2.0 * s2

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
            r = critical_level(gt.spectrum, est.n_blocks, c0=1.0)
            assert directional_sigma(gt, np.eye(d)[1]) <= r
            for _ in range(40):
                v = rng.standard_normal(d)
                v[0] = 0.0  # orthogonal to the spike
                v /= np.linalg.norm(v)
                checks += 1
                hits += psi(est, v) <= 10.0 * r**2
        assert hits / checks >= 0.99
