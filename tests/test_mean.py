import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirmean import (
    Dataset,
    DistributionSpec,
    MarginalMeanEstimator,
    PipelineConfig,
    SizingError,
    SlabSystem,
    SpectrumSpec,
    build_direction_set,
    estimate_mean,
    fit_marginal,
    fit_variance,
    make_ground_truth,
    nu_hat,
    nu_hat_profile,
    plan_blocks,
    sample_dataset,
    slab_width,
    solve_center,
)
import dirmean.mean as mean_module
from dirmean.mean import DUPLICATE_DOT, TOL, _keep_new
from dirmean.rng import stream
from naive_oracles import oracle_direction_fill, oracle_keep_new

SMALL_CFG = PipelineConfig(gamma=1.0, theta_var=0.125, directions=None, refine_probes=64)


def random_infeasible_system(rng, d, m):
    u = rng.standard_normal((m, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    widths = rng.uniform(0.0, 0.5, m) * (rng.random(m) < 0.7)
    return SlabSystem(u, rng.standard_normal(m), widths, delta=0.1, c_prime=1.0)


def dense_lp_optimum(slabs):
    """min t s.t. |c_i - <u_i, v>| <= w_i + t over all slabs at once: the oracle."""
    from scipy.optimize import linprog

    u, c, w = slabs.directions, slabs.centers, slabs.widths
    m, d = u.shape
    ones = np.ones((m, 1))
    res = linprog(
        np.r_[np.zeros(d), 1.0],
        A_ub=np.block([[-u, -ones], [u, -ones]]),
        b_ub=np.r_[w - c, w + c],
        bounds=[(None, None)] * (d + 1),
        method="highs",
    )
    assert res.status == 0
    return res.fun


def failing_after(good_rounds, solutions):
    """A stand-in for ``_slab_lp`` whose rounds fail after ``good_rounds``.

    The solutions of the good rounds are appended to ``solutions``.
    """
    real_slab_lp = mean_module._slab_lp

    def slab_lp(d):
        lp_round = real_slab_lp(d)

        def flaky_round(u, r, w):
            if len(solutions) == good_rounds:
                return None
            solutions.append(lp_round(u, r, w))
            return solutions[-1]

        return flaky_round

    return slab_lp


def gaussian_gt(eigs, mean=None, rotation_seed=None):
    d = len(eigs)
    spec = DistributionSpec(
        "gaussian", SpectrumSpec(tuple(eigs), rotation_seed), mean=tuple(mean or [0.0] * d)
    )
    return make_ground_truth(spec)


class TestFitMarginal:
    def test_constant_dataset(self):
        v = np.array([2.0, -1.0])
        rows = np.tile(v, (200, 1))
        est = fit_marginal(rows, 0.05)
        rng = np.random.default_rng(0)
        for _ in range(10):
            u = rng.standard_normal(2)
            u /= np.linalg.norm(u)
            assert nu_hat(est, u) == pytest.approx(v @ u, rel=1e-12)

    def test_block_plan_pinned(self):
        gt = gaussian_gt([1.0, 1.0])
        est = fit_marginal(sample_dataset(gt, 10**4, 0), 0.01)
        assert est.plan.n == 48 and est.plan.m == 208 and est.plan.discarded == 16

    def test_deterministic(self):
        gt = gaussian_gt([1.0, 1.0])
        ds = sample_dataset(gt, 2000, 3)
        a = fit_marginal(ds, 0.05)
        b = fit_marginal(ds, 0.05)
        assert np.array_equal(a.Y, b.Y)

    def test_sizing_error_names_minimum(self):
        with pytest.raises(SizingError) as err:
            fit_marginal(np.zeros((20, 2)), 0.01)
        assert err.value.minimal_n == 48
        # estimate_mean names the total: 5000 pair differences need 15 000 rows
        with pytest.raises(SizingError) as err:
            estimate_mean(np.zeros((3000, 2)), 0.01)
        assert err.value.minimal_n == 15000
        assert "minimal usable row count: 15000" in str(err.value)
        estimate_mean(np.zeros((15000, 2)), 0.01)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_rows(self, value):
        rows = np.random.default_rng(0).standard_normal((200, 2))
        rows[37, 1] = value
        with pytest.raises(ValueError, match="input row 37 "):
            fit_marginal(rows, 0.05)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_block_sums_rejected(self):
        with pytest.raises(ValueError, match="overflow"):
            fit_marginal(np.full((200, 2), 1e308), 0.05)


class TestNuHat:
    def test_three_block_example(self):
        # m=4, n=3, theta=1/3: projections [10, 0, -10] -> interior mean 0
        y = np.array([[10.0], [0.0], [-10.0]])
        plan = plan_blocks(12, 0.5, 1.0 / 3.0, "mean", PipelineConfig(c_blocks=0.5, theta_mean=1 / 3))
        assert plan.n == 3 and plan.m == 4
        est = MarginalMeanEstimator(Y=y, m=4, theta=1.0 / 3.0, plan=plan)
        assert nu_hat(est, [1.0]) == 0.0

    def test_odd_in_direction(self):
        gt = gaussian_gt([1.0, 1.0])
        est = fit_marginal(sample_dataset(gt, 2000, 5), 0.05)
        rng = np.random.default_rng(1)
        for _ in range(10):
            u = rng.standard_normal(2)
            u /= np.linalg.norm(u)
            assert nu_hat(est, -u) == pytest.approx(-nu_hat(est, u), rel=1e-12, abs=1e-15)

    def test_profile_matches_single(self):
        gt = gaussian_gt([2.0, 1.0])
        est = fit_marginal(sample_dataset(gt, 3000, 6), 0.05)
        rng = np.random.default_rng(2)
        dirs = rng.standard_normal((16, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        prof = nu_hat_profile(est, dirs)
        singles = np.array([nu_hat(est, u) for u in dirs])
        assert np.allclose(prof, singles, rtol=1e-12)

    def test_error_envelope_on_gaussian(self):
        # |nu(e1) - 1| <= 5 sqrt(log(1/delta)/N) in at least 99% of trials
        gt = gaussian_gt([1.0, 1.0], mean=[1.0, 0.0])
        delta, n = 0.01, 10**4
        bound = 5.0 * np.sqrt(np.log(1.0 / delta) / n)
        hits = 0
        trials = 500
        for t in range(trials):
            est = fit_marginal(sample_dataset(gt, n, 10_000 + t), delta)
            hits += abs(nu_hat(est, [1.0, 0.0]) - 1.0) <= bound
        assert hits >= int(0.99 * trials)


class TestSlabWidth:
    def _var_est(self):
        gt = gaussian_gt([1.0, 1.0])
        return fit_variance(sample_dataset(gt, 2 * 10**4, 7))

    def test_zero_variance_zero_width(self):
        rows = np.tile(np.array([1.0, 2.0]), (2000, 1))
        est = fit_variance(rows, PipelineConfig(gamma=1.0, theta_var=0.02))
        assert slab_width(est, [1.0, 0.0], 0.1, 1.0, 100) == 0.0

    def test_arithmetic(self):
        est = self._var_est()
        u = np.array([1.0, 0.0])
        from dirmean import psi

        width = slab_width(est, u, np.exp(-1.0), 1.0, 100)
        assert width == pytest.approx(2.0 * np.sqrt(psi(est, u) / 100.0), rel=1e-12)

    def test_log_confidence_scaling(self):
        est = self._var_est()
        u = np.array([0.0, 1.0])
        w1 = slab_width(est, u, 0.1, 1.0, 1000)
        w2 = slab_width(est, u, 0.01, 1.0, 1000)
        assert w2 == pytest.approx(np.sqrt(2.0) * w1, rel=1e-12)


class TestDirectionSet:
    def test_canonical_plus_random(self):
        dirs = build_direction_set(2, 4, seed=0)
        assert dirs.shape == (4, 2)
        assert np.array_equal(dirs[:2], np.eye(2))

    def test_unit_norms(self):
        dirs = build_direction_set(5, 32, seed=1)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)

    def test_deterministic(self):
        assert np.array_equal(build_direction_set(3, 12, seed=2), build_direction_set(3, 12, seed=2))

    def test_rejects_small_budget(self):
        with pytest.raises(ValueError):
            build_direction_set(4, 7, seed=0)

    def test_no_near_duplicates(self):
        dirs = build_direction_set(3, 24, seed=3)
        gram = np.abs(dirs @ dirs.T)
        np.fill_diagonal(gram, 0.0)
        assert gram.max() < 1.0 - 1e-12

    def test_includes_block_eigendirections(self):
        gt = gaussian_gt([10.0, 1.0, 0.1])
        var_est = fit_variance(sample_dataset(gt, 2 * 10**4, 8))
        dirs = build_direction_set(3, 12, seed=4, var_est=var_est)
        # the top eigendirection of the blocks is close to e1
        gram = np.abs(dirs @ np.eye(3)[0])
        assert np.sort(gram)[-2] > 0.99  # e1 itself plus the learned direction

    @pytest.mark.parametrize(
        "d, budget, seed",
        [(2, 4096, 0), (2, 8192, 1), (3, 2048, 5), (10, 256, 7), (50, 400, 9), (200, 1600, 1)],
    )
    def test_fill_matches_sequential_oracle(self, d, budget, seed):
        # (2, 4096, 0) and (2, 8192, 1) reject candidates that are near-duplicates
        # of kept rows; (2, 8192, 1) also has near-duplicate pairs inside one chunk
        ref = oracle_direction_fill(np.eye(d), budget, stream(seed, "direction-fill"), DUPLICATE_DOT)
        assert np.array_equal(build_direction_set(d, budget, seed), ref)

    @pytest.mark.parametrize("budget", [4, 5, 8])
    def test_near_duplicates_inside_one_chunk(self, budget):
        v = np.array([0.6, -0.48, 0.64])
        v /= np.linalg.norm(v)
        w = v + 1e-14 * np.eye(3)[0]
        w /= np.linalg.norm(w)
        a = np.array([np.cos(1e-6), np.sin(1e-6), 0.0])  # too close to e1
        b = np.array([np.cos(2e-6), np.sin(2e-6), 0.0])  # close to a only, which is dropped
        cand = np.array([v, -v, w, a, b])
        out = np.empty((budget, 3))
        out[:3] = np.eye(3)
        count = _keep_new(out, 3, cand)
        ref = np.empty((budget, 3))
        ref[:3] = np.eye(3)
        assert count == oracle_keep_new(ref, 3, cand, DUPLICATE_DOT) == min(budget, 5)
        assert np.array_equal(out[:count], ref[:count])
        assert np.array_equal(out[3:count], np.array([v, b])[: count - 3])

    @pytest.mark.parametrize("d", [3, 12])
    def test_learned_directions_are_block_eigenvectors(self, d):
        gt = gaussian_gt(np.geomspace(10.0, 0.1, d), rotation_seed=d)
        var_est = fit_variance(sample_dataset(gt, 2 * 10**4, 8))
        z = var_est.Z
        k = min(d, 8)
        dirs = build_direction_set(d, 4 * d, seed=4, var_est=var_est)
        vecs = np.linalg.eigh(z.T @ z / z.shape[0])[1][:, ::-1][:, :k].T
        learned = dirs[d : d + k]
        assert np.all(np.abs(np.sum(learned * vecs, axis=1)) > 1 - 1e-10)
        assert np.all(learned[np.arange(k), np.abs(learned).argmax(axis=1)] > 0)
        # only min(d, 8) are learned; the random fill follows them
        ref = oracle_direction_fill(dirs[: d + k], 4 * d, stream(4, "direction-fill"), DUPLICATE_DOT)
        assert np.array_equal(dirs, ref)

    def test_constant_data_adds_no_learned_direction(self):
        var_est = fit_variance(np.ones((10**4, 3)))
        assert not var_est.Z.any()
        dirs = build_direction_set(3, 12, seed=6, var_est=var_est)
        assert np.array_equal(dirs, build_direction_set(3, 12, seed=6))


def rotated_toward(base, rng, angle):
    """``base`` turned by ``angle`` rad toward a random direction orthogonal to it."""
    p = rng.standard_normal(base.size)
    p -= (p @ base) * base
    p /= np.linalg.norm(p)
    return np.cos(angle) * base + np.sin(angle) * p


def keep_new_and_oracle(kept, budget, cand):
    """Run ``_keep_new`` and the sequential oracle from the same kept rows."""
    out = np.empty((budget, kept.shape[1]))
    out[: len(kept)] = kept
    ref = out.copy()
    count = _keep_new(out, len(kept), cand)
    ref_count = oracle_keep_new(ref, len(kept), cand, DUPLICATE_DOT)
    return out[:count], ref[:ref_count]


class TestKeepNewScreen:
    @pytest.mark.parametrize("d", [3, 200, 2000])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("gap, duplicate", [(0.9e-12, True), (1.1e-12, False)])
    def test_threshold_pairs(self, d, sign, gap, duplicate):
        # |cos| = 1 - gap: just above DUPLICATE_DOT (0.9e-12) or just below it
        rng = np.random.default_rng(d)
        kept = rng.standard_normal((4, d))
        kept /= np.linalg.norm(kept, axis=1, keepdims=True)
        x = sign * rotated_toward(kept[2], rng, np.arccos(1.0 - gap))
        assert (abs(x @ kept[2]) >= DUPLICATE_DOT) == duplicate
        got, ref = keep_new_and_oracle(kept, 8, x[np.newaxis, :])
        assert np.array_equal(got, ref)
        assert len(got) == (4 if duplicate else 5)

    @pytest.mark.parametrize("d", [2, 3, 200])
    def test_negated_canonical_row_rejected(self, d):
        cand = np.vstack([-np.eye(d)[d // 2], np.eye(d)[0]])
        got, ref = keep_new_and_oracle(np.eye(d), 2 * d, cand)
        assert np.array_equal(got, np.eye(d)) and np.array_equal(ref, np.eye(d))

    def test_identical_candidates_keep_one_in_bounded_memory(self):
        d, k = 200, 2000
        v = np.random.default_rng(1).standard_normal(d)
        v /= np.linalg.norm(v)
        cand = np.tile(v, (k, 1))
        out = np.empty((d + k, d))
        out[:d] = np.eye(d)
        tracemalloc.start()
        start = time.perf_counter()
        count = _keep_new(out, d, cand)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert count == d + 1 and np.array_equal(out[d], v)
        # every pair of the 2000 shares a key; gathering all their rows would take gigabytes
        assert peak < out.nbytes
        assert elapsed < 5.0

    @pytest.mark.parametrize("d", [2, 5, 50])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_clusters_match_oracle(self, d, seed):
        # rows turned 1e-7 to 1e-5 rad from a few base rows (or their
        # negations) straddle the ~1.41e-6 rad duplicate angle
        rng = np.random.default_rng(100 * d + seed)
        bases = rng.standard_normal((3, d))
        bases /= np.linalg.norm(bases, axis=1, keepdims=True)
        cand = np.array([
            rng.choice([-1.0, 1.0]) * rotated_toward(bases[rng.integers(3)], rng, 10 ** rng.uniform(-7, -5))
            for _ in range(60)
        ])
        kept = np.vstack([np.eye(d), bases[:1]])
        for budget in (len(kept) + 4, len(kept) + 60):
            got, ref = keep_new_and_oracle(kept, budget, cand)
            assert np.array_equal(got, ref)
        assert len(ref) < len(kept) + 60  # the clusters hold near-duplicates


class TestSolveCenter:
    def test_two_orthogonal_slabs(self):
        slabs = SlabSystem(np.eye(2), centers=[1.0, 2.0], widths=[0.0, 0.0], delta=0.1, c_prime=1.0)
        res = solve_center(slabs)
        assert np.allclose(res.v_star, [1.0, 2.0], atol=1e-9)
        assert res.rho_star <= 1e-9

    def test_conflicting_slabs_midpoint(self):
        slabs = SlabSystem(
            np.array([[1.0], [1.0]]), centers=[0.0, 2.0], widths=[0.0, 0.0], delta=0.1, c_prime=1.0
        )
        res = solve_center(slabs)
        assert res.v_star[0] == pytest.approx(1.0, abs=1e-8)
        assert res.rho_star == pytest.approx(1.0, abs=1e-8)

    def test_feasible_random_systems(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = rng.integers(1, 8)
            m = rng.integers(d, 60)
            u = rng.standard_normal((m, d))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            v0 = rng.standard_normal(d)
            widths = rng.uniform(0.0, 1.0, m) * (rng.random(m) < 0.7)
            slabs = SlabSystem(u, u @ v0, widths, delta=0.1, c_prime=1.0)
            res = solve_center(slabs)
            assert res.rho_star <= 1e-6
            assert slabs.max_violation(res.v_star) <= 1e-6

    def test_never_worse_than_warm_start(self):
        rng = np.random.default_rng(6)
        u = rng.standard_normal((30, 4))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        slabs = SlabSystem(u, rng.standard_normal(30), np.zeros(30), delta=0.1, c_prime=1.0)
        v_init = rng.standard_normal(4)
        res = solve_center(slabs, v_init=v_init)
        assert res.g_value <= slabs.max_violation(v_init) + 1e-12

    def test_adding_slabs_cannot_reduce_minimax(self):
        rng = np.random.default_rng(7)
        u = rng.standard_normal((40, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        c = rng.standard_normal(40)
        slabs = SlabSystem(u, c, np.full(40, 0.05), delta=0.1, c_prime=1.0)
        base = solve_center(slabs)
        extra = rng.standard_normal((10, 3))
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
        bigger = slabs.extended(extra, extra @ base.v_star + rng.uniform(-2, 2, 10), np.zeros(10))
        res = solve_center(bigger, v_init=base.v_star)
        assert res.rho_star >= base.rho_star - 1e-9

    def test_infeasible_random_systems_match_dense_lp(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            d = int(rng.integers(1, 21))
            m = int(rng.integers(d + 1, 401))
            slabs = random_infeasible_system(rng, d, m)
            res = solve_center(slabs)
            dense = dense_lp_optimum(slabs)
            assert dense > 0.0
            assert res.converged and res.iterations >= 1
            assert res.rho_star == pytest.approx(dense, rel=1e-9)
            assert 0.0 <= res.final_gap <= TOL * (1.0 + res.rho_star)
            assert slabs.max_violation(res.v_star) == res.rho_star

    def test_benchmark_shape_matches_dense_lp_and_repeats(self):
        # the shape of the infeasible benchmark systems: d = 50, ~500 slabs,
        # several rounds that each resume the one model from its basis
        slabs = random_infeasible_system(np.random.default_rng(3), 50, 500)
        res = solve_center(slabs)
        assert res.converged and res.iterations >= 3
        assert res.rho_star == pytest.approx(dense_lp_optimum(slabs), rel=1e-9)
        assert 0.0 <= res.final_gap <= TOL * (1.0 + res.rho_star)
        again = solve_center(slabs)
        assert again.v_star.tobytes() == res.v_star.tobytes()
        assert again.iterations == res.iterations

    def test_feasible_warm_start_returned_at_once(self):
        slabs = SlabSystem(np.eye(2), centers=[1.0, 2.0], widths=[0.5, 0.5], delta=0.1, c_prime=1.0)
        v_init = np.array([1.2, 1.9])
        res = solve_center(slabs, v_init=v_init)
        assert res.iterations == 0 and res.converged
        assert res.rho_star == 0.0 and res.final_gap == 0.0
        assert np.array_equal(res.v_star, v_init)

    def test_lp_failure_flags_not_raises(self, monkeypatch):
        monkeypatch.setattr(mean_module, "_slab_lp", failing_after(0, []))
        slabs = SlabSystem(
            np.array([[1.0], [1.0]]), centers=[0.0, 2.0], widths=[0.0, 0.0], delta=0.1, c_prime=1.0
        )
        res = solve_center(slabs, v_init=np.array([0.5]))
        assert not res.converged and res.iterations == 1
        assert np.isfinite(res.rho_star) and res.rho_star == pytest.approx(1.5)
        assert slabs.max_violation(res.v_star) == res.rho_star

    def test_failure_flags_even_a_gap_within_tolerance(self, monkeypatch):
        # the warm start is 5e-10 from the optimum 1e-9, inside TOL, but no
        # round certified it
        monkeypatch.setattr(mean_module, "_slab_lp", failing_after(0, []))
        slabs = SlabSystem(
            np.array([[1.0], [1.0]]), centers=[0.0, 2e-9], widths=[0.0, 0.0], delta=0.1, c_prime=1.0
        )
        res = solve_center(slabs, v_init=np.array([0.5e-9]))
        assert not res.converged and res.rho_star == pytest.approx(1.5e-9)

    def test_stopped_highs_solve_reported_as_failure(self, monkeypatch):
        from scipy.optimize._highspy import _core

        class IterationLimited(_core._Highs):
            def run(self):
                self.setOptionValue("simplex_iteration_limit", 0)
                return super().run()

        slab_args = (np.array([[1.0], [1.0]]), np.array([-0.5, 1.5]), np.zeros(2))
        assert np.allclose(mean_module._slab_lp(1)(*slab_args), [0.5, 1.0])
        monkeypatch.setattr(_core, "_Highs", IterationLimited)
        assert mean_module._slab_lp(1)(*slab_args) is None

    def test_failure_in_a_later_round_returns_the_round_one_point(self, monkeypatch):
        slabs = random_infeasible_system(np.random.default_rng(3), 50, 500)
        assert solve_center(slabs).iterations >= 2
        solutions = []
        monkeypatch.setattr(mean_module, "_slab_lp", failing_after(1, solutions))
        res = solve_center(slabs)
        assert not res.converged and res.iterations == 2
        warm = np.linalg.lstsq(slabs.directions, slabs.centers, rcond=None)[0]
        assert np.array_equal(res.v_star, warm + solutions[0][:50])
        assert res.rho_star < slabs.max_violation(warm)
        assert slabs.max_violation(res.v_star) == res.rho_star


class TestSolveCenterProperties:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_replayable_and_optimal(self, data):
        # low dimensions, repeated and negated directions, zero-width slabs
        d = data.draw(st.sampled_from([1, 2]))
        m = data.draw(st.integers(1, 12))
        if d == 1:
            dirs = np.ones((m, 1))
        else:
            angles = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.3, 1.2, 2.5]), min_size=m, max_size=m)))
            dirs = np.column_stack([np.cos(angles), np.sin(angles)])
        signs = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m)))
        floats = st.floats(-5.0, 5.0, allow_nan=False)
        centers = np.array(data.draw(st.lists(floats, min_size=m, max_size=m)))
        widths = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.0, 0.1, 1.0]), min_size=m, max_size=m)))
        slabs = SlabSystem(dirs * signs[:, np.newaxis], centers, widths, delta=0.1, c_prime=1.0)
        res = solve_center(slabs)
        assert res.rho_star == max(slabs.max_violation(res.v_star), 0.0)
        optimum = max(dense_lp_optimum(slabs), 0.0)
        if res.converged:
            assert res.rho_star <= optimum + TOL * (1.0 + optimum)


class TestHighsBinding:
    def test_private_binding_names_exist(self):
        # solve_center's LP runs through scipy's bundled HiGHS binding, which
        # is private API: a scipy that moves these names must fail here
        floor = "scipy >= 1.17 (pyproject.toml)"
        try:
            from scipy.optimize._highspy._core import (
                HighsModelStatus,
                HighsStatus,
                _Highs,
                kHighsInf,
            )
        except ImportError as exc:
            pytest.fail(f"scipy.optimize._highspy._core moved ({exc}); dirmean needs {floor}")
        needed = [
            (_Highs, name)
            for name in (
                "setOptionValue",
                "addVars",
                "changeColsCost",
                "addRows",
                "run",
                "getModelStatus",
                "getSolution",
            )
        ] + [(HighsModelStatus, "kOptimal"), (HighsStatus, "kError")]
        missing = [name for owner, name in needed if not hasattr(owner, name)]
        assert not missing, f"HiGHS binding lacks {missing}; dirmean needs {floor}"
        assert isinstance(kHighsInf, float)


class TestEstimateMean:
    def test_constant_dataset_recovered_exactly(self):
        v = np.array([3.0, -2.0])
        rows = np.tile(v, (600, 1))
        est = estimate_mean(rows, 0.05, SMALL_CFG, seed=1)
        assert np.allclose(est.mu_hat, v, atol=1e-12)
        # zero slack up to the ulp residue of the 1/sqrt(m) rescaling
        assert est.rho_star <= 1e-12

    def test_replay_certificate(self):
        gt = gaussian_gt([1.0, 0.5, 0.25])
        ds = sample_dataset(gt, 3 * 10**4, 9)
        est = estimate_mean(ds, 0.01, seed=2)
        assert est.slabs.max_violation(est.mu_hat) <= est.rho_star + 1e-8 * (1 + est.rho_star)

    def test_deterministic_bytes(self):
        gt = gaussian_gt([1.0, 1.0])
        ds = sample_dataset(gt, 3 * 10**4, 10)
        a = estimate_mean(ds, 0.01, seed=3)
        b = estimate_mean(ds, 0.01, seed=3)
        assert np.array_equal(a.mu_hat, b.mu_hat)
        assert a.rho_star == b.rho_star

    def test_translation_equivariance(self):
        # exact in real arithmetic; verified at float precision since the
        # projections of shifted data round differently in the last ulp
        gt = gaussian_gt([1.0, 1.0])
        rows = sample_dataset(gt, 3 * 10**4, 11).rows
        shift = np.array([10.0, -5.0])
        a = estimate_mean(rows, 0.01, seed=4)
        b = estimate_mean(rows + shift, 0.01, seed=4)
        assert np.allclose(b.mu_hat - shift, a.mu_hat, atol=1e-9 * (1 + np.linalg.norm(shift)))

    def test_discards_to_multiple_of_three(self):
        gt = gaussian_gt([1.0, 1.0])
        rows = sample_dataset(gt, 3 * 10**4 + 2, 12).rows
        a = estimate_mean(rows, 0.01, seed=5)
        b = estimate_mean(rows[: 3 * 10**4], 0.01, seed=5)
        assert np.array_equal(a.mu_hat, b.mu_hat)

    def test_json_serialization_keys(self):
        gt = gaussian_gt([1.0, 1.0])
        est = estimate_mean(sample_dataset(gt, 3 * 10**4, 13), 0.01, seed=6)
        doc = est.to_json_dict()
        for key in (
            "mu_hat",
            "rho_star",
            "directions_used",
            "refinement_rounds",
            "probe_violation",
            "converged",
            "block_plan_mean",
            "block_plan_var",
        ):
            assert key in doc

    def test_one_dimensional_data(self):
        rows = np.random.default_rng(15).standard_normal((15000, 1)) + 2.0
        est = estimate_mean(rows, 0.01, seed=8)
        assert est.mu_hat.shape == (1,) and np.isfinite(est.mu_hat[0])
        assert abs(est.mu_hat[0] - 2.0) < 0.1

    @pytest.mark.parametrize("n_rows", [0, 2, 8])
    def test_tiny_inputs_raise_the_mean_stage_sizing_error(self, n_rows):
        # the same error as any other too-small input: 48 mean blocks need 144 rows
        with pytest.raises(SizingError, match="mean stage") as err:
            estimate_mean(np.zeros((n_rows, 3)), 0.01)
        assert err.value.minimal_n == 144

    @pytest.mark.parametrize("row, value", [(123, np.nan), (9001, np.inf), (14999, -np.inf)])
    def test_rejects_non_finite_rows(self, row, value):
        # rows 0..4999 feed the marginal means, 5000..14999 the variances
        rows = np.random.default_rng(16).standard_normal((15000, 3))
        rows[row, 2] = value
        with pytest.raises(ValueError, match=f"input row {row} "):
            estimate_mean(rows, 0.01, seed=9)

    def test_constant_rows_of_ones(self):
        est = estimate_mean(np.ones((15000, 3)), 0.01, seed=10)
        assert np.allclose(est.mu_hat, np.ones(3), atol=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_huge_rows_still_estimate(self):
        # the block second moment is scaled before its Gram matrix is formed,
        # so entries near 1e150 (squares near 1e300) do not overflow it
        rows = np.random.default_rng(17).standard_normal((15000, 3)) * 1e150
        est = estimate_mean(rows, 0.01, seed=11)
        assert np.all(np.isfinite(est.mu_hat)) and np.linalg.norm(est.mu_hat) < 1e150

    @pytest.mark.filterwarnings("error")
    def test_overflowing_rows_raise_value_error(self):
        # squared projections overflow in the slab widths: a ValueError naming
        # the variance stage, not a numpy overflow warning or a LinAlgError
        rows = np.random.default_rng(17).standard_normal((15000, 3)) * 1e155
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="variance stage: the squared projections"):
                estimate_mean(rows, 0.01, seed=11)

    def test_result_independent_of_memory_layout(self):
        # the kernels see C-contiguous rows whatever the input layout, so the
        # block sums, and every field of the estimate, keep their bytes
        rows = np.random.default_rng(18).standard_t(3, size=(15000, 3))
        wide = np.zeros((15000, 6))
        wide[:, ::2] = rows
        ref = estimate_mean(rows, 0.01, seed=12)
        ref_z = fit_variance(rows[5000:]).Z
        for other in (np.asfortranarray(rows), wide[:, ::2]):
            assert fit_variance(other[5000:]).Z.tobytes() == ref_z.tobytes()
            for data in (other, Dataset(other)):
                est = estimate_mean(data, 0.01, seed=12)
                assert est.mu_hat.tobytes() == ref.mu_hat.tobytes()
                assert (est.rho_star, est.iterations) == (ref.rho_star, ref.iterations)
                assert est.slabs.centers.tobytes() == ref.slabs.centers.tobytes()
                assert est.slabs.widths.tobytes() == ref.slabs.widths.tobytes()

    def test_accuracy_at_moderate_scale(self):
        gt = gaussian_gt([1.0, 1.0], mean=[2.0, -1.0])
        est = estimate_mean(sample_dataset(gt, 3 * 10**4, 14), 0.01, seed=7)
        assert np.linalg.norm(est.mu_hat - gt.mu) < 0.1
