import json
import sys
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirmean import (
    DistributionSpec,
    MarginalMeanEstimator,
    PipelineConfig,
    SizingError,
    SlabSystem,
    SpectrumSpec,
    VarianceEstimator,
    block_averages,
    build_direction_set,
    estimate_mean,
    fit_marginal,
    fit_variance,
    make_ground_truth,
    nu_hat_profile,
    plan_mean_blocks,
    plan_variance_blocks,
    psi_profile,
    sample_dataset,
    slab_width_profile,
    solve_center,
    write_report,
)
import dirmean.mean as mean_module
from dirmean.blocks import _BAND_ROWS, _PANEL_ROWS, _PROJECTION_BYTES, projection_panels
from dirmean.mean import TOL, _CutState, _eigendirections
from dirmean.rng import random_unit_rows, stream
from naive_oracles import oracle_direction_fill, oracle_nu_hat_profile, oracle_probe, oracle_psi_profile

SMALL_CFG = PipelineConfig(m0=1, theta_var=0.125)


def shrink_refine(monkeypatch, budget):
    """Make estimate_mean use the first ``budget`` directions of its set and draw 64 probes per refine round."""
    build = mean_module.build_direction_set
    monkeypatch.setattr(mean_module, "build_direction_set", lambda seed, var_est: build(seed, var_est)[:budget])
    monkeypatch.setattr(mean_module, "_REFINE_PROBES", 64)


def zero_blocks(d):
    """Variance blocks of d columns that are all zero: they give no learned
    direction, so a direction set built on them is canonical rows and fill."""
    plan = plan_variance_blocks(50, PipelineConfig(m0=1))  # 50 blocks of one pair
    return VarianceEstimator(Z=np.zeros((plan.n, d)), plan=plan)


def random_infeasible_system(rng, d, m):
    u = rng.standard_normal((m, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    widths = rng.uniform(0.0, 0.5, m) * (rng.random(m) < 0.7)
    return SlabSystem(u, rng.standard_normal(m), widths)


def degenerate_infeasible_systems(rng, d):
    """Two systems whose simplex pivots tie, each with exact duplicates of a
    quarter of its slabs appended:

    - slack 1 at the quarter-grid point v0 on every slab side, canonical
      rows and 3 (d + 1) to 10 (d + 1) random ones, widths on the grid;
    - random slabs and the canonical rows, centers rounded to the grid and
      widths in {0, 1/4, 1/2}.
    """
    u = np.vstack([np.eye(d), -np.eye(d), random_unit_rows(rng, int(rng.integers(3, 11)) * (d + 1), d)])
    w = rng.integers(0, 3, len(u)) / 4.0
    tight = SlabSystem(u, u @ (rng.integers(-8, 9, d) / 4.0) + rng.choice([-1.0, 1.0], len(u)) * (w + 1.0), w)
    base = random_infeasible_system(rng, d, int(rng.integers(d + 1, 201)))
    u = np.vstack([np.eye(d), base.directions])
    c = np.round(np.r_[rng.standard_normal(d), base.centers] * 4.0) / 4.0
    rounded = SlabSystem(u, c, rng.integers(0, 3, len(u)) / 4.0)
    for slabs in (tight, rounded):
        pick = rng.integers(slabs.n_slabs, size=slabs.n_slabs // 4)
        yield slabs.extended(slabs.directions[pick], slabs.centers[pick], slabs.widths[pick])


def with_duplicate_slabs(rng, slabs, count):
    """``slabs`` with ``count`` of its own slabs appended again: exact copies,
    negated copies, and (for d > 1) copies turned by 1e-7 rad."""
    u, c, w = slabs.directions, slabs.centers, slabs.widths
    pick = rng.integers(u.shape[0], size=count)
    kind = rng.integers(3 if u.shape[1] > 1 else 2, size=count)
    du, dc = u[pick].copy(), c[pick].copy()
    du[kind == 1] *= -1.0
    dc[kind == 1] *= -1.0
    for i in np.flatnonzero(kind == 2):
        p = rng.standard_normal(u.shape[1])
        p -= (p @ du[i]) * du[i]
        du[i] = np.cos(1e-7) * du[i] + np.sin(1e-7) * p / np.linalg.norm(p)
        du[i] /= np.linalg.norm(du[i])
    return slabs.extended(du, dc, w[pick])


def dense_lp_optimum(slabs):
    """min t s.t. |c_i - <u_i, v>| <= w_i + t over all slabs at once: the oracle.

    HiGHS's default feasibility tolerances (1e-7) can put the optimum it
    reports below the true one by more than 1e-9 when two rows are nearly
    parallel, so the oracle asks for 1e-10.
    """
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
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0
    return res.fun


def check_cut_map(state):
    """Column j of ``state.cuts`` is a distinct (side, slab) pair for each model column j."""
    assert state.cuts.shape[1] == state.highs.getNumCol()
    sides = state.cuts.T.tolist()
    assert len({tuple(side) for side in sides}) == len(sides)
    assert set(state.cuts[0].tolist()) <= {0, 1} and (state.cuts[1] >= 0).all()


def record_lp(monkeypatch, fail_at=()):
    """Patch ``_CutState`` to record its models, rounds and prunes.

    The log lists each model ``start`` built, each round's (u, s, b), each
    optimal (x, t) and (cuts kept, model columns) after each prune; the cut
    map is checked after every start, solved round and prune.  Round n, counted
    from 1, fails for n in ``fail_at``: it returns None and leaves the state
    cold, as a round HiGHS does not solve does.
    """
    log = SimpleNamespace(models=[], rounds=[], solutions=[], prunes=[])
    start, lp_round, prune = _CutState.start, _CutState.round, _CutState.prune

    def logged_start(self, d, origin):
        start(self, d, origin)
        log.models.append(self.highs)
        check_cut_map(self)

    def logged_round(self, slab, u, s, b):
        log.rounds.append((u.copy(), s.copy(), b.copy()))
        if len(log.rounds) in fail_at:
            self.highs = None
            return None
        log.solutions.append(lp_round(self, slab, u, s, b))
        check_cut_map(self)
        assert np.array_equal(self.cuts[:, -s.size :], [s < 0.0, slab])
        return log.solutions[-1]

    def logged_prune(self):
        prune(self)
        log.prunes.append((self.cuts.shape[1], self.highs.getNumCol()))
        check_cut_map(self)

    monkeypatch.setattr(_CutState, "start", logged_start)
    monkeypatch.setattr(_CutState, "round", logged_round)
    monkeypatch.setattr(_CutState, "prune", logged_prune)
    return log


def append_violators(rng, slabs, res, probes=64, append=16):
    """``slabs`` plus the ``append`` worst of ``probes`` random slabs that
    ``res.v_star`` violates beyond ``res.rho_star``, as the refine loop appends."""
    d = slabs.directions.shape[1]
    p = random_unit_rows(rng, probes, d)
    widths = rng.uniform(0.0, 0.5, probes)
    excess = rng.uniform(0.0, 0.5, probes) * (1.0 + res.rho_star)
    centers = p @ res.v_star + rng.choice([-1.0, 1.0], probes) * (widths + res.rho_star + excess)
    worst = np.argsort(excess)[::-1][:append]
    return slabs.extended(p[worst], centers[worst], widths[worst])


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
            assert nu_hat_profile(est, [u])[0] == pytest.approx(v @ u, rel=1e-12)

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


class TestFitMarginalBlocks:
    def test_blocks_only_the_used_rows(self, monkeypatch):
        # 150 rows and n = 48 blocks of m = 3: the 6 trailing rows form no block
        rows = np.random.default_rng(3).standard_normal((150, 2))
        seen = []

        def recording(ds, m):
            seen.append(np.shape(ds)[0])
            return block_averages(ds, m)

        monkeypatch.setattr(mean_module, "block_averages", recording)
        est = fit_marginal(rows, 0.01)
        assert (est.plan.n, est.plan.m, est.plan.used) == (48, 3, 144)
        assert seen == [144]
        assert np.array_equal(est.Y, block_averages(rows, 3)[:48])


class TestNuHatProfileTallBlocks:
    """nu_hat_profile sorts each direction's projection row in place and sums
    its band in place; the values must be those of the copy-based
    composition, bit for bit, at 1000 blocks (64-row panels) and at the
    benchmark's 48 marginal blocks (256-row panels)."""

    # (blocks, d, M, whether the projections are all -0.0); the 1000-block cases keep their ids
    CASES = [pytest.param(1000, d, count, False, id=f"{d}-{count}")
             for d, count in [(50, 512), (50, 400), (50, 1), (1, 1), (1, 512)]]
    CASES += [pytest.param(48, d, count, False, id=f"48-{d}-{count}")
              for d, count in [(50, 1), (50, 2), (50, 64), (50, 65), (50, 400), (50, 512), (50, 1600),
                               (200, 1), (200, 2), (200, 64), (200, 65), (200, 400), (200, 512),
                               (200, 1600)]]
    CASES += [pytest.param(48, 50, count, True, id=f"48-50-{count}-neg0") for count in (1, 65)]

    @pytest.mark.parametrize("blocks, d, count, negative_zero", CASES)
    def test_matches_copy_based_oracle(self, monkeypatch, blocks, d, count, negative_zero):
        rng = np.random.default_rng(d + count)
        y = rng.standard_t(3, size=(blocks, d))
        config = PipelineConfig(c_blocks=178.0) if blocks == 1000 else PipelineConfig()
        plan = plan_mean_blocks(blocks * 7, 0.01, config)
        assert plan.n == blocks
        est = MarginalMeanEstimator(Y=y, plan=plan)
        dirs = rng.standard_normal((count, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        expected = oracle_nu_hat_profile(y, dirs, plan.trim_per_side, plan.m)
        if negative_zero:
            # BLAS products start from +0.0, so the -0.0 is written into each
            # panel; numpy's axis-0 sum of an all -0.0 band is +0.0
            project = mean_module.projection_panels

            def negative_zero_panels(u, x):
                for lo, panel in project(u, x):
                    panel.fill(-0.0)
                    yield lo, panel

            monkeypatch.setattr(mean_module, "projection_panels", negative_zero_panels)
            expected = np.zeros(count)
        got = nu_hat_profile(est, dirs)
        assert np.array_equal(got, expected) and np.array_equal(np.signbit(got), np.signbit(expected))

    def test_caller_arrays_untouched(self):
        rng = np.random.default_rng(4)
        est = fit_marginal(rng.standard_normal((2000, 3)), 0.05)
        dirs = rng.standard_normal((16, 3))
        y, d0 = est.Y.copy(), dirs.copy()
        nu_hat_profile(est, dirs)
        assert np.array_equal(est.Y, y) and np.array_equal(dirs, d0)


class TestProjectionPanels:
    """Both profiles project a panel of directions at a time into one reused
    buffer: the largest multiple of ``_BAND_ROWS`` directions whose (rows,
    blocks) panel fits in ``_PROJECTION_BYTES``, at least ``_BAND_ROWS`` and
    at most ``_PANEL_ROWS`` (256 rows up to 128 blocks, 32 at 1000).

    Checked on OpenBLAS 0.3.31 (scipy-openblas 0.3.31.188.0, DYNAMIC_ARCH,
    on an AVX-512 Xeon): at every panel boundary the profiles agree with
    the whole (directions, blocks) product to 1e-14 of their largest
    magnitude.  A panel may differ from the whole product in the last bit,
    as OpenBLAS picks its kernel by the whole shape (here at 257 directions
    of ``psi_profile`` and 513 of ``nu_hat_profile``), so that check
    is not for equal bytes; at the counts of
    ``test_equal_bytes_at_1000_blocks`` the bytes are equal.
    """

    N_BLOCKS, D = 1000, 50

    def _estimators(self):
        rng = np.random.default_rng(11)
        z = rng.standard_t(3, size=(self.N_BLOCKS, self.D))
        y = rng.standard_t(3, size=(self.N_BLOCKS, self.D)) + 0.5
        var = VarianceEstimator(Z=z, plan=plan_variance_blocks(self.N_BLOCKS, PipelineConfig(m0=1)))
        plan = plan_mean_blocks(self.N_BLOCKS * 7, 0.01, PipelineConfig(c_blocks=178.0))
        assert plan.n == self.N_BLOCKS
        return var, MarginalMeanEstimator(Y=y, plan=plan)

    def _profiles(self, count):
        var, marg = self._estimators()
        dirs = random_unit_rows(np.random.default_rng(count), count, self.D)
        return (
            (psi_profile(var, dirs), oracle_psi_profile(var.Z, dirs, var.plan.trim_per_side)),
            (nu_hat_profile(marg, dirs), oracle_nu_hat_profile(marg.Y, dirs, marg.plan.trim_per_side, marg.plan.m)),
        )

    @pytest.mark.parametrize("count", [1, 255, 256, 257, 512, 513, 1600])
    def test_panel_boundaries_match_the_whole_product(self, count):
        for got, expected in self._profiles(count):
            assert got.shape == (count,)
            assert np.all(np.abs(got - expected) <= 1e-14 * np.abs(expected).max())

    @pytest.mark.parametrize("count", [31, 32, pytest.param(33, marks=pytest.mark.xfail(
        strict=True, reason="a lone direction is a 1-row product, which numpy hands to BLAS gemv; its last bit "
        "can differ from its row of the whole product (gemm), and at 33 nu_hat_profile keeps the difference")),
        63, 64, 65, 128, 129, 512])
    def test_equal_bytes_at_1000_blocks(self, count):
        # 32-row panels; 33, 65 and 129 leave a lone direction, whose band
        # sum must still run in block order
        for got, expected in self._profiles(count):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("blocks, rows", [(1, 256), (48, 256), (128, 256), (256, 128), (257, 96), (400, 64),
                                              (1000, 32), (5000, 32)])
    def test_panel_rows_are_whole_bands_within_the_byte_budget(self, blocks, rows):
        u = random_unit_rows(np.random.default_rng(blocks), 2 * rows + 1, 3)
        x = np.random.default_rng(0).standard_normal((blocks, 3))
        spans = [(lo, panel.shape) for lo, panel in projection_panels(u, x)]
        assert spans == [(0, (rows, blocks)), (rows, (rows, blocks)), (2 * rows, (1, blocks))]
        assert rows % _BAND_ROWS == 0 and rows <= _PANEL_ROWS
        assert rows * blocks * 8 <= _PROJECTION_BYTES or rows == _BAND_ROWS

    @pytest.mark.parametrize("profile", [psi_profile, nu_hat_profile], ids=lambda f: f.__name__)
    def test_working_memory_is_one_panel(self, profile):
        var, marg = self._estimators()
        est = var if profile is psi_profile else marg
        dirs = random_unit_rows(np.random.default_rng(3), 4096, self.D)
        # warm on the whole set: first-call allocations, and the interpreter's
        # free lists that 128 panels of numpy calls fill (up to 16 KB), stay out
        profile(est, dirs)
        tracemalloc.start()
        try:
            profile(est, dirs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one panel and the (4096,) result (the whole (4096, 1000) product
        # would take 32.8 MB, a 256-row panel 2 MB)
        assert peak <= _PROJECTION_BYTES + 8 * dirs.shape[0]


class TestRefineLoopMemory:
    """The refine loop holds one probe set at a time, at most one panel of it
    alive, and the first direction set is freed once the slabs are extended
    beyond it."""

    def test_one_probe_set_alive_and_the_first_directions_freed(self, monkeypatch):
        gt = make_ground_truth(DistributionSpec.from_json_dict({
            "family": "elliptical-student", "eigenvalues": np.geomspace(1.0, 1e-3, 50).tolist(),
            "mean": [0.0] * 50, "dof": 3.0}))
        rows = sample_dataset(gt, 30000, seed=1)
        panels, direction_sets, extended = [], [], []
        draw, build, extend = mean_module.random_unit_rows, mean_module.build_direction_set, SlabSystem.extended

        def owner(a):
            return a if a.base is None else a.base

        def recorded_draw(rng, count, d, out=None):
            if not direction_sets:  # build_direction_set's fill
                return draw(rng, count, d, out=out)
            into = None if out is None else owner(out)
            alive = [ref() for ref in panels if ref() is not None]
            assert all(a is into for a in alive), "a probe panel outlives the next draw"
            if extended:
                assert direction_sets[0]() is None, "the first direction set outlives the extended slabs"
            got = draw(rng, count, d, out=out)
            assert owner(got).shape[0] <= _PANEL_ROWS  # a probe panel is one projection panel of the most rows
            panels.append(weakref.ref(owner(got)))
            return got

        def recorded_build(*args, **kwargs):
            out = build(*args, **kwargs)
            direction_sets.append(weakref.ref(out))
            return out

        def recorded_extend(self, *args):
            assert all(ref() is None for ref in panels), "a probe panel outlives its round"
            extended.append(True)
            return extend(self, *args)

        monkeypatch.setattr(mean_module, "random_unit_rows", recorded_draw)
        monkeypatch.setattr(mean_module, "build_direction_set", recorded_build)
        monkeypatch.setattr(SlabSystem, "extended", recorded_extend)
        est = estimate_mean(rows, 0.01, PipelineConfig(C_prime=0.05), seed=1)
        assert est.rho_star > 0.0 and est.refinement_rounds == mean_module._REFINE_ROUNDS
        per_round = -(-mean_module._REFINE_PROBES // _PANEL_ROWS)
        assert len(panels) == (mean_module._REFINE_ROUNDS + 1) * per_round > mean_module._REFINE_ROUNDS + 1
        assert len(direction_sets) == 1 and len(extended) == mean_module._REFINE_ROUNDS


class TestProbePanels:
    """``_probe`` measures its probes a panel at a time and returns the bytes
    of one draw of the whole set."""

    @staticmethod
    def _estimators(d):
        rows = sample_dataset(gaussian_gt(np.geomspace(1.0, 1e-3, d)), 30000, 4)
        return fit_marginal(rows[:10000], 0.01), fit_variance(rows[10000:])

    @pytest.mark.parametrize("probes", [512, 64, 300])  # the default, shrink_refine's, not a whole number of panels
    @pytest.mark.parametrize("case", ["many", "some", "none"])
    def test_same_bytes_as_the_whole_set(self, monkeypatch, probes, case):
        d = 10
        marg, var = self._estimators(d)
        # more than 64 violators among 300 or 512 probes, 4-36 of them, or none
        v_star = np.full(d, {"many": 3.0, "some": 0.007, "none": 0.0}[case])
        result = SimpleNamespace(v_star=v_star, rho_star=0.0)
        monkeypatch.setattr(mean_module, "_REFINE_PROBES", probes)
        rng, ref_rng = stream(1, "probe"), stream(1, "probe")
        worst, (dirs, centers, widths) = mean_module._probe(rng, marg, var, result, 0.01, 1.0, 10000)
        ref_worst, ref = oracle_probe(ref_rng, marg, var, result.v_star, result.rho_star, 0.01, 1.0, 10000,
                                      probes, mean_module._REFINE_APPEND)
        assert worst == ref_worst
        for got, expected in zip((dirs, centers, widths), ref):
            assert got.shape == expected.shape and np.array_equal(got, expected)
        assert np.array_equal(rng.standard_normal(4), ref_rng.standard_normal(4))  # the stream moved as far
        count = dirs.shape[0]
        if case == "many" and probes > mean_module._REFINE_APPEND:
            assert count == mean_module._REFINE_APPEND
        if case == "some":
            assert 0 < count < mean_module._REFINE_APPEND
        assert (count == 0) == (case == "none")

    def test_peak_is_one_panel(self):
        # d = 200, 3N = 3e4: 48 mean blocks, 100 variance blocks; every probe
        # violates, so each panel passes 64 rows on
        d = 200
        marg, var = self._estimators(d)
        result = SimpleNamespace(v_star=np.full(d, 3.0), rho_star=0.0)
        mean_module._probe(stream(1, "probe"), marg, var, result, 0.01, 1.0, 10000)  # warm
        tracemalloc.start()
        try:
            _, (dirs, _, _) = mean_module._probe(stream(1, "probe"), marg, var, result, 0.01, 1.0, 10000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dirs.shape == (mean_module._REFINE_APPEND, d)
        panel = _PANEL_ROWS * d * 8  # 0.41 MB; all 512 probes take 0.82 MB
        projection = _PANEL_ROWS * var.Z.shape[0] * 8  # one psi_profile panel, 0.2 MB
        kept = 2 * mean_module._REFINE_APPEND * (d + 2) * 8  # the rows two panels pass on
        assert peak < panel + projection + kept + 8 * mean_module._REFINE_PROBES


class TestNuHat:
    def test_three_block_example(self):
        # m=4, n=3, theta=1/3: projections [10, 0, -10] -> interior mean 0
        y = np.array([[10.0], [0.0], [-10.0]])
        plan = plan_mean_blocks(12, 0.5, PipelineConfig(c_blocks=0.5, theta_mean=1 / 3))
        assert plan.n == 3 and plan.m == 4
        est = MarginalMeanEstimator(Y=y, plan=plan)
        assert nu_hat_profile(est, [[1.0]])[0] == 0.0

    def test_odd_in_direction(self):
        gt = gaussian_gt([1.0, 1.0])
        est = fit_marginal(sample_dataset(gt, 2000, 5), 0.05)
        rng = np.random.default_rng(1)
        for _ in range(10):
            u = rng.standard_normal(2)
            u /= np.linalg.norm(u)
            assert nu_hat_profile(est, [-u])[0] == pytest.approx(-nu_hat_profile(est, [u])[0], rel=1e-12, abs=1e-15)

    def test_profile_matches_single(self):
        gt = gaussian_gt([2.0, 1.0])
        est = fit_marginal(sample_dataset(gt, 3000, 6), 0.05)
        rng = np.random.default_rng(2)
        dirs = rng.standard_normal((16, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        prof = nu_hat_profile(est, dirs)
        singles = np.array([nu_hat_profile(est, [u])[0] for u in dirs])
        assert np.allclose(prof, singles, rtol=1e-12)

    @pytest.mark.parametrize("seed", [0, 3, 4])
    def test_lone_direction_is_its_row_of_a_batch_at_d1(self, seed):
        # at d = 1 every projection row is the one column, so one direction
        # and a batch of two must sum the same band in the same order
        est = fit_marginal(np.random.default_rng(seed).standard_t(3, size=(30000, 1)), 0.01)
        alone, batch = nu_hat_profile(est, [[1.0]]), nu_hat_profile(est, [[1.0], [1.0]])
        assert alone.tobytes() == batch[:1].tobytes() == batch[1:].tobytes()

    def test_error_envelope_on_gaussian(self):
        # |nu(e1) - 1| <= 5 sqrt(log(1/delta)/N) in at least 99% of trials
        gt = gaussian_gt([1.0, 1.0], mean=[1.0, 0.0])
        delta, n = 0.01, 10**4
        bound = 5.0 * np.sqrt(np.log(1.0 / delta) / n)
        hits = 0
        trials = 500
        for t in range(trials):
            est = fit_marginal(sample_dataset(gt, n, 10_000 + t), delta)
            hits += abs(nu_hat_profile(est, [[1.0, 0.0]])[0] - 1.0) <= bound
        assert hits >= int(0.99 * trials)


class TestSlabWidth:
    def _var_est(self):
        gt = gaussian_gt([1.0, 1.0])
        return fit_variance(sample_dataset(gt, 2 * 10**4, 7))

    def test_zero_variance_zero_width(self):
        rows = np.tile(np.array([1.0, 2.0]), (2000, 1))
        est = fit_variance(rows, PipelineConfig(m0=1, theta_var=0.02))
        assert slab_width_profile(est, [[1.0, 0.0]], 0.1, 1.0, 100)[0] == 0.0

    def test_arithmetic(self):
        est = self._var_est()
        u = np.array([1.0, 0.0])
        width = slab_width_profile(est, [u], np.exp(-1.0), 1.0, 100)[0]
        assert width == pytest.approx(2.0 * np.sqrt(psi_profile(est, [u])[0] / 100.0), rel=1e-12)

    def test_log_confidence_scaling(self):
        est = self._var_est()
        u = np.array([0.0, 1.0])
        w1 = slab_width_profile(est, [u], 0.1, 1.0, 1000)[0]
        w2 = slab_width_profile(est, [u], 0.01, 1.0, 1000)[0]
        assert w2 == pytest.approx(np.sqrt(2.0) * w1, rel=1e-12)

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_rejects_n_samples_below_one(self, n_samples):
        with pytest.raises(ValueError, match="n_samples must be at least 1"):
            slab_width_profile(self._var_est(), [[1.0, 0.0]], 0.1, 1.0, n_samples)

    @pytest.mark.parametrize("c_prime", [0.0, -1.0, np.nan, np.inf, True])
    def test_rejects_c_prime_outside_positive_reals(self, c_prime):
        with pytest.raises(ValueError, match=r"c_prime must lie in \(0, inf\)"):
            slab_width_profile(self._var_est(), [[1.0, 0.0]], 0.1, c_prime, 100)


class TestDirectionShapes:
    """Each profile takes an (M, d) array of directions, d that of the blocks;
    anything else is one ValueError naming the expected shape."""

    @staticmethod
    def _profiles():
        rows = np.random.default_rng(12).standard_normal((15000, 3))
        marg, var = fit_marginal(rows[:5000], 0.01), fit_variance(rows[5000:])
        return {
            "nu_hat_profile": lambda u: nu_hat_profile(marg, u),
            "psi_profile": lambda u: psi_profile(var, u),
            "slab_width_profile": lambda u: slab_width_profile(var, u, 0.01, 1.0, 5000),
        }

    @pytest.mark.parametrize("name", ["nu_hat_profile", "psi_profile", "slab_width_profile"])
    @pytest.mark.parametrize("directions", [[1.0, 0.0, 0.0], [[1.0, 0.0]], np.ones((2, 4)), np.ones((1, 1, 3))])
    def test_rejects_other_shapes(self, name, directions):
        with pytest.raises(ValueError, match=r"directions must be an \(M, 3\) array, got shape"):
            self._profiles()[name](directions)


class TestDirectionSet:
    def test_canonical_plus_random(self):
        dirs = build_direction_set(0, zero_blocks(2))
        assert dirs.shape == (256, 2)
        assert np.array_equal(dirs[:2], np.eye(2))

    def test_unit_norms(self):
        dirs = build_direction_set(1, zero_blocks(5))
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)

    def test_deterministic(self):
        assert np.array_equal(build_direction_set(2, zero_blocks(3)), build_direction_set(2, zero_blocks(3)))

    def test_includes_block_eigendirections(self):
        gt = gaussian_gt([10.0, 1.0, 0.1])
        var_est = fit_variance(sample_dataset(gt, 2 * 10**4, 8))
        dirs = build_direction_set(4, var_est)
        # the top eigendirection of the blocks is close to e1
        gram = np.abs(dirs @ np.eye(3)[0])
        assert np.sort(gram)[-2] > 0.99  # e1 itself plus the learned direction

    @pytest.mark.parametrize("d, budget, seed", [(3, 256, 5), (10, 256, 7), (50, 400, 9), (200, 1600, 1)])
    def test_fill_matches_sequential_oracle(self, d, budget, seed):
        # the set holds max(8 d, 256) rows
        ref = oracle_direction_fill(np.eye(d), budget, stream(seed, "direction-fill"))
        assert np.array_equal(build_direction_set(seed, zero_blocks(d)), ref)

    @pytest.mark.parametrize("d", [3, 12, 150])  # d = 150: wide blocks, Z is 100 x 150
    def test_learned_directions_are_block_eigenvectors(self, d):
        gt = gaussian_gt(np.geomspace(10.0, 0.1, d), rotation_seed=d)
        var_est = fit_variance(sample_dataset(gt, 2 * 10**4, 8))
        z = var_est.Z
        assert (z.shape[0] < d) == (d == 150)
        k = min(d, 8)
        dirs = build_direction_set(4, var_est)
        vecs = np.linalg.eigh(z.T @ z / z.shape[0])[1][:, ::-1][:, :k].T
        learned = dirs[d : d + k]
        assert np.all(np.abs(np.sum(learned * vecs, axis=1)) > 1 - 1e-10)
        assert np.all(learned[np.arange(k), np.abs(learned).argmax(axis=1)] > 0)
        # only min(d, 8) are learned; the random fill follows them
        ref = oracle_direction_fill(dirs[: d + k], max(8 * d, 256), stream(4, "direction-fill"))
        assert np.array_equal(dirs, ref)

    @pytest.mark.parametrize("columns, seed", [([4, 11, 17], 0), ([4], 1)], ids=["rank3", "rank1-canonical"])
    def test_degenerate_blocks_keep_every_eigendirection(self, columns, seed):
        # only len(columns) of 20 coordinates vary: the blocks have that rank,
        # so only that many eigenvectors pass the rank floor and the null
        # space adds none; at rank 1 the one eigendirection is e5, a
        # canonical row, which is kept all the same
        x = np.zeros((2 * 10**4, 20))
        x[:, columns] = np.random.default_rng(seed).standard_normal((2 * 10**4, len(columns)))
        var_est = fit_variance(x)
        learned = _eigendirections(var_est.Z, 8)
        k = len(columns)
        assert learned.shape == (k, 20)
        if k == 1:
            assert np.array_equal(learned, np.eye(20)[[4]])
        dirs = build_direction_set(3, var_est)
        assert np.array_equal(dirs[20 : 20 + k], learned)
        # the fill starts right after the learned rows
        ref = oracle_direction_fill(dirs[: 20 + k], 256, stream(3, "direction-fill"))
        assert np.array_equal(dirs, ref)

    def test_constant_data_adds_no_learned_direction(self):
        var_est = fit_variance(np.ones((10**4, 3)))
        assert not var_est.Z.any()
        dirs = build_direction_set(6, var_est)
        assert np.array_equal(dirs, build_direction_set(6, zero_blocks(3)))

    def test_kept_canonical_eigendirection_leaves_the_estimate(self, monkeypatch):
        # one coordinate varies: the learned row e5 repeats a canonical slab
        # in place of the last fill row, which moves neither mu_hat nor rho_star
        x = np.zeros((3 * 10**4, 20))
        x[:, 4] = np.random.default_rng(1).standard_normal(3 * 10**4)
        kept = estimate_mean(x, 0.01, seed=3)
        assert np.array_equal(kept.slabs.directions[20], np.eye(20)[4])
        plain = build_direction_set
        monkeypatch.setattr(mean_module, "build_direction_set", lambda seed, var_est: plain(seed, zero_blocks(20)))
        without = estimate_mean(x, 0.01, seed=3)
        assert np.array_equal(kept.slabs.directions[21:256], without.slabs.directions[20:255])
        assert kept.mu_hat.tobytes() == without.mu_hat.tobytes()
        assert kept.rho_star == without.rho_star

    @pytest.mark.parametrize("n, d", [(12, 30), (8, 9), (20, 20), (40, 15)])
    def test_eigendirections_match_gram_oracle(self, n, d):
        # Z = U diag(s) V^T with singular values halving one to the next
        rng = np.random.default_rng(n * d)
        r = min(n, d)
        u = np.linalg.qr(rng.standard_normal((n, r)))[0]
        v = np.linalg.qr(rng.standard_normal((d, r)))[0]
        z = (u * 2.0 ** -np.arange(r)) @ v.T
        k = min(d, 8)
        top = _eigendirections(z, k)
        vecs = np.linalg.eigh(z.T @ z)[1][:, ::-1][:, :k].T
        assert top.shape == (k, d)
        assert np.all(np.abs(np.sum(top * vecs, axis=1)) > 1 - 1e-10)
        assert np.all(top[np.arange(k), np.abs(top).argmax(axis=1)] > 0)

    @pytest.mark.parametrize(
        "n, d, rank",
        [(5, 30, 5), (3, 4, 3), (20, 40, 4), (100, 10, 5), (30, 30, 2)],
    )
    def test_rank_deficient_blocks_give_rank_many_directions(self, n, d, rank):
        # the rank columns of a random base, repeated to fill d columns
        base = np.random.default_rng(n + d).standard_normal((n, rank))
        z = base[:, np.arange(d) % rank]
        top = _eigendirections(z, min(d, 8))
        assert top.shape == (rank, d)
        assert np.all(np.isfinite(top))
        assert np.allclose(top @ top.T, np.eye(rank), atol=1e-12)
        # every row lies in the row space of Z
        assert np.allclose(top @ np.linalg.pinv(z) @ z, top, atol=1e-12)

    @pytest.mark.parametrize("n, d", [(5, 30), (30, 5)])
    def test_zero_blocks_give_no_direction(self, n, d):
        assert _eigendirections(np.zeros((n, d)), min(d, 8)).shape == (0, d)


class TestDirectionSetMemory:
    """The fill is drawn in place and no full-size square is made (d = 200, 1600 rows)."""

    def test_build_direction_set_peak(self):
        gt = gaussian_gt(np.geomspace(1.0, 1e-3, 200))
        var_est = fit_variance(sample_dataset(gt, 2 * 10**4, 3))
        build_direction_set(1, var_est)  # warm: first-call allocations stay out
        tracemalloc.start()
        dirs = build_direction_set(1, var_est)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        # the result (2.56 MB) plus the eigendirections' buffers and one
        # 128 KiB chunk of squares (0.33 MB in all; 0.55 MB with 512 KiB
        # chunks); a fresh fill and its square would add 2 x 2.23 MB
        assert peak < dirs.nbytes + 4e5

    def test_wide_eigendirections_make_no_d_by_d_gram(self):
        # Z of 100 x 2000: the d x d Gram alone would take 32 MB
        z = np.random.default_rng(5).standard_normal((100, 2000))
        _eigendirections(z, 8)  # warm: first-call allocations stay out
        tracemalloc.start()
        top = _eigendirections(z, 8)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert top.shape == (8, 2000)
        # the scaled copy of Z (1.6 MB), the 100 x 100 Gram and small buffers,
        # against 32 MB for the 2000 x 2000 Gram alone
        assert peak < z.nbytes + 1e6

    def test_slab_system_validation_peak(self):
        u = random_unit_rows(np.random.default_rng(2), 1600, 200)
        c, w = np.zeros(1600), np.ones(1600)
        tracemalloc.start()
        SlabSystem(u, c, w)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        # one 128 KiB chunk of squares and the (1600,) norms: 0.17 MB, against
        # 0.56 MB with 512 KiB chunks and u.nbytes for the full square of u
        assert peak < 0.1 * u.nbytes


class TestSolveCenter:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("part", ["directions", "centers", "widths"])
    def test_slab_system_rejects_non_finite(self, part, value):
        parts = {"directions": np.eye(2), "centers": np.zeros(2), "widths": np.ones(2)}
        parts[part] = parts[part].copy()
        parts[part].flat[1] = value
        with pytest.raises(ValueError, match=f"slab {part[:-1]}"):
            SlabSystem(**parts)
        with pytest.raises(ValueError, match=f"slab {part[:-1]}"):
            SlabSystem(np.eye(2), np.zeros(2), np.ones(2)).extended(**parts)

    @pytest.mark.parametrize(
        "v_init", [[np.nan, 0.0], [0.0, np.inf], [1.0, 2.0, 3.0], [1.0], [[1.0, 2.0]], "ab", [None, 1.0]]
    )
    def test_rejects_a_warm_start_that_is_not_a_finite_d_vector(self, v_init):
        slabs = SlabSystem(np.eye(2), centers=[1.0, 2.0], widths=[0.0, 0.0])
        with pytest.raises(ValueError, match=r"^v_init must be a finite vector of d = 2 entries"):
            solve_center(slabs, v_init=v_init)

    def test_two_orthogonal_slabs(self):
        slabs = SlabSystem(np.eye(2), centers=[1.0, 2.0], widths=[0.0, 0.0])
        res = solve_center(slabs)
        assert np.allclose(res.v_star, [1.0, 2.0], atol=1e-9)
        assert res.rho_star <= 1e-9

    def test_conflicting_slabs_midpoint(self):
        slabs = SlabSystem(np.array([[1.0], [1.0]]), centers=[0.0, 2.0], widths=[0.0, 0.0])
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
            slabs = SlabSystem(u, u @ v0, widths)
            res = solve_center(slabs)
            assert res.rho_star <= 1e-6
            assert slabs.max_violation(res.v_star) <= 1e-6

    def test_never_worse_than_warm_start(self):
        rng = np.random.default_rng(6)
        u = rng.standard_normal((30, 4))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        slabs = SlabSystem(u, rng.standard_normal(30), np.zeros(30))
        v_init = rng.standard_normal(4)
        res = solve_center(slabs, v_init=v_init)
        assert slabs.max_violation(res.v_star) <= slabs.max_violation(v_init) + 1e-12

    def test_adding_slabs_cannot_reduce_minimax(self):
        rng = np.random.default_rng(7)
        u = rng.standard_normal((40, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        c = rng.standard_normal(40)
        slabs = SlabSystem(u, c, np.full(40, 0.05))
        base = solve_center(slabs)
        extra = rng.standard_normal((10, 3))
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
        bigger = slabs.extended(extra, extra @ base.v_star + rng.uniform(-2, 2, 10), np.zeros(10))
        res = solve_center(bigger, v_init=base.v_star)
        assert res.rho_star >= base.rho_star - 1e-9

    def test_infeasible_random_systems_match_dense_lp(self):
        rng = np.random.default_rng(8)
        dup_rng = np.random.default_rng(9)
        for _ in range(60):
            d = int(rng.integers(1, 21))
            m = int(rng.integers(d + 1, 401))
            base = random_infeasible_system(rng, d, m)
            # a direction set's random fill may hold near-duplicate rows
            for slabs in (base, with_duplicate_slabs(dup_rng, base, 15)):
                res = solve_center(slabs)
                dense = dense_lp_optimum(slabs)
                assert dense > 0.0
                assert res.converged and res.iterations >= 1
                assert res.rho_star == pytest.approx(dense, rel=1e-9)
                assert 0.0 <= res.final_gap <= TOL * (1.0 + res.rho_star)
                assert slabs.max_violation(res.v_star) == res.rho_star

    def test_degenerate_systems_match_dense_lp(self):
        # HiGHS does not perturb the bounds, its guard against degenerate
        # stalls: each round must still reach the optimum within the pivot cap
        rng = np.random.default_rng(16)
        for _ in range(60):
            for slabs in degenerate_infeasible_systems(rng, int(rng.integers(1, 21))):
                res = solve_center(slabs)
                dense = dense_lp_optimum(slabs)
                assert dense > 0.0
                assert res.converged
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
        slabs = SlabSystem(np.eye(2), centers=[1.0, 2.0], widths=[0.5, 0.5])
        v_init = np.array([1.2, 1.9])
        res = solve_center(slabs, v_init=v_init)
        assert res.iterations == 0 and res.converged
        assert res.rho_star == 0.0 and res.final_gap == 0.0
        assert np.array_equal(res.v_star, v_init)

    def test_unconstrained_direction_stays_at_the_warm_start(self):
        # every slab lies along e1, so neither the least-squares move nor a
        # cut touches the second coordinate
        slabs = SlabSystem(np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]), [0.1, 2.3, 0.4], [0.0, 0.2, 0.1])
        v_init = np.array([0.3, 0.7])
        res = solve_center(slabs, v_init=v_init)
        assert res.converged and res.iterations >= 1
        assert res.rho_star == pytest.approx(dense_lp_optimum(slabs), rel=1e-12)
        assert res.v_star[1] == v_init[1]

    def test_cold_first_round_cuts_the_worst_violators_at_the_least_squares_point(self, monkeypatch):
        rng = np.random.default_rng(17)
        rounds = record_lp(monkeypatch).rounds
        for _ in range(10):
            d = int(rng.integers(1, 9))
            slabs = random_infeasible_system(rng, d, int(rng.integers(3 * (d + 1), 120)))
            u, c, w = slabs.directions, slabs.centers, slabs.widths
            v_init = rng.standard_normal(d)
            first = len(rounds)
            solve_center(slabs, v_init=v_init)
            p = v_init + np.linalg.lstsq(u, c - u @ v_init, rcond=None)[0]
            res = c - u @ p
            viol = np.abs(res) - w
            worst = np.argsort(-viol, kind="stable")[: 2 * (d + 1)]
            worst = worst[viol[worst] > 0.0]
            first_u, first_s, _ = rounds[first]
            assert np.array_equal(first_u, u[worst])
            assert np.array_equal(first_s, np.where(res[worst] < 0.0, -1.0, 1.0))

    def test_warm_start_outside_slabs_that_meet_returns_their_least_squares_point(self, monkeypatch):
        # the slabs meet around v0; the warm start misses them, and the
        # least-squares point of the centers lies in every one, so no model
        # is built and no round runs
        rng = np.random.default_rng(18)
        log = record_lp(monkeypatch)
        for d in (1, 2, 5, 20):
            u = random_unit_rows(rng, 8 * d, d)
            v0 = rng.standard_normal(d)
            slabs = SlabSystem(u, u @ v0, rng.uniform(0.1, 0.5, 8 * d))
            v_init = v0 + 2.0
            assert slabs.max_violation(v_init) > 0.0
            res = solve_center(slabs, v_init=v_init)
            assert res.iterations == 0 and res.converged
            assert res.rho_star == 0.0 and res.final_gap == 0.0
            assert slabs.max_violation(res.v_star) <= 0.0
        assert log.models == [] and log.rounds == []

    def test_lp_failure_flags_not_raises(self, monkeypatch):
        # the warm start 0.5 has slack 1.5; the least-squares point 1 of the
        # centers, where round 1 picks its cuts, has slack 1 and is kept
        record_lp(monkeypatch, fail_at={1})
        slabs = SlabSystem(np.array([[1.0], [1.0]]), centers=[0.0, 2.0], widths=[0.0, 0.0])
        res = solve_center(slabs, v_init=np.array([0.5]))
        assert not res.converged and res.iterations == 1
        assert np.isfinite(res.rho_star) and res.rho_star == pytest.approx(1.0)
        assert slabs.max_violation(res.v_star) == res.rho_star

    def test_failure_flags_even_a_gap_within_tolerance(self, monkeypatch):
        # the least-squares point of the centers reaches the optimum 1e-9, and
        # the warm start is within TOL of it, but no round certified either
        record_lp(monkeypatch, fail_at={1})
        slabs = SlabSystem(np.array([[1.0], [1.0]]), centers=[0.0, 2e-9], widths=[0.0, 0.0])
        res = solve_center(slabs, v_init=np.array([0.5e-9]))
        assert not res.converged and res.rho_star == pytest.approx(1e-9)

    def test_stopped_highs_solve_reported_as_failure(self, monkeypatch):
        from scipy.optimize._highspy import _core

        class IterationLimited(_core._Highs):
            def run(self):
                self.setOptionValue("simplex_iteration_limit", 0)
                return super().run()

        # the violated sides at x = 0 of |-0.5 - x| <= t and |1.5 - x| <= t
        slab_args = (np.arange(2), np.array([[1.0], [1.0]]), np.array([-1.0, 1.0]), np.array([0.5, 1.5]))
        state = _CutState()
        state.start(1, np.zeros(1))
        assert np.allclose(state.round(*slab_args), [0.5, 1.0])
        monkeypatch.setattr(_core, "_Highs", IterationLimited)
        state.start(1, np.zeros(1))
        assert state.round(*slab_args) is None and state.highs is None

    def test_pivot_cap_fails_the_round_with_real_highs(self, monkeypatch):
        # the first round on this system takes more than d + 1 pivots
        from scipy.optimize._highspy import _core

        statuses = []

        class StatusRecording(_core._Highs):
            def run(self):
                status = super().run()
                statuses.append(self.getModelStatus())
                return status

        monkeypatch.setattr(_core, "_Highs", StatusRecording)
        monkeypatch.setattr(mean_module, "_PIVOTS_PER_ROW", 1)
        slabs = random_infeasible_system(np.random.default_rng(3), 50, 500)
        state = _CutState()
        res = solve_center(slabs, state=state)
        assert statuses == [_core.HighsModelStatus.kIterationLimit]
        assert not res.converged and res.iterations == 1 and state.highs is None
        assert np.isfinite(res.rho_star) and slabs.max_violation(res.v_star) == res.rho_star

    def test_failure_in_a_later_round_returns_the_round_one_point(self, monkeypatch):
        slabs = random_infeasible_system(np.random.default_rng(3), 50, 500)
        assert solve_center(slabs).iterations >= 2
        solutions = record_lp(monkeypatch, fail_at={2}).solutions
        res = solve_center(slabs)
        assert not res.converged and res.iterations == 2
        warm = np.zeros(50)  # a cold solve measures its cuts from the origin
        assert np.array_equal(res.v_star, warm + solutions[0][:50])
        least_squares = np.linalg.lstsq(slabs.directions, slabs.centers, rcond=None)[0]
        assert res.rho_star < slabs.max_violation(least_squares)
        assert slabs.max_violation(res.v_star) == res.rho_star

    def test_no_warm_start_is_the_origin(self):
        rng = np.random.default_rng(19)
        for d in range(1, 21):
            slabs = random_infeasible_system(rng, d, int(rng.integers(d + 1, 200)))
            res, at_origin = solve_center(slabs), solve_center(slabs, v_init=np.zeros(d))
            assert res.iterations >= 1
            assert res.v_star.tobytes() == at_origin.v_star.tobytes()
            assert (res.rho_star, res.iterations, res.final_gap) == (
                at_origin.rho_star, at_origin.iterations, at_origin.final_gap)

    def test_slabs_that_all_hold_the_origin_return_it(self, monkeypatch):
        rng = np.random.default_rng(20)
        log = record_lp(monkeypatch)
        for d in (1, 3, 20):
            u = random_unit_rows(rng, 8 * d, d)
            centers = rng.uniform(-1.0, 1.0, 8 * d)
            slabs = SlabSystem(u, centers, np.abs(centers) + rng.uniform(0.0, 0.5, 8 * d))
            res = solve_center(slabs)
            assert res.iterations == 0 and res.converged
            assert res.rho_star == 0.0 and res.final_gap == 0.0
            assert np.array_equal(res.v_star, np.zeros(d))
        assert log.models == [] and log.rounds == []


class TestOneSidedCuts:
    @staticmethod
    def recorded_rounds(monkeypatch):
        """Record each round's (u, s, b) and the column count of each HiGHS addCols call."""
        from scipy.optimize._highspy import _core

        added = []

        class ColumnCounting(_core._Highs):
            def addCols(self, num_new_col, *args):
                added.append(num_new_col)
                return super().addCols(num_new_col, *args)

        monkeypatch.setattr(_core, "_Highs", ColumnCounting)
        return record_lp(monkeypatch).rounds, added

    def test_overshot_slab_gets_its_other_side_later(self, monkeypatch):
        # slabs [-5, -4], [0, 1] and [0, 24] on the line; the warm start 8/3
        # lies above the first two, so round 1 adds only their upper sides and
        # its optimum x = -4 overshoots below [0, 1], whose lower side round 2
        # adds; the optimum is then x = -2 at slack 2
        rounds, _ = self.recorded_rounds(monkeypatch)
        slabs = SlabSystem(np.ones((3, 1)), [-4.5, 0.5, 12.0], [0.5, 0.5, 12.0])
        res = solve_center(slabs)
        assert res.converged and res.iterations == 2
        assert [list(sides) for _, sides, _ in rounds] == [[-1.0, -1.0], [1.0, 1.0]]
        assert res.v_star[0] == pytest.approx(-2.0, abs=1e-12)
        assert res.rho_star == pytest.approx(dense_lp_optimum(slabs), rel=1e-12)
        assert slabs.max_violation(res.v_star) == res.rho_star

    def test_one_column_per_new_slab_side_and_bounded_rounds(self, monkeypatch):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = int(rng.integers(1, 11))
            slabs = random_infeasible_system(rng, d, int(rng.integers(d + 1, 201)))
            rounds, added = self.recorded_rounds(monkeypatch)
            res = solve_center(slabs)
            assert res.converged and 1 <= res.iterations <= 2 * slabs.n_slabs
            assert added == [len(sides) for _, sides, _ in rounds]
            assert len(added) == res.iterations
            assert all(1 <= k <= 2 * (d + 1) for k in added)
            # a cut is its coefficients and bound; no slab side enters twice
            cuts = np.vstack([np.column_stack([sides[:, np.newaxis] * u, b]) for u, sides, b in rounds])
            assert len(np.unique(cuts, axis=0)) == len(cuts)


class TestResumedSolve:
    """solve_center carrying one model from solve to solve, as estimate_mean does."""

    def test_row_duals_meet_every_held_cut(self, monkeypatch):
        # after every round, including those on pruned models, the (x, t) read
        # off the row duals satisfies each cut the model holds, rebuilt from
        # the (side, slab) map, and t is minus the dual objective
        rng = np.random.default_rng(15)
        lp_round = _CutState.round
        checked = []

        def checked_round(self, slab, u, s, b):
            sol = lp_round(self, slab, u, s, b)
            x, t = sol[:-1], sol[-1]
            sides = np.where(self.cuts[0] == 0, 1.0, -1.0)
            held = self.cuts[1]
            hu = slabs.directions[held]
            cut_b = sides * (slabs.centers[held] - hu @ self.origin) - slabs.widths[held]
            assert np.all(sides * (hu @ x) + t >= cut_b - 1e-9 * (1.0 + np.abs(cut_b)))
            assert t == pytest.approx(-self.highs.getObjectiveValue(), rel=1e-12, abs=1e-12)
            checked.append(held.size)
            return sol

        monkeypatch.setattr(_CutState, "round", checked_round)
        for _ in range(20):
            d = int(rng.integers(1, 11))
            slabs = random_infeasible_system(rng, d, int(rng.integers(d + 1, 201)))
            state = _CutState()
            res = solve_center(slabs, state=state)
            for _ in range(2):
                slabs = append_violators(rng, slabs, res)
                res = solve_center(slabs, v_init=res.v_star, state=state)
            assert res.converged
        assert len(checked) >= 60

    def test_resumed_solves_are_optimal_on_pruned_models(self, monkeypatch):
        rng = np.random.default_rng(13)
        for _ in range(20):
            d = int(rng.integers(1, 11))
            slabs = random_infeasible_system(rng, d, int(rng.integers(d + 1, 201)))
            log = record_lp(monkeypatch)
            state = _CutState()
            res = solve_center(slabs, state=state)
            for resolve in range(1, 4):
                slabs = append_violators(rng, slabs, res)
                res = solve_center(slabs, v_init=res.v_star, state=state)
                optimum = dense_lp_optimum(slabs)
                assert res.converged
                assert abs(res.rho_star - optimum) <= TOL * (1.0 + optimum)
                assert 0.0 <= res.final_gap <= TOL * (1.0 + res.rho_star)
                assert slabs.max_violation(res.v_star) == res.rho_star
                assert len(log.models) == 1 and len(log.prunes) == resolve
                kept, model_cols = log.prunes[-1]
                assert kept == model_cols <= d + 1
                assert state.cuts.shape[1] == log.models[0].getNumCol()
                # every cut the model holds is a distinct side of a current slab
                sides = state.cuts.T.tolist()
                assert len({tuple(side) for side in sides}) == len(sides)
                assert state.cuts[1].max() < slabs.n_slabs

    def test_resolve_never_adds_a_side_held_from_an_earlier_solve(self, monkeypatch):
        # the slabs [-5, -4], [0, 1] and [0, 24] on the line: the first solve
        # adds the upper sides of the first two and the lower sides of the
        # last two, and ends at x = -2, slack 2, where only the upper side of
        # [-5, -4] and the lower side of [0, 1] bind; the prune keeps those
        log = record_lp(monkeypatch)
        slabs = SlabSystem(np.ones((3, 1)), [-4.5, 0.5, 12.0], [0.5, 0.5, 12.0])
        state = _CutState()
        first = solve_center(slabs, state=state)
        assert first.iterations == 2 and first.rho_star == pytest.approx(2.0, abs=1e-12)
        # a copy of [0, 1] and the slab [30, 31] are appended, and the re-solve
        # resumes from the stored point moved to x = 25.  HiGHS's 1e-10
        # tolerances can leave a held cut violated a hair beyond the stored
        # slack; here the held upper side of [-5, -4] is violated by 29, far
        # beyond it, yet the active mask, built from the cuts held since the
        # first solve, keeps it out: the one resumed round adds the pruned
        # upper side of [0, 1], the copy's upper side and the lower side of
        # [30, 31], and its optimum x = 13 at slack 17 ends the solve
        slabs = slabs.extended(np.ones((2, 1)), [0.5, 30.5], [0.5, 0.5])
        state.point = np.array([25.0])
        res = solve_center(slabs, v_init=first.v_star, state=state)
        assert log.prunes == [(2, 2)] and len(log.models) == 1
        assert [slab_sides.tolist() for _, slab_sides, _ in log.rounds[2:]] == [[-1.0, -1.0, 1.0]]
        assert {tuple(side) for side in state.cuts.T.tolist()} == {(1, 0), (0, 1), (1, 1), (1, 3), (0, 4)}
        assert res.converged and res.iterations == 1
        assert res.v_star[0] == pytest.approx(13.0, abs=1e-12)
        assert res.rho_star == pytest.approx(dense_lp_optimum(slabs), rel=1e-12)
        assert slabs.max_violation(res.v_star) == res.rho_star

    def test_failed_round_mid_refine_restarts_cold(self, monkeypatch):
        rng = np.random.default_rng(14)
        slabs = random_infeasible_system(rng, 6, 150)
        fail_at = set()
        log = record_lp(monkeypatch, fail_at)
        state = _CutState()
        first = solve_center(slabs, state=state)
        assert first.converged and len(log.models) == 1
        slabs = append_violators(rng, slabs, first)
        fail_at.add(len(log.rounds) + 1)  # the first round of the resumed solve
        failed = solve_center(slabs, v_init=first.v_star, state=state)
        assert not failed.converged and failed.iterations == 1 and state.highs is None
        assert slabs.max_violation(failed.v_star) == failed.rho_star
        assert failed.rho_star <= slabs.max_violation(first.v_star)
        again = solve_center(slabs, v_init=failed.v_star, state=state)
        assert len(log.models) == 2 and again.converged
        assert again.rho_star == pytest.approx(dense_lp_optimum(slabs), rel=1e-9)
        cold = solve_center(slabs, v_init=failed.v_star)
        assert again.v_star.tobytes() == cold.v_star.tobytes()
        assert again.iterations == cold.iterations

    def test_capped_round_restarts_the_next_solve_cold(self, monkeypatch):
        # real HiGHS stopped at d + 1 pivots per run: the model of a failed
        # round is dropped, so the next re-solve builds a new one, not a prune
        events = []
        start, lp_round, prune = _CutState.start, _CutState.round, _CutState.prune

        def logged_start(self, d, origin):
            events.append("start")
            start(self, d, origin)

        def logged_round(self, *args):
            sol = lp_round(self, *args)
            events.append("round" if sol is not None else "fail")
            return sol

        def logged_prune(self):
            events.append("prune")
            prune(self)

        monkeypatch.setattr(_CutState, "start", logged_start)
        monkeypatch.setattr(_CutState, "round", logged_round)
        monkeypatch.setattr(_CutState, "prune", logged_prune)
        monkeypatch.setattr(mean_module, "_PIVOTS_PER_ROW", 1)
        gt = gaussian_gt(np.geomspace(1.0, 1e-2, 8).tolist())
        shrink_refine(monkeypatch, 32)
        cfg = PipelineConfig(m0=1, theta_var=0.125, C_prime=0.05)
        est = estimate_mean(sample_dataset(gt, 3000, seed=3), 0.05, cfg, seed=5)
        failed = [i for i, event in enumerate(events) if event == "fail"]
        assert failed and failed[0] + 1 < len(events)
        assert all(events[i + 1] == "start" for i in failed if i + 1 < len(events))
        assert est.slabs.max_violation(est.mu_hat) == est.rho_star

    def test_one_model_per_estimate(self, monkeypatch):
        log = record_lp(monkeypatch)
        gt = gaussian_gt([1.0, 0.5, 0.25, 0.1])
        # a small direction set leaves violators for the probes: 3 refine rounds
        shrink_refine(monkeypatch, 16)
        cfg = PipelineConfig(m0=1, theta_var=0.125, C_prime=0.05)
        est = estimate_mean(sample_dataset(gt, 3000, seed=3), 0.05, cfg, seed=5)
        assert est.refinement_rounds == 3 and est.converged
        assert len(log.models) == 1 and len(log.prunes) == est.refinement_rounds
        assert all(kept == cols <= 5 for kept, cols in log.prunes)
        optimum = dense_lp_optimum(est.slabs)
        assert abs(est.rho_star - optimum) <= TOL * (1.0 + optimum)


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
        slabs = SlabSystem(dirs * signs[:, np.newaxis], centers, widths)
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
                HighsSolution,
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
                "addRows",
                "addCols",
                "run",
                "getModelStatus",
                "getSolution",
                "getObjectiveValue",
                "getBasicVariables",
                "getNumCol",
                "deleteCols",
            )
        ] + [
            (HighsModelStatus, "kOptimal"),
            (HighsStatus, "kError"),
            (HighsSolution, "row_dual"),
        ]
        missing = [name for owner, name in needed if not hasattr(owner, name)]
        assert not missing, f"HiGHS binding lacks {missing}; dirmean needs {floor}"
        assert isinstance(kHighsInf, float)

    def test_unscaled_simplex_option_exists(self):
        # HiGHS ignores a renamed option, or a value of the wrong type, with no
        # more than a status: every option _CutState.start sets must be kOk
        from scipy.optimize._highspy._core import HighsStatus, _Highs

        highs = _Highs()
        assert "simplex_scale_strategy" in mean_module._HIGHS_OPTIONS
        for name, value in mean_module._HIGHS_OPTIONS.items():
            assert highs.setOptionValue(name, value) == HighsStatus.kOk, name
        assert highs.setOptionValue("simplex_iteration_limit", mean_module._PIVOTS_PER_ROW * 201) == HighsStatus.kOk

    def test_highs_writes_nothing(self, capfd):
        # HiGHS's debug checks write to fd 1 whatever output_flag says: 13 959
        # bytes over the three infeasible-d50 benchmark estimates of pool seed
        # 1 under steepest-edge pricing
        gt = gaussian_gt(np.geomspace(1.0, 1e-2, 10).tolist())
        est = estimate_mean(sample_dataset(gt, 30000, seed=3), 0.05, PipelineConfig(C_prime=0.05), seed=5)
        assert est.iterations > 0
        captured = capfd.readouterr()
        assert captured.out == "" and captured.err == ""

    def test_missing_extension_names_the_directory_and_floor(self, tmp_path, monkeypatch):
        # find_spec returns None for an empty directory: the loader must say
        # where it looked, not fail on None
        monkeypatch.delitem(sys.modules, mean_module._HIGHS_CORE)
        with pytest.raises(ImportError) as info:
            mean_module._load_extension(mean_module._HIGHS_CORE, str(tmp_path))
        assert str(tmp_path) in str(info.value) and "scipy >= 1.17 (pyproject.toml)" in str(info.value)
        assert mean_module._HIGHS_CORE not in sys.modules


class TestMedian:
    @pytest.mark.parametrize("size", [1, 2, 3, 400, 401, 522])
    @pytest.mark.parametrize("kind", ["ties", "mixed-scale"])
    def test_equals_np_median_bit_for_bit(self, size, kind):
        rng = np.random.default_rng(size)
        if kind == "ties":
            x = rng.integers(0, 4, size) * 0.1  # few distinct values, so the middle pair often ties
        else:
            x = rng.exponential(size=size) * 10.0 ** rng.uniform(-12, 12, size)
        got = mean_module._median(x)
        assert isinstance(got, float)
        assert np.float64(got).tobytes() == np.median(x).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 9, 10, 48])
    def test_columns_equal_np_median_axis_0(self, k):
        # the median-of-means baseline: k block means by d coordinates
        rng = np.random.default_rng(k)
        cols = [
            rng.standard_normal(k),  # distinct
            rng.integers(0, 3, k) * 0.5,  # ties
            np.full(k, -0.0),  # np.median gives +0.0 here
            rng.choice([-0.0, 0.0], k),
            np.where(np.arange(k) == k // 2, np.nan, rng.standard_normal(k)),  # a NaN column
            rng.choice([-1.0, -0.0, 0.0, 1.0, np.inf, -np.inf], k),
        ]
        means = np.column_stack(cols)
        with np.errstate(invalid="ignore"):  # inf - inf in the middle pair
            ref = np.median(means, axis=0)
            got = mean_module._median(means)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(ref)) and np.isnan(got[4])
        for col in means.T:  # and each column as a 1-d array
            with np.errstate(invalid="ignore"):
                assert np.float64(mean_module._median(col)).tobytes() == np.median(col).tobytes()


class TestEstimateMean:
    def test_constant_dataset_recovered_exactly(self):
        v = np.array([3.0, -2.0])
        rows = np.tile(v, (600, 1))
        est = estimate_mean(rows, 0.05, SMALL_CFG, seed=1)
        assert np.allclose(est.mu_hat, v, atol=1e-12)
        # zero slack up to the ulp residue of the 1/sqrt(m) rescaling
        assert est.rho_star <= 1e-12

    @pytest.mark.parametrize("seed", [1.9, True], ids=["1.9", "True"])
    def test_rejects_a_seed_that_is_not_an_integer(self, seed):
        rows = np.random.default_rng(0).standard_normal((600, 2))
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed!r}$"):
            estimate_mean(rows, 0.05, SMALL_CFG, seed=seed)

    @pytest.mark.parametrize("refine_rounds", [1, 3])
    def test_probe_violation_is_measured_at_mu_hat(self, monkeypatch, refine_rounds):
        # a small direction set leaves violators for every round, so the
        # rounds are spent; the reported value is that of the next probe set
        # of the refine stream, measured at the returned point
        gt = gaussian_gt([1.0, 0.5, 0.25, 0.1])
        rows = sample_dataset(gt, 3000, seed=3)
        shrink_refine(monkeypatch, 16)
        monkeypatch.setattr(mean_module, "_REFINE_ROUNDS", refine_rounds)
        cfg = PipelineConfig(m0=1, theta_var=0.125, C_prime=0.05)
        est = estimate_mean(rows, 0.05, cfg, seed=5)
        assert est.refinement_rounds == refine_rounds
        marg_est = fit_marginal(rows[:1000], 0.05, cfg)
        var_est = fit_variance(rows[1000:], cfg)
        rng = stream(5, "refine-probes")
        for _ in range(refine_rounds + 1):
            probes = random_unit_rows(rng, 64, 4)
        widths = slab_width_profile(var_est, probes, 0.05, cfg.C_prime, 1000)
        viol = np.abs(nu_hat_profile(marg_est, probes) - probes @ est.mu_hat) - widths - est.rho_star
        assert est.probe_violation == float(np.max(viol))

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
        rows = sample_dataset(gt, 3 * 10**4, 11)
        shift = np.array([10.0, -5.0])
        a = estimate_mean(rows, 0.01, seed=4)
        b = estimate_mean(rows + shift, 0.01, seed=4)
        assert np.allclose(b.mu_hat - shift, a.mu_hat, atol=1e-9 * (1 + np.linalg.norm(shift)))

    def test_discards_to_multiple_of_three(self):
        gt = gaussian_gt([1.0, 1.0])
        rows = sample_dataset(gt, 3 * 10**4 + 2, 12)
        a = estimate_mean(rows, 0.01, seed=5)
        b = estimate_mean(rows[: 3 * 10**4], 0.01, seed=5)
        assert np.array_equal(a.mu_hat, b.mu_hat)

    def test_json_serialization_keys(self, tmp_path):
        gt = gaussian_gt([1.0, 1.0])
        est = estimate_mean(sample_dataset(gt, 3 * 10**4, 13), 0.01, seed=6)
        write_report(est, str(tmp_path / "estimate.json"))
        doc = json.loads((tmp_path / "estimate.json").read_text())
        assert "slabs" not in doc
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
            est = estimate_mean(other, 0.01, seed=12)
            assert est.mu_hat.tobytes() == ref.mu_hat.tobytes()
            assert (est.rho_star, est.iterations) == (ref.rho_star, ref.iterations)
            assert est.slabs.centers.tobytes() == ref.slabs.centers.tobytes()
            assert est.slabs.widths.tobytes() == ref.slabs.widths.tobytes()

    def test_accuracy_at_moderate_scale(self):
        gt = gaussian_gt([1.0, 1.0], mean=[2.0, -1.0])
        est = estimate_mean(sample_dataset(gt, 3 * 10**4, 14), 0.01, seed=7)
        assert np.linalg.norm(est.mu_hat - gt.mu) < 0.1

    # the slab LP stops at TOL (1 + lower), absolute while lower < 1, and
    # HiGHS's 1e-10 feasibility tolerances are absolute too (ROADMAP item 11)
    SCALE_FREE_LP = "the slab LP's tolerances are absolute, not relative to the scale of the data"

    @pytest.mark.parametrize(
        "c_prime, k",
        [(1.0, -40), (1.0, -20), (1.0, 70), (0.05, -10), (0.05, 10), (0.05, 60),
         pytest.param(0.05, -20, marks=pytest.mark.xfail(
             strict=True, reason=f"{SCALE_FREE_LP}: at 2^-20 the whole slack is below TOL, so one round stops the loop")),
         pytest.param(0.05, 80, marks=pytest.mark.xfail(
             strict=True, reason=f"{SCALE_FREE_LP}: at 2^80 the cut costs pass HiGHS's infinite_cost of 1e20"))],
    )
    def test_power_of_two_rescaling_scales_the_estimate(self, c_prime, k):
        # a power of two scales every block sum, profile, warm start and cut
        # exactly, so only the LP's own tolerances can break the scaling
        gt = make_ground_truth(DistributionSpec("elliptical-student", SpectrumSpec(tuple(np.geomspace(1.0, 1e-2, 10))),
                                                (0.0,) * 10, dof=3.0))
        rows = sample_dataset(gt, 30000, 3)
        config = PipelineConfig(C_prime=c_prime)
        ref = estimate_mean(rows, 0.01, config, seed=3)
        est = estimate_mean(rows * 2.0**k, 0.01, config, seed=3)
        assert (c_prime == 1.0) == (ref.iterations == 0)  # feasible at C_prime = 1, infeasible at 0.05
        assert np.array_equal(est.mu_hat, ref.mu_hat * 2.0**k)
        assert est.rho_star == ref.rho_star * 2.0**k
        assert est.converged and ref.converged


class TestEstimateMeanProperties:
    # with m0 = 1 the variance plan needs 50 pairs (3N >= 150) and the
    # mean plan 48 blocks at delta = 0.01 (3N >= 144): 3N in [144, 150) is
    # a variance-stage SizingError
    CONFIG = PipelineConfig(m0=1)

    @staticmethod
    def _rows(kind, n_rows, d, seed):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((n_rows, d))
        if kind == "constant":
            rows = np.tile(rows[0], (n_rows, 1))
        elif kind == "duplicated-third":
            # the last third repeats the second: every pair difference is
            # zero, so every slab has zero width
            third = n_rows // 3
            rows[2 * third : 3 * third] = rows[third : 2 * third]
        elif kind == "integer":
            rows = rng.integers(-3, 4, size=(n_rows, d)).astype(float)
        elif kind == "zero-column":
            rows[:, -1] = 0.0
        return rows

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_result_or_value_error(self, data):
        d = data.draw(st.sampled_from([1, 2]))
        kind = data.draw(st.sampled_from(["gaussian", "constant", "duplicated-third", "integer", "zero-column"]))
        n_rows = data.draw(st.integers(144, 600))
        delta = data.draw(st.sampled_from([0.01, 0.1]))
        rows = self._rows(kind, n_rows, d, data.draw(st.integers(0, 2**32 - 1)))
        try:
            est = estimate_mean(rows, delta, self.CONFIG, seed=data.draw(st.integers(0, 100)))
        except ValueError:
            return
        assert np.all(np.isfinite(est.mu_hat))
        assert est.rho_star == max(est.slabs.max_violation(est.mu_hat), 0.0)
