"""Marginal mean estimates, slab systems, and the minimax center solver.

For each direction u the trimmed block mean gives a marginal estimate
nu(u); the directional variance estimate gives a slab half-width.  The
final estimator is a point v minimizing the worst slab violation

    g(v) = max_i ( |c_i - <v, u_i>| - w_i ),

a piecewise-linear convex minimax program over a finite direction set.
Minimizing the slack max(g, 0) is a linear program in d + 1 variables,
solved by cutting planes from a cheap warm start, with a certified
optimality gap; a cold solve takes its first cuts at the least-squares
point of the slab centers.  One unscaled HiGHS model holds the dual of the
cut LP: each round adds a column for the violated side of each worst slab,
primal simplex resumes from the (d + 1)-square basis, and the row duals
give the restricted optimum.  A probe-and-refine loop bounds the
finite-direction surrogate gap empirically and reports it instead of
hiding it.  Its re-solves keep the estimate's one model: the columns of
the cuts that are not binding are deleted first, and primal simplex
resumes from the optimal basis that is left.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .blocks import (
    _PANEL_ROWS,
    BlockPlan,
    NonFiniteRowError,
    SizingError,
    block_averages,
    nonfinite_error,
    plan_mean_blocks,
    projection_panels,
)
from .config import PipelineConfig, require_int, require_real
from .distributions import as_directions, as_rows
from .rng import random_unit_rows, row_norms, stream
from .variance import VarianceEstimator, fit_variance, psi_profile

TOL = 1e-8  # certified solver gap, relative to 1 + the LP lower bound
_HIGHS_CORE = "scipy.optimize._highspy._core"
# the options of every slab LP: unscaled primal simplex, no presolve, and
# feasibility tolerances below the certified gap (HiGHS's own 1e-7, absolute,
# would leak into it on small slabs or near-parallel cuts).  Pricing is
# Dantzig's (largest reduced cost), which needs no weight per column, and the
# bounds are not perturbed: HiGHS would perturb them afresh on every run and
# pay cleanup pivots to remove it, while each round here resumes an optimal
# (d + 1)-square basis.  Never set simplex_dualize_strategy, which has crashed
# the process, nor steepest-edge pricing (edge weight strategy 2), whose debug
# check prints to stdout even with output_flag off.
_HIGHS_OPTIONS = {
    "output_flag": False,
    "presolve": "off",
    "simplex_strategy": 4,
    "simplex_scale_strategy": 0,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
    "simplex_primal_edge_weight_strategy": 0,
    "primal_simplex_bound_perturbation_multiplier": 0.0,
}
# pivots allowed per HiGHS run, per row of the (d + 1)-row model: without the
# perturbation nothing else guards against a degenerate stall, so a run that
# reaches the limit fails its round (the most seen: 4.8 (d + 1) in one run)
_PIVOTS_PER_ROW = 100
_REFINE_ROUNDS = 3  # the most refine rounds one estimate runs (see estimate_mean)
_REFINE_PROBES = 512  # the probe directions drawn per refine round
_REFINE_TOL = 0.1  # the refine loop's stopping level
_REFINE_APPEND = 64  # the most probes one refine round appends
# the probes drawn and measured at a time: one projection panel of the most
# rows, so the profiles split a probe panel into the panels they form on the
# whole probe set wherever the panel step (32, 64, 128 or 256 rows) divides it.
# At d = 200 it holds 0.41 MB, against 0.82 MB for all 512 probes.
_PROBE_PANEL = _PANEL_ROWS


def _load_extension(name: str, directory: str):
    """The compiled module ``name`` from ``directory``, registered in
    ``sys.modules`` under ``name`` (an entry already there is returned).

    Loads the one file, without running the ``__init__`` of its parent
    packages, so the package loads scipy's HiGHS binding without the rest
    of ``scipy`` or ``scipy.optimize``.  A later ``import scipy.optimize``
    finds the module registered and reuses it, so both share one ``_Highs``
    class (the one a test monkeypatches).
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(
            f"no extension module {name} in {directory}; dirmean needs scipy >= 1.17 (pyproject.toml)"
        )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


if sys.platform == "win32":
    # delvewheel's patched scipy/__init__.py adds the directory of the DLLs the extension links
    import scipy  # noqa: F401
# scipy's install directory, found without running scipy/__init__.py (~16 ms)
_SCIPY_DIR = importlib.util.find_spec("scipy").submodule_search_locations[0]
# for _CutState; eager, so no solve pays the import
_core = _load_extension(_HIGHS_CORE, os.path.join(_SCIPY_DIR, "optimize", "_highspy"))


def _median(a: np.ndarray):
    """``np.median(a, axis=0)`` bit for bit: a float for 1-d ``a``, else an array.

    np.median imports numpy.ma on first use, which would land inside the
    first estimate or baseline.  This repeats its steps: the same partition
    (at the middle index or indices, and at -1 so a NaN lands last), the
    mean of the middle as a sum from 0.0 (so -0.0 comes out as 0.0), and
    the last entry wherever that is NaN.
    """
    n = a.shape[0]
    h = n // 2
    part = np.partition(a, [h, -1] if n % 2 else [h - 1, h, -1], axis=0)
    mid = 0.0 + part[h] if n % 2 else (0.0 + part[h - 1] + part[h]) / 2
    last = part[-1]
    if a.ndim == 1:
        return float(last if np.isnan(last) else mid)
    return np.where(np.isnan(last), last, mid)


@dataclass(frozen=True)
class MarginalMeanEstimator:
    """Block averages of raw observations plus the plan that sized and trims them."""

    Y: np.ndarray
    plan: BlockPlan


def fit_marginal(ds, delta: float, config: PipelineConfig | None = None) -> MarginalMeanEstimator:
    """Build the block-average matrix used by the marginal mean estimates.

    Raises NonFiniteRowError naming the first NaN or inf row that reaches
    the blocks.
    """
    config = config or PipelineConfig()
    rows = as_rows(ds)
    plan = plan_mean_blocks(rows.shape[0], delta, config)
    y = block_averages(rows[: plan.used], plan.m)
    if not np.isfinite(y).all():
        raise nonfinite_error(rows, np.arange(plan.used))
    return MarginalMeanEstimator(Y=y, plan=plan)


def nu_hat_profile(est: MarginalMeanEstimator, directions: np.ndarray) -> np.ndarray:
    """Vectorized marginal mean estimates over the rows of ``directions``.

    Drops the trim_per_side largest and smallest signed projections per
    direction, then rescales the interior mean by 1/sqrt(m).  The projection
    ``directions @ Y.T`` is formed one panel of directions at a time
    (:func:`~dirmean.blocks.projection_panels`), and each direction's row is
    sorted and its retained band summed by ``cumsum`` in place, in block
    order, as the sum over axis 0 of the whole sorted (blocks, M) band does;
    the sum starts from 0.0, as numpy's does, so an all -0.0 band sums to
    0.0.  ``directions`` must be an (M, d) array.
    """
    u = as_directions(directions, est.Y.shape[1])
    n = est.Y.shape[0]
    k = est.plan.trim_per_side
    out = np.empty(u.shape[0])
    for lo, proj in projection_panels(u, est.Y):
        proj.sort(axis=1)
        band, sums = proj[:, k : n - k], out[lo : lo + proj.shape[0]]
        np.add(0.0, np.cumsum(band, axis=1, out=band)[:, -1], out=sums)
    out /= math.sqrt(est.plan.m) * (n - 2 * k)
    return out


def slab_width_profile(
    var_est: VarianceEstimator, directions: np.ndarray, delta: float, c_prime: float, n_samples: int
) -> np.ndarray:
    """Half-widths 2 C' sqrt(psi(u) log(1/delta) / N) over the rows of ``directions``."""
    require_real("delta", delta, 0.0, 1.0)
    require_real("c_prime", c_prime, above=0.0)
    require_int("n_samples", n_samples, least=1)
    var = psi_profile(var_est, directions)
    return 2.0 * c_prime * np.sqrt(var * math.log(1.0 / delta) / n_samples)


@dataclass(frozen=True)
class SlabSystem:
    """Finite family of slabs |<v, u_i> - c_i| <= w_i + rho."""

    directions: np.ndarray
    centers: np.ndarray
    widths: np.ndarray

    def __post_init__(self):
        # each check is written so that NaN fails it
        u = np.atleast_2d(np.asarray(self.directions, dtype=float))
        if not np.all(np.abs(row_norms(u) - 1.0) <= 1e-12):
            raise ValueError("all slab directions must be unit vectors")
        c = np.asarray(self.centers, dtype=float).reshape(-1)
        w = np.asarray(self.widths, dtype=float).reshape(-1)
        if not np.all(np.isfinite(c)):
            raise ValueError("slab centers must be finite")
        if not np.all((w >= 0.0) & (w < np.inf)):
            raise ValueError("slab widths must be finite and nonnegative")
        object.__setattr__(self, "directions", u)
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "widths", w)
        if not (c.size == w.size == u.shape[0]):
            raise ValueError("directions, centers and widths must have matching lengths")

    @property
    def n_slabs(self) -> int:
        return self.directions.shape[0]

    def max_violation(self, v: np.ndarray) -> float:
        """Worst slab violation g(v); the replayable certificate."""
        r = self.centers - self.directions @ np.asarray(v, dtype=float)
        return float(np.max(np.abs(r) - self.widths))

    def extended(self, directions, centers, widths) -> "SlabSystem":
        return SlabSystem(
            directions=np.vstack([self.directions, np.atleast_2d(directions)]),
            centers=np.concatenate([self.centers, np.atleast_1d(centers)]),
            widths=np.concatenate([self.widths, np.atleast_1d(widths)]),
        )


@dataclass(frozen=True)
class SolveResult:
    v_star: np.ndarray
    rho_star: float
    iterations: int
    converged: bool
    final_gap: float


@dataclass
class _CutState:
    """The cutting-plane LP of one estimate, carried from solve to solve.

    The restricted LP  min t  s.t.  s_i <u_i, x> + t >= b_i  over x in R^d
    free and t >= 0 is held as its dual, one column y_i >= 0 per cut:

        min  -sum_i b_i y_i  s.t.  sum_i y_i s_i u_i = 0,  sum_i y_i <= 1.

    Its basis is (d + 1)-square however many columns the model holds, and
    it stays primal feasible as columns are appended, so each round resumes
    primal simplex from it (column generation, Gilmore and Gomory 1961);
    the row duals are -(x, t).  ``highs`` is that HiGHS model, None (cold)
    until :meth:`start` builds one and after a round fails.  The cuts are in
    the displacement x = v - ``origin``, the first solve's warm start, so
    they stay valid as slabs are appended.  Column j of ``cuts`` is the
    (side, slab) of model column j, side 0 for s = +1 and 1 for s = -1;
    ``point`` is the last restricted optimum and ``lower`` its slack, both
    set by :func:`solve_center` at the end of each solve.  The only code
    that knows scipy's bundled binding ``_core`` (private API; see
    pyproject.toml).
    """

    highs: object = None
    origin: np.ndarray | None = None
    cuts: np.ndarray | None = None
    point: np.ndarray | None = None
    lower: float = 0.0

    def start(self, d: int, origin: np.ndarray) -> None:
        """A fresh model of d + 1 empty rows and no columns, around ``origin``,
        whose every run stops after _PIVOTS_PER_ROW (d + 1) simplex pivots."""
        highs = _core._Highs()
        for name, value in _HIGHS_OPTIONS.items():
            highs.setOptionValue(name, value)
        highs.setOptionValue("simplex_iteration_limit", _PIVOTS_PER_ROW * (d + 1))
        # the rows sum_i y_i s_i u_i = 0 and sum_i y_i <= 1, empty until cuts arrive
        lower, upper = np.r_[np.zeros(d), -_core.kHighsInf], np.r_[np.zeros(d), 1.0]
        highs.addRows(d + 1, lower, upper, 0, np.zeros(d + 1, dtype=np.int32), np.empty(0, dtype=np.int32), np.empty(0))
        self.highs, self.origin = highs, origin
        self.cuts = np.empty((2, 0), dtype=np.intp)

    def round(self, slab: np.ndarray, u: np.ndarray, s: np.ndarray, b: np.ndarray) -> np.ndarray | None:
        """Add a column (s_i u_i, 1) of cost -b_i for each cut s_i <u_i, x> + t >=
        b_i of the slabs ``slab`` and resume primal simplex from the last basis,
        unscaled (the columns are unit directions with a coefficient of one on
        the last row).  Each column is passed dense, all d + 1 entries; HiGHS
        drops the zeros itself.  Returns the optimal (x, t), or None, leaving
        the state cold, when HiGHS does not report the model optimal."""
        k, rows = s.size, u.shape[1] + 1
        self.cuts = np.hstack([self.cuts, [(s < 0.0).astype(np.intp), slab]])
        block = np.hstack([s[:, np.newaxis] * u, np.ones((k, 1))])
        added = self.highs.addCols(
            k, -b, np.zeros(k), np.full(k, _core.kHighsInf), k * rows,
            np.arange(0, k * rows, rows, dtype=np.int32), np.tile(np.arange(rows, dtype=np.int32), k),
            block.reshape(-1),
        )
        if added != _core.HighsStatus.kError:
            self.highs.run()
            if self.highs.getModelStatus() == _core.HighsModelStatus.kOptimal:
                return -np.array(self.highs.getSolution().row_dual)
        self.highs = None
        return None

    def prune(self) -> None:
        """Delete the columns that are nonbasic, i.e. at y_i = 0, in the last
        optimal basis; their cuts are not binding.  The basis stays optimal, so
        the next round resumes from it, and at most d + 1 columns are kept.
        HiGHS lists the basic variables only once a run has factored the
        basis, so only a model that has run may be pruned."""
        basic = self.highs.getBasicVariables()[1]  # a column's index, or -1 - a row's
        keep = np.zeros(self.cuts.shape[1], dtype=bool)
        keep[basic[basic >= 0]] = True
        drop = np.flatnonzero(~keep).astype(np.int32)
        self.highs.deleteCols(drop.size, drop)
        self.cuts = self.cuts[:, keep]


def solve_center(
    slabs: SlabSystem, v_init: np.ndarray | None = None, state: _CutState | None = None
) -> SolveResult:
    """Minimize the slab slack max(g(v), 0) with a certified optimality gap.

    The warm start is ``v_init``, else the origin.  Any point inside every
    slab already achieves the minimal slack zero, so a feasible warm start
    is returned at once with ``iterations = 0``.  Otherwise the linear
    program

        min t  s.t.  |r_i - <u_i, x>| <= w_i + t,  t >= 0,  r = c - U v_warm

    in the displacement x = v - v_warm is solved by cutting planes in one
    HiGHS model of its dual (see :class:`_CutState`).  Without a model from
    an earlier call (cold), the first cuts are picked at the least-squares
    point of the centers, p = v_warm + lstsq(U, r), and p competes as the
    best point: if it lies in every slab it is returned with ``iterations =
    0`` and no model is built.  Each round (one ``iterations`` step) adds,
    for the worst <= 2 (d + 1) slabs that violate the current point (p,
    then each restricted optimum) by more than its slack ``lower`` on a
    side not yet in the model, the cut s_i <u_i, x> + t >= s_i r_i - w_i of
    that side as a column, s_i = sign(r_i - <u_i, x>); the other side
    enters only if a later round violates it.  Each round resumes primal
    simplex from the last basis and reads (x, t) off the row duals, and the
    loop stops once g(v) <= lower + TOL (1 + lower).  Directions that no
    slab constrains stay at the warm start.

    ``state`` (internal: :func:`estimate_mean` passes one per estimate)
    keeps the model for the next call on the same slabs with more appended.
    That call first deletes the columns of the non-binding cuts (Topkis
    1970) and resumes from the last restricted optimum and its basis, with
    x still measured from the first warm start; ``v_init`` then only
    competes as the best point.  Within one call cuts are only added.
    A ``v_init`` that is not a finite vector of d entries raises
    ValueError.

    The restricted optimum bounds the full one from below, so ``final_gap =
    rho_star - lower`` is a certified gap; ``converged`` means HiGHS reported
    every round optimal and the gap is within TOL (1 + lower).  A
    failed round returns the best point so far flagged non-converged
    instead of raising, and drops the model.  ``rho_star`` is re-evaluated
    at the returned point, so it replays through
    :meth:`SlabSystem.max_violation`.
    """
    u, c, w = slabs.directions, slabs.centers, slabs.widths
    m, d = u.shape
    if m < 1:
        raise ValueError("need at least one slab")

    try:
        v_warm = np.zeros(d) if v_init is None else np.array(v_init, dtype=float)
    except (TypeError, ValueError):  # not numbers at all
        v_warm = np.empty(0)
    if v_warm.shape != (d,) or not np.isfinite(v_warm).all():
        raise ValueError(f"v_init must be a finite vector of d = {d} entries, got {v_init!r}")
    v_best, g_best = v_warm, slabs.max_violation(v_warm)
    lower, optimal, rounds = 0.0, True, 0
    cold = state is None or state.highs is None
    v = v_warm  # where the next round picks its cuts
    if g_best > 0.0 and cold:
        # the least-squares point of the centers, as a move from the warm
        # start: directions that no slab constrains keep their coordinates
        v = v_warm + np.linalg.lstsq(u, c - u @ v_warm, rcond=None)[0]
        g = slabs.max_violation(v)
        if g < g_best:
            v_best, g_best = v, g
    if g_best > 0.0:
        if state is None:
            state = _CutState()
        if cold:  # a fresh model around the warm start
            state.start(d, v_warm)
        else:
            state.prune()
            v, lower = state.point, state.lower
        r = c - u @ state.origin
        active = np.zeros((2, m), dtype=bool)  # sides s = +1 and s = -1 in the model
        active[state.cuts[0], state.cuts[1]] = True
        while True:
            res = c - u @ v
            viol = np.abs(res) - w
            g = float(np.max(viol))
            if g < g_best:
                v_best, g_best = v, g
            if rounds and g_best <= lower + TOL * (1.0 + lower):
                break
            below = res < 0.0  # the side each slab violates at the current point
            cand = np.flatnonzero(~np.where(below, active[1], active[0]) & (viol > lower))
            if cand.size == 0:
                break  # only the LP's own tolerance is left to close
            new = cand[np.argsort(-viol[cand], kind="stable")[: 2 * (d + 1)]]
            active[below[new].astype(np.intp), new] = True
            s = np.where(below[new], -1.0, 1.0)
            sol = state.round(new, u[new], s, s * r[new] - w[new])
            rounds += 1
            if sol is None:
                optimal = False
                break
            lower = float(sol[d])
            v = state.origin + sol[:d]
        state.point, state.lower = v, lower

    rho_star = max(slabs.max_violation(v_best), 0.0)
    # v_best is feasible for the restricted LP at t = rho_star, so the
    # restricted optimum is at most rho_star whatever HiGHS rounded to
    lower = min(lower, rho_star)
    return SolveResult(
        v_star=v_best,
        rho_star=rho_star,
        iterations=rounds,
        converged=optimal and rho_star - lower <= TOL * (1.0 + lower),
        final_gap=rho_star - lower,
    )


def _eigendirections(z: np.ndarray, count: int) -> np.ndarray:
    """Top ``count`` eigenvectors of Z^T Z as rows, largest-|coordinate| positive.

    Z (n x d) is scaled by its largest entry first, which leaves the
    eigenvectors as they are and keeps the Gram matrix from overflowing.
    Tall or square Z (n >= d) takes the eigh of the d x d Gram Z^T Z.  Wide
    Z (n < d) takes that of the n x n Gram Z Z^T instead: its eigenvector w
    maps to the eigenvector Z^T w / |Z^T w| of Z^T Z, with the same
    eigenvalue.  That Gram is formed by ``einsum``, not BLAS, whose split
    across threads would change its bytes with the thread count.  Either
    way only eigenvalues above lambda_max * max(n, d) * eps are kept; below
    that floor rounding picks the vector (any null-space vector of Z^T Z,
    or 0/0 after the map), so a Z of rank r gives at most r rows and Z = 0
    none.
    """
    n, d = z.shape
    scale = np.abs(z).max()
    if scale == 0.0:
        return np.empty((0, d))
    zs = z / scale
    wide = n < d
    vals, vecs = np.linalg.eigh(np.einsum("ik,jk->ij", zs, zs) if wide else zs.T @ zs)
    vals, vecs = vals[::-1][:count], vecs[:, ::-1][:, :count]  # eigh sorts ascending
    top = vecs.T[vals > vals[0] * max(n, d) * np.finfo(float).eps]
    if wide:
        top = top @ zs
        top /= row_norms(top)
    lead = top[np.arange(top.shape[0]), np.abs(top).argmax(axis=1)]
    return top * np.sign(lead)[:, np.newaxis]


def build_direction_set(seed: int, var_est: VarianceEstimator) -> np.ndarray:
    """Canonical basis + leading block-eigenvectors + random unit fill.

    d is the column count of the variance blocks ``var_est.Z``.  Rows are
    max(8 d, 256) unit vectors: e1..ed, then the top min(d, 8) eigenvectors
    of the blocks' second moment (fewer when the blocks have lower rank,
    none when they are all zero; see :func:`_eigendirections`), then the
    rows still missing, drawn from the seed's "direction-fill" stream.
    Every row is kept as computed: an eigendirection that is (up to sign) a
    canonical row, or a fill row close to another row, repeats a slab, which
    changes neither g(v) nor the LP optimum.  Every unit vector of R^1 is
    +-e1, so in one dimension the set is [[1.0]].
    """
    d = var_est.Z.shape[1]
    if d == 1:
        return np.ones((1, 1))
    budget = max(8 * d, 256)
    learned = _eigendirections(var_est.Z, min(d, 8))
    count = d + learned.shape[0]
    out = np.empty((budget, d))
    out[:d] = np.eye(d)
    out[d:count] = learned
    random_unit_rows(stream(seed, "direction-fill"), budget - count, d, out=out[count:])
    return out


def _probe(
    rng, marg_est: MarginalMeanEstimator, var_est: VarianceEstimator, result: SolveResult,
    delta: float, c_prime: float, n_samples: int,
) -> tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Draw ``_REFINE_PROBES`` probe directions and measure them at ``result``.

    Returns the worst slab violation beyond ``rho_star`` over the probes,
    and the (directions, centers, widths) of the at most ``_REFINE_APPEND``
    probes that violate their slab by more than ``rho_star``, worst first.
    The probes are drawn from ``rng`` into one reused buffer of
    ``_PROBE_PANEL`` rows and measured a panel at a time; consecutive draws
    continue the stream, so each probe and its violation keep the bytes of
    one draw of the whole set.  Of each panel only the rows that can be
    among the worst ``_REFINE_APPEND`` (ties at the cut included) are
    copied out, and the final pick sorts the whole violation vector, so it
    is the pick of the whole set.
    """
    d = marg_est.Y.shape[1]
    viol = np.empty(_REFINE_PROBES)
    buf = np.empty((min(_PROBE_PANEL, _REFINE_PROBES), d))
    picks = []  # per panel: the indices of the probes copied out, and their rows
    for lo in range(0, _REFINE_PROBES, _PROBE_PANEL):
        count = min(_PROBE_PANEL, _REFINE_PROBES - lo)
        probes = random_unit_rows(rng, count, d, out=buf[:count])
        p_centers = nu_hat_profile(marg_est, probes)
        p_widths = slab_width_profile(var_est, probes, delta, c_prime, n_samples)
        panel = viol[lo : lo + count]
        panel[:] = np.abs(p_centers - probes @ result.v_star) - p_widths - result.rho_star
        top = np.flatnonzero(panel > 0)
        if top.size > _REFINE_APPEND:
            top = top[panel[top] >= np.partition(panel[top], -_REFINE_APPEND)[-_REFINE_APPEND]]
        picks.append((lo + top, probes[top], p_centers[top], p_widths[top]))
    del buf, probes  # the panel goes before the picked rows are gathered
    worst = np.argsort(viol)[::-1]
    worst = worst[viol[worst] > 0][:_REFINE_APPEND]
    index, dirs, centers, widths = (np.concatenate(part) for part in zip(*picks))
    at = np.searchsorted(index, worst)
    return float(np.max(viol)), (dirs[at], centers[at], widths[at])


@dataclass(frozen=True)
class MeanEstimate:
    """Estimated mean with its achieved slack and solver diagnostics."""

    mu_hat: np.ndarray
    rho_star: float
    iterations: int
    final_gap: float
    refinement_rounds: int
    probe_violation: float
    converged: bool
    directions_used: int
    block_plan_mean: BlockPlan
    block_plan_var: BlockPlan
    slabs: SlabSystem = field(repr=False)  # left out of the JSON report


def estimate_mean(
    ds, delta: float, config: PipelineConfig | None = None, seed: int = 0
) -> MeanEstimate:
    """Full pipeline on a dataset of 3N rows.

    The first third feeds the marginal mean estimates, the remaining two
    thirds the directional variance estimates.  Slabs over max(8 d, 256)
    directions are intersected by the minimax solver; then up to 3 times
    (``_REFINE_ROUNDS``) 512 fresh probe directions (``_REFINE_PROBES``),
    drawn and measured 256 at a time (``_PROBE_PANEL``), estimate the
    surrogate gap, and the worst 64 violators (``_REFINE_APPEND``) are
    appended and re-solved, until the worst probe violation is at most 0.1
    (``_REFINE_TOL``) times rho_star plus the median slab width.

    ``probe_violation`` is the worst slab violation beyond rho_star over a
    probe set drawn after the last solve, so it is measured at ``mu_hat``:
    a lower bound on the sup over the sphere.

    ``iterations`` sums the LP rounds of every solve (0: each warm start,
    or a cold solve's least-squares point of the centers, was inside every
    slab); ``converged`` and ``final_gap`` are those of the last
    solve (see :func:`solve_center`).  A SizingError keeps the stage's
    reason and names the total row count to supply, and a
    NonFiniteRowError the first NaN or inf row.
    """
    config = config or PipelineConfig()
    rows = as_rows(ds)
    n_obs = rows.shape[0]
    n = n_obs // 3
    d = rows.shape[1]

    offset = 0  # first row of the sub-sample being fitted
    try:
        marg_est = fit_marginal(rows[:n], delta, config)
        offset = n
        var_est = fit_variance(rows[n : 3 * n], config)
    except SizingError as exc:
        # the mean plan counts rows of the first third and the variance plan
        # pair differences of the other two: one per three input rows either way
        stage = "variance" if offset else "mean"
        raise SizingError(
            f"{n_obs} rows are too few for the {stage} stage of estimate_mean: {exc.reason}", 3 * exc.minimal_n
        ) from None
    except NonFiniteRowError as exc:
        raise NonFiniteRowError(offset + exc.row) from None

    directions = build_direction_set(seed, var_est)
    centers = nu_hat_profile(marg_est, directions)
    widths = slab_width_profile(var_est, directions, delta, config.C_prime, n)
    v_init = centers[:d].copy()  # canonical directions come first in the set
    slabs = SlabSystem(directions, centers, widths)
    del directions, centers, widths  # held by slabs alone, so extending it frees them

    state = _CutState()  # one LP for this estimate's solves
    result = solve_center(slabs, v_init=v_init, state=state)

    iterations = result.iterations
    rng = stream(seed, "refine-probes")
    for rounds_used in range(_REFINE_ROUNDS + 1):  # the last probe set only measures mu_hat
        probe_violation, violators = _probe(rng, marg_est, var_est, result, delta, config.C_prime, n)
        scale = result.rho_star + _median(slabs.widths)
        if probe_violation <= _REFINE_TOL * scale or rounds_used == _REFINE_ROUNDS:
            break
        slabs = slabs.extended(*violators)
        result = solve_center(slabs, v_init=result.v_star, state=state)
        iterations += result.iterations

    return MeanEstimate(
        mu_hat=result.v_star,
        rho_star=result.rho_star,
        iterations=iterations,
        final_gap=result.final_gap,
        refinement_rounds=rounds_used,
        probe_violation=probe_violation,
        converged=result.converged,
        directions_used=slabs.n_slabs,
        block_plan_mean=marg_est.plan,
        block_plan_var=var_est.plan,
        slabs=slabs,
    )
