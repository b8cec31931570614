"""Marginal mean estimates, slab systems, and the minimax center solver.

For each direction u the trimmed block mean gives a marginal estimate
nu(u); the directional variance estimate gives a slab half-width.  The
final estimator is a point v minimizing the worst slab violation

    g(v) = max_i ( |c_i - <v, u_i>| - w_i ),

a piecewise-linear convex minimax program over a finite direction set.
The warm start, the centers of the canonical directions, is checked
against the slabs a panel of directions at a time, and is the estimate
when it lies in every slab; the whole slab system is made only when a
slab misses it, or when an estimate's ``slabs`` is read.  Minimizing the
slack max(g, 0) is then a linear program in d + 1 variables, solved once
by cutting planes with a certified optimality gap; a solve takes its
first cuts at the least-squares point of the slab centers.  One unscaled
HiGHS model holds the dual of the cut LP: each round adds a column for
the violated side of each worst slab, primal simplex resumes from the
(d + 1)-square basis, and the row duals give the restricted optimum.  One
set of fresh probe directions then bounds the finite-direction surrogate
gap at the returned point empirically and reports it instead of hiding
it.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .blocks import (
    BlockPlan,
    NonFiniteRowError,
    SizingError,
    block_averages,
    nonfinite_error,
    panel_rows,
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
_REFINE_PROBES = 512  # the probe directions that measure probe_violation


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


def _slab_fault(u: np.ndarray, c: np.ndarray, w: np.ndarray) -> str | None:
    """Why the rows of ``u`` with centers ``c`` and half-widths ``w`` are not
    slabs, or None; each check is written so that NaN fails it."""
    if not np.all(np.abs(row_norms(u) - 1.0) <= 1e-12):
        return "all slab directions must be unit vectors"
    if not np.all(np.isfinite(c)):
        return "slab centers must be finite"
    if not np.all((w >= 0.0) & (w < np.inf)):
        return "slab widths must be finite and nonnegative"
    if not (c.size == w.size == u.shape[0]):
        return "directions, centers and widths must have matching lengths"
    return None


def _worst_violation(u: np.ndarray, c: np.ndarray, w: np.ndarray, v: np.ndarray) -> float:
    """max_i ( |c_i - <v, u_i>| - w_i ) over the rows of ``u``."""
    return float(np.max(np.abs(c - u @ np.asarray(v, dtype=float)) - w))


@dataclass(frozen=True)
class SlabSystem:
    """Finite family of slabs |<v, u_i> - c_i| <= w_i + rho."""

    directions: np.ndarray
    centers: np.ndarray
    widths: np.ndarray

    def __post_init__(self):
        u = np.atleast_2d(np.asarray(self.directions, dtype=float))
        c = np.asarray(self.centers, dtype=float).reshape(-1)
        w = np.asarray(self.widths, dtype=float).reshape(-1)
        fault = _slab_fault(u, c, w)
        if fault is not None:
            raise ValueError(fault)
        object.__setattr__(self, "directions", u)
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "widths", w)

    @property
    def n_slabs(self) -> int:
        return self.directions.shape[0]

    def max_violation(self, v: np.ndarray) -> float:
        """Worst slab violation g(v); the replayable certificate."""
        return _worst_violation(self.directions, self.centers, self.widths, v)


@dataclass(frozen=True)
class SolveResult:
    v_star: np.ndarray
    rho_star: float
    iterations: int
    converged: bool
    final_gap: float


@dataclass
class _CutState:
    """The cutting-plane LP of one solve.

    The restricted LP  min t  s.t.  s_i <u_i, x> + t >= b_i  over x in R^d
    free and t >= 0 is held as its dual, one column y_i >= 0 per cut:

        min  -sum_i b_i y_i  s.t.  sum_i y_i s_i u_i = 0,  sum_i y_i <= 1.

    Its basis is (d + 1)-square however many columns the model holds, and
    it stays primal feasible as columns are appended, so each round resumes
    primal simplex from it (column generation, Gilmore and Gomory 1961);
    the row duals are -(x, t).  ``highs`` is that HiGHS model, None until
    :meth:`start` builds one.  The only code that knows scipy's bundled
    binding ``_core`` (private API; see pyproject.toml).
    """

    highs: object = None

    def start(self, d: int) -> None:
        """A fresh model of d + 1 empty rows and no columns, whose every run
        stops after _PIVOTS_PER_ROW (d + 1) simplex pivots."""
        highs = _core._Highs()
        for name, value in _HIGHS_OPTIONS.items():
            highs.setOptionValue(name, value)
        highs.setOptionValue("simplex_iteration_limit", _PIVOTS_PER_ROW * (d + 1))
        # the rows sum_i y_i s_i u_i = 0 and sum_i y_i <= 1, empty until cuts arrive
        lower, upper = np.r_[np.zeros(d), -_core.kHighsInf], np.r_[np.zeros(d), 1.0]
        highs.addRows(d + 1, lower, upper, 0, np.zeros(d + 1, dtype=np.int32), np.empty(0, dtype=np.int32), np.empty(0))
        self.highs = highs

    def round(self, u: np.ndarray, s: np.ndarray, b: np.ndarray) -> np.ndarray | None:
        """Add a column (s_i u_i, 1) of cost -b_i for each cut s_i <u_i, x> + t >=
        b_i and resume primal simplex from the last basis, unscaled (the
        columns are unit directions with a coefficient of one on the last
        row).  Each column is passed dense, all d + 1 entries; HiGHS drops the
        zeros itself.  Returns the optimal (x, t), or None when HiGHS does not
        report the model optimal."""
        k, rows = s.size, u.shape[1] + 1
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
        return None


def solve_center(slabs: SlabSystem, v_init: np.ndarray | None = None) -> SolveResult:
    """Minimize the slab slack max(g(v), 0) with a certified optimality gap.

    The warm start is ``v_init``, else the origin.  Any point inside every
    slab already achieves the minimal slack zero, so a feasible warm start
    is returned at once with ``iterations = 0``.  Otherwise the linear
    program

        min t  s.t.  |r_i - <u_i, x>| <= w_i + t,  t >= 0,  r = c - U v_warm

    in the displacement x = v - v_warm is solved by cutting planes in one
    HiGHS model of its dual (see :class:`_CutState`).  The first cuts are
    picked at the least-squares point of the centers, p = v_warm + lstsq(U,
    r), and p competes as the best point: if it lies in every slab it is
    returned with ``iterations = 0`` and no model is built.  Each round (one
    ``iterations`` step) adds, for the worst <= 2 (d + 1) slabs that violate
    the current point (p, then each restricted optimum) by more than its
    slack ``lower`` on a side not yet in the model, the cut s_i <u_i, x> + t
    >= s_i r_i - w_i of that side as a column, s_i = sign(r_i - <u_i, x>);
    the other side enters only if a later round violates it.  Cuts are only
    added.  Each round resumes primal simplex from the last basis and reads
    (x, t) off the row duals, and the loop stops once g(v) <= lower + TOL (1
    + lower).  Directions that no slab constrains stay at the warm start.
    A ``v_init`` that is not a finite vector of d entries raises
    ValueError.

    The restricted optimum bounds the full one from below, so ``final_gap =
    rho_star - lower`` is a certified gap; ``converged`` means HiGHS reported
    every round optimal and the gap is within TOL (1 + lower).  A
    failed round returns the best point so far flagged non-converged
    instead of raising.  ``rho_star`` is re-evaluated at the returned point,
    so it replays through :meth:`SlabSystem.max_violation`.
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
    if g_best > 0.0:
        r = c - u @ v_warm
        # the least-squares point of the centers, as a move from the warm
        # start: directions that no slab constrains keep their coordinates
        v = v_warm + np.linalg.lstsq(u, r, rcond=None)[0]
        g = slabs.max_violation(v)
        if g < g_best:
            v_best, g_best = v, g
    if g_best > 0.0:
        state = _CutState()
        state.start(d)
        active = np.zeros((2, m), dtype=bool)  # sides s = +1 and s = -1 in the model
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
            sol = state.round(u[new], s, s * r[new] - w[new])
            rounds += 1
            if sol is None:
                optimal = False
                break
            lower = float(sol[d])
            v = v_warm + sol[:d]

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


def _direction_plan(var_est: VarianceEstimator) -> tuple[int, np.ndarray]:
    """The row count of the direction set on ``var_est`` and its learned rows."""
    d = var_est.Z.shape[1]
    if d == 1:
        return 1, np.empty((0, 1))
    return max(8 * d, 256), _eigendirections(var_est.Z, min(d, 8))


def _direction_rows(learned: np.ndarray, rng, lo: int, out: np.ndarray) -> np.ndarray:
    """Rows ``lo`` to ``lo + len(out)`` of a direction set, written into
    ``out`` and returned: e1..ed, then the ``learned`` rows, then the fill,
    drawn from ``rng``, which has drawn the fill rows before ``lo`` already."""
    rows, d = out.shape
    hi, count = lo + rows, d + learned.shape[0]
    a, b = lo, min(hi, d)
    if a < b:
        out[: b - a] = 0.0
        out[np.arange(b - a), np.arange(a, b)] = 1.0
    a, b = max(lo, d), min(hi, count)
    if a < b:
        out[a - lo : b - lo] = learned[a - d : b - d]
    a = max(lo, count)
    if a < hi:
        random_unit_rows(rng, hi - a, d, out=out[a - lo :])
    return out


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
    budget, learned = _direction_plan(var_est)
    out = np.empty((budget, var_est.Z.shape[1]))
    return _direction_rows(learned, stream(seed, "direction-fill"), 0, out)


def _slab_system(
    seed: int, marg_est: MarginalMeanEstimator, var_est: VarianceEstimator, delta: float, c_prime: float,
    n_samples: int,
) -> SlabSystem:
    """The slabs of :func:`build_direction_set`, profiled as one set."""
    directions = build_direction_set(seed, var_est)
    centers = nu_hat_profile(marg_est, directions)
    widths = slab_width_profile(var_est, directions, delta, c_prime, n_samples)
    return SlabSystem(directions, centers, widths)


def _slab_panels(
    marg_est: MarginalMeanEstimator, var_est: VarianceEstimator, count: int, draw,
    delta: float, c_prime: float, n_samples: int,
):
    """Yield ``(lo, u, centers, widths)`` over ``count`` directions, a panel at a time.

    ``draw(lo, out)`` writes the directions from ``lo`` on into ``out``, one
    buffer for every panel, and returns them.  A panel is the least common
    multiple of the profiles' projection panel steps (256 rows up to 128
    blocks, 768 at 300 variance blocks; :func:`~dirmean.blocks.panel_rows`),
    so its profiles keep the bytes of a profile of all ``count`` directions.
    """
    step = math.lcm(panel_rows(marg_est.Y.shape[0]), panel_rows(var_est.Z.shape[0]))
    buf = np.empty((min(step, count), marg_est.Y.shape[1]))
    for lo in range(0, count, step):
        u = draw(lo, buf[: min(step, count - lo)])
        yield lo, u, nu_hat_profile(marg_est, u), slab_width_profile(var_est, u, delta, c_prime, n_samples)


def _probe(
    rng, marg_est: MarginalMeanEstimator, var_est: VarianceEstimator, result: SolveResult,
    delta: float, c_prime: float, n_samples: int,
) -> float:
    """Draw ``_REFINE_PROBES`` probe directions from ``rng`` and return the
    worst slab violation beyond ``rho_star`` over them at ``v_star`` of
    ``result``.  The probes are drawn and measured a panel at a time
    (:func:`_slab_panels`), each panel continuing the stream, so the result
    keeps the bytes of one draw of the whole set.
    """
    panels = _slab_panels(
        marg_est, var_est, _REFINE_PROBES, lambda lo, out: random_unit_rows(rng, *out.shape, out=out),
        delta, c_prime, n_samples,
    )
    return float(np.max([_worst_violation(u, c, w, result.v_star) for _, u, c, w in panels]) - result.rho_star)


@dataclass(frozen=True)
class MeanEstimate:
    """Estimated mean with its achieved slack and solver diagnostics.

    ``slabs`` is the estimate's slab system.  An estimate whose LP ran keeps
    the system it solved; one whose warm start lay in every slab never held
    the whole system, and rebuilds it from its seed and fitted stages
    (``_slab_source``) on first read, then keeps it.
    """

    mu_hat: np.ndarray
    rho_star: float
    iterations: int
    final_gap: float
    probe_violation: float
    converged: bool
    directions_used: int
    block_plan_mean: BlockPlan
    block_plan_var: BlockPlan
    # left out of the JSON report
    _slab_source: functools.partial = field(repr=False, compare=False)
    _slabs: SlabSystem | None = field(default=None, repr=False, compare=False)

    @property
    def slabs(self) -> SlabSystem:
        if self._slabs is None:
            object.__setattr__(self, "_slabs", self._slab_source())
        return self._slabs


def estimate_mean(
    ds, delta: float, config: PipelineConfig | None = None, seed: int = 0
) -> MeanEstimate:
    """Full pipeline on a dataset of 3N rows.

    The first third feeds the marginal mean estimates, the remaining two
    thirds the directional variance estimates.  The estimate is a point in
    the slabs over the max(8 d, 256) directions of
    :func:`build_direction_set`, warm-started at the centers of the
    canonical directions, which come first in the set.

    The set is drawn, profiled and checked at the warm start a panel of
    rows at a time (:func:`_slab_panels`).  If every slab holds the warm
    start, it is the estimate, with the result :func:`solve_center` gives
    a feasible warm start (``rho_star = 0``, no LP round), and the whole
    system is never held.  At the first panel with a violated slab the
    whole system is made: the earlier panels are drawn again from a fresh
    stream, that panel and the rest become its rows, and one minimax solve
    intersects the slabs.

    ``probe_violation`` is then the worst slab violation beyond rho_star
    over 512 fresh probe directions (``_REFINE_PROBES``) of the seed's
    "refine-probes" stream, drawn and measured in panels of the same rule
    at ``mu_hat``: a lower bound on the sup over the sphere.  The probes
    are only measured, not appended and solved again: where the slabs do
    not meet, the paper's bound says nothing about which point to return.

    ``iterations``, ``converged`` and ``final_gap`` are those of the solve
    (see :func:`solve_center`; ``iterations`` is 0 when the warm start, or
    the least-squares point of the centers, was inside every slab).  A
    SizingError keeps the stage's reason and names the total row count to
    supply, and a NonFiniteRowError the first NaN or inf row.
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

    budget, learned = _direction_plan(var_est)
    rng = stream(seed, "direction-fill")
    centers, widths = np.empty(budget), np.empty(budget)
    draw = functools.partial(_direction_rows, learned, rng)
    panels = _slab_panels(marg_est, var_est, budget, draw, delta, config.C_prime, n)
    for lo, u, c, w in panels:
        hi = lo + u.shape[0]
        centers[lo:hi], widths[lo:hi] = c, w
        # a canonical row's center is its warm start coordinate: a panel of
        # canonical rows only is checked for faults, and holds the warm start
        violated = _slab_fault(u, c, w) is not None or (hi > d and _worst_violation(u, c, w, centers[:d]) > 0.0)
        if violated:
            break

    source = functools.partial(_slab_system, seed, marg_est, var_est, delta, config.C_prime, n)
    slabs = None
    if violated:
        # the earlier panels, drawn again; this one and the rest become rows as they are
        directions = np.empty((budget, d))
        _direction_rows(learned, stream(seed, "direction-fill"), 0, directions[:lo])
        directions[lo:hi] = u
        del panels, u, c, w
        rest = _direction_rows(learned, rng, hi, directions[hi:])
        if hi < budget:
            centers[hi:] = nu_hat_profile(marg_est, rest)
            widths[hi:] = slab_width_profile(var_est, rest, delta, config.C_prime, n)
        slabs = SlabSystem(directions, centers, widths)
        result = solve_center(slabs, v_init=centers[:d])
    else:
        del panels, u, c, w
        result = SolveResult(v_star=centers[:d].copy(), rho_star=0.0, iterations=0, converged=True, final_gap=0.0)
    probe_violation = _probe(stream(seed, "refine-probes"), marg_est, var_est, result, delta, config.C_prime, n)

    return MeanEstimate(
        mu_hat=result.v_star,
        rho_star=result.rho_star,
        iterations=result.iterations,
        final_gap=result.final_gap,
        probe_violation=probe_violation,
        converged=result.converged,
        directions_used=budget,
        block_plan_mean=marg_est.plan,
        block_plan_var=var_est.plan,
        _slab_source=source,
        _slabs=slabs,
    )
