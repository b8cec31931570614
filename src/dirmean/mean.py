"""Marginal mean estimates, slab systems, and the minimax center solver.

For each direction u the trimmed block mean gives a marginal estimate
nu(u); the directional variance estimate gives a slab half-width.  The
final estimator is a point v minimizing the worst slab violation

    g(v) = max_i ( |c_i - <v, u_i>| - w_i ),

a piecewise-linear convex minimax program over a finite direction set.
Minimizing the slack max(g, 0) is a linear program in d + 1 variables,
solved by cutting planes from a cheap warm start, with a certified
optimality gap: each round adds a row for the violated side of each worst
slab to one unscaled HiGHS model and resumes from its basis.  A
probe-and-refine loop bounds the finite-direction surrogate gap
empirically and reports it instead of hiding it.  Its re-solves keep the
estimate's one model: the rows that are not binding are deleted first,
and dual simplex resumes from the optimal basis that is left.
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
    BlockPlan,
    NonFiniteRowError,
    SizingError,
    block_averages,
    nonfinite_error,
    plan_blocks,
    projections,
)
from .config import PipelineConfig
from .distributions import _check_unit, as_rows
from .rng import random_unit_rows, row_norms, stream
from .variance import VarianceEstimator, fit_variance, psi_profile

DUPLICATE_DOT = 1.0 - 1e-12  # |cos| above this counts as the same direction
TOL = 1e-8  # certified solver gap, relative to 1 + the LP lower bound
# Unit rows with |cos| >= DUPLICATE_DOT lie within sqrt(2 (1 - DUPLICATE_DOT))
# ~ 1.42e-6 of each other (up to sign), so their |projections| on any unit
# vector differ by at most that; _SCREEN is about 7 times the bound, which
# leaves room for rounding in the norms and dots.
_SCREEN = 1e-5
_PAIR_BATCH = 256  # key-screened pairs whose exact |cos| is taken per product
_HIGHS_CORE = "scipy.optimize._highspy._core"


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
# for _slab_lp; eager, so no solve pays the import
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
    plan = plan_blocks(rows.shape[0], delta, config.theta_mean, "mean", config)
    y = block_averages(rows[: plan.used], plan.m)
    if not np.isfinite(y).all():
        raise nonfinite_error(rows, np.arange(plan.used))
    return MarginalMeanEstimator(Y=y, plan=plan)


def nu_hat(est: MarginalMeanEstimator, u) -> float:
    """Trimmed marginal mean estimate along one unit direction."""
    u = _check_unit(u)
    return float(nu_hat_profile(est, u[np.newaxis, :])[0])


def nu_hat_profile(est: MarginalMeanEstimator, directions: np.ndarray) -> np.ndarray:
    """Vectorized marginal mean estimates over the rows of ``directions``.

    Drops the trim_per_side largest and smallest signed projections per
    direction, then rescales the interior mean by 1/sqrt(m).  The projections
    are sorted in place in the (n, M) view of their padded buffer.
    """
    proj = projections(est.Y, directions)[:, : np.shape(directions)[0]]
    n = proj.shape[0]
    k = est.plan.trim_per_side
    proj.sort(axis=0)
    return proj[k : n - k].sum(axis=0) / (math.sqrt(est.plan.m) * (n - 2 * k))


def slab_width(var_est: VarianceEstimator, u, delta: float, c_prime: float, n_samples: int) -> float:
    """Half-width 2 C' sqrt(psi(u) log(1/delta) / N) for one direction."""
    u = _check_unit(u)
    return float(slab_width_profile(var_est, u[np.newaxis, :], delta, c_prime, n_samples)[0])


def slab_width_profile(
    var_est: VarianceEstimator, directions: np.ndarray, delta: float, c_prime: float, n_samples: int
) -> np.ndarray:
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    var = psi_profile(var_est, directions)
    return 2.0 * c_prime * np.sqrt(var * math.log(1.0 / delta) / n_samples)


@dataclass(frozen=True)
class SlabSystem:
    """Finite family of slabs |<v, u_i> - c_i| <= w_i + rho."""

    directions: np.ndarray
    centers: np.ndarray
    widths: np.ndarray
    delta: float
    c_prime: float

    def __post_init__(self):
        u = np.atleast_2d(np.asarray(self.directions, dtype=float))
        if np.any(np.abs(row_norms(u) - 1.0) > 1e-12):
            raise ValueError("all slab directions must be unit vectors")
        if np.any(np.asarray(self.widths) < 0):
            raise ValueError("slab widths must be nonnegative")
        object.__setattr__(self, "directions", u)
        object.__setattr__(self, "centers", np.asarray(self.centers, dtype=float).reshape(-1))
        object.__setattr__(self, "widths", np.asarray(self.widths, dtype=float).reshape(-1))
        if not (self.centers.size == self.widths.size == u.shape[0]):
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
            delta=self.delta,
            c_prime=self.c_prime,
        )


@dataclass(frozen=True)
class SolveResult:
    v_star: np.ndarray
    rho_star: float
    g_value: float
    iterations: int
    converged: bool
    final_gap: float


def _slab_lp(d: int):
    """One HiGHS model of  min t  over x in R^d free and t >= 0, grown by rounds.

    Returns ``lp_round(u, s, b)``: it adds the rows s_i <u_i, x> + t >= b_i,
    re-solves by dual simplex from the last basis (unscaled: the rows are
    unit directions with a coefficient of one on t), and returns the
    optimal (x, t), or None when HiGHS does not report the model optimal.
    ``lp_round.prune()`` deletes the rows that are basic, i.e. not binding,
    in the last optimal basis and returns the mask of the rows it kept, in
    model order; what is left of the basis stays optimal, so the next round
    resumes from it.  At most d + 1 rows are nonbasic, so at most d + 1 are
    kept.  The only code that knows scipy's bundled binding (private API,
    ``scipy.optimize._highspy._core``; see pyproject.toml).
    """
    highs = _core._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("presolve", "off")
    highs.setOptionValue("simplex_scale_strategy", 0)
    highs.addVars(d + 1, np.r_[np.full(d, -_core.kHighsInf), 0.0], np.full(d + 1, _core.kHighsInf))
    highs.changeColsCost(1, np.array([d], dtype=np.int32), np.array([1.0]))

    def lp_round(u: np.ndarray, s: np.ndarray, b: np.ndarray) -> np.ndarray | None:
        k = s.size
        block = np.hstack([s[:, np.newaxis] * u, np.ones((k, 1))])
        rows, cols = np.nonzero(block)
        starts = np.searchsorted(rows, np.arange(k)).astype(np.int32)
        added = highs.addRows(
            k, b, np.full(k, _core.kHighsInf), rows.size, starts, cols.astype(np.int32), block[rows, cols]
        )
        if added == _core.HighsStatus.kError:
            return None
        highs.run()
        if highs.getModelStatus() != _core.HighsModelStatus.kOptimal:
            return None
        return np.array(highs.getSolution().col_value)

    def prune() -> np.ndarray:
        basic = _core.HighsBasisStatus.kBasic
        keep = np.array([status != basic for status in highs.getBasis().row_status], dtype=bool)
        drop = np.flatnonzero(~keep).astype(np.int32)
        highs.deleteRows(drop.size, drop)
        return keep

    lp_round.prune = prune
    return lp_round


@dataclass
class _CutState:
    """The cutting-plane LP of one estimate, carried from solve to solve.

    ``lp`` is the ``_slab_lp`` model, None until a solve builds one and
    after a round fails (the next solve then starts cold).  Its rows are
    in the displacement x = v - ``origin``, the first solve's warm start,
    so they stay valid as slabs are appended.  Column j of ``rows`` is the
    (side, slab) of model row j, side 0 for s = +1 and 1 for s = -1;
    ``point`` is the last restricted optimum and ``lower`` its slack.
    """

    lp: object = None
    origin: np.ndarray | None = None
    rows: np.ndarray | None = None
    point: np.ndarray | None = None
    lower: float = 0.0


def solve_center(
    slabs: SlabSystem, v_init: np.ndarray | None = None, state: _CutState | None = None
) -> SolveResult:
    """Minimize the slab slack max(g(v), 0) with a certified optimality gap.

    The warm start is ``v_init``, else the least-squares assembly of the
    centers.  Any point inside every slab already achieves the minimal
    slack zero, so a feasible warm start is returned at once with
    ``iterations = 0``.  Otherwise the linear program

        min t  s.t.  |r_i - <u_i, x>| <= w_i + t,  t >= 0,  r = c - U v_warm

    in the displacement x = v - v_warm is solved by cutting planes in one
    HiGHS model: each round (one ``iterations`` step) adds, for the worst
    <= 2 (d + 1) slabs that violate the current restricted optimum ``lower``
    on a side not yet in the model, the row s_i <u_i, x> + t >= s_i r_i - w_i
    of that side, s_i = sign(r_i - <u_i, x>); the other side enters only if a
    later round violates it.  Each round resumes dual simplex from the last
    basis, and the loop stops once g(v) <= lower + TOL (1 + lower).
    Directions that no active row constrains stay at the warm start.

    ``state`` (internal: :func:`estimate_mean` passes one per estimate)
    keeps the model for the next call on the same slabs with more appended.
    That call first deletes the model's non-binding rows (Topkis 1970) and
    resumes from the last restricted optimum and its basis, with x still
    measured from the first warm start; ``v_init`` then only competes as
    the best point.  Within one call rows are only added.

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
    if not np.all(np.isfinite(c)) or not np.all(np.isfinite(w)):
        raise ValueError("slab centers and widths must be finite")

    if v_init is None:
        # least-squares assembly of the centers; exact on consistent systems
        v_warm = np.linalg.lstsq(u, c, rcond=None)[0]
    else:
        v_warm = np.asarray(v_init, dtype=float).reshape(d).copy()
    v_best, g_best = v_warm, slabs.max_violation(v_warm)
    lower, optimal, rounds = 0.0, True, 0
    if g_best > 0.0:
        if state is None:
            state = _CutState()
        elif state.lp is not None:
            state.rows = state.rows[:, state.lp.prune()]
        if state.lp is None:  # cold: a fresh model around the warm start
            state.lp, state.origin, state.point, state.lower = _slab_lp(d), v_warm, v_warm, 0.0
            state.rows = np.empty((2, 0), dtype=np.intp)
        lp_round, v, lower = state.lp, state.point, state.lower
        r = c - u @ state.origin
        active = np.zeros((2, m), dtype=bool)  # sides s = +1 and s = -1 in the model
        active[state.rows[0], state.rows[1]] = True
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
            side = below[new].astype(np.intp)
            active[side, new] = True
            state.rows = np.hstack([state.rows, [side, new]])
            s = np.where(below[new], -1.0, 1.0)
            sol = lp_round(u[new], s, s * r[new] - w[new])
            rounds += 1
            if sol is None:
                optimal, state.lp = False, None
                break
            lower = float(sol[d])
            v = state.origin + sol[:d]
        state.point, state.lower = v, lower

    g_final = slabs.max_violation(v_best)
    rho_star = max(g_final, 0.0)
    # v_best is feasible for the restricted LP at t = rho_star, so the
    # restricted optimum is at most rho_star whatever HiGHS rounded to
    lower = min(lower, rho_star)
    return SolveResult(
        v_star=v_best,
        rho_star=rho_star,
        g_value=g_final,
        iterations=rounds,
        converged=optimal and rho_star - lower <= TOL * (1.0 + lower),
        final_gap=rho_star - lower,
    )


def _eigendirections(z: np.ndarray, count: int) -> np.ndarray:
    """Top ``count`` eigenvectors of Z^T Z / n as rows, largest-|coordinate| positive.

    Z is scaled by its largest entry first, which leaves the eigenvectors as
    they are and keeps the Gram matrix from overflowing.  Z = 0 has none.
    """
    scale = np.abs(z).max()
    if scale == 0.0:
        return np.empty((0, z.shape[1]))
    zs = z / scale
    top = np.linalg.eigh(zs.T @ zs)[1][:, ::-1][:, :count].T  # eigh sorts ascending
    lead = top[np.arange(count), np.abs(top).argmax(axis=1)]
    return top * np.sign(lead)[:, np.newaxis]


def _keep_new(out: np.ndarray, count: int, cand: np.ndarray) -> int:
    """Append the new unit rows of ``cand`` to ``out[:count]``; return the new count.

    Sequential rule: in order, a candidate is kept while ``out`` has room and
    its |cos| with every row kept before it is below DUPLICATE_DOT.  Applied
    through one sorted key, |row . r| for a fixed generic unit vector r: a
    near-duplicate pair has keys within _SCREEN, so only pairs whose keys lie
    that close get the exact |cos| test, in batches, so memory stays
    O((count + len(cand)) d) however many keys coincide.  The rare candidates
    in a clash are then resolved in row order against the rows kept before
    them.  ``cand`` may be the view ``out[count:]``: then, when every
    candidate is kept, the rows are already in place.
    """
    budget, d = out.shape
    k = cand.shape[0]
    r = np.cos(np.arange(1.0, d + 1.0))  # no RNG draw; no two canonical rows share a key
    r /= np.linalg.norm(r)
    keys = np.abs(np.concatenate([out[:count] @ r, cand @ r]))
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]

    def rows(idx: np.ndarray) -> np.ndarray:  # rows by index into out[:count] + cand
        got = np.empty((idx.size, d))
        old = idx < count
        got[old] = out[idx[old]]
        got[~old] = cand[idx[~old] - count]
        return got

    # open: a candidate with no clash found yet.  A pair s apart in key order
    # within _SCREEN has every pair between its ends within _SCREEN too, so
    # once no such pair has an open end, no pair further apart can have one.
    open_ = np.arange(count + k) >= count
    for s in range(1, count + k):
        near = np.flatnonzero(sorted_keys[s:] - sorted_keys[:-s] <= _SCREEN)
        i, j = order[near], order[near + s]
        test = open_[i] | open_[j]
        if not test.any():
            break
        i, j = i[test], j[test]
        for b in range(0, i.size, _PAIR_BATCH):
            ib, jb = i[b : b + _PAIR_BATCH], j[b : b + _PAIR_BATCH]
            dup = np.abs(np.einsum("ij,ij->i", rows(ib), rows(jb))) >= DUPLICATE_DOT
            open_[ib[dup]] = open_[jb[dup]] = False

    keep = open_[count:]
    clashed = np.flatnonzero(~keep) + count  # ascending: row order
    if clashed.size:
        alive = np.arange(count + k) < count  # kept rows and the clashed candidates kept so far
        lo = np.searchsorted(sorted_keys, keys[clashed] - _SCREEN, "left")
        hi = np.searchsorted(sorted_keys, keys[clashed] + _SCREEN, "right")
        for c, a, b in zip(clashed, lo, hi):
            near = order[a:b]
            near = near[alive[near]]
            if not near.size or np.abs(rows(near) @ cand[c - count]).max() < DUPLICATE_DOT:
                keep[c - count] = alive[c] = True
    new = (cand if keep.all() else cand[keep])[: budget - count]
    out[count : count + new.shape[0]] = new
    return count + new.shape[0]


def build_direction_set(
    d: int, budget: int, seed: int, var_est: VarianceEstimator | None = None
) -> np.ndarray:
    """Canonical basis + leading block-eigenvectors + random unit fill.

    Rows are unit vectors: after e1..ed, the top min(d, 8) eigenvectors of
    the variance blocks' second moment, then batches of the rows still
    missing from the seed's "direction-fill" stream.  A candidate is dropped
    when |cos| with a row already kept is at least DUPLICATE_DOT = 1 - 1e-12,
    an angle of about 1.41e-6 rad to that row or its negation (the slab
    modulus makes u and -u equivalent).  In one dimension e1 is the only
    such direction, so the set is [[1.0]] whatever the budget.
    """
    if budget < 2 * d:
        raise ValueError(f"directions = {budget} (the direction budget) must be at least 2 d = {2 * d}")
    if d == 1:
        return np.ones((1, 1))
    out = np.empty((budget, d))
    out[:d] = np.eye(d)
    count = d
    if var_est is not None:
        count = _keep_new(out, count, _eigendirections(var_est.Z, min(d, 8)))
    rng = stream(seed, "direction-fill")
    while count < budget:  # each batch is drawn straight into the free rows
        count = _keep_new(out, count, random_unit_rows(rng, budget - count, d, out=out[count:]))
    return out


@dataclass(frozen=True)
class MeanEstimate:
    """Estimated mean with its achieved slack and solver diagnostics."""

    mu_hat: np.ndarray
    rho_star: float
    iterations: int
    final_gap: float
    refinement_rounds: int
    probe_violation: float | None
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
    thirds the directional variance estimates.  Slabs over a finite
    direction set are intersected by the minimax solver; fresh probe
    directions then estimate the surrogate gap and the worst violators are
    appended and re-solved, up to ``config.refine_rounds`` times.

    ``iterations`` sums the LP rounds of every solve (0: each warm start
    was feasible); ``converged`` and ``final_gap`` are those of the last
    solve (see :func:`solve_center`).  A SizingError names the total row
    count to supply, and a NonFiniteRowError the first NaN or inf row.
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
            f"{n_obs} rows are too few for the {stage} stage of estimate_mean", 3 * exc.minimal_n
        ) from None
    except NonFiniteRowError as exc:
        raise NonFiniteRowError(offset + exc.row) from None

    budget = config.directions if config.directions is not None else max(8 * d, 256)
    directions = build_direction_set(d, budget, seed, var_est)
    centers = nu_hat_profile(marg_est, directions)
    widths = slab_width_profile(var_est, directions, delta, config.C_prime, n)
    slabs = SlabSystem(directions, centers, widths, delta=delta, c_prime=config.C_prime)

    v_init = centers[:d].copy()  # canonical directions come first in the set
    state = _CutState()  # one LP for this estimate's solves
    result = solve_center(slabs, v_init=v_init, state=state)

    iterations = result.iterations
    rounds_used = 0
    probe_violation = None
    rng = stream(seed, "refine-probes")
    for _ in range(config.refine_rounds):
        probes = random_unit_rows(rng, config.refine_probes, d)
        p_centers = nu_hat_profile(marg_est, probes)
        p_widths = slab_width_profile(var_est, probes, delta, config.C_prime, n)
        viol = np.abs(p_centers - probes @ result.v_star) - p_widths - result.rho_star
        probe_violation = float(np.max(viol))
        scale = result.rho_star + _median(slabs.widths)
        if probe_violation <= config.refine_tol * scale:
            break
        rounds_used += 1
        worst = np.argsort(viol)[::-1]
        worst = worst[viol[worst] > 0][: config.refine_append]
        slabs = slabs.extended(probes[worst], p_centers[worst], p_widths[worst])
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
