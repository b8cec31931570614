"""Marginal mean estimates, slab systems, and the minimax center solver.

For each direction u the trimmed block mean gives a marginal estimate
nu(u); the directional variance estimate gives a slab half-width.  The
final estimator is a point v minimizing the worst slab violation

    g(v) = max_i ( |c_i - <v, u_i>| - w_i ),

a piecewise-linear convex minimax program over a finite direction set.
Minimizing the slack max(g, 0) is a linear program in d + 1 variables,
solved by cutting planes from a cheap warm start, with a certified
optimality gap: each round adds the rows of the worst violated slabs to
one HiGHS model and resumes from its basis.  A probe-and-refine loop
bounds the finite-direction surrogate gap empirically and reports it
instead of hiding it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize._highspy import _core  # for _slab_lp; eager, so no solve pays the import

from .blocks import (
    BlockPlan,
    NonFiniteRowError,
    SizingError,
    block_averages,
    nonfinite_error,
    plan_blocks,
)
from .config import PipelineConfig
from .distributions import _check_unit, as_rows
from .rng import stream
from .variance import VarianceEstimator, fit_variance, psi_profile

DUPLICATE_DOT = 1.0 - 1e-12  # |cos| above this counts as the same direction
TOL = 1e-8  # certified solver gap, relative to 1 + the LP lower bound
# Unit rows with |cos| >= DUPLICATE_DOT lie within sqrt(2 (1 - DUPLICATE_DOT))
# ~ 1.42e-6 of each other (up to sign), so their |projections| on any unit
# vector differ by at most that; _SCREEN is about 7 times the bound, which
# leaves room for rounding in the norms and dots.
_SCREEN = 1e-5
_PAIR_BATCH = 256  # key-screened pairs whose exact |cos| is taken per product


@dataclass(frozen=True)
class MarginalMeanEstimator:
    """Block averages of raw observations plus trimming configuration."""

    Y: np.ndarray
    m: int
    theta: float
    plan: BlockPlan

    @property
    def n_blocks(self) -> int:
        return self.Y.shape[0]

    @property
    def dim(self) -> int:
        return self.Y.shape[1]


def fit_marginal(ds, delta: float, config: PipelineConfig | None = None) -> MarginalMeanEstimator:
    """Build the block-average matrix used by the marginal mean estimates.

    Raises NonFiniteRowError naming the first NaN or inf row that reaches
    the blocks.
    """
    config = config or PipelineConfig()
    rows = as_rows(ds)
    plan = plan_blocks(rows.shape[0], delta, config.theta_mean, "mean", config)
    y = block_averages(rows, plan.m)[: plan.n]
    if not np.isfinite(y).all():
        raise nonfinite_error(rows, np.arange(plan.used))
    return MarginalMeanEstimator(Y=y, m=plan.m, theta=config.theta_mean, plan=plan)


def nu_hat(est: MarginalMeanEstimator, u) -> float:
    """Trimmed marginal mean estimate along one unit direction."""
    u = _check_unit(u)
    return float(nu_hat_profile(est, u[np.newaxis, :])[0])


def nu_hat_profile(est: MarginalMeanEstimator, directions: np.ndarray) -> np.ndarray:
    """Vectorized marginal mean estimates over the rows of ``directions``.

    Drops the trim_per_side largest and smallest signed projections per
    direction, then rescales the interior mean by 1/sqrt(m).
    """
    proj = est.Y @ np.asarray(directions, dtype=float).T  # (n, M)
    n = proj.shape[0]
    k = est.plan.trim_per_side
    interior = np.sort(proj, axis=0)[k : n - k]
    return interior.sum(axis=0) / (math.sqrt(est.m) * (n - 2 * k))


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
        norms = np.linalg.norm(u, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
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

    @property
    def dim(self) -> int:
        return self.directions.shape[1]

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

    Returns ``lp_round(u, r, w)``: it adds the rows <u_i, x> - t <= w_i + r_i
    and <u_i, x> + t >= r_i - w_i, re-solves by dual simplex from the last
    basis, and returns the optimal (x, t), or None when HiGHS does not report
    the model optimal.  The only code that knows scipy's bundled binding
    (private API, ``scipy.optimize._highspy._core``; see pyproject.toml).
    """
    highs = _core._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("presolve", "off")
    highs.addVars(d + 1, np.r_[np.full(d, -_core.kHighsInf), 0.0], np.full(d + 1, _core.kHighsInf))
    highs.changeColsCost(1, np.array([d], dtype=np.int32), np.array([1.0]))

    def lp_round(u: np.ndarray, r: np.ndarray, w: np.ndarray) -> np.ndarray | None:
        k = u.shape[0]
        t_col = np.r_[-np.ones(k), np.ones(k)][:, np.newaxis]
        block = np.hstack([np.vstack([u, u]), t_col])
        rows, cols = np.nonzero(block)
        inf = np.full(k, _core.kHighsInf)
        added = highs.addRows(
            2 * k,
            np.r_[-inf, r - w],
            np.r_[w + r, inf],
            rows.size,
            np.searchsorted(rows, np.arange(2 * k)).astype(np.int32),
            cols.astype(np.int32),
            block[rows, cols],
        )
        if added == _core.HighsStatus.kError:
            return None
        highs.run()
        if highs.getModelStatus() != _core.HighsModelStatus.kOptimal:
            return None
        return np.array(highs.getSolution().col_value)

    return lp_round


def solve_center(slabs: SlabSystem, v_init: np.ndarray | None = None) -> SolveResult:
    """Minimize the slab slack max(g(v), 0) with a certified optimality gap.

    The warm start is ``v_init``, else the least-squares assembly of the
    centers.  Any point inside every slab already achieves the minimal
    slack zero, so a feasible warm start is returned at once with
    ``iterations = 0``.  Otherwise the linear program

        min t  s.t.  |r_i - <u_i, x>| <= w_i + t,  t >= 0,  r = c - U v_warm

    in the displacement x = v - v_warm is solved by cutting planes in one
    HiGHS model: each round (one ``iterations`` step) adds the rows of the
    worst <= 2 (d + 1) slabs that violate the current restricted optimum
    ``lower`` and resumes dual simplex from the previous round's basis, and
    the loop stops once g(v) <= lower + TOL (1 + lower).  Directions that no
    active slab constrains stay at the warm start.

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
    if not np.all(np.isfinite(c)) or not np.all(np.isfinite(w)):
        raise ValueError("slab centers and widths must be finite")

    if v_init is None:
        # least-squares assembly of the centers; exact on consistent systems
        v_warm = np.linalg.lstsq(u, c, rcond=None)[0]
    else:
        v_warm = np.asarray(v_init, dtype=float).reshape(d).copy()
    r = c - u @ v_warm
    viol = np.abs(r) - w
    v_best, g_best = v_warm, float(np.max(viol))
    lower, optimal, rounds = 0.0, True, 0
    if g_best > 0.0:
        lp_round = _slab_lp(d)
        active = np.zeros(m, dtype=bool)
        while True:
            cand = np.flatnonzero(~active & (viol > lower))
            if cand.size == 0:
                break  # only the LP's own tolerance is left to close
            new = cand[np.argsort(-viol[cand], kind="stable")[: 2 * (d + 1)]]
            active[new] = True
            sol = lp_round(u[new], r[new], w[new])
            rounds += 1
            if sol is None:
                optimal = False
                break
            lower = float(sol[d])
            v = v_warm + sol[:d]
            viol = np.abs(c - u @ v) - w
            g = float(np.max(viol))
            if g < g_best:
                v_best, g_best = v, g
            if g_best <= lower + TOL * (1.0 + lower):
                break

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
    them.
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
        raise ValueError(f"direction budget {budget} must be at least 2 d = {2 * d}")
    if d == 1:
        return np.ones((1, 1))
    out = np.empty((budget, d))
    out[:d] = np.eye(d)
    count = d
    if var_est is not None:
        count = _keep_new(out, count, _eigendirections(var_est.Z, min(d, 8)))
    rng = stream(seed, "direction-fill")
    while count < budget:
        count = _keep_new(out, count, _random_unit_rows(rng, budget - count, d))
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
    slabs: SlabSystem = field(repr=False)

    def to_json_dict(self) -> dict:
        return {
            "mu_hat": [float(x) for x in self.mu_hat],
            "rho_star": float(self.rho_star),
            "iterations": int(self.iterations),
            "final_gap": float(self.final_gap),
            "refinement_rounds": int(self.refinement_rounds),
            "probe_violation": None if self.probe_violation is None else float(self.probe_violation),
            "converged": bool(self.converged),
            "directions_used": int(self.directions_used),
            "block_plan_mean": self.block_plan_mean.to_dict(),
            "block_plan_var": self.block_plan_var.to_dict(),
        }


def _random_unit_rows(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    g = rng.standard_normal((count, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


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
    result = solve_center(slabs, v_init=v_init)

    iterations = result.iterations
    rounds_used = 0
    probe_violation = None
    rng = stream(seed, "refine-probes")
    for _ in range(config.refine_rounds):
        probes = _random_unit_rows(rng, config.refine_probes, d)
        p_centers = nu_hat_profile(marg_est, probes)
        p_widths = slab_width_profile(var_est, probes, delta, config.C_prime, n)
        viol = np.abs(p_centers - probes @ result.v_star) - p_widths - result.rho_star
        probe_violation = float(np.max(viol))
        scale = result.rho_star + float(np.median(slabs.widths))
        if probe_violation <= config.refine_tol * scale:
            break
        rounds_used += 1
        worst = np.argsort(viol)[::-1]
        worst = worst[viol[worst] > 0][: config.refine_append]
        slabs = slabs.extended(probes[worst], p_centers[worst], p_widths[worst])
        result = solve_center(slabs, v_init=result.v_star)
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
