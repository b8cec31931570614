"""Naive reference implementations used as independent test oracles.

Deliberately written in plain Python (sort a copy, drop slices, sum),
sharing no code with the library paths they check.
"""

import math

import numpy as np
from scipy import integrate, special, stats

from dirmean.blocks import _PANEL_BYTES


def oracle_trim(values, theta):
    values = list(map(float, values))
    n = len(values)
    k = int(np.floor(theta * n + 0.5))
    order = sorted(range(n), key=lambda i: (-values[i], i))
    upper = set(order[:k])
    lower = set(order[n - k:]) if k else set()
    interior = [values[i] for i in range(n) if i not in upper | lower]
    return k, upper, lower, interior


def oracle_mean(values, theta, normalization):
    k, _, _, interior = oracle_trim(values, theta)
    div = len(values) if normalization == "full" else len(values) - 2 * k
    return sum(interior) / div


def oracle_quantiles(values, theta):
    values = sorted(map(float, values), reverse=True)
    n = len(values)
    k = int(np.floor(theta * n + 0.5))
    return values[k - 1], values[n - k]


def brute_force_interval_sup(sample, cdf):
    """All-pairs scan over closed intervals with sample endpoints plus rays."""
    s = np.sort(np.asarray(sample, dtype=float))
    n = s.size
    f = cdf(s)
    best = 1.0 - 1.5  # full line
    for b in range(n):
        best = max(best, (b + 1) / n - 1.5 * f[b])          # ray (-inf, s_b]
        best = max(best, (n - b) / n - 1.5 * (1.0 - f[b]))  # ray [s_b, inf)
        for a in range(b + 1):
            val = (b - a + 1) / n - 1.5 * (f[b] - f[a])
            best = max(best, val)
    return best


def oracle_tail_ratio_margins(sample, oracle, delta):
    """Worst dyadic ratio margins (upper, lower) of each tail side, counted by
    direct comparison at every threshold t >= 0: the sample points on that
    side and the oracle quantiles at the dyadic levels delta 2^j < 1.  A side
    without a threshold of true tail mass >= delta gives -inf."""
    s = [float(x) for x in np.asarray(sample, dtype=float).reshape(-1)]
    n = len(s)
    levels = [delta * 2.0**j for j in range(math.ceil(math.log2(1.0 / delta)) + 1) if delta * 2.0**j < 1.0]
    sides = (
        ([0.0] + [x for x in s if x >= 0] + [float(oracle.ppf(1.0 - lv)) for lv in levels],
         lambda t: float(oracle.sf(t)), lambda t: sum(x > t for x in s), lambda t: sum(x >= t for x in s)),
        ([0.0] + [-x for x in s if x <= 0] + [-float(oracle.ppf(lv)) for lv in levels],
         lambda t: float(oracle.cdf(-t)), lambda t: sum(x < -t for x in s), lambda t: sum(x <= -t for x in s)),
    )
    worst = []
    for thresholds, mass, strict, weak in sides:
        margins = []
        for t in thresholds:
            p = mass(t)
            if not (math.isfinite(t) and t >= 0 and p >= delta):
                continue
            dev = max(abs(strict(t) / n / p - 1.0), abs(weak(t) / n / p - 1.0))
            margins.append(dev - 2.0 ** (-float(np.floor(np.log2(p / delta))) / 2.0 - 1.0))
        worst.append(max(margins, default=-math.inf))
    return tuple(worst)


def oracle_direction_fill(initial_rows, budget, rng):
    """The random unit fill of a direction set: the rows still missing,
    drawn in one batch and scaled by their np.linalg.norm."""
    initial_rows = np.atleast_2d(np.asarray(initial_rows, dtype=float))
    n, d = initial_rows.shape
    batch = rng.standard_normal((budget - n, d))
    return np.vstack([initial_rows, batch / np.linalg.norm(batch, axis=1, keepdims=True)])


def oracle_sample_rows(gt, n, seed):
    """The rows of ``sample_dataset(gt, n, seed)`` by the out-of-place formulas:
    each scaling and the shift build a fresh (n, d) array, in the same order
    of products and sums."""
    from dirmean.distributions import _lognormal_radius_coeff
    from dirmean.rng import stream

    spec = gt.spec
    d = gt.dim
    rng = stream(seed, "sample", spec.family)
    if spec.family == "gaussian-with-point-contamination":
        n_cont = int(np.floor(spec.contamination_fraction * n))
        positions = rng.permutation(n)[:n_cont]
        g = rng.standard_normal((n, d))
        rows = gt._component_center + g @ gt._component_factor.T
        rows[positions] = gt._point_value
        return rows
    if spec.family == "gaussian":
        w = rng.standard_normal((n, d))
    elif spec.family == "elliptical-student":
        nu = float(spec.dof)
        g = rng.standard_normal((n, d))
        s = rng.chisquare(nu, size=n)
        w = g * np.sqrt((nu - 2.0) / s)[:, np.newaxis]
    else:
        shape = float(spec.shape)
        g = rng.standard_normal((n, d))
        u = g / np.linalg.norm(g, axis=1, keepdims=True)
        r = np.exp(shape * rng.standard_normal(n))
        w = _lognormal_radius_coeff(d, shape) * r[:, np.newaxis] * u
    if spec.spectrum.rotation_seed is None:
        return gt.mu + w * np.sqrt(np.asarray(spec.spectrum.eigenvalues))
    return gt.mu + w @ gt.factor_T.T


def pair_differences(ds):
    """Row i is row_i - row_{N+i} of the 2N input rows."""
    rows = np.asarray(ds, dtype=float)
    if rows.shape[0] % 2:
        raise ValueError("pair differencing needs an even row count")
    half = rows.shape[0] // 2
    return rows[:half] - rows[half:]


def oracle_pair_block_averages(rows, m, n):
    """The first ``n`` variance blocks of size ``m`` by the kernel's own
    definition, on the whole pair-difference matrix: each block is summed by
    ``np.ones(p) @ panel`` over consecutive panels of at most
    ``_PANEL_BYTES`` of its rows, added in order (numpy's sum at d = 1),
    then divided by sqrt(m)."""
    rows = np.asarray(rows, dtype=float)
    half = rows.shape[0] // 2
    diffs = rows[:half] - rows[half:]
    d = diffs.shape[1]
    blocks = diffs[: n * m].reshape(n, m, d)
    if d == 1:
        return blocks.sum(axis=1) / np.sqrt(m)
    step = max(1, _PANEL_BYTES // (8 * d))
    sums = []
    for block in blocks:
        total = np.ones(min(step, m)) @ block[:step]
        for lo in range(step, m, step):
            total = total + np.ones(min(step, m - lo)) @ block[lo : lo + step]
        sums.append(total)
    return np.array(sums) / np.sqrt(m)


def oracle_fsum_block_averages(m, n, *parts):
    """The first ``n`` block averages of size ``m`` of the sum of ``parts``
    (arrays of one shape), exactly: each block's column sum over every part
    is one math.fsum, rounded once, then divided by sqrt(m)."""
    d = parts[0].shape[1]
    out = np.empty((n, d))
    for i in range(n):
        block = slice(i * m, (i + 1) * m)
        for j in range(d):
            out[i, j] = math.fsum(np.concatenate([part[block, j] for part in parts]))
    return out / math.sqrt(m)


def summation_bound(x, m, n):
    """m * eps * sum|x| / sqrt(m) per column of the first ``n`` blocks of
    size ``m``: the standard bound on a sum of a block's m entries in any
    order, with its division by sqrt(m)."""
    blocks = np.abs(x[: n * m]).reshape(n, m, x.shape[1])
    return m * np.finfo(float).eps * blocks.sum(axis=1) / math.sqrt(m)


def oracle_empirical_mean(rows):
    """The empirical-mean baseline as numpy's mean of the rows."""
    return np.asarray(rows, dtype=float).mean(axis=0)


def oracle_median_of_means(rows, k_blocks):
    """Coordinatewise median of numpy's means of ``k_blocks`` contiguous
    blocks of ``len(rows) // k_blocks`` rows."""
    rows = np.asarray(rows, dtype=float)
    m = rows.shape[0] // k_blocks
    return np.median(rows[: k_blocks * m].reshape(k_blocks, m, -1).mean(axis=1), axis=0)


def oracle_psi_profile(z, directions, k):
    """Trimmed directional second moments from a partitioned copy of the
    squared (directions, blocks) projection."""
    proj = directions @ z.T
    n = proj.shape[1]
    return np.partition(proj**2, n - k - 1, axis=1)[:, : n - k].sum(axis=1) / (2.0 * n)


def oracle_nu_hat_profile(y, directions, k, m):
    """Trimmed marginal means from a sorted copy of the (blocks, directions)
    projection."""
    proj = y @ directions.T
    n = proj.shape[0]
    return np.sort(proj, axis=0)[k : n - k].sum(axis=0) / (np.sqrt(m) * (n - 2 * k))


def oracle_student_kappa(nu, q):
    """Lq/L2 ratio of a t_nu marginal by numerical quadrature of |t|^q
    against the scipy t density."""
    dens = stats.t(nu).pdf
    mom, _ = integrate.quad(lambda t: 2.0 * t**q * dens(t), 0.0, np.inf, limit=200)
    return mom ** (1.0 / q) / np.sqrt(nu / (nu - 2.0))


def oracle_lognormal_kappa(d, shape, q):
    """Lq/L2 ratio of c R U1 (R lognormal(0, shape), U uniform on S^(d-1)),
    with E|U1|^p = B((p+1)/2, (d-1)/2) / B(1/2, (d-1)/2) from scipy's beta."""
    def moment(p):
        radial = np.exp(p**2 * shape**2 / 2.0)
        if d == 1:
            return radial
        return radial * special.beta((p + 1) / 2.0, (d - 1) / 2.0) / special.beta(0.5, (d - 1) / 2.0)

    return moment(q) ** (1.0 / q) / np.sqrt(moment(2.0))


# ---------------------------------------------------------------------------
# report serializers: the hand-written methods the generic dataclass dump
# replaced, one field at a time with its cast
# ---------------------------------------------------------------------------

def oracle_block_plan_dict(plan):
    return {
        "m": plan.m,
        "n": plan.n,
        "used": plan.used,
        "discarded": plan.discarded,
        "theta": plan.theta,
        "trim_per_side": plan.trim_per_side,
        "purpose": plan.purpose,
    }


def oracle_mean_estimate_dict(est):
    return {
        "mu_hat": [float(x) for x in est.mu_hat],
        "rho_star": float(est.rho_star),
        "iterations": int(est.iterations),
        "final_gap": float(est.final_gap),
        "refinement_rounds": int(est.refinement_rounds),
        "probe_violation": float(est.probe_violation),
        "converged": bool(est.converged),
        "directions_used": int(est.directions_used),
        "block_plan_mean": oracle_block_plan_dict(est.block_plan_mean),
        "block_plan_var": oracle_block_plan_dict(est.block_plan_var),
    }


def oracle_ratio_condition_dict(rep):
    return {
        "tail_ratio_worst": float(rep.tail_ratio_worst),
        "interval_excess_worst": float(rep.interval_excess_worst),
        "balanced_ok": bool(rep.balanced_ok),
        "delta": float(rep.delta),
        "theta": float(rep.theta),
        "eta": float(rep.eta),
        "holds": bool(rep.holds),
    }


def oracle_small_ball_dict(rep):
    return {
        "m": int(rep.m),
        "gamma": float(rep.gamma),
        "trials": int(rep.trials),
        "sign_prob_pos": float(rep.sign_prob_pos),
        "sign_prob_neg": float(rep.sign_prob_neg),
        "alpha": float(rep.alpha),
        "xi": float(rep.xi),
        "truncated_ratio": float(rep.truncated_ratio),
        "lq_l2_ratio": float(rep.lq_l2_ratio),
        "lq_l2_bound": float(rep.lq_l2_bound),
        "small_ball_L": float(rep.small_ball_L),
        "sigma": float(rep.sigma),
    }


def oracle_lower_bound_dict(rep):
    return {
        "k0": float(rep.k0),
        "k": int(rep.k),
        "n_samples": int(rep.n_samples),
        "delta": float(rep.delta),
        "c_assumed": float(rep.c_assumed),
        "trials": int(rep.trials),
        "top_quantile": float(rep.top_quantile),
        "top_chi_oracle": float(rep.top_chi_oracle),
        "concentration_floor": float(rep.concentration_floor),
        "complement_quantile": float(rep.complement_quantile),
        "complement_sampled_quantile": float(rep.complement_sampled_quantile),
        "tail_sum": float(rep.tail_sum),
        "strong_term_proxy": float(rep.strong_term_proxy),
        "strong_term_bound": float(rep.strong_term_bound),
    }


def oracle_per_direction_summary_dict(summary):
    return {
        "delta": summary.delta,
        "quantile_flagged": summary.quantile_flagged,
        "fitted_constants": summary.fitted_constants,
        "rows": summary.rows,
    }


def oracle_trial_rows(sc):
    """The rows of ``trials.csv`` for a scenario, run serially trial by trial
    and laid out by filling eight row-long columns, each per-direction term
    copied into every (trial, estimator) row."""
    import math

    from dirmean import (
        baseline_empirical_mean,
        baseline_median_of_means,
        directional_sigma,
        estimate_mean,
        make_ground_truth,
        probe_directions,
        sample_dataset,
        tail_eigensum,
    )
    from dirmean.rng import derive_seed

    gt = make_ground_truth(sc.distribution)
    probes = probe_directions(gt.dim, sc.n_probes, sc.seed)
    n_dirs = probes.shape[0]
    results = []
    for t in range(sc.trials):
        ds = sample_dataset(gt, sc.n_total, derive_seed(sc.seed, "trial-data", t))
        per_est = {}
        for name in sc.estimators:
            if name == "dirmean":
                mu_hat = estimate_mean(ds, sc.delta, sc.config, seed=derive_seed(sc.seed, "trial-est", t)).mu_hat
            elif name == "empirical-mean":
                mu_hat = baseline_empirical_mean(ds)
            else:
                k_blocks = max(1, math.ceil(8.0 * math.log(1.0 / sc.delta)))
                mu_hat = baseline_median_of_means(ds, k_blocks)
            per_est[name] = probes @ (mu_hat - gt.mu)
        results.append(per_est)

    n_bound = sc.n_total // 3
    log_term = math.sqrt(math.log(1.0 / sc.delta) / n_bound)
    k1 = math.ceil(math.log(1.0 / sc.delta))
    k2 = math.ceil(4.0 * math.log(1.0 / sc.delta))
    sigma_u = np.array([directional_sigma(gt, u) for u in probes])
    weak = sigma_u * log_term
    strong1 = math.sqrt(tail_eigensum(gt, min(k1, gt.dim)) / n_bound)
    strong2 = math.sqrt(tail_eigensum(gt, min(k2, gt.dim)) / n_bound)

    n_rows = sc.trials * len(sc.estimators) * n_dirs
    trial_col = np.empty(n_rows, dtype=int)
    est_col = []
    dir_col = np.empty(n_rows, dtype=int)
    err_col, sig_col, weak_col, s1_col, s2_col = (np.empty(n_rows) for _ in range(5))
    i = 0
    for t, per_est in enumerate(results):
        for name in sc.estimators:
            sl = slice(i, i + n_dirs)
            trial_col[sl] = t
            est_col.extend([name] * n_dirs)
            dir_col[sl] = np.arange(n_dirs)
            err_col[sl] = per_est[name]
            sig_col[sl] = sigma_u
            weak_col[sl] = weak
            s1_col[sl] = strong1
            s2_col[sl] = strong2
            i += n_dirs
    return [
        [int(trial_col[i]), est_col[i], int(dir_col[i]), float(err_col[i]), float(sig_col[i]),
         float(weak_col[i]), float(s1_col[i]), float(s2_col[i])]
        for i in range(n_rows)
    ]
