"""Empirical checks of the ratio, sandwich and small-ball properties.

These diagnostics compare empirical frequencies against an exact marginal
law supplied by the ground-truth oracle.  They certify samples, not
theorems: each check runs on a finite grid of thresholds or directions and
reports worst margins (negative margins mean the property held with room
to spare).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blocks import trim_count
from .config import require_int, require_real
from .distributions import (
    GroundTruth,
    NoAnalyticOracleError,
    directional_sigma,
    marginal_oracle,
    sample_marginal,
)
from .rng import derive_seed, stream


@dataclass(frozen=True)
class RatioConditionReport:
    """Outcome of the three ratio conditions on one sample.

    tail_ratio_worst: worst margin of the dyadic relative-error condition
        on upper/lower tail sets (<= 0 means it held everywhere checked).
    interval_excess_worst: sup over intervals of P_N{I} - 1.5 P{I} - 2 Delta.
    balanced_ok: both tail masses at 0 are at least eta = 4 theta + 16 Delta.
    """

    tail_ratio_worst: float
    interval_excess_worst: float
    balanced_ok: bool
    delta: float
    theta: float
    eta: float
    holds: bool


def interval_excess_sup(sample: np.ndarray, cdf) -> float:
    """Exact sup over all intervals of P_N{I} - 1.5 P{I}.

    For a continuous law the supremum is attained on closed intervals with
    endpoints at sample points (or rays), so it decomposes into a prefix
    sweep: value([s_a, s_b]) = A_b - B_a with A_j = j/N - 1.5 F(s_j) and
    B_a = (a-1)/N - 1.5 F(s_a).
    """
    s = np.sort(np.asarray(sample, dtype=float).reshape(-1))
    n = s.size
    f = np.clip(np.asarray(cdf(s), dtype=float), 0.0, 1.0)
    j = np.arange(1, n + 1)
    a_vals = j / n - 1.5 * f                      # right end at s_j
    b_vals = (j - 1) / n - 1.5 * f                # left end at s_j
    b_ext = np.concatenate([[0.0], b_vals])       # sentinel: left end at -inf
    prefix_min = np.minimum.accumulate(b_ext)     # prefix_min[b] = min over a <= b
    best = np.max(a_vals - prefix_min[1:])        # intervals and left rays
    best = max(best, (1.0 - 1.5) - prefix_min[n])  # right rays and full line
    return float(best)


def _upper_tail_margin(s: np.ndarray, quantiles, sf, delta: float) -> float:
    """Worst dyadic ratio margin of the sorted sample ``s`` over the sets {Z > t}
    at t = 0, the points of ``s`` and the finite ``quantiles`` that are >= 0
    and have P{Z > t} = sf(t) >= delta; -inf if there is no such t."""
    n = s.size
    t = np.concatenate([[0.0], s[s >= 0], np.asarray(quantiles)])
    t = np.unique(t[np.isfinite(t) & (t >= 0)])
    p = np.asarray(sf(t))
    t, p = t[p >= delta], p[p >= delta]
    strict = (n - np.searchsorted(s, t, side="right")) / n  # samples > t
    weak = (n - np.searchsorted(s, t, side="left")) / n  # samples >= t
    dev = np.maximum(np.abs(strict / p - 1.0), np.abs(weak / p - 1.0))
    j_max = np.floor(np.log2(p / delta))
    tolerance = 2.0 ** (-j_max / 2.0 - 1.0)
    return float(np.max(dev - tolerance, initial=-np.inf))


def ratio_margins(sample, oracle, delta: float) -> tuple[float, float]:
    """Worst margins (tail_ratio_worst, interval_excess_worst) of one sample
    against its true law; <= 0 means the condition held everywhere checked.

    oracle is a frozen scipy-style distribution (cdf / sf / ppf) of the
    sample's law.  The dyadic tail condition is evaluated on the grid of
    sample order statistics plus the oracle quantiles at the dyadic levels;
    between grid points both measures are monotone, so worst margins occur
    at (one-sided limits of) grid points, which the strict/weak counts
    cover.  The lower tail {Z < -t} is the upper tail of the mirrored
    sample -Z, whose law has sf(t) = cdf(-t) and quantiles -ppf(level).
    """
    require_real("delta", delta, 0.0, 0.5)
    sample = np.asarray(sample, dtype=float).reshape(-1)
    if sample.size == 0:
        raise ValueError("empty sample")
    s = np.sort(sample)
    j_span = int(math.ceil(math.log2(1.0 / delta)))
    levels = delta * 2.0 ** np.arange(0, j_span + 1)
    levels = levels[levels < 1.0]
    worst = max(
        _upper_tail_margin(s, oracle.ppf(1.0 - levels), oracle.sf, delta),
        _upper_tail_margin(-s[::-1], -np.asarray(oracle.ppf(levels)), lambda t: oracle.cdf(-t), delta),
    )
    if not np.isfinite(worst):
        worst = 0.0
    return worst, interval_excess_sup(s, oracle.cdf) - 2.0 * delta


def check_ratio_conditions(sample, oracle, delta: float, theta: float) -> RatioConditionReport:
    """The margins of :func:`ratio_margins` plus the balance condition:
    both true tail masses at 0 are at least eta = 4 theta + 16 delta.

    The stated regime is delta, theta < 1/100; larger experimental values
    are accepted but make the balance condition correspondingly harder
    (impossible above eta = 1/2 for any symmetric law).
    """
    require_real("theta", theta, 0.0, 0.5)
    worst, interval_worst = ratio_margins(sample, oracle, delta)
    eta = 4.0 * theta + 16.0 * delta
    balanced = bool(oracle.sf(0.0) >= eta and oracle.cdf(0.0) >= eta)
    return RatioConditionReport(
        tail_ratio_worst=worst,
        interval_excess_worst=interval_worst,
        balanced_ok=balanced,
        delta=delta,
        theta=theta,
        eta=eta,
        holds=bool(worst <= 0.0 and interval_worst <= 0.0 and balanced),
    )


def empirical_quantile_hat(values, theta: float) -> tuple[float, float]:
    """Trim-boundary order statistics (upper, lower).

    The upper value is the k-th largest sample point and the lower value the
    k-th smallest (its mirror image), with k = round(theta * N).
    """
    values = np.sort(np.asarray(values, dtype=float).reshape(-1))
    n = values.size
    if n == 0:
        raise ValueError("empty sample")
    k = trim_count(require_real("theta", theta, 0.0, 0.5), n)
    if k < 1:
        raise ValueError(f"trim count k = {k} must be >= 1")
    if 2 * k >= n:
        raise ValueError(f"trim count k = {k} too large: need 2k < N = {n}")
    return float(values[n - k]), float(values[k - 1])


def quantile_sandwich_check(sample, oracle, theta: float, delta: float) -> bool:
    """True when both trim-boundary order statistics sit between the
    true quantiles at the derived levels.

    With theta1 = 2 theta + 8 delta and theta2 = (2 theta - 8 delta) / 3,
    the upper boundary must lie in (Q_{1-theta1}, Q_{1-theta2}) and the
    lower one in (Q_{theta2}, Q_{theta1}).  Requires theta >= 7 delta > 0 and theta1 < 1.
    """
    if theta < 7.0 * require_real("delta", delta, 0.0, 1.0):
        raise ValueError("need theta >= 7 delta")
    theta1 = 2.0 * theta + 8.0 * delta
    theta2 = (2.0 * theta - 8.0 * delta) / 3.0
    if theta1 >= 1.0:
        raise ValueError(f"infeasible sandwich level theta1 = 2 theta + 8 delta = {theta1}: must be below 1")
    q_plus, q_minus = empirical_quantile_hat(sample, theta)
    upper_ok = oracle.ppf(1.0 - theta1) < q_plus < oracle.ppf(1.0 - theta2)
    lower_ok = oracle.ppf(theta2) < q_minus < oracle.ppf(theta1)
    return bool(upper_ok and lower_ok)


@dataclass(frozen=True)
class RatioReport:
    """Per-direction ratio margins on projected blocks."""

    tail_margins: np.ndarray
    interval_margins: np.ndarray
    directions: np.ndarray = field(repr=False)  # repr=False: left out of the JSON report
    n_directions: int
    r_used: float
    delta: float
    pass_fraction: float

    @property
    def csv_columns(self) -> list[str]:
        return ["dir_index", "tail_margin", "interval_margin", "passed"]

    def csv_rows(self):
        for i in range(self.tail_margins.size):
            passed = self.tail_margins[i] <= 0.0 and self.interval_margins[i] <= 0.0
            yield [i, float(self.tail_margins[i]), float(self.interval_margins[i]), int(passed)]


def check_uniform_r(gt: GroundTruth, r: float) -> None:
    """Raise ValueError when no direction has sqrt(2) sigma(u) >= ``r``.

    The largest value is sqrt(2 lambda_1), along the top eigenvector.
    """
    top = math.sqrt(2.0) * math.sqrt(gt.spectrum.eigenvalues[0])
    if require_real("r", r) > top:
        raise ValueError(
            f"no direction has sqrt(2) sigma(u) >= r = {r}: the largest value is sqrt(2 lambda_1) = {top}"
        )


def check_uniform_ratios(
    z_blocks: np.ndarray,
    gt: GroundTruth,
    delta_param: float,
    r: float,
    n_dirs: int,
    seed: int,
) -> RatioReport:
    """Ratio conditions on block projections over sampled directions.

    ``z_blocks`` are block averages of pairwise differences, whose
    projections have the law sqrt(2) sigma(u) times the standardized
    marginal.  A closed-form law for blocked differences exists only for
    the gaussian family; other families raise NoAnalyticOracleError.
    Directions are sampled uniformly subject to sqrt(2) sigma(u) >= r, so
    an ``r`` above every direction's value is refused before any draw.
    """
    require_real("delta_param", delta_param, 0.0, 0.5)
    require_int("n_dirs", n_dirs, least=0)
    if gt.spec.family != "gaussian":
        raise NoAnalyticOracleError(
            "uniform ratio check needs a closed-form law for blocked "
            f"difference projections; family {gt.spec.family!r} has none"
        )
    check_uniform_r(gt, r)
    scale = math.sqrt(2.0)  # a pair difference doubles the variance
    z = np.atleast_2d(np.asarray(z_blocks, dtype=float))
    d = z.shape[1]
    rng = stream(seed, "ratio-directions")
    dirs: list[np.ndarray] = []
    attempts = 0
    while len(dirs) < n_dirs:
        attempts += 1
        if attempts > max(1000, 100 * n_dirs):
            raise ValueError(f"could not sample {n_dirs} directions with sqrt(2) sigma(u) >= {r}")
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        if scale * directional_sigma(gt, u) >= r:
            dirs.append(u)

    margins = [ratio_margins(z @ u, marginal_oracle(gt, u, scale=scale), delta_param) for u in dirs]
    tails, intervals = np.array(margins).reshape(n_dirs, 2).T
    passed = np.logical_and(tails <= 0.0, intervals <= 0.0)
    return RatioReport(
        tail_margins=tails,
        interval_margins=intervals,
        directions=np.array(dirs) if dirs else np.empty((0, d)),
        n_directions=n_dirs,
        r_used=float(r),
        delta=float(delta_param),
        pass_fraction=float(passed.mean()) if n_dirs > 0 else 1.0,
    )


@dataclass(frozen=True)
class SmallBallReport:
    """Monte Carlo estimates of the block-average regularity facts."""

    m: int
    gamma: float
    trials: int
    sign_prob_pos: float
    sign_prob_neg: float
    alpha: float
    xi: float
    truncated_ratio: float
    lq_l2_ratio: float
    lq_l2_bound: float
    small_ball_L: float
    sigma: float


SMALL_BALL_XI = 0.02  # the truncated second-moment level xi of small_ball_check


def small_ball_alpha(xi: float, kappa: float, q: float) -> float:
    """Quantile level alpha = (xi / kappa^2)^(q / (q - 2))."""
    return (xi / kappa**2) ** (q / (q - 2.0))


def small_ball_check(
    gt: GroundTruth,
    m: int,
    gamma: float,
    trials: int,
    seed: int,
) -> SmallBallReport:
    """Monte Carlo audit of the block-average facts along e1.

    Estimates, for Z_m = (1/sqrt(m)) * sum of m centered marginals:
    the sign-balance probabilities; the truncated second-moment ratio at
    the level alpha = (xi/kappa^2)^(q/(q-2)) with xi = ``SMALL_BALL_XI``;
    the Lq/L2 norm ratio of Z_m against the bound sqrt(4(q-1)) kappa, with
    the Lq norm taken of |Z_m| / max|Z_m| so that it stays finite at any q;
    and the smallest constant L for which P{|Z_m - x| <= eps sigma} <=
    max(2 L eps, gamma) holds on the center/epsilon grid (L = 0 at
    gamma >= 1).  ``gamma`` must be positive.
    """
    require_int("m", m, least=1)
    require_real("gamma", gamma, 0.0)
    require_int("trials", trials, least=100)  # fewer give unstable estimates
    u = np.eye(gt.dim)[0]
    sigma = directional_sigma(gt, u)
    if sigma <= 0:
        raise ValueError("direction with zero variance")
    q = gt.q_moment

    acc = np.zeros(trials)
    for j in range(m):
        acc += sample_marginal(gt, u, trials, derive_seed(seed, "block-term", j))
    z = acc / math.sqrt(m)

    ybar = sample_marginal(gt, u, trials, derive_seed(seed, "raw"))
    alpha = small_ball_alpha(SMALL_BALL_XI, gt.kappa, q)
    try:
        # symmetric analytic families: P(|Y| > T) = 2 sf(T)
        t_cut = float(marginal_oracle(gt, u).ppf(1.0 - alpha / 2.0))
    except NoAnalyticOracleError:
        t_cut = float(np.quantile(np.abs(ybar), 1.0 - alpha))
    truncated_ratio = float(np.mean(ybar**2 * (np.abs(ybar) >= t_cut)) / sigma**2)

    s = float(np.max(np.abs(z)))
    lq = s * float(np.mean((np.abs(z) / s) ** q) ** (1.0 / q)) if s > 0 else 0.0
    l2 = float(np.sqrt(np.mean(z**2)))
    lq_l2_ratio = lq / l2 if l2 > 0 else 0.0
    lq_l2_bound = math.sqrt(4.0 * (q - 1.0)) * gt.kappa

    z_sorted = np.sort(z)
    centers = np.linspace(-4.0, 4.0, 81) * max(l2, 1e-300)
    small_ball_l = 0.0
    for eps in (0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0):
        half = eps * sigma
        hi = np.searchsorted(z_sorted, centers + half, side="right")
        lo = np.searchsorted(z_sorted, centers - half, side="left")
        p_sup = float(np.max(hi - lo)) / trials
        if p_sup > gamma:
            small_ball_l = max(small_ball_l, p_sup / (2.0 * eps))

    return SmallBallReport(
        m=m,
        gamma=float(gamma),
        trials=trials,
        sign_prob_pos=float(np.mean(z >= 0.0)),
        sign_prob_neg=float(np.mean(z <= 0.0)),
        alpha=alpha,
        xi=SMALL_BALL_XI,
        truncated_ratio=truncated_ratio,
        lq_l2_ratio=lq_l2_ratio,
        lq_l2_bound=lq_l2_bound,
        small_ball_L=small_ball_l,
        sigma=sigma,
    )
