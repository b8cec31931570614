"""Directional variance estimation from trimmed blocked pair differences.

The estimator halves the sample into independent pairs, averages the
differences in blocks of constant size, and for each direction u returns
half the mean of the squared projections after dropping a fixed count of
the most extreme ones.  It is a constant-factor estimator: above the
critical scale the truth lies within [1/4, 2] of the estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockPlan, block_averages, nonfinite_error, pair_differences, plan_blocks
from .config import PipelineConfig
from .distributions import SpectrumSpec, _check_unit, as_rows


@dataclass(frozen=True)
class VarianceEstimator:
    """Blocked pair-difference matrix plus its trimming configuration."""

    Z: np.ndarray
    theta: float
    trim_mode: str
    plan: BlockPlan

    @property
    def n_blocks(self) -> int:
        return self.Z.shape[0]

    @property
    def dim(self) -> int:
        return self.Z.shape[1]

    @property
    def trim_per_side(self) -> int:
        return self.plan.trim_per_side


def fit_variance(ds, config: PipelineConfig | None = None) -> VarianceEstimator:
    """pair differences -> block plan -> block averages.

    Raises NonFiniteRowError naming the first NaN or inf row that reaches
    the blocks.
    """
    config = config or PipelineConfig()
    rows = as_rows(ds)
    if rows.shape[0] < 2:
        raise ValueError("need at least two rows")
    diffs = pair_differences(rows)
    plan = plan_blocks(diffs.shape[0], None, config.theta_var, "variance", config)
    z = block_averages(diffs, plan.m)[: plan.n]
    if not np.isfinite(z).all():
        half = diffs.shape[0]
        raise nonfinite_error(rows, np.r_[0 : plan.used, half : half + plan.used])
    return VarianceEstimator(Z=z, theta=config.theta_var, trim_mode=config.trim_mode, plan=plan)


def _drop_order(values: np.ndarray, key: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest under ``key``, ties broken by block index."""
    order = np.lexsort((np.arange(values.size), -key))
    return order[:k]


def psi(est: VarianceEstimator, u) -> float:
    """Trimmed directional second moment for one unit direction.

    Projects the blocks on u, removes the trim_per_side most extreme
    projections ('absolute' mode: largest |p|; 'signed' mode: largest p),
    and returns the mean of the surviving squares divided by two (the
    pair-difference doubling).
    """
    u = _check_unit(u)
    p = est.Z @ u
    n = p.size
    k = est.trim_per_side
    key = np.abs(p) if est.trim_mode == "absolute" else p
    dropped = _drop_order(p, key, k)
    keep = np.ones(n, dtype=bool)
    keep[dropped] = False
    return float(np.sum(p[keep] ** 2) / (2.0 * n))


def psi_profile(est: VarianceEstimator, directions: np.ndarray) -> np.ndarray:
    """Vectorized :func:`psi` over the rows of ``directions``.

    Identical values to the per-direction path: dropping either member of a
    tied pair leaves the retained sum unchanged, so value ties need no
    index bookkeeping here.  Raises ValueError when the squared projections
    overflow (input rows near the square root of the float range).
    """
    proj = est.Z @ np.asarray(directions, dtype=float).T  # (n, M)
    n = proj.shape[0]
    k = est.trim_per_side
    with np.errstate(over="ignore"):  # checked once, on the (M,) result
        sq = proj**2
        if est.trim_mode == "absolute":
            kept = np.partition(sq, n - k - 1, axis=0)[: n - k] if k > 0 else sq
        else:
            order = np.sort(proj, axis=0)
            kept = order[: n - k] ** 2 if k > 0 else sq
        out = kept.sum(axis=0) / (2.0 * n)
    if not np.isfinite(out).all():
        raise ValueError(
            "variance stage: the squared projections of the variance blocks overflow; "
            "rescale the input rows"
        )
    return out


def critical_level(spectrum: SpectrumSpec, n: int, c0: float) -> float:
    """Closed-form spectrum surrogate of the critical scale.

    r = sqrt((c0 / n) * sum of eigenvalues of rank >= ceil(c0 * n)); zero
    when the rank threshold exceeds the dimension.
    """
    if c0 <= 0:
        raise ValueError("c0 must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    lam = np.asarray(spectrum.eigenvalues, dtype=float)
    k0 = int(np.ceil(c0 * n))  # 1-indexed rank threshold
    if k0 > lam.size:
        return 0.0
    return float(np.sqrt(c0 / n * lam[k0 - 1 :].sum()))
