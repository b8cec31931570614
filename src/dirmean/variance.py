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

from .blocks import BlockPlan, nonfinite_error, pair_block_averages, plan_blocks
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
    """Block averages of the pair differences, formed block by block.

    Raises NonFiniteRowError naming the first NaN or inf row that reaches
    the blocks.
    """
    config = config or PipelineConfig()
    rows = as_rows(ds)
    if rows.shape[0] < 2:
        raise ValueError("need at least two rows")
    half = rows.shape[0] // 2
    plan = plan_blocks(half, None, config.theta_var, "variance", config)
    z = pair_block_averages(rows, plan.m, plan.n)
    if not np.isfinite(z).all():
        raise nonfinite_error(rows, np.r_[0 : plan.used, half : half + plan.used])
    return VarianceEstimator(Z=z, theta=config.theta_var, trim_mode=config.trim_mode, plan=plan)


def psi(est: VarianceEstimator, u) -> float:
    """Trimmed directional second moment for one unit direction.

    Projects the blocks on u, removes the trim_per_side most extreme
    projections ('absolute' mode: largest |p|; 'signed' mode: largest p),
    and returns the mean of the surviving squares divided by two (the
    pair-difference doubling).
    """
    u = _check_unit(u)
    return float(psi_profile(est, u[np.newaxis, :])[0])


def psi_profile(est: VarianceEstimator, directions: np.ndarray) -> np.ndarray:
    """Vectorized :func:`psi` over the rows of ``directions``.

    The (blocks, directions) projection is squared and trimmed in place,
    so it is the only working array.  Dropping either member of a tied
    pair leaves the retained sum unchanged, so value ties need no index
    bookkeeping.  Raises ValueError when the squared projections overflow
    (input rows near the square root of the float range).
    """
    proj = est.Z @ np.asarray(directions, dtype=float).T  # (n, M)
    n = proj.shape[0]
    k = est.trim_per_side
    with np.errstate(over="ignore"):  # checked once, on the (M,) result
        if est.trim_mode == "absolute":
            np.square(proj, out=proj)
            if k > 0:
                proj.partition(n - k - 1, axis=0)  # the k largest squares last
        else:
            if k > 0:
                proj.sort(axis=0)  # the k largest signed projections last
            np.square(proj, out=proj)
        out = proj[: n - k].sum(axis=0) / (2.0 * n)
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
