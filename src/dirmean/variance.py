"""Directional variance estimation from trimmed blocked pair differences.

The estimator halves the sample into independent pairs, averages the
differences in blocks of constant size, and for each direction u returns
half the mean of the squared projections after dropping a fixed count of
the most extreme ones.  The projections are formed one contiguous row per
direction and trimmed in place.  It is a constant-factor estimator: above the
critical scale the truth lies within [1/4, 2] of the estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockPlan, nonfinite_error, pair_block_averages, plan_variance_blocks, projection_panels
from .config import PipelineConfig, require_int, require_real
from .distributions import SpectrumSpec, as_directions, as_rows


@dataclass(frozen=True)
class VarianceEstimator:
    """Blocked pair-difference matrix plus the plan that sized and trims it."""

    Z: np.ndarray
    plan: BlockPlan


def fit_variance(ds, config: PipelineConfig | None = None) -> VarianceEstimator:
    """Block averages of the pair differences, formed block by block.

    Row i is paired with row N // 2 + i; of an odd row count the last row
    is left out.  Raises NonFiniteRowError naming the first NaN or inf row
    that reaches the blocks.
    """
    config = config or PipelineConfig()
    rows = as_rows(ds)
    if rows.shape[0] < 2:
        raise ValueError("need at least two rows")
    half = rows.shape[0] // 2
    plan = plan_variance_blocks(half, config)
    z = pair_block_averages(rows[: 2 * half], plan.m, plan.n)
    if not np.isfinite(z).all():
        raise nonfinite_error(rows, np.r_[0 : plan.used, half : half + plan.used])
    return VarianceEstimator(Z=z, plan=plan)


def psi_profile(est: VarianceEstimator, directions: np.ndarray) -> np.ndarray:
    """Trimmed directional second moments psi(u) over the rows of ``directions``.

    For each direction u: drop the trim_per_side projections of largest |p|
    and return the sum of the surviving squares over 2n (n blocks; the 2 is
    the pair-difference doubling).

    The projection ``directions @ Z.T`` is formed one panel of directions
    at a time (:func:`~dirmean.blocks.projection_panels`), the only working
    array: each direction's row is contiguous, and is squared, partitioned
    (the trim_per_side largest squares last) and summed in place.  Dropping
    either member of a tied pair leaves the retained sum unchanged, so value
    ties need no index bookkeeping.  Raises ValueError when the squared
    projections overflow (input rows near the square root of the float
    range), and when ``directions`` is not an (M, d) array.
    """
    u = as_directions(directions, est.Z.shape[1])
    n = est.Z.shape[0]
    k = est.plan.trim_per_side
    out = np.empty(u.shape[0])
    with np.errstate(over="ignore"):  # checked once, on the (M,) result
        for lo, sq in projection_panels(u, est.Z):
            np.square(sq, out=sq)
            sq.partition(n - k - 1, axis=1)
            sq[:, : n - k].sum(axis=1, out=out[lo : lo + sq.shape[0]])
        out /= 2.0 * n
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
    require_real("c0", c0, above=0.0)
    require_int("n", n, least=1)
    lam = np.asarray(spectrum.eigenvalues, dtype=float)
    k0 = int(np.ceil(c0 * n))  # 1-indexed rank threshold
    if k0 > lam.size:
        return 0.0
    return float(np.sqrt(c0 / n * lam[k0 - 1 :].sum()))
