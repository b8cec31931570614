"""Univariate trimmed statistics: rearrangement, trim sets, trimmed moments.

Trimming removes a fixed *count* of extreme values rather than values beyond
a preset threshold: with trim fraction theta and sample size N, the
k = round(theta * N) largest and k smallest values are discarded.  Ties are
broken by original index with the smaller index treated as the larger value,
so all operations are deterministic on data with repeats.

Interior sums are accumulated with ``math.fsum``, which is correctly
rounded: the result does not depend on the order of the terms, so it is
reproducible across runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MEAN_NORMALIZATIONS = ("full", "interior")


@dataclass(frozen=True)
class SortedSample:
    """Nonincreasing rearrangement plus the permutation producing it.

    ``values_desc[i] == values[perm[i]]``; the sort is stable, so equal
    values keep their original relative order.
    """

    values_desc: np.ndarray
    perm: np.ndarray


@dataclass(frozen=True)
class TrimPlan:
    """Index sets of the k largest (upper) and k smallest (lower) values."""

    theta: float
    k: int
    upper_indices: frozenset[int]
    lower_indices: frozenset[int]


def rearrange_desc(values) -> SortedSample:
    """Stable descending sort with its permutation."""
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.size == 0:
        raise ValueError("empty sample")
    perm = np.argsort(-values, kind="stable")
    return SortedSample(values_desc=values[perm], perm=perm)


def trim_count(theta: float, n: int) -> int:
    """k = round(theta * N), rounding halves away from zero."""
    return int(math.floor(theta * n + 0.5))


def _trim_k(values, theta: float, k: int | None) -> tuple[np.ndarray, int]:
    """The sample as a flat float array, and its trim count checked as :func:`trim_sets` states."""
    values = np.asarray(values, dtype=float).reshape(-1)
    n = values.size
    if n == 0:
        raise ValueError("empty sample")
    if k is None:
        if not (0.0 < theta < 0.5):
            raise ValueError("theta must lie in (0, 1/2)")
        k = trim_count(theta, n)
    elif k == 0:
        return values, 0
    if k < 1:
        raise ValueError(f"trim count k = {k} must be >= 1")
    if 2 * k >= n:
        raise ValueError(f"trim count k = {k} too large: need 2k < N = {n}")
    return values, k


def trim_sets(values, theta: float, k: int | None = None) -> TrimPlan:
    """Compute the trim plan for fraction ``theta``.

    ``k`` overrides the rounded count when given (``k = 0`` is the
    degenerate no-trim plan; otherwise 1 <= k and 2k < N are enforced).
    """
    values, k = _trim_k(values, theta, k)
    perm = rearrange_desc(values).perm.tolist()
    return TrimPlan(
        theta=theta,
        k=k,
        upper_indices=frozenset(perm[:k]),
        lower_indices=frozenset(perm[values.size - k :]),
    )


def _sorted_desc(values, theta: float, k: int | None) -> tuple[np.ndarray, int]:
    """``rearrange_desc(values).values_desc`` and the checked trim count.

    The stable sort of ``-values`` orders tied values (0.0 and -0.0 among
    them) by the tie rule, so ``[k : N - k]`` of the result holds exactly
    the values that ``trim_sets`` leaves in the interior.
    """
    values, k = _trim_k(values, theta, k)
    return -np.sort(-values, kind="stable"), k


def trimmed_mean(values, theta: float, normalization: str = "full", k: int | None = None) -> float:
    """Mean of the sample after dropping the k largest and k smallest values.

    normalization 'full' divides by N (the count before trimming);
    'interior' divides by N - 2k (the surviving count).  With ``k = 0`` and
    either mode this is exactly the arithmetic mean.
    """
    if normalization not in MEAN_NORMALIZATIONS:
        raise ValueError(f"normalization must be one of {MEAN_NORMALIZATIONS}")
    desc, k = _sorted_desc(values, theta, k)
    n = desc.size
    return math.fsum(desc[k : n - k].tolist()) / (n if normalization == "full" else n - 2 * k)


def trimmed_abs_moment(values, p: float, theta: float, k: int | None = None) -> float:
    """(1/N) * sum of |value|^p over the interior (divisor always N)."""
    if p < 1:
        raise ValueError("need p >= 1")
    desc, k = _sorted_desc(values, theta, k)
    interior = desc[k : desc.size - k].tolist()  # Python floats: |v| ** p is C pow, not numpy's
    return math.fsum(abs(v) ** p for v in interior) / desc.size


def empirical_quantile_hat(values, theta: float) -> tuple[float, float]:
    """Trim-boundary order statistics (upper, lower).

    The upper value is the k-th largest sample point and the lower value the
    k-th smallest (its mirror image), with k = round(theta * N).
    """
    desc, k = _sorted_desc(values, theta, None)
    return float(desc[k - 1]), float(desc[desc.size - k])
