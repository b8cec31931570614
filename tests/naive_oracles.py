"""Naive reference implementations used as independent test oracles.

Deliberately written in plain Python (sort a copy, drop slices, sum),
sharing no code with the library paths they check.
"""

import numpy as np
from scipy import integrate, special, stats


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


def oracle_abs_moment(values, p, theta):
    _, _, _, interior = oracle_trim(values, theta)
    return sum(abs(v) ** p for v in interior) / len(values)


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



def oracle_keep_new(kept, n, candidates, dup_dot):
    """Sequential dedupe into the preallocated rows ``kept``, of which the
    first ``n`` are filled: one candidate at a time, kept while ``kept`` has
    room and its |cos| with every kept row is below ``dup_dot``.  Returns
    the new fill count."""
    for v in candidates:
        if n < kept.shape[0] and np.max(np.abs(kept[:n] @ v)) < dup_dot:
            kept[n] = v
            n += 1
    return n


def oracle_direction_fill(initial_rows, budget, rng, dup_dot):
    """The random unit fill of a direction set, deduplicated one candidate
    at a time: each pass draws as many rows as are still missing."""
    initial_rows = np.atleast_2d(np.asarray(initial_rows, dtype=float))
    n, d = initial_rows.shape
    kept = np.empty((budget, d))
    kept[:n] = initial_rows
    while n < budget:
        batch = rng.standard_normal((budget - n, d))
        batch /= np.linalg.norm(batch, axis=1, keepdims=True)
        n = oracle_keep_new(kept, n, batch, dup_dot)
    return kept


def oracle_pair_block_averages(rows, m, n):
    """The first ``n`` variance blocks of size ``m`` by the plain composition:
    the whole pair-difference matrix, reshaped, summed over each block and
    divided by sqrt(m)."""
    rows = np.asarray(rows, dtype=float)
    half = rows.shape[0] // 2
    diffs = rows[:half] - rows[half:]
    return diffs[: n * m].reshape(n, m, diffs.shape[1]).sum(axis=1) / np.sqrt(m)


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
