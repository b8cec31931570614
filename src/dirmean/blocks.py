"""Sample splitting, pairwise differencing and block averaging.

Block averages carry the 1/sqrt(m) scaling, so they preserve the covariance
of a single observation while regularizing the marginal law.  Rows that do
not fill a complete block are discarded; folding them into a short block
would break the 1/sqrt(m) normalization.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig, block_modulus, require_int, require_real
from .distributions import as_rows

# The pair-difference buffer of pair_block_averages, which stays in a 2 MiB L2
# cache while the paired rows stream past (512 KiB was faster than 256 KiB
# and 1 MiB for largeN-d50's variance blocks).
_CHUNK_BYTES = 1 << 19
# The most bytes of a block that one BLAS product sums.  OpenBLAS splits a
# larger product across threads, which changes the bytes; its build sets the
# size (OpenBLAS 0.3.31: kept 409 600 entries whole, split 480 000), and
# 65 536 entries stay well below it.
_PANEL_BYTES = 1 << 19
# The byte budget of one panel of projection_panels: 256 rows up to 128
# blocks, 32 rows at 1000, so at 1000 blocks a panel (256 KiB) is smaller
# than the 400 KB of blocks it projects and no longer sets the peak.
_PROJECTION_BYTES = 1 << 18
# The most directions of one panel of projection_panels.  OpenBLAS 0.3.31
# gave these panels the bytes of the whole product on every benchmark and
# CLI shape; 32-128-row panels of the 48-block marginal projections did
# not.  On other shapes OpenBLAS can pick another kernel for a whole product
# of more rows, which moves the last bit (at most 6e-16 relative on random
# shapes).
_PANEL_ROWS = 256
# The row step of projection_panels: a panel is a whole number of 32-row
# bands.  32-row panels kept the bytes of the whole product on every shape
# checked (OpenBLAS 0.3.31: the benchmark pools and CLI runs, at 48, 100, 300
# and 1000 blocks; a lone last direction is a 1-row product, which can differ
# in the last bit), and whole bands leave the rest of _PROJECTION_BYTES to the
# profiles' small scratch (a 32-row panel at 1000 blocks is 256 000 B).
_BAND_ROWS = 32


class SizingError(ValueError):
    """Sample too small for the requested confidence / trim fraction."""

    def __init__(self, message: str, minimal_n: int):
        super().__init__(f"{message} (minimal usable row count: {minimal_n})")
        self.reason, self.minimal_n = message, minimal_n


class NonFiniteRowError(ValueError):
    """An input row that feeds the block sums holds NaN or inf."""

    def __init__(self, row: int):
        super().__init__(f"input row {row} (0-based) is not finite")
        self.row = row


def nonfinite_error(rows: np.ndarray, used: np.ndarray) -> ValueError:
    """The error for a block matrix with a non-finite entry.

    NaN and inf propagate into the block sums, so callers check the
    (blocks, d) matrix and scan ``rows[used]``, the rows that fed it, only
    on failure.  Finite rows whose sums overflow get a plain ValueError.
    """
    bad = used[~np.isfinite(rows[used]).all(axis=1)]
    if bad.size == 0:
        return ValueError("block sums overflow: input values are too large")
    return NonFiniteRowError(int(bad.min()))


@dataclass(frozen=True)
class BlockPlan:
    """Block geometry: n blocks of size m, with trim count per side."""

    m: int
    n: int
    used: int
    discarded: int
    theta: float
    trim_per_side: int
    purpose: str


def trim_count(theta: float, n: int) -> int:
    """k = round(theta * N), rounding halves away from zero."""
    return int(math.floor(theta * n + 0.5))


def _block_count(n_rows: int, m: int) -> int:
    if n_rows < require_int("m", m, least=1):
        raise ValueError(f"block size m = {m} exceeds row count {n_rows}")
    return n_rows // m


def block_sums(x3: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The block sums of an (n, m, d) block stack as BLAS matrix-vector products.

    Each block is summed by ``np.ones(p) @ panel`` over consecutive panels
    of at most ``_PANEL_BYTES`` of its rows, added in order; a block of
    more bytes takes several products.  The results agree with
    ``x3.sum(axis=1)`` to rounding, within the summation bound.  The bytes
    repeat per machine and BLAS build, and do not depend on the BLAS thread
    count, the chunking of the rows or their memory alignment.  At d = 1 a
    product is a BLAS dot, which OpenBLAS splits across threads beyond
    10 000 entries, so numpy's pairwise sum, and its bytes, are kept there.
    """
    _, m, d = x3.shape
    if d == 1:
        return x3.sum(axis=1, out=out)
    step = max(1, _PANEL_BYTES // (x3.itemsize * d))
    out = np.matmul(np.ones(min(step, m)), x3[:, :step], out=out)
    for lo in range(step, m, step):
        out += np.ones(min(step, m - lo)) @ x3[:, lo : lo + step]
    return out


def panel_rows(blocks: int) -> int:
    """The directions of one panel of :func:`projection_panels` over ``blocks`` blocks.

    The largest multiple of ``_BAND_ROWS`` (32) whose (rows, blocks)
    float64 panel fits in ``_PROJECTION_BYTES`` (256 KiB), at least
    ``_BAND_ROWS`` and at most ``_PANEL_ROWS``: 256 rows up to 128 blocks,
    96 at 300 and 32 at 1000.
    """
    fit = _PROJECTION_BYTES // (8 * max(blocks, 1)) // _BAND_ROWS * _BAND_ROWS
    return min(max(fit, _BAND_ROWS), _PANEL_ROWS)


def projection_panels(u: np.ndarray, x: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(lo, u[lo:hi] @ x.T)`` over consecutive panels of directions.

    A panel holds :func:`panel_rows` directions (the last one fewer).
    Every panel is written by ``np.matmul(..., out=...)`` into one reused
    buffer, directions-major, so
    a caller must finish with a panel before it asks for the next; the
    working memory is one panel, not the whole (directions, blocks) product.
    A panel has the bytes of the same rows of the whole product on the
    shapes checked (see ``_PANEL_ROWS``), not on every shape.
    """
    step = panel_rows(x.shape[0])
    buf = np.empty((min(step, u.shape[0]), x.shape[0]))
    for lo in range(0, u.shape[0], step):
        rows = min(step, u.shape[0] - lo)
        yield lo, np.matmul(u[lo : lo + rows], x.T, out=buf[:rows])


def block_averages(ds, m: int) -> np.ndarray:
    """(1/sqrt(m)) * sum over consecutive groups of m rows.

    Trailing rows beyond the last full block are dropped.  Each block is
    summed by :func:`block_sums`.
    """
    rows = as_rows(ds)
    n_rows, d = rows.shape
    n = _block_count(n_rows, m)
    return block_sums(rows[: n * m].reshape(n, m, d)) / math.sqrt(m)


def pair_block_averages(ds, m: int, n: int | None = None) -> np.ndarray:
    """``block_averages(differences, m)[:n]`` without the difference matrix.

    Row i of the differences is row_i - row_{N+i} of the 2N input rows: mean
    zero, with twice the covariance of one observation.

    The paired rows are subtracted into one reused buffer of about
    ``_CHUNK_BYTES`` (never less than one block), a chunk of whole blocks
    at a time, and each block is summed by :func:`block_sums`, as in
    :func:`block_averages`, so the output has the same bytes and does not
    depend on the chunk size.  Differences come before the sums: two nearly
    equal rows subtract exactly, so a large common offset costs no accuracy.
    Only the first ``n`` blocks (default: every full block) are formed.
    """
    rows = as_rows(ds)
    if rows.shape[0] % 2 != 0:
        raise ValueError("pair differencing needs an even row count")
    half, d = rows.shape[0] // 2, rows.shape[1]
    first, second = rows[:half], rows[half:]
    count = _block_count(half, m)
    n = count if n is None else require_int("n", n)
    if not 1 <= n <= count:
        raise ValueError(f"{n} blocks of size m = {m} do not fit in {half} pairs")
    out = np.empty((n, d))
    per_chunk = max(1, _CHUNK_BYTES // (out.itemsize * m * max(d, 1)))
    buf = np.empty((min(per_chunk, n) * m, d))
    for lo in range(0, n, per_chunk):
        hi = min(lo + per_chunk, n)
        rows = slice(lo * m, hi * m)
        diff = np.subtract(first[rows], second[rows], out=buf[: (hi - lo) * m])
        block_sums(diff.reshape(hi - lo, m, d), out=out[lo:hi])
    out /= math.sqrt(m)
    return out


def plan_mean_blocks(n_rows: int, delta: float, config: PipelineConfig | None = None) -> BlockPlan:
    """Choose (m, n) for the marginal means of ``n_rows`` rows.

    n is the smallest multiple of b = 1 / theta_mean (``block_modulus``) with
    n >= ceil(c_blocks * log(e/delta)), so theta_mean * n is integral, and
    m = floor(N / n).
    """
    config = config or PipelineConfig()
    require_int("n_rows", n_rows)
    theta = config.theta_mean
    b = block_modulus(theta)
    target = config.c_blocks * (1.0 + math.log(1.0 / require_real("delta", delta, 0.0, 1.0)))
    if not math.isfinite(target):
        raise ValueError(f"c_blocks * log(e/delta) is not finite for c_blocks = {config.c_blocks}, delta = {delta}")
    n = b * math.ceil(math.ceil(target) / b)
    if n > n_rows:
        raise SizingError(
            f"mean sizing infeasible: need at least {n} rows, a multiple of 1 / theta_mean of at "
            f"least c_blocks * log(e / delta), for c_blocks = {config.c_blocks}, theta_mean = {theta}, "
            f"delta = {delta}",
            minimal_n=n,
        )
    return _plan(n_rows, n, theta, "mean")


def plan_variance_blocks(n_pairs: int, config: PipelineConfig | None = None) -> BlockPlan:
    """Choose (m, n) for the variance blocks of ``n_pairs`` pair differences.

    m is pinned from below by the small-ball requirement m >= ``config.m0``;
    n is the largest multiple of b = 1 / theta_var (``block_modulus``) with n * m0 <= N,
    and m is then enlarged to floor(N / n) so at most n - 1 pairs are wasted.
    """
    config = config or PipelineConfig()
    require_int("n_pairs", n_pairs)
    theta, m0 = config.theta_var, config.m0
    b = block_modulus(theta)
    n = (n_pairs // m0) // b * b
    if n < b:
        raise SizingError(
            f"variance sizing infeasible: {n_pairs} pairs give fewer than 1 / theta_var = {b} "
            f"blocks of size m0 = {m0} (theta_var = {theta})",
            minimal_n=m0 * b,
        )
    return _plan(n_pairs, n, theta, "variance")


def _plan(n_rows: int, n: int, theta: float, purpose: str) -> BlockPlan:
    """The plan of n blocks of floor(N / n) rows each, trimmed at round(theta n) per side."""
    m = n_rows // n
    used = n * m
    return BlockPlan(
        m=m,
        n=n,
        used=used,
        discarded=n_rows - used,
        theta=theta,
        trim_per_side=trim_count(theta, n),
        purpose=purpose,
    )
