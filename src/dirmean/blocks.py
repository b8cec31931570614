"""Sample splitting, pairwise differencing and block averaging.

Block averages carry the 1/sqrt(m) scaling, so they preserve the covariance
of a single observation while regularizing the marginal law.  Rows that do
not fill a complete block are discarded; folding them into a short block
would break the 1/sqrt(m) normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .distributions import as_rows
from .trimmed import trim_count

PLAN_PURPOSES = ("variance", "mean")
_CHUNK_BYTES = 1 << 20  # pair-difference buffer of pair_block_averages
_LINE = 64  # cache-line bytes; projection rows span an odd number of lines


class SizingError(ValueError):
    """Sample too small for the requested confidence / trim fraction."""

    def __init__(self, message: str, minimal_n: int):
        super().__init__(f"{message} (minimal usable row count: {minimal_n})")
        self.minimal_n = minimal_n


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


def _halves(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if rows.shape[0] % 2 != 0:
        raise ValueError("pair differencing needs an even row count")
    half = rows.shape[0] // 2
    return rows[:half], rows[half:]


def _block_count(n_rows: int, m: int) -> int:
    if m < 1:
        raise ValueError("block size must be >= 1")
    if n_rows < m:
        raise ValueError(f"block size m = {m} exceeds row count {n_rows}")
    return n_rows // m


def block_sums(x3: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x3.sum(axis=1)`` of an (n, m, d) block stack, with the same bytes.

    For d >= 2 add.reduce adds the m rows of a block in order, and einsum
    does the same with less work per row.  At d = 1 the block axis is the
    contiguous one and add.reduce sums it pairwise, so it stays there.
    """
    if x3.shape[2] == 1:
        return x3.sum(axis=1, out=out)
    return np.einsum("nmd->nd", x3, out=out)


def projections(rows: np.ndarray, directions) -> np.ndarray:
    """``rows @ directions.T`` in the first M columns of a zeroed (n, ld) buffer.

    ``ld`` rounds M up so that a row spans an odd number of cache lines: at
    M = 512 a 4 KiB row stride would map a whole column to one cache set.
    BLAS only stores the values elsewhere, so ``[:, :M]`` has the bytes of
    the plain product.  Callers reduce through that view (the padding is
    zero), which keeps numpy's summation order of the plain product.
    """
    u = np.asarray(directions, dtype=float)
    per_line = _LINE // u.itemsize
    ld = (-(-u.shape[0] // per_line) | 1) * per_line
    buf = np.zeros((rows.shape[0], ld))
    np.matmul(rows, u.T, out=buf[:, : u.shape[0]])
    return buf


def block_averages(ds, m: int) -> np.ndarray:
    """(1/sqrt(m)) * sum over consecutive groups of m rows.

    Trailing rows beyond the last full block are dropped.
    """
    rows = as_rows(ds)
    n_rows, d = rows.shape
    n = _block_count(n_rows, m)
    if m == 1:
        return rows[: n * m].copy()
    return block_sums(rows[: n * m].reshape(n, m, d)) / math.sqrt(m)


def pair_block_averages(ds, m: int, n: int | None = None) -> np.ndarray:
    """``block_averages(differences, m)[:n]`` without the difference matrix.

    Row i of the differences is row_i - row_{N+i} of the 2N input rows: mean
    zero, with twice the covariance of one observation.

    The paired rows are subtracted into one reused buffer of about
    ``_CHUNK_BYTES`` (never less than one block), a chunk of whole blocks
    at a time, and each block is summed by :func:`block_sums`, as in
    :func:`block_averages`, so the output has the same bytes.  Only the
    first ``n`` blocks (default: every full block) are formed.
    """
    first, second = _halves(as_rows(ds))
    half, d = first.shape
    count = _block_count(half, m)
    n = count if n is None else n
    if not 1 <= n <= count:
        raise ValueError(f"{n} blocks of size m = {m} do not fit in {half} pairs")
    out = np.empty((n, d))
    if m == 1:
        return np.subtract(first[:n], second[:n], out=out)
    per_chunk = max(1, _CHUNK_BYTES // (out.itemsize * m * max(d, 1)))
    buf = np.empty((min(per_chunk, n) * m, d))
    for lo in range(0, n, per_chunk):
        hi = min(lo + per_chunk, n)
        rows = slice(lo * m, hi * m)
        diff = np.subtract(first[rows], second[rows], out=buf[: (hi - lo) * m])
        block_sums(diff.reshape(hi - lo, m, d), out=out[lo:hi])
    out /= math.sqrt(m)
    return out


def _trim_modulus(theta: float, name: str) -> int:
    """Block counts are multiples of b = ceil(1/theta) so theta*n is integral."""
    b = math.ceil(1.0 / theta)
    if abs(theta * b - round(theta * b)) > 1e-9:
        raise ValueError(
            f"{name} = {theta} does not make {name} * ceil(1/{name}) an integer; "
            "use a reciprocal of an integer"
        )
    return b


def plan_blocks(
    n_rows: int,
    delta: float | None,
    theta: float,
    purpose: str,
    config: PipelineConfig | None = None,
) -> BlockPlan:
    """Choose (m, n) for the given purpose.

    variance: m is pinned from below by the small-ball requirement
    (m0 = ceil(c1 / gamma^2)); n is the largest multiple of ceil(1/theta)
    with n * m0 <= N, and m is then enlarged to floor(N / n) so at most
    n - 1 rows are wasted.

    mean: n is the smallest multiple of ceil(1/theta) with
    n >= ceil(c_blocks * log(e/delta)), and m = floor(N / n).
    """
    config = config or PipelineConfig()
    if purpose not in PLAN_PURPOSES:
        raise ValueError(f"purpose must be one of {PLAN_PURPOSES}")
    name = "theta_var" if purpose == "variance" else "theta_mean"
    if not (0.0 < theta < 0.5):
        raise ValueError(f"{name} must lie in (0, 1/2), got {theta!r}")
    b = _trim_modulus(theta, name)

    if purpose == "variance":
        try:
            size = config.c1 / config.gamma**2
        except ArithmeticError:  # gamma**2 underflows to 0 or overflows
            size = math.inf if config.gamma < 1 else 0.0
        if not math.isfinite(size):
            raise ValueError(f"c1 / gamma^2 is not finite for c1 = {config.c1}, gamma = {config.gamma}")
        m0 = max(1, math.ceil(size))
        n = (n_rows // m0) // b * b
        if n < b:
            raise SizingError(
                f"variance sizing infeasible: N = {n_rows} rows give fewer than "
                f"{b} blocks of size {m0}",
                minimal_n=m0 * b,
            )
    else:
        if delta is None or not (0.0 < delta < 1.0):
            raise ValueError("mean-purpose planning needs delta in (0, 1)")
        target = config.c_blocks * (1.0 + math.log(1.0 / delta))
        if not math.isfinite(target):
            raise ValueError(f"c_blocks * log(e/delta) is not finite for c_blocks = {config.c_blocks}, delta = {delta}")
        n = b * math.ceil(math.ceil(target) / b)
        if n > n_rows:
            raise SizingError(
                f"mean sizing infeasible: need at least {n} rows for "
                f"delta = {delta}, theta = {theta}",
                minimal_n=n,
            )

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
