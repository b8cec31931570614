"""Deterministic random-stream management.

Every sampling routine in the library draws from a counter-based Philox
generator keyed by ``(master seed, stream labels...)``.  Labels are hashed
with BLAKE2 (not Python's salted ``hash``), so streams are reproducible
across processes and platforms, and two streams with different labels are
statistically independent.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .config import require_int

# bytes of squared rows per pass of row_norms.  128 KiB: at 512 KiB the
# squares of a 256-row refine probe panel (0.41 MB at d = 200) and of the
# slab system's unit-norm check (0.5 MB) sat on an estimate's memory peak.
# 1600 x 200 rows cost 0.33 ms against 0.30 at 512 KiB and 0.39 at 64 KiB.
_NORM_CHUNK_BYTES = 1 << 17


def _label_words(label) -> tuple[int, ...]:
    """Map one label (int or str) to a pair of stable 32-bit words."""
    if isinstance(label, (bool, np.bool_)):
        label = int(label)
    if isinstance(label, (int, np.integer)):
        v = int(label) & (2**64 - 1)
        return (v & 0xFFFFFFFF, (v >> 32) & 0xFFFFFFFF)
    digest = hashlib.blake2s(str(label).encode("utf-8")).digest()
    return (
        int.from_bytes(digest[:4], "little"),
        int.from_bytes(digest[4:8], "little"),
    )


def stream(seed: int, *labels) -> np.random.Generator:
    """Return a Philox generator for the stream ``(seed, *labels)``.

    The same ``(seed, labels)`` pair always produces the identical bit
    stream; distinct labels give independent streams.  ``seed`` must be an
    integer (bool not): a ValueError names it otherwise.
    """
    require_int("seed", seed)
    words: list[int] = []
    for lab in labels:
        words.extend(_label_words(lab))
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=tuple(words))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed: int, *labels) -> int:
    """Derive a 63-bit integer sub-seed from ``(seed, *labels)``.

    Used when an integer seed has to cross an API boundary instead of a
    generator object.  Any integer seed works: it is reduced mod 2**128,
    which leaves every seed in [-2**127, 2**127) its two's-complement bytes.
    A seed that is not an integer (bool not) raises ValueError.
    """
    require_int("seed", seed)
    h = hashlib.blake2s()
    h.update((int(seed) % 2**128).to_bytes(16, "little"))
    for lab in labels:
        for w in _label_words(lab):
            h.update(w.to_bytes(4, "little"))
    return int.from_bytes(h.digest()[:8], "little") >> 1


def row_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=1, keepdims=True)`` of a 2-d float64 array,
    bit for bit, squaring at most ``_NORM_CHUNK_BYTES`` of rows at a time.

    Each row's squares are summed by the same contiguous reduction as in
    ``np.linalg.norm``, so the chunking changes no bit; it only keeps a
    full-size square of ``x`` from being allocated.
    """
    n, d = x.shape
    step = max(1, _NORM_CHUNK_BYTES // (8 * max(d, 1)))
    sq = np.empty((min(step, n), d))
    out = np.empty((n, 1))
    for a in range(0, n, step):
        part = x[a : a + step]
        np.multiply(part, part, out=sq[: part.shape[0]])
        np.add.reduce(sq[: part.shape[0]], axis=1, out=out[a : a + step, 0])
    return np.sqrt(out, out=out)


def random_unit_rows(
    rng: np.random.Generator, count: int, d: int, out: np.ndarray | None = None
) -> np.ndarray:
    """``count`` uniform unit vectors of R^d as rows: gaussian draws over their norms.

    ``out``, a C-contiguous (count, d) float array, receives the rows and is
    returned; the stream is the same either way.
    """
    g = rng.standard_normal((count, d), out=out)
    g /= row_norms(g)
    return g
