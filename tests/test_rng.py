import numpy as np
import pytest

from dirmean.rng import _NORM_CHUNK_BYTES, derive_seed, random_unit_rows, row_norms, stream


def chunk_rows(d):
    """Rows that row_norms squares per pass at width d."""
    return max(1, _NORM_CHUNK_BYTES // (8 * d))


# row counts around one pass of row_norms, and the d = 200 direction fill
ROW_COUNTS = {
    "0": lambda chunk: 0,
    "1": lambda chunk: 1,
    "chunk-1": lambda chunk: chunk - 1,
    "chunk": lambda chunk: chunk,
    "chunk+1": lambda chunk: chunk + 1,
    "1392": lambda chunk: 1392,
}


class TestDeriveSeed:
    # the sub-seeds of the signed 16-byte encoding that derive_seed used before it reduced seeds mod 2**128
    PINNED = {-1: 7991781654528382716, 0: 7309452749881976666, 2**127 - 1: 7641607605254031600,
              -(2**127): 7245840907464099127, 2**64 + 5: 9028912156134644356}

    @pytest.mark.parametrize("seed", list(PINNED), ids=["-1", "0", "2**127-1", "-2**127", "2**64+5"])
    def test_pinned_sub_seeds(self, seed):
        assert derive_seed(seed, "x", 3) == self.PINNED[seed]

    @pytest.mark.parametrize("seed", [2**130, -(2**200), 2**127], ids=["2**130", "-2**200", "2**127"])
    def test_any_integer_seed_is_reduced_mod_2_128(self, seed):
        assert derive_seed(seed, "x", 3) == derive_seed(seed % 2**128, "x", 3)
        assert 0 <= derive_seed(seed, "x", 3) < 2**63


class TestSeedChecks:
    @pytest.mark.parametrize("seed", [1.9, 2.0, True, "1", None], ids=["1.9", "2.0", "True", "str", "None"])
    @pytest.mark.parametrize("make", [stream, derive_seed], ids=["stream", "derive_seed"])
    def test_rejects_a_seed_that_is_not_an_integer(self, make, seed):
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed!r}$"):
            make(seed, "x")

    def test_numpy_integer_seeds_equal_python_ones(self):
        assert derive_seed(np.int64(7), "x") == derive_seed(7, "x")
        assert np.array_equal(stream(np.uint32(7), "x").random(4), stream(7, "x").random(4))


class TestRowNorms:
    @pytest.mark.parametrize("d", [1, 2, 10, 200])
    @pytest.mark.parametrize("rows", list(ROW_COUNTS))
    def test_equals_np_linalg_norm(self, d, rows):
        n = ROW_COUNTS[rows](chunk_rows(d))
        rng = np.random.default_rng(1000 * d + n)
        # scales far apart, so a changed summation order would show in the bits
        x = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-100, 100, (n, 1))
        x[: n // 3] *= 10.0 ** rng.uniform(-20, 20, (n // 3, d))
        got = row_norms(x)
        assert got.shape == (n, 1)
        assert np.array_equal(got, np.linalg.norm(x, axis=1, keepdims=True))

    @pytest.mark.parametrize("d", [1, 2, 10, 200])
    def test_zero_rows_and_negative_zeros(self, d):
        n = chunk_rows(d) + 3
        x = np.random.default_rng(d).standard_normal((n, d))
        x[0] = 0.0
        x[1] = -0.0
        x[2, ::2] = -0.0
        x[-1] = -0.0
        got = row_norms(x)
        ref = np.linalg.norm(x, axis=1, keepdims=True)
        assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))
        assert got[0, 0] == got[1, 0] == got[-1, 0] == 0.0

    def test_strided_view(self):
        x = np.random.default_rng(3).standard_normal((2 * chunk_rows(50) + 1, 100))[:, ::2]
        assert np.array_equal(row_norms(x), np.linalg.norm(x, axis=1, keepdims=True))


class TestRandomUnitRowsOut:
    @pytest.mark.parametrize("count, d", [(1, 1), (5, 3), (1392, 200)])
    def test_draws_into_a_view_like_a_fresh_array(self, count, d):
        fresh_rng, view_rng = stream(7, "t"), stream(7, "t")
        fresh = random_unit_rows(fresh_rng, count, d)
        buf = np.full((count + 4, d), np.nan)
        view = buf[4:]
        got = random_unit_rows(view_rng, count, d, out=view)
        assert got is view
        assert np.array_equal(buf[4:], fresh)
        assert np.isnan(buf[:4]).all()  # the rows before the view are left alone
        # both streams stand at the same place afterwards
        assert np.array_equal(fresh_rng.standard_normal(8), view_rng.standard_normal(8))
