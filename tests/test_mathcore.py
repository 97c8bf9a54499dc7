import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from csnc.mathcore import (
    Seed,
    gaussian_matrix,
    matrix_rank,
    matvecs,
    min_singular_value,
    rademacher_matrix,
    rowdots,
    singular_values,
)


class TestSeed:
    def test_same_pair_reproduces_draws(self):
        a = Seed(11, 3).rng().normal(size=8)
        b = Seed(11, 3).rng().normal(size=8)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = Seed(11, 0).rng().normal(size=8)
        b = Seed(11, 1).rng().normal(size=8)
        assert not np.array_equal(a, b)

    def test_child_is_deterministic_and_tag_sensitive(self):
        s = Seed(5)
        assert s.child(1, 2) == s.child(1, 2)
        assert s.child(1, 2) != s.child(2, 1)
        assert s.child(0) != s

    def test_rejects_out_of_range_words(self):
        with pytest.raises(ValueError):
            Seed(-1)
        with pytest.raises(ValueError):
            Seed(0, 1 << 64)


def _draw(rng, op):
    kind, n = op
    if kind == "normal":
        return rng.standard_normal(n)
    if kind == "uniform":
        return rng.random(n)
    if kind == "int32":  # an odd count leaves half a 64-bit word buffered
        return rng.integers(-1000, 1000, size=n, dtype=np.int32)
    return rng.choice(60, size=n, replace=False)


_WORD = st.integers(0, (1 << 64) - 1)
_DRAWS = st.lists(st.tuples(st.sampled_from(["normal", "uniform", "int32", "choice"]), st.integers(1, 9)),
                  max_size=6)
# ends every sequence on both a 32-bit and a 64-bit draw, so stale buffered words show
_TAIL = [("int32", 3), ("normal", 5)]


class TestReseat:
    """A reseated generator draws exactly what a new one for the same seed draws."""

    @given(old=_WORD, master=_WORD, stream=_WORD, before=_DRAWS, after=_DRAWS)
    @example(old=1, master=2, stream=3, before=[("int32", 3), ("normal", 1)], after=[])
    def test_matches_new_generator_bit_for_bit(self, old, master, stream, before, after):
        rng = Seed(old).rng()
        for op in before:
            _draw(rng, op)
        seed = Seed(master, stream)
        assert seed.reseat(rng) is rng
        fresh = seed.rng()
        for op in after + _TAIL:
            assert np.array_equal(_draw(rng, op), _draw(fresh, op))

    def test_rejects_other_bit_generators(self):
        with pytest.raises(ValueError):
            Seed(1).reseat(np.random.Generator(np.random.PCG64(0)))


class TestGaussianMatrix:
    def test_determinism(self):
        s = Seed(42)
        assert np.array_equal(gaussian_matrix(2, 2, s), gaussian_matrix(2, 2, s))

    def test_shape(self):
        assert gaussian_matrix(3, 5, Seed(0)).shape == (3, 5)

    def test_sample_moments(self):
        # law-of-large-numbers check on the generator
        M = gaussian_matrix(1000, 1000, Seed(123))
        assert abs(M.mean()) < 0.01
        assert abs(M.var() - 1.0) < 0.05

    @pytest.mark.parametrize("rows,cols", [(0, 3), (3, 0)])
    def test_invalid_arguments(self, rows, cols):
        with pytest.raises(ValueError):
            gaussian_matrix(rows, cols, Seed(0))


class TestRademacherMatrix:
    def test_entry_set(self):
        M = rademacher_matrix(20, 20, Seed(9))
        assert set(np.unique(M)) <= {-1.0, 1.0}

    def test_balance(self):
        # binomial 3-sigma bound on the fraction of +1 over 1e4 entries
        M = rademacher_matrix(100, 100, Seed(77))
        assert abs((M > 0).mean() - 0.5) < 0.02

    def test_determinism(self):
        s = Seed(4, 2)
        assert np.array_equal(rademacher_matrix(7, 3, s), rademacher_matrix(7, 3, s))

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            rademacher_matrix(0, 5, Seed(0))


class TestSingularValues:
    def test_diagonal(self):
        D = np.diag([1.0, 2.0, 3.0])
        assert min_singular_value(D) == pytest.approx(1.0, abs=1e-12)
        assert singular_values(D)[0] == pytest.approx(3.0, abs=1e-12)

    def test_identity(self):
        assert min_singular_value(np.eye(6)) == pytest.approx(1.0, abs=1e-12)
        assert singular_values(np.eye(6))[0] == pytest.approx(1.0, abs=1e-12)

    def test_against_gram_eigen_oracle(self):
        M = gaussian_matrix(50, 50, Seed(31))
        lo = min_singular_value(M)
        gram_min = np.linalg.eigvalsh(M.T @ M)[0]
        assert abs(lo**2 - gram_min) < 1e-6

    def test_ordering_over_random_matrices(self):
        for i in range(100):
            M = gaussian_matrix(6, 9, Seed(1, i))
            assert singular_values(M)[0] >= min_singular_value(M)

    def test_nonfinite_rejected(self):
        M = np.eye(3)
        M[0, 0] = np.nan
        with pytest.raises(ValueError):
            min_singular_value(M)

    def test_operator_norm_sandwich(self):
        # sigma_min^2 ||y||^2 <= ||My||^2 <= sigma_max^2 ||y||^2
        rng = Seed(8).rng()
        for i in range(20):
            M = gaussian_matrix(12, 7, Seed(8, i))
            lo, hi = min_singular_value(M), singular_values(M)[0]
            y = rng.normal(size=7)
            my = float(np.dot(M @ y, M @ y))
            yy = float(np.dot(y, y))
            assert my >= lo**2 * yy * (1 - 1e-8)
            assert my <= hi**2 * yy * (1 + 1e-8)


class TestMatrixRank:
    def test_identity(self):
        assert matrix_rank(np.eye(4)) == 4

    def test_rank_one(self):
        assert matrix_rank(np.ones((3, 3))) == 1

    def test_bounded_by_min_dim(self):
        for i in range(20):
            M = gaussian_matrix(5, 8, Seed(3, i))
            assert matrix_rank(M) <= 5

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            matrix_rank(np.eye(2), tol=0.0)


def _layouts(rows, cols, seed):
    """A rows x cols block with entries over six decades, C-contiguous, transposed (Z.T) and column-sliced."""
    rng = Seed(seed).rng()
    Z = rng.normal(size=(cols, rows)) * 10.0 ** rng.uniform(-3, 3, size=(cols, rows))
    W = rng.normal(size=(rows, 2 * cols)) * 10.0 ** rng.uniform(-3, 3, size=(rows, 2 * cols))
    return {"contiguous": np.ascontiguousarray(Z.T), "transposed": Z.T, "column-sliced": W[:, ::2]}


class TestBatchedProducts:
    """Each row of a batched product has the bits of its own 1-D product, in every memory layout."""

    @pytest.mark.parametrize("cols", [3, 17, 64, 129])
    @pytest.mark.parametrize("layout", ["contiguous", "transposed", "column-sliced"])
    def test_matvecs_matches_matrix_vector_loop(self, cols, layout):
        Y = _layouts(40, cols, cols)[layout]
        for M in _layouts(50, cols, cols + 1).values():
            expected = np.array([M @ np.array(y) for y in Y])  # each y read contiguously
            assert np.array_equal(matvecs(M, Y), expected)

    @pytest.mark.parametrize("cols", [3, 17, 64, 129])
    @pytest.mark.parametrize("layout", ["contiguous", "transposed", "column-sliced"])
    def test_rowdots_matches_dot_loop(self, cols, layout):
        A, B = _layouts(40, cols, cols)[layout], _layouts(40, cols, cols + 2)[layout]
        assert np.array_equal(rowdots(A, B), np.array([a @ b for a, b in zip(A, B)]))
        assert np.array_equal(rowdots(A, A), np.array([a @ a for a in A]))
