import numpy as np
import pytest

from csnc.mathcore import (
    Seed,
    gaussian_matrix,
    matrix_rank,
    min_singular_value,
    rademacher_matrix,
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


class TestGaussianMatrix:
    def test_determinism(self):
        s = Seed(42)
        assert np.array_equal(gaussian_matrix(2, 2, 1.0, s), gaussian_matrix(2, 2, 1.0, s))

    def test_shape(self):
        assert gaussian_matrix(3, 5, 1.0, Seed(0)).shape == (3, 5)

    def test_sample_moments(self):
        # law-of-large-numbers check on the generator
        M = gaussian_matrix(1000, 1000, 1.0, Seed(123))
        assert abs(M.mean()) < 0.01
        assert abs(M.var() - 1.0) < 0.05

    @pytest.mark.parametrize("rows,cols,sd", [(0, 3, 1.0), (3, 0, 1.0), (2, 2, 0.0), (2, 2, -1.0)])
    def test_invalid_arguments(self, rows, cols, sd):
        with pytest.raises(ValueError):
            gaussian_matrix(rows, cols, sd, Seed(0))


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
        M = gaussian_matrix(50, 50, 1.0, Seed(31))
        lo = min_singular_value(M)
        gram_min = np.linalg.eigvalsh(M.T @ M)[0]
        assert abs(lo**2 - gram_min) < 1e-6

    def test_ordering_over_random_matrices(self):
        for i in range(100):
            M = gaussian_matrix(6, 9, 1.0, Seed(1, i))
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
            M = gaussian_matrix(12, 7, 1.0, Seed(8, i))
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
            M = gaussian_matrix(5, 8, 1.0, Seed(3, i))
            assert matrix_rank(M) <= 5

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            matrix_rank(np.eye(2), tol=0.0)
