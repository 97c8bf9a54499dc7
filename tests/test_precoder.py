import numpy as np
import pytest

from csnc.mathcore import Seed, gaussian_matrix
from csnc.precoder import draw_onoff, make_projection, temporal_project
from csnc.sources import SparsityProfile, generate_ensemble, make_dictionary_pair


def ensemble(N=12, n=9, k1=3, k2=2, seed=5):
    dicts = make_dictionary_pair("random-orthonormal", "random-orthonormal", n, N, Seed(seed))
    ens = generate_ensemble(SparsityProfile(N, n, k1, k2), dicts, (1, 2), Seed(seed + 1))
    return ens, dicts


class TestMakeProjection:
    def test_draws_the_seeded_gaussian_matrix(self):
        assert np.array_equal(make_projection(4, 9, Seed(8)), gaussian_matrix(4, 9, Seed(8)))

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match="m1 must be >= 1"):
            make_projection(0, 9, Seed(8))


class TestTemporalProject:
    def test_identity_projection(self):
        ens, _ = ensemble()
        A = np.eye(9)
        Y = temporal_project(ens, A)
        assert np.array_equal(Y, ens.X.T)

    def test_zero_ensemble(self):
        ens, _ = ensemble(k1=0, k2=0)
        A = make_projection(4, 9, Seed(1))
        assert np.all(temporal_project(ens, A) == 0.0)

    def test_matches_per_column_oracle(self):
        ens, _ = ensemble(N=12, n=12)
        A = make_projection(5, 12, Seed(2))
        Y = temporal_project(ens, A)
        for i in range(12):
            direct = A @ ens.X[i]
            assert np.linalg.norm(Y[:, i] - direct) < 1e-12

    def test_linearity(self):
        ens, dicts = ensemble()
        ens2, _ = ensemble(seed=9)
        A = make_projection(4, 9, Seed(3))
        from csnc.sources import SourceEnsemble

        mix = SourceEnsemble(
            2.0 * ens.X + 3.0 * ens2.X, ens.core, ens.row_support, ens.col_support, ens.profile
        )
        lhs = temporal_project(mix, A)
        rhs = 2.0 * temporal_project(ens, A) + 3.0 * temporal_project(ens2, A)
        assert np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(rhs)) < 1e-10

    def test_dimension_mismatch(self):
        ens, _ = ensemble()
        A = make_projection(4, 8, Seed(5))
        with pytest.raises(ValueError):
            temporal_project(ens, A)

    def test_shared_mode_preserves_spatial_sparsity(self):
        # every cross-source slice Y^t has a k2-sparse spatial coefficient vector
        ens, dicts = ensemble(N=16, n=10, k1=3, k2=2)
        A = make_projection(6, 10, Seed(6))
        Y = temporal_project(ens, A)
        for t in range(6):
            mu = np.linalg.solve(dicts.Psi, Y[t])
            heavy = np.abs(mu) > 1e-10 * max(np.max(np.abs(mu)), 1.0)
            assert np.count_nonzero(heavy) <= 2

    @pytest.mark.parametrize("A", [np.ones(9), np.full((4, 9), np.nan)], ids=["1-d", "nan"])
    def test_invalid_projection_rejected(self, A):
        ens, _ = ensemble()
        with pytest.raises(ValueError):
            temporal_project(ens, A)


class TestDrawOnoff:
    def test_probability_one_is_all_ones(self):
        pat = draw_onoff(50, 1.0, Seed(0).rng())
        assert pat.dtype == np.float64 and pat.shape == (50,)
        assert np.all(pat == 1.0)

    def test_probability_zero_is_all_zeros(self):
        pat = draw_onoff(50, 0.0, Seed(0).rng())
        assert np.all(pat == 0.0)

    def test_binomial_concentration(self):
        pat = draw_onoff(10_000, 0.3, Seed(12).rng())
        assert abs(pat.sum() - 3000) <= 3 * np.sqrt(2100)

    def test_determinism(self):
        assert np.array_equal(draw_onoff(40, 0.5, Seed(3).rng()), draw_onoff(40, 0.5, Seed(3).rng()))

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            draw_onoff(10, -0.1, Seed(0).rng())
        with pytest.raises(ValueError):
            draw_onoff(10, 1.1, Seed(0).rng())


class TestSavings:
    def test_case1_probability_matches_expected_savings(self):
        m2, N = 30, 300
        # the fraction of sources that stay silent is 1 - m2/N on average
        vals = [1.0 - draw_onoff(N, m2 / N, Seed(20, i).rng()).mean() for i in range(50)]
        assert abs(np.mean(vals) - 0.9) < 0.05
