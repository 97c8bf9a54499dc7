import numpy as np
import pytest

import csnc.mathcore
import oracles
from csnc.mathcore import Seed, singular_values
from csnc.sources import (
    DictionaryPair,
    SourceEnsemble,
    SparsityProfile,
    generate_ensemble,
    load_ensemble,
    make_dictionary,
    make_dictionary_pair,
    save_ensemble,
    verify_assumption,
)


class TestMakeDictionary:
    def test_identity(self):
        assert np.array_equal(make_dictionary("identity", 4), np.eye(4))

    def test_random_orthonormal(self):
        Q = make_dictionary("random-orthonormal", 8, Seed(2))
        assert np.allclose(singular_values(Q), 1.0, atol=1e-8)

    def test_discrete_cosine_gram(self):
        C = make_dictionary("discrete-cosine", 8)
        assert np.allclose(C.T @ C, np.eye(8), atol=1e-8)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_dictionary("wavelet", 4, Seed(0))

    def test_random_kinds_need_seed(self):
        with pytest.raises(ValueError):
            make_dictionary("random-orthonormal", 4)

    def test_determinism(self):
        a = make_dictionary("random-orthonormal", 6, Seed(9))
        b = make_dictionary("random-orthonormal", 6, Seed(9))
        assert np.array_equal(a, b)


class TestDictionaryPair:
    @pytest.mark.parametrize("kind", ["identity", "random-orthonormal", "discrete-cosine"])
    def test_built_pair_makes_no_svd(self, monkeypatch, kind):
        calls = []
        svd = csnc.mathcore.singular_values

        def counted(M):
            calls.append(np.shape(M))
            return svd(M)

        monkeypatch.setattr(csnc.mathcore, "singular_values", counted)
        pair = make_dictionary_pair(kind, kind, 6, 9, Seed(4))
        assert calls == []
        assert pair.Phi.shape == (6, 6) and pair.Psi.shape == (9, 9)
        assert (pair.kind_phi, pair.kind_psi) == (kind, kind)

    def test_discrete_cosine_is_shared_and_read_only(self):
        C = make_dictionary("discrete-cosine", 8)
        with pytest.raises(ValueError):
            C[0, 0] = 1.0
        with pytest.raises(ValueError):
            C.flags.writeable = True
        assert np.array_equal(make_dictionary("discrete-cosine", 8), C)


def small_pair(N=16, n=10, seed=7):
    return make_dictionary_pair("random-orthonormal", "random-orthonormal", n, N, Seed(seed))


class TestGenerateEnsemble:
    def test_zero_temporal_sparsity_gives_zero_matrix(self):
        dicts = small_pair()
        ens = generate_ensemble(SparsityProfile(16, 10, 0, 3), dicts, (1, 2), Seed(0))
        assert np.all(ens.X == 0.0)

    def test_identity_dictionaries_expose_core(self):
        N, n, k1, k2 = 12, 8, 3, 2
        dicts = DictionaryPair(np.eye(n), np.eye(N), "identity", "identity")
        ens = generate_ensemble(SparsityProfile(N, n, k1, k2), dicts, (1, 2), Seed(3))
        assert np.array_equal(ens.X, ens.core)
        nonzero_rows = np.flatnonzero(np.any(ens.X != 0, axis=1))
        assert np.array_equal(nonzero_rows, ens.row_support)
        for i in nonzero_rows:
            assert np.array_equal(np.flatnonzero(ens.X[i]), ens.col_support)

    def test_support_sizes_exact(self):
        dicts = small_pair()
        ens = generate_ensemble(SparsityProfile(16, 10, 4, 3), dicts, (1, 2), Seed(1))
        assert len(ens.row_support) == 3
        assert len(ens.col_support) == 4

    def test_factorization_is_exact(self):
        dicts = small_pair()
        ens = generate_ensemble(SparsityProfile(16, 10, 4, 3), dicts, (1, 2), Seed(2))
        rebuilt = dicts.Psi @ ens.core @ dicts.Phi.T
        denom = max(1.0, np.linalg.norm(ens.X))
        assert np.linalg.norm(ens.X - rebuilt) / denom < 1e-10

    def test_amplitudes_within_range(self):
        dicts = small_pair()
        ens = generate_ensemble(SparsityProfile(16, 10, 4, 3), dicts, (0.5, 2.0), Seed(4))
        block = ens.core[np.ix_(ens.row_support, ens.col_support)]
        assert np.all(np.abs(block) >= 0.5) and np.all(np.abs(block) <= 2.0)

    def test_invalid_inputs(self):
        dicts = small_pair()
        with pytest.raises(ValueError):
            generate_ensemble(SparsityProfile(16, 10, 2, 2), dicts, (0.0, 1.0), Seed(0))
        with pytest.raises(ValueError):
            generate_ensemble(SparsityProfile(16, 10, 2, 2), dicts, (2.0, 1.0), Seed(0))
        with pytest.raises(ValueError):
            SparsityProfile(16, 10, 11, 2)
        with pytest.raises(ValueError):
            SparsityProfile(16, 10, 2, 17)


class TestVerifyAssumption:
    def test_generated_ensembles_pass(self):
        for i in range(10):
            dicts = small_pair(seed=50 + i)
            ens = generate_ensemble(SparsityProfile(16, 10, 3, 2), dicts, (1, 2), Seed(60 + i))
            report = verify_assumption(ens, dicts, sparsity_tol=1e-8)
            assert report.temporal_ok and report.spatial_ok
            assert report.worst_residual < 1e-10

    def test_dense_signal_fails_temporal(self):
        N, n = 6, 5
        dicts = DictionaryPair(np.eye(n), np.eye(N), "identity", "identity")
        profile = SparsityProfile(N, n, 2, 6)  # k1 < n, spatial part permissive
        ens = SourceEnsemble(np.ones((N, n)), np.ones((N, n)), np.arange(N), np.arange(n), profile)
        report = verify_assumption(ens, dicts)
        assert not report.temporal_ok

    def test_zero_ensemble_passes_any_sparsity(self):
        N, n = 8, 6
        dicts = DictionaryPair(np.eye(n), np.eye(N), "identity", "identity")
        for k1, k2 in [(0, 0), (1, 2), (6, 8)]:
            ens = SourceEnsemble(
                np.zeros((N, n)), np.zeros((N, n)), np.array([], int), np.array([], int),
                SparsityProfile(N, n, k1, k2),
            )
            report = verify_assumption(ens, dicts)
            assert report.temporal_ok and report.spatial_ok

    def test_spatial_closure_under_any_functional(self):
        # for any a, Psi^{-1} (X a) is supported inside the row support
        dicts = small_pair(N=20, n=12, seed=33)
        ens = generate_ensemble(SparsityProfile(20, 12, 3, 4), dicts, (1, 2), Seed(44))
        rng = Seed(45).rng()
        for _ in range(25):
            a = rng.normal(size=12)
            mu = np.linalg.solve(dicts.Psi, ens.X @ a)
            heavy = np.flatnonzero(np.abs(mu) > 1e-10 * max(np.max(np.abs(mu)), 1.0))
            assert set(heavy) <= set(ens.row_support)


class TestVerifyMatchesColumnLoop:
    """verify_assumption's batched check gives the bits of the one-vector-at-a-time oracle."""

    @pytest.mark.parametrize("sparsity_tol", [None, 1e-8, 1e-3], ids=["default", "1e-8", "1e-3"])
    @pytest.mark.parametrize("broken", [False, True], ids=["sparse", "broken"])
    @pytest.mark.parametrize("kind", ["random-orthonormal", "discrete-cosine"])
    def test_flags_and_residual(self, sparsity_tol, broken, kind):
        flags = set()
        for i in range(4):
            dicts = make_dictionary_pair(kind, kind, 10, 16, Seed(70 + i))
            ens = generate_ensemble(SparsityProfile(16, 10, 3, 2), dicts, (1, 2), Seed(80 + i))
            if broken:  # dense perturbations of mixed size break both assumptions
                noise = Seed(90 + i).rng().normal(size=ens.X.shape)
                ens.X = ens.X + noise * 10.0 ** np.linspace(-6, -1, ens.X.size).reshape(ens.X.shape)
            seed = Seed(100 + i)
            report = verify_assumption(ens, dicts, sparsity_tol, num_random_functionals=7, seed=seed)
            expected = oracles.verify_loop(ens.X, dicts.Phi, dicts.Psi, 3, 2, sparsity_tol, 7, seed)
            assert (report.temporal_ok, report.spatial_ok, report.worst_residual) == expected
            flags.add((report.temporal_ok, report.spatial_ok))
        assert flags == ({(False, False)} if broken else {(True, True)})


class TestEnsembleIO:
    def test_csv_bytes_match_reference_writer(self, tmp_path):
        dicts = small_pair(N=9, n=7, seed=5)
        ens = generate_ensemble(SparsityProfile(9, 7, 3, 2), dicts, (1, 2), Seed(6))
        ens.X[0, :3] = [-0.0, 1e-300, -123456789.0]  # a signed zero, a tiny value and a large integral one
        path = tmp_path / "ens.csv"
        save_ensemble(ens, str(path))
        expected = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in ens.X)
        assert path.read_bytes() == expected.encode()

    def test_round_trip_exact(self, tmp_path):
        dicts = small_pair(N=9, n=7, seed=3)
        ens = generate_ensemble(SparsityProfile(9, 7, 3, 2), dicts, (1, 2), Seed(8))
        path = str(tmp_path / "ens.csv")
        save_ensemble(ens, path, dicts, seed=Seed(8), dict_seed=Seed(3))
        loaded, meta = load_ensemble(path)
        assert np.array_equal(loaded.X, ens.X)  # %.17g round-trips float64 exactly
        assert np.array_equal(loaded.core, ens.core)
        assert np.array_equal(loaded.row_support, ens.row_support)
        assert np.array_equal(loaded.col_support, ens.col_support)
        assert loaded.profile == ens.profile
        assert meta["kind_phi"] == "random-orthonormal"
        assert meta["seed_master"] == "8"

    def test_empty_support_round_trip(self, tmp_path):
        dicts = small_pair(N=6, n=5, seed=1)
        ens = generate_ensemble(SparsityProfile(6, 5, 0, 0), dicts, (1, 2), Seed(2))
        path = str(tmp_path / "zero.csv")
        save_ensemble(ens, path)
        loaded, _ = load_ensemble(path)
        assert np.all(loaded.X == 0.0)
