import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from csnc.mathcore import Seed
from csnc.re_analysis import (
    ConeSpec,
    cascade_check,
    constant_c,
    error_bound,
    estimate_re,
    sample_cone_vectors,
    save_re_report,
)


class TestConeSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConeSpec(5, ())
        with pytest.raises(ValueError):
            ConeSpec(5, (7,))
        with pytest.raises(ValueError):
            ConeSpec(5, (1,), alpha=0.5)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError):
            ConeSpec(30, (1, 2), alpha)

    def test_complement(self):
        spec = ConeSpec(5, (0, 3))
        assert list(spec.complement) == [1, 2, 4]


def cone_margin(y, spec):
    """alpha * ||y_S||_1 - ||y_{S^c}||_1; nonnegative inside the cone."""
    return spec.alpha * np.abs(y[list(spec.support)]).sum() - np.abs(y[spec.complement]).sum()


class TestSampleConeVector:
    def test_membership_is_exact(self):
        for i in range(50):
            spec = ConeSpec(12, (0, 2, 5), alpha=1.0)
            [y] = sample_cone_vectors(spec, [Seed(1, i)])
            assert cone_margin(y, spec) >= -1e-12
            assert abs(np.linalg.norm(y) - 1.0) < 1e-12

    def test_full_support_is_vacuous(self):
        spec = ConeSpec(6, tuple(range(6)), alpha=1.0)
        [y] = sample_cone_vectors(spec, [Seed(2)])
        assert abs(np.linalg.norm(y) - 1.0) < 1e-12

    def test_batch_rows_are_single_draws(self):
        spec = ConeSpec(9, (2, 7), alpha=1.5)
        seeds = [Seed(4).child(i) for i in range(7)]
        Y = sample_cone_vectors(spec, seeds)
        for y, s in zip(Y, seeds):
            assert np.array_equal(y, sample_cone_vectors(spec, [s])[0])
        assert sample_cone_vectors(spec, []).shape == (0, 9)


class TestEstimateRe:
    def test_identity_design(self):
        p = 8
        est = estimate_re(np.eye(p), sparsity=2, alpha=1.0, num_supports=50,
                          num_vectors_per_support=10, seed=Seed(4))
        assert est.gamma_hat == pytest.approx(1.0 / p, rel=1e-10)

    def test_zero_column_gives_zero(self):
        rng = Seed(5).rng()
        G = rng.normal(size=(6, 6))
        G[:, 3] = 0.0
        est = estimate_re(G, sparsity=1, num_supports=6, num_vectors_per_support=5, seed=Seed(6))
        assert est.gamma_hat == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_matrices_satisfy_re_empirically(self):
        hits = 0
        for i in range(100):
            G = Seed(7, i).rng().normal(size=(60, 200))
            est = estimate_re(G, sparsity=5, alpha=1.0, num_supports=20,
                              num_vectors_per_support=20, seed=Seed(8, i))
            if est.gamma_hat > 0.1:
                hits += 1
        assert hits >= 95

    def test_argmin_attains_gamma(self):
        G = Seed(9).rng().normal(size=(12, 18))
        est = estimate_re(G, sparsity=3, num_supports=10, num_vectors_per_support=10, seed=Seed(10))
        y = est.argmin_vector
        ratio = float((G @ y) @ (G @ y)) / 12 / float(y @ y)
        assert ratio == pytest.approx(est.gamma_hat, rel=1e-10)
        assert cone_margin(y, ConeSpec(18, est.argmin_support, est.alpha)) >= -1e-10

    def test_monotone_refinement(self):
        # more sampling can only lower the estimate (same seed prefix)
        G = Seed(11).rng().normal(size=(10, 14))
        small = estimate_re(G, 2, 1.0, num_supports=5, num_vectors_per_support=10, seed=Seed(12))
        big = estimate_re(G, 2, 1.0, num_supports=5, num_vectors_per_support=40, seed=Seed(12))
        assert big.gamma_hat <= small.gamma_hat + 1e-15

    def test_exhaustive_enumeration_for_small_p(self):
        G = Seed(13).rng().normal(size=(8, 6))
        est = estimate_re(G, 2, 1.0, num_supports=100, num_vectors_per_support=5, seed=Seed(14))
        assert len(est.per_support_gamma) == math.comb(6, 2)

    def test_scaled_orthonormal_rows_bounds(self):
        # G = sqrt(q) Q with orthonormal rows: ratio <= 1 on the whole cone
        q, p = 6, 10
        rng = Seed(15).rng()
        Q, _ = np.linalg.qr(rng.normal(size=(p, q)))
        G = math.sqrt(q) * Q.T
        est = estimate_re(G, 2, 1.0, num_supports=100, num_vectors_per_support=20, seed=Seed(16))
        assert est.gamma_hat <= 1.0 + 1e-9
        exact_floor = min(g for _, g in est.per_support_gamma if True)
        assert est.gamma_hat <= exact_floor + 1e-12

    def test_invalid_sparsity(self):
        with pytest.raises(ValueError):
            estimate_re(np.eye(4), 5, seed=Seed(0))

    @pytest.mark.parametrize("supports, vectors", [(0, 5), (-1, 5), (3, -1)],
                             ids=["no-supports", "negative-supports", "negative-vectors"])
    def test_vacuous_search_rejected(self, supports, vectors):
        with pytest.raises(ValueError):
            estimate_re(np.eye(4), 2, 1.0, supports, vectors, Seed(0))

    def test_zero_vectors_gives_the_on_support_floor(self):
        G = Seed(19).rng().normal(size=(10, 30))
        est = estimate_re(G, 3, 1.0, 4, 0, Seed(20))
        assert est.samples_used == 0
        floors = [oracles.on_support_floor(G, S) for S, _ in est.per_support_gamma]
        assert [g for _, g in est.per_support_gamma] == pytest.approx(floors, rel=1e-12)

    def test_nan_alpha_rejected(self):
        with pytest.raises(ValueError):
            estimate_re(Seed(21).rng().normal(size=(6, 12)), 3, alpha=math.nan, seed=Seed(0))

    def test_report_csv(self, tmp_path):
        G = Seed(17).rng().normal(size=(6, 8))
        est = estimate_re(G, 2, 1.0, num_supports=5, num_vectors_per_support=5, seed=Seed(18))
        path = str(tmp_path / "re.csv")
        save_re_report(est, path)
        text = open(path).read()
        assert "OVERALL" in text
        assert text.startswith("support,gamma")


class TestCascadeCheck:
    def _setup(self, seed, q=20, p=40, k=3):
        s = Seed(seed)
        G = s.child(0).rng().normal(size=(q, p))
        support = tuple(np.sort(s.child(1).rng().choice(p, size=k, replace=False)))
        return G, ConeSpec(p, support, 1.0), s

    def test_scalar_c1_gives_exact_equality(self):
        G, spec, s = self._setup(20)
        C1 = 2.0 * np.eye(20)
        C2 = np.eye(40)
        rep = cascade_check(G, C1, C2, spec, num_vectors=50, seed=s.child(2))
        assert rep.violations_left == 0
        assert rep.lambda1 == pytest.approx(2.0)
        # the LEFT inequality is tight: ||2Gy||^2 == 4 ||Gy||^2

    def test_identity_matrices_no_violations(self):
        G, spec, s = self._setup(21)
        rep = cascade_check(G, np.eye(20), np.eye(40), spec, num_vectors=100, seed=s.child(2))
        assert rep.violations_left == 0
        assert rep.violations_right == 0
        assert rep.membership_skipped == 0

    def test_random_triples_never_violate_left(self):
        total_checked = 0
        for i in range(40):
            G, spec, s = self._setup(100 + i)
            rng = s.child(5).rng()
            C1 = np.eye(20) + 0.3 * rng.normal(size=(20, 20)) / math.sqrt(20)
            C2 = np.eye(40) + 0.3 * rng.normal(size=(40, 40)) / math.sqrt(40)
            rep = cascade_check(G, C1, C2, spec, num_vectors=50, seed=s.child(6))
            assert rep.violations_left == 0
            assert rep.violations_right == 0
            total_checked += rep.samples - rep.membership_skipped
        assert total_checked > 200  # membership passes often enough to be informative

    def test_dimension_validation(self):
        G, spec, s = self._setup(22)
        with pytest.raises(ValueError):
            cascade_check(G, np.eye(19), np.eye(40), spec, 10, Seed(0))
        with pytest.raises(ValueError):
            cascade_check(G, np.eye(20), np.eye(39), spec, 10, Seed(0))

    @pytest.mark.parametrize("vectors", [0, -2])
    def test_no_vectors_rejected(self, vectors):
        G, spec, s = self._setup(23)
        with pytest.raises(ValueError):
            cascade_check(G, np.eye(20), np.eye(40), spec, vectors, s)


def _rel_close(a, b, scale=0.0):
    """Within 1e-12 relative, where a value is never read on a finer scale than `scale`.

    An RE level is a ratio bounded by ||G||_2^2 / q, and its rounding error
    is relative to that bound: a rank-deficient support's floor of 1e-17
    is zero to every method that computes it.
    """
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b), scale)


def _ratio_scale(G):
    return float(np.linalg.norm(G, 2) ** 2 / G.shape[0])


def _design(seed, q, p):
    return Seed(seed).rng().normal(size=(q, p))


class TestMatchesPerVectorLoop:
    """The batched batteries against oracles' per-vector loops, on random inputs."""

    # q >= sparsity keeps the on-support floors apart, so the least one is not a rounding tie
    @given(seed=st.integers(0, 2**32), q=st.integers(4, 16), p=st.integers(4, 40),
           sparsity=st.integers(1, 4), alpha=st.floats(1.0, 5.0),
           supports=st.integers(1, 8), vectors=st.integers(0, 12))
    def test_estimate_re(self, seed, q, p, sparsity, alpha, supports, vectors):
        sparsity = min(sparsity, p)
        G = _design(seed, q, p)
        s = Seed(seed).child(1)
        est = estimate_re(G, sparsity, alpha, supports, vectors, s)
        rows = oracles.re_estimate_loop(G, sparsity, alpha, supports, vectors, s)
        assert [S for S, _ in est.per_support_gamma] == [S for S, _, _ in rows]
        scale = _ratio_scale(G)
        assert all(_rel_close(g, level, scale) for (_, g), (_, level, _) in zip(est.per_support_gamma, rows))
        assert est.samples_used == len(rows) * vectors
        s_idx = min(range(len(rows)), key=lambda j: rows[j][1])  # the first least level
        S, level, arg = rows[s_idx]
        assert est.argmin_support == S
        assert _rel_close(est.gamma_hat, level, scale)
        if arg is not None:
            [want] = sample_cone_vectors(ConeSpec(p, S, alpha), [s.child(1, s_idx).child(arg)])
            assert np.array_equal(est.argmin_vector, want)
            ref = oracles.cone_vector(p, S, alpha, s.child(1, s_idx).child(arg))
            assert np.allclose(est.argmin_vector, ref, rtol=1e-12, atol=1e-15)

    @given(seed=st.integers(0, 2**32), q=st.integers(2, 12), p=st.integers(3, 30),
           sparsity=st.integers(1, 4), alpha=st.floats(1.0, 4.0), vectors=st.integers(1, 40),
           mix1=st.floats(0.0, 0.5), mix2=st.floats(0.0, 0.2))
    def test_cascade_check(self, seed, q, p, sparsity, alpha, vectors, mix1, mix2):
        s = Seed(seed)
        G = _design(seed, q, p)
        C1 = np.eye(q) + mix1 * s.child(2).rng().normal(size=(q, q)) / math.sqrt(q)
        C2 = np.eye(p) + mix2 * s.child(3).rng().normal(size=(p, p)) / math.sqrt(p)
        support = tuple(sorted(s.child(4).rng().choice(p, min(sparsity, p), replace=False)))
        rep = cascade_check(G, C1, C2, ConeSpec(p, support, alpha), vectors, s.child(5))
        ref = oracles.cascade_loop(G, C1, C2, support, alpha, vectors, s.child(5))
        for key in ("violations_left", "violations_right", "membership_skipped"):
            assert getattr(rep, key) == ref[key], key
        assert rep.samples == vectors
        assert _rel_close(rep.lambda1, ref["lambda1"])
        assert _rel_close(rep.lambda2, ref["lambda2"])
        assert _rel_close(rep.gamma_used, ref["gamma_used"], _ratio_scale(G))
        # worst_margin is itself a relative slack, so it is compared on that scale
        assert abs(rep.worst_margin - ref["worst_margin"]) <= 1e-12 * max(1.0, abs(ref["worst_margin"]))

    @given(seed=st.integers(0, 2**32), dim=st.integers(1, 30), k=st.integers(1, 30),
           alpha=st.floats(1.0, 10.0), count=st.integers(1, 20))
    def test_sampled_rows(self, seed, dim, k, alpha, count):
        support = tuple(sorted(Seed(seed).rng().choice(dim, min(k, dim), replace=False)))
        spec = ConeSpec(dim, support, alpha)
        seeds = [Seed(seed).child(i) for i in range(count)]
        Y = sample_cone_vectors(spec, seeds)
        for y, sd in zip(Y, seeds):
            assert np.array_equal(y, sample_cone_vectors(spec, [sd])[0])
            assert np.allclose(y, oracles.cone_vector(dim, support, alpha, sd), rtol=1e-12, atol=1e-15)


class TestStreamLayout:
    """One stream per cone vector, keyed exactly as documented."""

    @pytest.fixture
    def rng_keys(self, monkeypatch):
        """Every seed whose stream is started, by a new generator or by a reseat."""
        keys = []
        real_rng, real_reseat = Seed.rng, Seed.reseat

        def counting_rng(self):
            keys.append(self)
            return real_rng(self)

        def counting_reseat(self, rng):
            keys.append(self)
            return real_reseat(self, rng)

        monkeypatch.setattr(Seed, "rng", counting_rng)
        monkeypatch.setattr(Seed, "reseat", counting_reseat)
        return keys

    def test_estimate_re_sampled_supports(self, rng_keys):
        G = _design(30, 8, 24)
        rng_keys.clear()
        s = Seed(31)
        estimate_re(G, 3, 1.0, 4, 6, s)
        assert rng_keys == [s.child(0)] + [s.child(1, j).child(i) for j in range(4) for i in range(6)]

    def test_estimate_re_enumerated_supports(self, rng_keys):
        G = _design(32, 5, 6)
        rng_keys.clear()
        s = Seed(33)
        est = estimate_re(G, 2, 1.0, 100, 3, s)
        assert len(est.per_support_gamma) == 15
        assert rng_keys == [s.child(1, j).child(i) for j in range(15) for i in range(3)]

    def test_cascade_check(self, rng_keys):
        G = _design(34, 6, 10)
        rng_keys.clear()
        s = Seed(35)
        cascade_check(G, np.eye(6), np.eye(10), ConeSpec(10, (1, 4), 1.0), 17, s)
        assert rng_keys == [s.child(i) for i in range(17)]

    def test_one_bit_generator_per_call(self, monkeypatch):
        built = []
        real = np.random.Philox

        def counting(*args, **kwargs):
            built.append(args or kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        spec = ConeSpec(10, (1, 4), 1.0)
        sample_cone_vectors(spec, [Seed(37).child(i) for i in range(17)])
        assert len(built) == 1
        sample_cone_vectors(spec, [])
        assert len(built) == 1


class TestErrorBound:
    def test_noiseless_is_zero(self):
        assert error_bound(1.0, 0.5, 0.0, 5, 100, 50) == 0.0

    def test_doubling_q_halves(self):
        a = error_bound(1.0, 0.5, 1.0, 5, 100, 50)
        b = error_bound(1.0, 0.5, 1.0, 5, 100, 100)
        assert a == pytest.approx(2.0 * b, rel=1e-12)

    def test_direct_value(self):
        # (1 / 0.25) * 5 * ln(1000) / 100
        expected = 4.0 * 5.0 * math.log(1000) / 100
        assert error_bound(1.0, 0.5, 1.0, 5, 1000, 100) == pytest.approx(expected, rel=1e-12)

    def test_failed_re_condition(self):
        with pytest.raises(ValueError):
            error_bound(1.0, 0.0, 1.0, 5, 100, 50)


class TestConstantC:
    def test_unit_case(self):
        assert constant_c(3.7, 1, 1, 1, 1, 1, 1) == pytest.approx(3.7)

    def test_fourth_power_homogeneity(self):
        base = constant_c(1.0, 0.5, 0.5, 0.8, 0.8, 1.25, 1.25)
        doubled = constant_c(1.0, 0.5, 0.5, 1.6, 0.8, 1.25, 1.25)
        assert base / doubled == pytest.approx(16.0, rel=1e-12)

    def test_direct_value_two_orderings(self):
        # delta (lam3 lam4)^2 / ((g1 g2)^2 (lam1 lam2)^4), evaluated two ways
        a = (1.25 * 1.25) ** 2 / ((0.5 * 0.5) ** 2 * (0.8 * 0.8) ** 4)
        b = 1.25**2 * 1.25**2 / (0.5**2 * 0.5**2 * 0.8**4 * 0.8**4)
        got = constant_c(1.0, 0.5, 0.5, 0.8, 0.8, 1.25, 1.25)
        assert got == pytest.approx(a, rel=1e-12)
        assert got == pytest.approx(b, rel=1e-12)
        assert got == pytest.approx(232.8306436538696, rel=1e-10)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            constant_c(1.0, 0.0, 1, 1, 1, 1, 1)
