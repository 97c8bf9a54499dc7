import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csnc.lasso import (
    LassoProblem,
    debias_refit,
    decode_all,
    decode_spatial,
    decode_temporal,
    default_xi,
    kkt_check,
    solve_lasso,
)
from csnc.mathcore import Seed
from csnc.sources import make_dictionary

from oracles import lasso_objective, orthonormal_design, projected_subgradient_lasso


def random_instance(seed, q=8, p=20, k=3, sigma=0.1, xi=None):
    rng = Seed(seed).rng()
    G = rng.normal(size=(q, p))
    coef = np.zeros(p)
    coef[rng.choice(p, size=k, replace=False)] = rng.uniform(1, 2, k) * rng.choice([-1, 1], k)
    z = G @ coef + rng.normal(0, sigma, q)
    if xi is None:
        xi = default_xi(sigma, q, p)
    return LassoProblem(z, G, xi)


class TestSolveLasso:
    def test_orthonormal_design_closed_form(self):
        # with G^T G = q I each coefficient is soft_threshold((1/q)(G^T z)_j, xi)
        rng = Seed(21).rng()
        for _ in range(5):
            p = 12
            G = orthonormal_design(p, rng)
            z = rng.normal(size=p) * 3
            xi = 0.2
            sol = solve_lasso(LassoProblem(z, G, xi))
            b = G.T @ z / p
            expected = np.sign(b) * np.maximum(np.abs(b) - xi, 0)
            assert np.allclose(sol.coef, expected, atol=1e-8)

    def test_null_solution_threshold(self):
        prob = random_instance(3, sigma=0.5)
        lam_max = np.max(np.abs(prob.G.T @ prob.z / prob.q))
        big = LassoProblem(prob.z, prob.G, lam_max * 1.0001)
        sol = solve_lasso(big)
        assert np.all(sol.coef == 0.0)

    def test_matches_projected_subgradient_oracle(self):
        for seed in range(10):
            prob = random_instance(seed, q=8, p=20)
            sol = solve_lasso(prob)
            _, ref_obj = projected_subgradient_lasso(prob.z, prob.G, prob.xi)
            assert sol.objective <= ref_obj + 1e-6

    def test_objective_field_is_consistent(self):
        prob = random_instance(5)
        sol = solve_lasso(prob)
        recomputed = lasso_objective(prob.z, prob.G, sol.coef, prob.xi)
        assert sol.objective == pytest.approx(recomputed, rel=1e-10)

    def test_converged_certificate(self):
        tol = 1e-8
        for seed in range(8):
            prob = random_instance(seed, q=12, p=30, sigma=0.05)
            sol = solve_lasso(prob, tol=tol)
            assert sol.converged
            assert kkt_check(prob, sol.coef) <= 10 * tol

    def test_max_iter_returns_unconverged(self):
        prob = random_instance(0, q=20, p=50, sigma=0.01)
        sol = solve_lasso(prob, max_iter=1)
        assert not sol.converged

    def test_zero_norm_columns_stay_zero(self):
        rng = Seed(9).rng()
        G = rng.normal(size=(10, 6))
        G[:, 2] = 0.0
        z = rng.normal(size=10)
        sol = solve_lasso(LassoProblem(z, G, 0.05))
        assert sol.coef[2] == 0.0

    def test_invalid_inputs(self):
        rng = Seed(0).rng()
        G = rng.normal(size=(4, 6))
        z = rng.normal(size=4)
        with pytest.raises(ValueError):
            LassoProblem(z, G, 0.0)
        with pytest.raises(ValueError):
            LassoProblem(z[:3], G, 0.1)
        bad = G.copy()
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            LassoProblem(z, bad, 0.1)
        with pytest.raises(ValueError):
            solve_lasso(LassoProblem(z, G, 0.1), max_iter=0)


# derandomized and database-free, so the suite stays reproducible
battery = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def instances(draw):
    """A small random instance, with xi anywhere from 1e-3 lam_max to past the null threshold."""
    seed = draw(st.integers(0, 2**32 - 1))
    q, p = draw(st.integers(3, 20)), draw(st.integers(2, 30))
    rng = Seed(seed).rng()
    G = rng.normal(size=(q, p))
    coef = np.zeros(p)
    k = draw(st.integers(1, max(1, min(q, p) // 2)))
    coef[rng.choice(p, k, replace=False)] = rng.uniform(1, 2, k) * rng.choice([-1, 1], k)
    z = G @ coef + rng.normal(0, draw(st.sampled_from([0.0, 0.05, 0.2])), q)
    lam_max = np.max(np.abs(G.T @ z)) / q
    return LassoProblem(z, G, lam_max * draw(st.floats(1e-3, 1.2)))


class TestSolveLassoProperties:
    @battery
    @given(prob=instances(), alpha=st.floats(1e-3, 1e3))
    def test_scale_equivariance(self, prob, alpha):
        base = solve_lasso(prob)
        scaled = solve_lasso(LassoProblem(alpha * prob.z, prob.G, alpha * prob.xi))
        assert base.converged and scaled.converged
        assert np.allclose(scaled.coef, alpha * base.coef, rtol=1e-8, atol=1e-10 * alpha)

    @battery
    @given(prob=instances(), perm_seed=st.integers(0, 2**32 - 1))
    def test_column_permutation_equivariance(self, prob, perm_seed):
        perm = Seed(perm_seed).rng().permutation(prob.p)
        base = solve_lasso(prob)
        permuted = solve_lasso(LassoProblem(prob.z, prob.G[:, perm], prob.xi))
        assert base.converged and permuted.converged
        assert np.allclose(permuted.coef, base.coef[perm], rtol=1e-8, atol=1e-10)

    @battery
    @given(prob=instances())
    def test_certified_solve_is_optimal(self, prob):
        tol = 1e-8
        sol = solve_lasso(prob, tol=tol)
        assert sol.converged
        assert kkt_check(prob, sol.coef) <= 10 * tol
        _, ref_obj = projected_subgradient_lasso(prob.z, prob.G, prob.xi)
        assert sol.objective <= ref_obj + 1e-6


class TestKktCheck:
    def test_zero_problem(self):
        G = np.eye(3)
        prob = LassoProblem(np.zeros(3), G, 0.5)
        assert kkt_check(prob, np.zeros(3)) == 0.0

    def test_perturbed_solution_detected(self):
        prob = random_instance(11, q=12, p=20, sigma=0.05)
        sol = solve_lasso(prob)
        coef = sol.coef.copy()
        active = np.flatnonzero(coef)
        coef[active[0]] += 0.1
        assert kkt_check(prob, coef) > 1e-3

    def test_dimension_mismatch(self):
        prob = random_instance(0)
        with pytest.raises(ValueError):
            kkt_check(prob, np.zeros(prob.p + 1))


class TestDefaultXi:
    def test_noiseless_floor(self):
        assert default_xi(0.0, 100, 50) == 1e-12

    def test_direct_value(self):
        # 2 sqrt(2 ln 1000 / 100)
        expected = 2.0 * math.sqrt(2.0 * math.log(1000) / 100)
        assert default_xi(1.0, 100, 1000, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_q_homogeneity(self):
        a = default_xi(1.0, 100, 500)
        b = default_xi(1.0, 200, 500)
        assert a / b == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_invalid(self):
        with pytest.raises(ValueError):
            default_xi(-1.0, 10, 10)
        with pytest.raises(ValueError):
            default_xi(1.0, 0, 10)


class TestDebiasRefit:
    def test_exact_on_true_support(self):
        rng = Seed(13).rng()
        G = rng.normal(size=(30, 10))
        coef = np.zeros(10)
        coef[[1, 4]] = [2.0, -3.0]
        z = G @ coef
        rough = coef + np.where(coef != 0, 0.05, 0.0)
        refit = debias_refit(z, G, rough)
        assert np.allclose(refit, coef, atol=1e-10)

    def test_empty_support(self):
        G = np.eye(4)
        out = debias_refit(np.ones(4), G, np.zeros(4))
        assert np.all(out == 0.0)


class TestDecodeSpatial:
    def test_noiseless_exact_recovery_monte_carlo(self):
        # Gaussian design at 3 k ln(N) measurements, noiseless
        N, k = 64, 3
        q = math.ceil(3 * k * math.log(N))
        hits = 0
        for i in range(100):
            rng = Seed(100, i).rng()
            G = rng.normal(size=(q, N))
            mu = np.zeros(N)
            sup = np.sort(rng.choice(N, k, replace=False))
            mu[sup] = rng.uniform(1, 2, k) * rng.choice([-1, 1], k)
            y = mu.copy()  # identity dictionary
            z = G @ y
            xi = max(1e-4 * np.max(np.abs(G.T @ z)) / q, 1e-12)
            mu_hat, y_hat, _ = decode_spatial(z, G, np.ones(N), np.eye(N), xi)
            if np.array_equal(np.flatnonzero(mu_hat), sup) and (
                np.linalg.norm(y_hat - y) / np.linalg.norm(y) < 1e-3
            ):
                hits += 1
        assert hits >= 95

    def test_zero_truth_norm_bound(self):
        # objective at zero bounds ||mu||_1 by ||Z||^2 / (2 m2 xi)
        rng = Seed(55).rng()
        m2, N = 20, 40
        G = rng.normal(size=(m2, N))
        Z = rng.normal(size=m2)
        xi = 0.3
        mu, _, sol = decode_spatial(Z, G, np.ones(N), np.eye(N), xi, debias=False)
        assert np.sum(np.abs(mu)) <= float(Z @ Z) / (2 * m2 * xi) + 1e-9

    def test_case2_design_equals_g_psi(self):
        rng = Seed(66).rng()
        m2, N = 12, 16
        G = rng.normal(size=(m2, N))
        Psi = make_dictionary("random-orthonormal", N, Seed(3))
        mu = np.zeros(N)
        mu[[2, 7]] = [3.0, -2.0]
        Z = G @ (Psi @ mu)
        got, _, _ = decode_spatial(Z, G, np.ones(N), Psi, 1e-6)
        direct = solve_lasso(LassoProblem(Z, G @ Psi, 1e-6)).coef
        refit = debias_refit(Z, G @ Psi, direct)
        assert np.allclose(got, refit, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            decode_spatial(np.zeros(3), np.zeros((3, 4)), np.ones(5), np.eye(4), 0.1)


class TestDecodeTemporal:
    def test_noiseless_recovery_monte_carlo(self):
        n, k1 = 64, 3
        m1 = math.ceil(3 * k1 * math.log(n))
        Phi = make_dictionary("discrete-cosine", n)
        hits = 0
        for i in range(100):
            rng = Seed(200, i).rng()
            A = rng.normal(size=(m1, n))
            theta = np.zeros(n)
            sup = np.sort(rng.choice(n, k1, replace=False))
            theta[sup] = rng.uniform(1, 2, k1) * rng.choice([-1, 1], k1)
            x = Phi @ theta
            y = A @ x
            xi = max(1e-4 * np.max(np.abs((A @ Phi).T @ y)) / m1, 1e-12)
            theta_hat, x_hat, _ = decode_temporal(y, A, Phi, xi)
            if np.array_equal(np.flatnonzero(theta_hat), sup) and (
                np.linalg.norm(x_hat - x) / np.linalg.norm(x) < 1e-3
            ):
                hits += 1
        assert hits >= 95

    def test_orthonormal_design_closed_form(self):
        # Phi = I and A with orthonormal scaled rows gives the soft-threshold solution
        rng = Seed(77).rng()
        n = 10
        A = orthonormal_design(n, rng)
        y = rng.normal(size=n) * 2
        xi = 0.15
        theta, _, _ = decode_temporal(y, A, np.eye(n), xi, debias=False)
        b = A.T @ y / n
        assert np.allclose(theta, np.sign(b) * np.maximum(np.abs(b) - xi, 0), atol=1e-8)

    def test_zero_input_row(self):
        A = Seed(5).rng().normal(size=(8, 12))
        theta, x_hat, _ = decode_temporal(np.zeros(8), A, np.eye(12), 0.1)
        assert np.all(theta == 0.0) and np.all(x_hat == 0.0)


class TestDecodeAll:
    def _small_setup(self, seed=0, sigma=0.0, N=24, n=12, k1=2, k2=2, m1=12, m2=22):
        from csnc.sources import SparsityProfile, generate_ensemble, make_dictionary_pair
        from csnc.precoder import make_projection, temporal_project, draw_onoff
        from csnc.netsim import direct_transfer_matrix, transmit, ChannelModel

        s = Seed(300, seed)
        dicts = make_dictionary_pair("random-orthonormal", "random-orthonormal", n, N, s.child(1))
        ens = generate_ensemble(SparsityProfile(N, n, k1, k2), dicts, (1.0, 2.0), s.child(2))
        op = make_projection(m1, n, "gaussian", s.child(3))
        Y = temporal_project(ens, op)
        tm = direct_transfer_matrix(m2, N, s.child(4))
        pats = [draw_onoff(N, 1.0, s.child(5, t)) for t in range(m1)]
        obs = np.column_stack(
            [transmit(tm, pats[t], Y[t], ChannelModel(sigma), s.child(6, t)) for t in range(m1)]
        )
        return ens, dicts, op, Y, tm, pats, obs

    def test_noiseless_end_to_end(self):
        ens, dicts, op, Y, tm, pats, obs = self._small_setup()
        res = decode_all(
            obs, tm.G, [p.diag for p in pats], dicts.Psi, dicts.Phi, op.A,
            xi_spatial=1e-7, truth_X=ens.X, proj_truth=Y,
        )
        assert np.all(res.per_source_distortion < 1e-4)

    def test_result_internal_consistency(self):
        ens, dicts, op, Y, tm, pats, obs = self._small_setup(sigma=0.05)
        res = decode_all(
            obs, tm.G, [p.diag for p in pats], dicts.Psi, dicts.Phi, op.A,
            xi_spatial=0.05, truth_X=ens.X, proj_truth=Y,
        )
        # y_hat rows are Psi mu_hat columns; x_hat rows are Phi theta_hat rows
        for t in range(Y.shape[0]):
            assert np.allclose(res.y_hat[t], dicts.Psi @ res.mu_hat[:, t], atol=1e-10)
        for i in range(ens.X.shape[0]):
            assert np.allclose(res.x_hat[i], dicts.Phi @ res.theta_hat[i], atol=1e-10)

    def test_per_source_projection_list_rejected(self):
        ens, dicts, op, Y, tm, pats, obs = self._small_setup()
        with pytest.raises(ValueError):
            decode_all(
                obs, tm.G, [p.diag for p in pats], dicts.Psi, dicts.Phi, [op.A] * 24,
                xi_spatial=0.1, truth_X=ens.X,
            )

    def test_empty_when_m1_zero(self):
        ens, dicts, op, Y, tm, pats, obs = self._small_setup()
        res = decode_all(
            obs[:, :0], tm.G, [], dicts.Psi, dicts.Phi, op.A, xi_spatial=0.1,
        )
        assert res.mu_hat.shape[1] == 0 and res.y_hat.shape[0] == 0
        assert np.all(res.x_hat == 0.0)

    def test_distortion_zero_when_reconstruction_exact(self):
        ens, dicts, op, Y, tm, pats, obs = self._small_setup()
        n = ens.X.shape[1]
        d = np.sum((ens.X - ens.X) ** 2, axis=1) / n
        assert np.all(d == 0.0)
