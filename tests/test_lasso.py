import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import csnc.harness
import csnc.lasso
from csnc.harness import ExperimentConfig, run_trial
from csnc.lasso import (
    LassoProblem,
    debias_refit,
    decode_all,
    decode_spatial,
    decode_temporal,
    default_xi,
    kkt_check,
    lasso_paths,
    solve_lasso,
)
from csnc.mathcore import Seed
from csnc.netsim import direct_transfer_matrix, transmit
from csnc.precoder import draw_onoff, make_projection, temporal_project
from csnc.sources import SparsityProfile, generate_ensemble, make_dictionary, make_dictionary_pair

import oracles
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
        lam_max = np.max(np.abs(prob.G.T @ prob.z / prob.G.shape[0]))
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
            sol = solve_lasso(prob)
            assert sol.converged
            assert kkt_check(prob, sol.coef) <= 10 * tol

    def test_max_iter_returns_unconverged(self):
        prob = random_instance(0, q=20, p=50, sigma=0.01)
        [path] = lasso_paths(prob.G, prob.z[:, None], [prob.xi], 1)
        sol = solve_lasso(prob, path=path)
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
        for xi in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="xi"):
                LassoProblem(z, G, xi)
        with pytest.raises(ValueError):
            LassoProblem(z[:3], G, 0.1)
        bad = G.copy()
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            LassoProblem(z, bad, 0.1)


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
    @given(prob=instances(), alpha=st.floats(1e-3, 1e3))
    def test_scale_equivariance(self, prob, alpha):
        base = solve_lasso(prob)
        scaled = solve_lasso(LassoProblem(alpha * prob.z, prob.G, alpha * prob.xi))
        assert base.converged and scaled.converged
        assert np.allclose(scaled.coef, alpha * base.coef, rtol=1e-8, atol=1e-10 * alpha)

    @given(prob=instances(), perm_seed=st.integers(0, 2**32 - 1))
    def test_column_permutation_equivariance(self, prob, perm_seed):
        perm = Seed(perm_seed).rng().permutation(prob.p)
        base = solve_lasso(prob)
        permuted = solve_lasso(LassoProblem(prob.z, prob.G[:, perm], prob.xi))
        assert base.converged and permuted.converged
        assert np.allclose(permuted.coef, base.coef[perm], rtol=1e-8, atol=1e-10)

    @given(prob=instances())
    def test_certified_solve_is_optimal(self, prob):
        tol = 1e-8
        sol = solve_lasso(prob)
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
        assert default_xi(1.0, 100, 1000) == pytest.approx(expected, rel=1e-12)

    def test_q_homogeneity(self):
        a = default_xi(1.0, 100, 500)
        b = default_xi(1.0, 200, 500)
        assert a / b == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_invalid(self):
        for sigma_hat in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="sigma_hat"):
                default_xi(sigma_hat, 10, 10)
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
        [refit] = debias_refit(G, z[:, None], rough[None])
        assert np.allclose(refit, coef, atol=1e-10)

    def test_empty_support(self):
        G = np.eye(4)
        out = debias_refit(G, np.ones((4, 1)), np.zeros((1, 4)))
        assert out.shape == (1, 4) and np.all(out == 0.0)

    def test_coefs_must_match_the_block(self):
        # one row per column of Z, one column per column of D: nothing else is refit
        D, Z = Seed(14).rng().normal(size=(10, 8)), np.ones((10, 2))
        for coefs in (np.ones((2, 7)), np.ones((3, 8)), np.ones((1, 8)), np.ones(8)):
            with pytest.raises(ValueError, match="coefs"):
                debias_refit(D, Z, coefs)


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
            [mu_hat], _ = decode_spatial(z[:, None], G, [xi])
            if np.array_equal(np.flatnonzero(mu_hat), sup) and (
                np.linalg.norm(mu_hat - y) / np.linalg.norm(y) < 1e-3
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
        [mu], _ = decode_spatial(Z[:, None], G, [xi], debias=False)
        assert np.sum(np.abs(mu)) <= float(Z @ Z) / (2 * m2 * xi) + 1e-9

    def test_case2_design_equals_g_psi(self):
        rng = Seed(66).rng()
        m2, N = 12, 16
        G = rng.normal(size=(m2, N))
        Psi = make_dictionary("random-orthonormal", N, Seed(3))
        mu = np.zeros(N)
        mu[[2, 7]] = [3.0, -2.0]
        Z = G @ (Psi @ mu)
        # decode_all builds the stage-1 design of an all-on pattern as G Psi
        got = decode_all(Z[:, None], G, np.ones((1, N)), Psi, np.eye(4), np.eye(4), 0.0, run_temporal=False)
        prob = LassoProblem(Z, G @ Psi, default_xi(0.0, m2, N))
        [refit] = debias_refit(prob.G, Z[:, None], solve_lasso(prob).coef[None])
        assert np.allclose(got.mu_hat[:, 0], refit, atol=1e-10)
        assert np.allclose(got.y_hat[0], Psi @ refit, atol=1e-10)


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
            [theta_hat], _ = decode_temporal(y[:, None], A @ Phi, [xi])
            if np.array_equal(np.flatnonzero(theta_hat), sup) and (
                np.linalg.norm(Phi @ theta_hat - x) / np.linalg.norm(x) < 1e-3
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
        [theta], _ = decode_temporal(y[:, None], A, [xi], debias=False)  # design A I = A
        b = A.T @ y / n
        assert np.allclose(theta, np.sign(b) * np.maximum(np.abs(b) - xi, 0), atol=1e-8)

    def test_zero_input_row(self):
        A = Seed(5).rng().normal(size=(8, 12))
        [theta], _ = decode_temporal(np.zeros((8, 1)), A, [0.1])  # design A I = A
        assert np.all(theta == 0.0)


class TestDecodeAll:
    def _small_setup(self, seed=0, sigma=0.0, N=24, n=12, k1=2, k2=2, m1=12, m2=22):
        s = Seed(300, seed)
        dicts = make_dictionary_pair("random-orthonormal", "random-orthonormal", n, N, s.child(1))
        ens = generate_ensemble(SparsityProfile(N, n, k1, k2), dicts, (1.0, 2.0), s.child(2))
        A = make_projection(m1, n, s.child(3))
        Y = temporal_project(ens, A)
        tm = direct_transfer_matrix(m2, N, s.child(4))
        B = np.array([draw_onoff(N, 1.0, s.child(5, t).rng()) for t in range(m1)])
        obs = np.column_stack(
            [transmit(tm, B[t], Y[t], sigma, s.child(6, t).rng()) for t in range(m1)]
        )
        return ens, dicts, A, Y, tm, B, obs

    def test_noiseless_end_to_end(self):
        ens, dicts, A, Y, tm, B, obs = self._small_setup()
        res = decode_all(
            obs, tm.G, B, dicts.Psi, dicts.Phi, A,
            sigma=0.0, truth_X=ens.X, proj_truth=Y,
        )
        assert np.all(res.per_source_distortion < 1e-4)

    def test_result_internal_consistency(self):
        ens, dicts, A, Y, tm, B, obs = self._small_setup(sigma=0.05)
        res = decode_all(
            obs, tm.G, B, dicts.Psi, dicts.Phi, A,
            sigma=0.05, truth_X=ens.X, proj_truth=Y,
        )
        # y_hat rows are Psi mu_hat columns; x_hat rows are Phi theta_hat rows
        for t in range(Y.shape[0]):
            assert np.allclose(res.y_hat[t], dicts.Psi @ res.mu_hat[:, t], atol=1e-10)
        for i in range(ens.X.shape[0]):
            assert np.allclose(res.x_hat[i], dicts.Phi @ res.theta_hat[i], atol=1e-10)

    def test_per_source_projection_list_rejected(self):
        ens, dicts, A, Y, tm, B, obs = self._small_setup()
        with pytest.raises(ValueError):
            decode_all(
                obs, tm.G, B, dicts.Psi, dicts.Phi, [A] * 24,
                sigma=0.1, truth_X=ens.X,
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="pattern length"):
            decode_all(np.zeros((3, 1)), np.zeros((3, 4)), np.ones((1, 5)), np.eye(4), np.eye(2), np.eye(2), 0.1)

    def test_non_finite_sigma(self):
        # an infinite noise level would give an infinite weight and an all-zero decode
        ens, dicts, A, Y, tm, B, obs = self._small_setup()
        for sigma in (np.inf, np.nan):
            with pytest.raises(ValueError, match="sigma_hat"):
                decode_all(obs, tm.G, B, dicts.Psi, dicts.Phi, A, sigma)

    def test_distortion_is_mean_squared_error_of_x_hat(self):
        ens, dicts, A, Y, tm, B, obs = self._small_setup(sigma=0.05)
        args = (obs, tm.G, B, dicts.Psi, dicts.Phi, A, 0.05)
        res = decode_all(*args, truth_X=ens.X, proj_truth=Y)
        want = np.sum((ens.X - res.x_hat) ** 2, axis=1) / ens.X.shape[1]
        assert np.any(want > 0) and same_bits(res.per_source_distortion, want)
        assert decode_all(*args).per_source_distortion is None


def path_instance(seed, q, p, mix, duplicate, frac):
    """(z, G, xi, duplicate): columns share mix times column 0, which makes paths drop columns.

    With duplicate, column p-1 is a copy of column 0.
    """
    rng = Seed(seed).rng()
    G = rng.normal(size=(q, p))
    G = G + mix * G[:, :1]
    if duplicate:
        G[:, p - 1] = G[:, 0]
    z = rng.normal(size=q)
    return z, G, frac * np.max(np.abs(G.T @ z)) / q, duplicate


@st.composite
def path_instances(draw):
    return path_instance(
        draw(st.integers(0, 2**32 - 1)), draw(st.integers(2, 24)), draw(st.integers(2, 40)),
        draw(st.sampled_from([0.0, 0.5, 0.9])), draw(st.booleans()), draw(st.floats(1e-3, 1.2)),
    )


PATTERN_KINDS = ["all-on", "redrawn", "case1-sparseB", "shared", "runs"]


def decode_case(s, N, n, m1, m2, kind, sigma, k1, k2, runs=None, truth="none", debias=True, run_temporal=True):
    """One receiver's observation block under the on-off matrix kind, as decode_all's keyword arguments.

    all-on: every pattern all ones (case 2), each drawn on its own; redrawn:
    Bernoulli(1/2) per time index; case1-sparseB: Bernoulli(m2/N) per
    time index; shared: one Bernoulli(m2/N) pattern at every time index;
    runs: copies of two patterns, runs[t] naming pattern t's.  sigma is
    the channel noise; the decoder is told 0.05.
    """
    dicts = make_dictionary_pair("random-orthonormal", "random-orthonormal", n, N, s.child(1))
    ens = generate_ensemble(SparsityProfile(N, n, k1, k2), dicts, (1.0, 2.0), s.child(2))
    A = make_projection(m1, n, s.child(3))
    Y = temporal_project(ens, A)
    tm = direct_transfer_matrix(m2, N, s.child(4))
    if kind == "shared":
        B = np.tile(draw_onoff(N, m2 / N, s.child(5, 0).rng()), (m1, 1))
    elif kind == "runs":
        two = [draw_onoff(N, 0.5, s.child(5, r).rng()) for r in range(2)]
        B = np.array([two[r] for r in runs])
    else:
        prob = {"all-on": 1.0, "redrawn": 0.5, "case1-sparseB": m2 / N}[kind]
        B = np.array([draw_onoff(N, prob, s.child(5, t).rng()) for t in range(m1)])
    obs = np.column_stack([transmit(tm, B[t], Y[t], sigma, s.child(6, t).rng()) for t in range(m1)])
    return dict(
        receiver_obs=obs, G=tm.G, B=B, Psi=dicts.Psi, Phi=dicts.Phi, A=A, sigma=0.05,
        truth_X=None if truth == "none" else ens.X,
        proj_truth=Y if truth == "truth+projection" else None,
        debias=debias,
        run_temporal=run_temporal,
    )


@st.composite
def decode_inputs(draw):
    """decode_case on small drawn sizes, every pattern kind and truth mode."""
    s = Seed(draw(st.integers(0, 2**32 - 1)))
    N, n = draw(st.integers(3, 14)), draw(st.integers(3, 12))
    m1, m2 = draw(st.integers(1, n)), draw(st.integers(2, N))
    kind, sigma = draw(st.sampled_from(PATTERN_KINDS)), draw(st.sampled_from([0.0, 0.05]))
    k1, k2 = draw(st.integers(0, n)), draw(st.integers(0, N))
    runs = draw(st.lists(st.integers(0, 1), min_size=m1, max_size=m1)) if kind == "runs" else None
    truth = draw(st.sampled_from(["none", "truth", "truth+projection"]))
    return decode_case(s, N, n, m1, m2, kind, sigma, k1, k2, runs, truth, draw(st.booleans()), draw(st.booleans()))


def same_bits(a, b):
    return (a is None and b is None) or (a is not None and b is not None and a.dtype == b.dtype
                                         and a.shape == b.shape and a.tobytes() == b.tobytes())


def folded(coef, duplicate):
    """coef with a duplicate instance's copy column p-1 added into column 0, whose optimum it shares."""
    if not duplicate:
        return coef
    out = coef.copy()
    out[0] += out[-1]
    out[-1] = 0.0
    return out


def assert_matches_reference(z, G, xi, duplicate=False, max_iter=10_000):
    """solve_lasso against oracles.homotopy_path; returns the reference's (steps, drops).

    The certificates always agree.  A certified path takes the same steps
    to the same bits; where the copy of column 0 joined in its place, the
    finish reads the same system from other positions of the Gram rows
    and correlations, which may round differently, and agrees to
    100 eps cond(G_A^T G_A) of its peak.  A path both stop at the cap, an
    iterate that is never scored, agrees to 1e-12 of its peak.
    """
    path = lasso_paths(G, z[:, None], [xi], max_iter)[0]
    sol = solve_lasso(LassoProblem(z, G, xi), path=path)
    coef, steps, drops, converged, active = oracles.homotopy_path(z, G, xi, max_iter=max_iter)
    assert sol.converged == converged
    got, ref = folded(sol.coef, duplicate), folded(coef, duplicate)
    if converged:
        assert sol.iterations == steps
        if path.active.tolist() == active:
            assert same_bits(got, ref)
        else:
            cond = np.linalg.cond(oracles.gram_block(G, active))
            assert np.max(np.abs(got - ref)) <= 100 * np.finfo(float).eps * cond * np.max(np.abs(ref))
    elif sol.iterations == steps == max_iter:
        peak = max(np.max(np.abs(ref)), np.max(np.abs(got)))
        assert np.max(np.abs(got - ref)) <= 1e-12 * peak
    return steps, drops


def drop_positions(z, G, xi, steps):
    """(position in the active list, list length) of each column the reference path drops.

    Read from the reference's iterates capped after 1..steps steps: a
    column that joins turns nonzero one step later, in join order, and
    one that leaves is zeroed on its step.
    """
    order, drops = [], []
    for s in range(1, steps + 1):
        support = set(np.flatnonzero(oracles.homotopy_path(z, G, xi, max_iter=s)[0]).tolist())
        for j in [j for j in order if j not in support]:
            drops.append((order.index(j), len(order)))
            order.remove(j)
        order += sorted(support - set(order))
    return drops


def captured_problems(monkeypatch, cfg, index):
    """Every LassoProblem that run_trial(cfg, index) solves."""
    probs = []
    solve = csnc.lasso.solve_lasso

    def spy(prob, *args, **kwargs):
        probs.append(prob)
        return solve(prob, *args, **kwargs)

    monkeypatch.setattr(csnc.lasso, "solve_lasso", spy)
    run_trial(cfg, index)
    monkeypatch.undo()
    return probs


class TestMatchesPerProblemLoop:
    """solve_lasso and decode_all against oracles' per-step and per-problem references."""

    @given(inst=path_instances(), max_iter=st.sampled_from([1, 2, 5, 10_000]))
    def test_solve_lasso_steps_and_coefficients(self, inst, max_iter):
        assert_matches_reference(*inst, max_iter=max_iter)

    def test_instances_drop_columns(self):
        # the battery's instance family does exercise drop steps and a duplicated column
        drops = dup_steps = 0
        for seed in range(60):
            steps, dropped = assert_matches_reference(*path_instance(seed, 12, 30, 0.9, seed % 2 == 0, 0.01))
            drops += dropped
            dup_steps += steps if seed % 2 == 0 else 0
        assert drops > 0 and dup_steps > 0

    def test_drops_inside_an_active_set_longer_than_8(self):
        # a drop before the last slot of a long active list shifts every later slot down
        z, G, xi, _ = path_instance(0, 16, 30, 0.0, False, 0.01)
        steps, _ = assert_matches_reference(z, G, xi)
        drops = drop_positions(z, G, xi, steps)
        assert any(length > 8 and position < length - 1 for position, length in drops)

    @pytest.mark.parametrize("cfg", [
        ExperimentConfig(SparsityProfile(128, 128, 4, 4), m=32, m1=32, m2=32, sigma=0.1, D=0.0025,
                         master_seed=Seed(20260808)),
        ExperimentConfig(SparsityProfile(32, 32, 2, 2), m=8, m1=13, m2=13, sigma=0.1, D=0.0025,
                         master_seed=Seed(20260808)),
    ], ids=["acceptance", "calibrate-small"])
    def test_trial_solves(self, monkeypatch, cfg):
        # every solve of trial 0: both stages of every receiver, certified and bit for bit
        probs = captured_problems(monkeypatch, cfg, 0)
        assert len(probs) == cfg.receivers * (cfg.m1 + cfg.profile.N)
        for prob in probs:
            sol = solve_lasso(prob)
            coef, steps, _, converged, _ = oracles.homotopy_path(prob.z, prob.G, prob.xi)
            assert sol.converged and converged
            assert sol.iterations == steps and same_bits(sol.coef, coef)

    @given(inputs=decode_inputs())
    # 20-entry residuals, where a dot product over a strided row rounds differently, and no
    # refit, which would hide the stage-2 weight from the coefficients
    @example(inputs=decode_case(Seed(11), 24, 24, 20, 20, "all-on", 0.05, 3, 3, truth="truth", debias=False))
    @example(inputs=decode_case(Seed(11), 24, 24, 20, 20, "redrawn", 0.05, 3, 3, truth="truth+projection",
                                debias=False))
    @example(inputs=decode_case(Seed(11), 24, 24, 20, 20, "redrawn", 0.05, 3, 3, debias=False))
    def test_decode_all(self, inputs):
        res = decode_all(**inputs)
        ref = oracles.decode_loop(**inputs)
        got = (res.mu_hat, res.y_hat, res.theta_hat, res.x_hat, res.per_source_distortion)
        assert all(same_bits(a, b) for a, b in zip(got, ref[:5]))
        assert res.converged == ref[5]


@st.composite
def path_batches(draw):
    """(G, Z, xis, cap, duplicate): the observations of several path_instance draws on the design of the first.

    The design mixes in column 0, which makes paths drop columns, and may
    hold a copy of it.  The last column is at or below its weight already
    at lam_max (zero steps); the block's one cap is 1, 2 or 5 steps, or
    none in reach; and a batch may hold more columns than lasso_paths
    steps at once, so finished paths hand their places to later columns.
    """
    q, p = draw(st.integers(2, 16)), draw(st.integers(2, 30))
    mix, duplicate = draw(st.sampled_from([0.0, 0.5, 0.9])), draw(st.booleans())
    _, G, _, _ = path_instance(draw(st.integers(0, 2**32 - 1)), q, p, mix, duplicate, 1.0)
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=40))
    Z = np.column_stack([path_instance(s, q, p, mix, duplicate, 1.0)[0] for s in seeds])
    fracs = [draw(st.floats(1e-3, 1.2)) for _ in seeds[1:]] + [draw(st.sampled_from([1.0, 1.2]))]
    xis = np.array([f * np.max(np.abs(G.T @ z)) / q for f, z in zip(fracs, Z.T)])
    return G, Z, xis, draw(st.sampled_from([1, 2, 5, 10_000])), duplicate


def fold(j, p, duplicate):
    """Column j, with a duplicate instance's copy column p-1 read as column 0."""
    return 0 if duplicate and j == p - 1 else j


def assert_same_path(got, want):
    assert (got.steps, got.reached) == (want.steps, want.reached)
    assert all(same_bits(a, b) for a, b in ((got.active, want.active), (got.signs, want.signs),
                                             (got.coef, want.coef)))


class TestLassoPaths:
    """lasso_paths steps a block of columns as it steps each column alone, bit for bit."""

    @given(batch=path_batches())
    def test_batch_equals_each_column_alone(self, batch):
        G, Z, xis, cap, duplicate = batch
        q, p = G.shape
        paths = lasso_paths(G, Z, xis, cap)
        uncapped = paths if cap == 10_000 else lasso_paths(G, Z, xis)
        for b, path in enumerate(paths):
            assert_same_path(path, lasso_paths(G, Z[:, b:b + 1], xis[b:b + 1], cap)[0])
            assert isinstance(path.steps, int)
            # only joined columns are active: the reference joins the same ones, in the same order
            # (either copy of a duplicated column, which ties with it)
            active = path.active.tolist()
            assert len(set(active)) == len(active) <= q
            ref = oracles.homotopy_path(Z[:, b], G, xis[b], max_iter=cap)[4]
            assert [fold(j, p, duplicate) for j in active] == [fold(j, p, duplicate) for j in ref]
            if path.reached and active:  # a path that reached xi comes back finished there
                assert same_bits(path.coef, oracles.finish(Z[:, b], G, xis[b], path.active, path.signs))
            # solve_lasso only scores and certifies: a block's path gives the bits of a bare solve
            prob = LassoProblem(Z[:, b], G, xis[b])
            got, want = solve_lasso(prob, path=uncapped[b]), solve_lasso(prob)
            assert same_bits(got.coef, want.coef)
            assert (got.objective, got.kkt_residual, got.iterations, got.converged) == (
                want.objective, want.kkt_residual, want.iterations, want.converged)
        assert paths[-1].steps == 0 and paths[-1].reached

    def test_a_batch_holds_every_case(self):
        # the batch family does step paths that drop columns, hit the cap, reach xi and take no step
        G, Z, xis = fixed_batch()
        drops = [oracles.homotopy_path(z, G, xi)[2] for z, xi in zip(Z.T, xis)]
        assert Z.shape[1] > csnc.lasso._LOCKSTEP and max(drops) > 0
        for cap in (2, 10_000):
            paths = lasso_paths(G, Z, xis, cap)
            assert any(p.steps == cap and not p.reached for p in paths) == (cap == 2)
            assert any(p.reached and p.steps > 0 for p in paths) and any(p.steps == 0 for p in paths)
            for b, path in enumerate(paths):
                assert_same_path(path, lasso_paths(G, Z[:, b:b + 1], xis[b:b + 1], cap)[0])

    def test_singular_system_stops_only_its_path(self, monkeypatch):
        # a batched solve raises for the whole stack; the singular system's path stops, the rest go on
        G, Z, xis = fixed_batch()
        target = 3
        first = lasso_paths(G, Z[:, target:target + 1], xis[target:target + 1], 2)[0]
        A = first.active
        block = np.array([(G[:, i] @ G)[A] for i in A])
        solve = np.linalg.solve

        def singular_at_block(a, b):
            stack = np.asarray(a).reshape(-1, *np.shape(a)[-2:])
            if any(m.shape == block.shape and np.array_equal(m, block) for m in stack):
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular_at_block)
        paths = lasso_paths(G, Z, xis)
        alone = [lasso_paths(G, Z[:, b:b + 1], xis[b:b + 1])[0] for b in range(Z.shape[1])]
        monkeypatch.undo()
        assert paths[target].steps == 2 and not paths[target].reached
        assert_same_path(paths[target], first)
        stopped = [b for b, path in enumerate(alone) if not path.reached]
        assert stopped and all(same_bits(paths[b].active[:2], A) for b in stopped)
        for path, want in zip(paths, alone):
            assert_same_path(path, want)
        prob = LassoProblem(Z[:, target], G, xis[target])
        assert solve_lasso(prob, path=paths[target]).converged is False

    def test_invalid_inputs(self):
        G, Z, xis = fixed_batch()
        bad = G.copy()
        bad[1, 2] = np.nan
        infinite = xis.copy()
        infinite[5] = np.inf
        for args in [(bad, Z, xis), (G, Z[:-1], xis), (G, Z, xis[:-1]), (G, Z, -xis), (G, Z[:, 0], xis[:1]),
                     (G, Z, infinite)]:
            with pytest.raises(ValueError):
                lasso_paths(*args)
        for cap in (0, [10_000] * Z.shape[1], np.full(Z.shape[1], 5)):  # one cap per block, not per column
            with pytest.raises(ValueError, match="max_iter"):
                lasso_paths(G, Z, xis, cap)


def fixed_batch():
    """A batch as path_batches draws them: 40 columns on a 12 x 30 design that mixes in and copies column 0."""
    _, G, _, _ = path_instance(7, 12, 30, 0.9, True, 1.0)
    Z = np.column_stack([path_instance(100 + s, 12, 30, 0.9, True, 1.0)[0] for s in range(40)])
    fracs = [0.01, 0.05, 0.2, 0.5] * 9 + [0.01, 0.3, 0.8, 1.0]
    xis = np.array([f * np.max(np.abs(G.T @ z)) / 12 for f, z in zip(fracs, Z.T)])
    return G, Z, xis


def wide_batch():
    """66 noisy 3-sparse columns on a 30 x 128 Gaussian design, near the acceptance config's shape and weight.

    With 30 rows, a product with a strided column of a block rounds differently
    from one with a contiguous column, so a block's layout would show.
    """
    rng = Seed(31).rng()
    G = rng.normal(size=(30, 128))
    M = np.zeros((128, 66))
    for b in range(66):
        M[rng.choice(128, 3, replace=False), b] = rng.uniform(1, 2, 3) * rng.choice([-1, 1], 3)
    return G, G @ M + rng.normal(0, 0.1, (30, 66)), np.full(66, default_xi(0.1, 30, 128))


def tall_batch():
    """40 noisy columns of 1-4 nonzeros on a tall 60 x 12 Gaussian design, with q > 3p + 2 rows.

    The weights run from 1% to 80% of each column's lam_max, so the paths
    stop at many active-set sizes.
    """
    rng = Seed(37).rng()
    G = rng.normal(size=(60, 12))
    M = np.zeros((12, 40))
    for b in range(40):
        k = 1 + b % 4
        M[rng.choice(12, k, replace=False), b] = rng.uniform(1, 2, k) * rng.choice([-1, 1], k)
    Z = G @ M + rng.normal(0, 0.3, (60, 40))
    fracs = [0.01, 0.05, 0.2, 0.5, 0.8] * 8
    return G, Z, np.array([f * np.max(np.abs(G.T @ z)) / 60 for f, z in zip(fracs, Z.T)])


class TestBlockExit:
    """decode_spatial finishes, certifies and refits a column as it does the column alone, bit for bit, in any block."""

    @pytest.mark.parametrize("batch", [fixed_batch, wide_batch, tall_batch])
    @pytest.mark.parametrize("size", [7, 32, 33])
    def test_block_equals_each_column_alone(self, batch, size):
        G, Z, xis = batch()
        # alone: a contiguous one-column block, where a block's column is strided
        alone = [decode_spatial(Z[:, [b]], G, xis[b:b + 1]) for b in range(Z.shape[1])]
        sizes = set()
        for start in range(0, Z.shape[1], size):
            coefs, sols = decode_spatial(Z[:, start:start + size], G, xis[start:start + size])
            for b, (coef, sol) in enumerate(zip(coefs, sols), start):
                [want], [want_sol] = alone[b]
                assert same_bits(coef, want) and same_bits(sol.coef, want_sol.coef)
                assert (sol.iterations, sol.converged, sol.kkt_residual) == (
                    want_sol.iterations, want_sol.converged, want_sol.kkt_residual)
                sizes.add(np.count_nonzero(sol.coef))
        assert len(sizes) > 2  # blocks mix finish and refit sizes

    @pytest.mark.parametrize("batch", [fixed_batch, wide_batch, tall_batch])
    def test_certificate_is_the_per_problem_score(self, monkeypatch, batch):
        # each solve packages its row of the block handed to the refit, with that row's
        # per-problem scores, the same as a bare solve's
        G, Z, xis = batch()
        handed, refit = [], csnc.lasso.debias_refit

        def spy(D, Z, coefs, gram=None):
            handed.append(coefs)
            return refit(D, Z, coefs, gram)

        monkeypatch.setattr(csnc.lasso, "debias_refit", spy)
        _, sols = decode_spatial(Z, G, xis)
        monkeypatch.undo()
        [coefs] = handed
        for b, sol in enumerate(sols):
            prob = LassoProblem(Z[:, b], G, xis[b])
            assert same_bits(sol.coef, coefs[b])
            assert (sol.objective, sol.kkt_residual) == oracles.scores(prob.z, prob.G, prob.xi, sol.coef)
            assert kkt_check(prob, sol.coef) == sol.kkt_residual
            bare = solve_lasso(prob)
            assert same_bits(sol.coef, bare.coef)
            assert (sol.objective, sol.kkt_residual, sol.converged) == (
                bare.objective, bare.kkt_residual, bare.converged)

    def test_capped_block_certificate(self):
        # paths stopped at the cap are scored at their iterate, as the same path stepped alone
        G, Z, xis = fixed_batch()
        paths = lasso_paths(G, Z, xis, max_iter=2)
        assert any(not path.reached for path in paths) and any(path.steps == 0 for path in paths)
        for b, path in enumerate(paths):
            prob = LassoProblem(Z[:, b], G, xis[b])
            sol = solve_lasso(prob, path=path)
            assert same_bits(sol.coef, path.gram.coefs[b])
            assert (sol.objective, sol.kkt_residual) == oracles.scores(prob.z, prob.G, prob.xi, sol.coef)
            alone = solve_lasso(prob, path=lasso_paths(G, Z[:, [b]], xis[[b]], max_iter=2)[0])
            assert same_bits(sol.coef, alone.coef)
            assert (sol.objective, sol.kkt_residual, sol.iterations, sol.converged) == (
                alone.objective, alone.kkt_residual, alone.iterations, alone.converged)
            assert sol.converged == (path.reached and sol.kkt_residual <= 10 * csnc.lasso.TOL)

    def test_singular_finish_marks_only_its_problem(self, monkeypatch):
        # the batched finish of one active-set size raises for the whole stack; only the singular
        # problem keeps its iterate, unconverged, and the others finish as they do unpatched
        G, Z, xis = fixed_batch()
        want_coefs, want = decode_spatial(Z, G, xis, debias=False)
        paths = lasso_paths(G, Z, xis)
        sizes = [len(path.active) if path.reached else 0 for path in paths]
        target = next(b for b, n in enumerate(sizes) if n and sizes.count(n) > 1)  # in a stack of its size
        A, s = paths[target].active, paths[target].signs
        block = np.array([(G[:, i] @ G)[A] for i in A])
        # the finish's right-hand side D_A^T z - q xi s, where a step's is the signs s
        rhs = oracles.correlations(G, Z[:, target])[A] - G.shape[0] * xis[target] * s
        solve = np.linalg.solve

        def singular_at_finish(a, b):
            stack = np.asarray(a).reshape(-1, *np.shape(a)[-2:])
            if any(m.shape == block.shape and np.array_equal(m, block) and np.array_equal(r, rhs)
                   for m, r in zip(stack, np.reshape(b, (len(stack), -1)))):
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        # the finish runs inside lasso_paths, so the patch holds for the whole decode
        monkeypatch.setattr(np.linalg, "solve", singular_at_finish)
        coefs, sols = decode_spatial(Z, G, xis, debias=False)
        alone = lasso_paths(G, Z[:, [target]], xis[[target]])[0]  # the iterate, its finish singular too
        monkeypatch.undo()
        assert not alone.reached and alone.steps == paths[target].steps and same_bits(alone.active, A)
        assert np.allclose(alone.coef, paths[target].coef, rtol=1e-9, atol=0.0)  # the path's point at xi
        iterate = np.zeros(G.shape[1])
        iterate[A] = alone.coef
        assert not sols[target].converged and same_bits(sols[target].coef, iterate)
        assert sols[target].iterations == paths[target].steps
        for b, (coef, sol) in enumerate(zip(coefs, sols)):
            if b != target:
                assert same_bits(coef, want_coefs[b]) and same_bits(sol.coef, want[b].coef)
                assert (sol.iterations, sol.converged, sol.kkt_residual) == (
                    want[b].iterations, want[b].converged, want[b].kkt_residual)
        assert solve_lasso(LassoProblem(Z[:, target], G, xis[target]), path=paths[target]).converged


class TestRefitFallback:
    """debias_refit keeps today's lstsq for a singular or ill-conditioned D_S^T D_S."""

    def test_singular_and_ill_conditioned_supports(self, monkeypatch):
        rng = Seed(17).rng()
        D = rng.normal(size=(20, 8))
        D[:, 5] = D[:, 1]  # duplicated support column: D_S^T D_S singular
        D[:, 6] = D[:, 2] + 1e-3 * rng.normal(size=20)  # near-collinear: condition number about 1e6
        coefs = np.zeros((3, 8))
        coefs[0, [1, 3, 5]] = 1.0
        coefs[1, [2, 4, 6]] = 1.0
        coefs[2, [0, 3, 7]] = 1.0  # well conditioned: the normal equations
        Z = D @ rng.normal(size=(8, 3)) + 0.01 * rng.normal(size=(20, 3))
        conds = [np.linalg.cond(D[:, np.flatnonzero(c)].T @ D[:, np.flatnonzero(c)]) for c in coefs]
        assert conds[0] > 1e14 and csnc.lasso.COND_MAX < conds[1] < 1e10 and conds[2] < 100
        calls, lstsq = [], np.linalg.lstsq

        def counting(*args, **kwargs):
            calls.append(args)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting)
        out = debias_refit(D, Z, coefs)
        monkeypatch.undo()
        assert len(calls) == 2
        for b in range(2):  # today's per-problem refit: lstsq on D_S, float dust cleared
            S = np.flatnonzero(coefs[b])
            sol, *_ = np.linalg.lstsq(D[:, S], Z[:, b], rcond=None)
            sol[np.abs(sol) < 1e-12 * np.max(np.abs(sol))] = 0.0
            assert same_bits(out[b, S], sol)
        for b in range(3):
            assert same_bits(out[b], oracles.refit(Z[:, b], D, coefs[b], csnc.lasso.COND_MAX))
            assert same_bits(out[b], debias_refit(D, Z[:, [b]], coefs[b:b + 1])[0])


class TestCertifiedByCall:
    """Every solution of a trial leaves through one csnc.lasso.solve_lasso call, where perfbench certifies it."""

    @pytest.mark.parametrize("cfg", [
        ExperimentConfig(SparsityProfile(128, 128, 4, 4), m=32, m1=32, m2=32, sigma=0.1, D=0.0025,
                         master_seed=Seed(20260808)),
        ExperimentConfig(SparsityProfile(32, 32, 2, 2), m=8, m1=13, m2=13, sigma=0.1, D=0.0025,
                         master_seed=Seed(20260808)),
    ], ids=["acceptance", "calibrate-small"])
    def test_trial_solves_in_order(self, monkeypatch, cfg):
        calls, decodes = [], []
        solve, decode = csnc.lasso.solve_lasso, csnc.harness.decode_all

        def spy(prob, *args, **kwargs):
            calls.append((prob, solve(prob, *args, **kwargs)))
            return calls[-1][1]

        def decode_spy(obs, *args, **kwargs):
            decodes.append((obs, decode(obs, *args, **kwargs)))
            return decodes[-1][1]

        monkeypatch.setattr(csnc.lasso, "solve_lasso", spy)
        monkeypatch.setattr(csnc.harness, "decode_all", decode_spy)
        run_trial(cfg, 0)
        monkeypatch.undo()
        per = cfg.m1 + cfg.profile.N
        assert len(decodes) == cfg.receivers and len(calls) == cfg.receivers * per
        for r, (obs, res) in enumerate(decodes):
            mine = calls[r * per:(r + 1) * per]
            # stage 1 solves time slice t on call t, stage 2 source i on call m1 + i
            wants = [(obs[:, t], res.mu_hat[:, t]) for t in range(cfg.m1)]
            wants += [(res.y_hat[:, i], res.theta_hat[i]) for i in range(cfg.profile.N)]
            for (prob, sol), (z, coef) in zip(mine, wants):
                assert same_bits(prob.z, z)
                assert same_bits(coef, sol.coef) or same_bits(coef, debias_refit(prob.G, prob.z[:, None], sol.coef[None])[0])
                assert type(sol.iterations) is int and sol.converged
