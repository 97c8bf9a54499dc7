"""Independent reference implementations used only as test oracles.

Nothing here may import solver internals from the package: these
routes must stay independent of the code paths they certify.
"""

import itertools
import math

import numpy as np


def lasso_objective(z, G, coef, xi):
    """The l1-regularized least-squares objective, written from its definition."""
    q = G.shape[0]
    r = z - G @ coef
    return 0.5 * float(r @ r) / q + xi * float(np.sum(np.abs(coef)))


def projected_subgradient_lasso(z, G, xi, max_iter=60_000, stall=1_500):
    """Reference LASSO solve by projected gradient on the split formulation.

    Writes y = u - v with u, v >= 0, which turns the objective into a
    smooth quadratic plus a linear term over the nonnegative orthant;
    projected (sub)gradient steps with a fixed 1/L step size then
    converge without any soft-threshold machinery.  Returns
    (best_coef, best_objective).
    """
    q, p = G.shape
    L = float(np.linalg.eigvalsh(G.T @ G / q)[-1])
    step = 1.0 / max(L, 1e-12)
    u = np.zeros(p)
    v = np.zeros(p)
    best = np.inf
    best_coef = np.zeros(p)
    since_best = 0
    for _ in range(max_iter):
        r = z - G @ (u - v)
        g = G.T @ r / q
        u = np.maximum(u - step * (xi - g), 0.0)
        v = np.maximum(v - step * (xi + g), 0.0)
        obj = lasso_objective(z, G, u - v, xi)
        if obj < best - 1e-15:
            best = obj
            best_coef = u - v
            since_best = 0
        else:
            since_best += 1
            if since_best >= stall:
                break
    return best_coef, best

def orthonormal_design(p, rng, scale=None):
    """A p x p design with G^T G = q I (q = p), via the QR of a Gaussian draw."""
    Q, R = np.linalg.qr(rng.normal(size=(p, p)))
    Q = Q * np.sign(np.diag(R))[None, :]
    return Q * np.sqrt(p if scale is None else scale)


def cone_vector(dim, support, alpha, seed):
    """One random unit vector of the cone C(S; alpha), drawn from seed's generator.

    The on-support block is i.i.d. normal, then the off-support block; a
    uniform slack s then scales the off block to l1 norm s * alpha * ||y_S||_1.
    """
    rng = seed.rng()
    S = sorted(set(support))
    comp = [j for j in range(dim) if j not in S]
    y = np.zeros(dim)
    y[S] = rng.normal(size=len(S))
    if not np.any(y[S]):
        y[S[0]] = 1.0
    if comp:
        off = rng.normal(size=len(comp))
        budget = rng.uniform() * alpha * np.sum(np.abs(y[S]))
        y[comp] = off * (budget / np.sum(np.abs(off)))
    return y / np.linalg.norm(y)


def design_ratio(G, y):
    """(1/q) ||G y||^2 / ||y||^2."""
    Gy = G @ y
    return float(Gy @ Gy) / G.shape[0] / float(y @ y)


def on_support_floor(G, support):
    """Exact minimum of the design ratio over vectors supported on S."""
    sub = G[:, sorted(support)]
    return float(np.linalg.eigvalsh(sub.T @ sub / G.shape[0])[0])


def re_estimate_loop(G, sparsity, alpha, num_supports, num_vectors, seed):
    """Per-support RE levels, one cone vector at a time.

    Supports are all of them when p <= 20 and num_supports covers them,
    else num_supports draws from seed.child(0); support s's vector i comes
    from seed.child(1, s).child(i).  Returns (support, level, i) per
    support, i being the sampled vector that set the level, or None when
    the on-support floor did.
    """
    p = G.shape[1]
    if p <= 20 and num_supports >= math.comb(p, sparsity):
        supports = list(itertools.combinations(range(p), sparsity))
    else:
        rng = seed.child(0).rng()
        supports = [tuple(sorted(rng.choice(p, size=sparsity, replace=False))) for _ in range(num_supports)]
    rows = []
    for s, S in enumerate(supports):
        level, arg = on_support_floor(G, S), None
        for i in range(num_vectors):
            r = design_ratio(G, cone_vector(p, S, alpha, seed.child(1, s).child(i)))
            if r < level:
                level, arg = r, i
        rows.append((tuple(S), level, arg))
    return rows


def cascade_loop(G, C1, C2, support, alpha, num_vectors, seed, tol=1e-10):
    """The cascade battery one cone vector at a time, from the two inequalities.

    LEFT:  ||C1 G y||^2 >= lam1^2 ||G y||^2 for every sampled y.
    RIGHT: (1/q) ||G C2 y||^2 >= gamma lam2^2 ||y||^2 when C2 y is in the cone,
    gamma being the least design ratio over the on-support floor, the
    samples and their in-cone images.  A margin is (lhs - rhs) / rhs.
    """
    q, p = G.shape
    lam1 = np.linalg.svd(C1, compute_uv=False)[-1]
    lam2 = np.linalg.svd(C2, compute_uv=False)[-1]
    S = sorted(set(support))
    comp = [j for j in range(p) if j not in S]
    ys = [cone_vector(p, S, alpha, seed.child(i)) for i in range(num_vectors)]
    images = [C2 @ y for y in ys]
    members = [alpha * np.sum(np.abs(v[S])) - np.sum(np.abs(v[comp])) >= 0 for v in images]
    gamma = min([on_support_floor(G, S)] + [design_ratio(G, y) for y in ys]
                + [design_ratio(G, v) for v, ok in zip(images, members) if ok and v @ v > 0])
    margins_left, margins_right = [], []
    for y, v, ok in zip(ys, images, members):
        Gy = G @ y
        rhs = lam1**2 * (Gy @ Gy) / q
        margins_left.append(((C1 @ Gy) @ (C1 @ Gy) / q - rhs) / max(rhs, 1e-300))
        if ok:
            Gv = G @ v
            rhs = gamma * lam2**2 * (y @ y)
            margins_right.append(((Gv @ Gv) / q - rhs) / max(rhs, 1e-300))
    return {
        "violations_left": sum(m < -tol for m in margins_left),
        "violations_right": sum(m < -tol for m in margins_right),
        "membership_skipped": members.count(False),
        "worst_margin": min(margins_left + margins_right),
        "lambda1": lam1,
        "lambda2": lam2,
        "gamma_used": gamma,
    }


def homotopy_path(z, G, xi, max_iter=10_000, tol=1e-8):
    """The LASSO homotopy as first written, one numpy call per formula.

    The same path as the package's solver (Osborne, Presnell & Turlach
    2000): from the null solution at lam_max, step to the nearest event
    (a column joins, a coefficient crosses zero) or to xi, then finish on
    the final active set from the Gram rows (see finish).  Kept as the
    per-step reference the solver must match bit for bit.  Returns (coef,
    steps, drops, converged, active), active being the final active
    columns in join order.
    """
    q, p = G.shape
    coef = np.zeros(p)
    active = np.zeros(0, dtype=int)
    signs = np.zeros(0)
    lam = float(np.max(np.abs(G.T @ z))) / q
    barred = None
    steps = drops = 0
    reached = lam <= xi
    try:
        while not reached and steps < max_iter:
            GA = G[:, active]
            d = q * np.linalg.solve(GA.T @ GA, signs)
            c, a = (G.T @ np.column_stack([z - GA @ coef[active], GA @ d]) / q).T
            with np.errstate(divide="ignore", invalid="ignore"):
                up = np.where(1.0 - a > 1e-10, (lam - c) / (1.0 - a), np.inf)
                down = np.where(1.0 + a > 1e-10, (lam + c) / (1.0 + a), np.inf)
                cross = np.where(coef[active] * d < 0, -coef[active] / d, np.inf)
            join = np.maximum(np.minimum(up, down), 0.0)
            join[active] = np.inf
            if barred is not None:
                join[barred] = np.inf
            j = int(np.argmin(join))
            end = lam - xi
            step = min(end, join[j], cross.min(initial=np.inf))
            coef[active] += step * d
            lam -= step
            steps += 1
            barred = None
            if step == end:
                reached = True
            elif step == join[j]:
                active = np.append(active, j)
                signs = np.append(signs, 1.0 if up[j] <= down[j] else -1.0)
            else:
                k = int(np.argmin(cross))
                barred = active[k]
                coef[barred] = 0.0
                active = np.delete(active, k)
                signs = np.delete(signs, k)
                drops += 1
        if reached and len(active):
            coef[active] = finish(z, G, xi, active, signs)
    except np.linalg.LinAlgError:
        reached = False
    g = G.T @ (G @ coef - z) / q
    on = coef != 0
    kkt = max(float(np.max(np.abs(g[on] + xi * np.sign(coef[on])), initial=0.0)),
              float(np.max(np.maximum(np.abs(g[~on]) - xi, 0.0), initial=0.0)))
    return coef, steps, drops, reached and kkt <= 10.0 * tol, active.tolist()


def scores(z, G, xi, coef):
    """The objective of coef and its KKT residual, both from one residual z - G coef, one problem at a time.

    The per-problem certificate the solver's block certificate must match
    bit for bit: the gradient is (1/q) G^T (-r); an active coordinate
    violates stationarity by |g_j + xi sign(coef_j)|, an inactive one by
    |g_j| - xi, and the residual is the worst violation, floored at 0.
    """
    q = G.shape[0]
    r = z - G @ coef
    g = G.T @ -r / q
    viol = np.where(coef != 0, np.abs(g + xi * np.sign(coef)), np.abs(g) - xi)
    objective = float(0.5 * (r @ r) / q + xi * np.sum(np.abs(coef)))
    return objective, max(float(viol.max()), 0.0)


def gram_block(G, cols):
    """G_S^T G_S, each row built as G[:, j] @ G, the way the solver builds it."""
    return np.array([G[:, j] @ G for j in cols])[:, cols]


def correlations(G, z):
    """G^T z from a contiguous copy of z: a strided z rounds differently."""
    return G.T @ np.array(z, dtype=float)


def finish(z, G, xi, active, signs):
    """The stationarity conditions at xi on the final active set, G_A^T G_A y = G_A^T z - q xi s, solved."""
    return np.linalg.solve(gram_block(G, active), correlations(G, z)[active] - G.shape[0] * xi * signs)


def refit(z, D, coef, cond_max):
    """Least squares on coef's nonzero columns S by the normal equations D_S^T D_S x = D_S^T z.

    A singular D_S^T D_S, or one whose condition number (from eigvalsh) is
    above cond_max, is refit by lstsq on D_S instead.  Refit values below
    1e-12 of the peak are cleared.
    """
    out = np.zeros_like(coef)
    S = np.flatnonzero(coef)
    if S.size:
        H = gram_block(D, S)
        lam = np.linalg.eigvalsh(H)
        try:
            if not (lam[0] > 0 and lam[-1] <= cond_max * lam[0]):
                raise np.linalg.LinAlgError("ill-conditioned")
            sol = np.linalg.solve(H, correlations(D, z)[S])
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(D[:, S], z, rcond=None)
        sol[np.abs(sol) < 1e-12 * np.max(np.abs(sol), initial=0.0)] = 0.0
        out[S] = sol
    return out


def decode_loop(receiver_obs, G, B, Psi, Phi, A, sigma, truth_X=None, proj_truth=None,
                debias=True, run_temporal=True, cond_max=1e4):
    """Both decode stages one problem at a time, each building its own design.

    Stage 1 solves column t of receiver_obs on G diag(B[t]) Psi with the
    weight of the noise level sigma; stage 2 solves row i of y_hat on
    A Phi with a per-source weight from the truth residual
    rms(y_hat_i - A X_i) when truth_X is given, or else from the median
    stage-1 fit residual.  With debias, each solution is refit on its
    support (see refit, whose lstsq bound is cond_max).
    Returns (mu_hat, y_hat, theta_hat, x_hat, distortion or None,
    converged).
    """
    def weight(sigma, q, p):
        return max(2.0 * sigma * math.sqrt(2.0 * math.log(p) / q), 1e-12)

    obs = receiver_obs
    N, n, m1 = Psi.shape[0], Phi.shape[0], obs.shape[1]
    xi_spatial = weight(sigma, G.shape[0], N)
    mu_hat, y_hat = np.zeros((N, m1)), np.zeros((m1, N))
    converged, fit_rms = True, []
    for t in range(m1):
        b = np.asarray(B[t], dtype=float)
        D = (G * b[None, :]) @ Psi
        mu, _, _, ok, _ = homotopy_path(obs[:, t], D, xi_spatial)
        if debias:
            mu = refit(obs[:, t], D, mu, cond_max)
        mu_hat[:, t], y_hat[t] = mu, Psi @ mu
        converged = converged and ok
        fit_rms.append(np.linalg.norm(obs[:, t] - (G * b[None, :]) @ y_hat[t]) / math.sqrt(max(1, obs.shape[0])))
    theta_hat, x_hat = np.zeros((N, n)), np.zeros((N, n))
    residual_rms = None
    if truth_X is not None:
        if proj_truth is None:
            proj_truth = A @ truth_X.T
        residual_rms = np.array(
            [np.linalg.norm(y_hat[:, i] - proj_truth[:, i]) / math.sqrt(max(m1, 1)) for i in range(N)]
        )
    if run_temporal:
        for i in range(N):
            if residual_rms is not None:
                xi_i = weight(residual_rms[i], m1, n)
            else:
                xi_i = weight(float(np.median(fit_rms)), m1, n)
            D = A @ Phi
            theta, _, _, ok, _ = homotopy_path(y_hat[:, i], D, xi_i)
            if debias:
                theta = refit(y_hat[:, i], D, theta, cond_max)
            theta_hat[i], x_hat[i] = theta, Phi @ theta
            converged = converged and ok
    distortion = None if truth_X is None else np.sum((truth_X - x_hat) ** 2, axis=1) / n
    return mu_hat, y_hat, theta_hat, x_hat, distortion, converged


def verify_loop(X, Phi, Psi, k1, k2, sparsity_tol=None, num_random_functionals=10, seed=None):
    """Both sparsity assumptions of X checked one coefficient vector at a time.

    theta_i = Phi^{-1} X_i for every source, and mu = Psi^{-1} (X a) for
    every coordinate functional a and num_random_functionals normal ones
    drawn from seed's generator.  An entry is heavy above sparsity_tol
    (default 1e-8 times the largest magnitude of its family, at least
    1e-8).  Returns (temporal_ok, spatial_ok, worst_residual), the worst
    relative residual of a family's vectors with their heavy entries
    dropped.
    """
    N, n = X.shape
    Theta = np.linalg.solve(Phi, X.T)
    rng = seed.rng()
    Amat = np.column_stack([np.eye(n)[:, t] for t in range(n)]
                           + [rng.normal(size=n) for _ in range(num_random_functionals)])
    Mu = np.linalg.solve(Psi, X @ Amat)

    def check(coeffs, k, originals, basis):
        if sparsity_tol is not None:
            tol = sparsity_tol
        else:
            tol = 1e-8 * max(np.max(np.abs(coeffs)), 1.0)
        ok, worst = True, 0.0
        for j in range(coeffs.shape[1]):
            c = coeffs[:, j]
            heavy = np.abs(c) > tol
            if np.count_nonzero(heavy) > k:
                ok = False
            resid = basis @ (c * ~heavy)
            worst = max(worst, np.linalg.norm(resid) / max(1.0, np.linalg.norm(originals[:, j])))
        return ok, worst

    temporal_ok, worst_t = check(Theta, k1, X.T, Phi)
    spatial_ok, worst_s = check(Mu, k2, X @ Amat, Psi)
    return temporal_ok, spatial_ok, max(worst_t, worst_s)
