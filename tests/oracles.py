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
