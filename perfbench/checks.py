"""Independent checks of csnc outputs, written against numpy alone.

Nothing here imports csnc: every quantity is recomputed from its
definition (the LASSO optimality conditions, the distortion and budget
formulas, singular values, the cone inequalities), so a fault in the
program cannot also hide in the check.  Each function returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

# Relative slack for comparing a reported float with its recomputation
# from the same inputs: the two differ only by rounding order.
REL = 1e-9


def close(a: float, b: float, rel: float = REL, abs_: float = 0.0) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


def kkt_residual(G, z, xi, coef) -> float:
    """Worst violation of the LASSO optimality conditions for (1/2q)||z - G c||^2 + xi ||c||_1.

    With g = (1/q) G^T (G c - z): an active coordinate needs
    g_j = -xi sign(c_j), an inactive one |g_j| <= xi.
    """
    G = np.asarray(G, dtype=float)
    c = np.asarray(coef, dtype=float)
    q = G.shape[0]
    g = G.T @ (G @ c - np.asarray(z, dtype=float)) / q
    on = c != 0
    worst = 0.0
    if on.any():
        worst = float(np.max(np.abs(g[on] + xi * np.sign(c[on]))))
    if (~on).any():
        worst = max(worst, float(np.max(np.abs(g[~on]))) - xi)
    return max(worst, 0.0)


def check_certificate(G, z, xi, coef, tol) -> tuple[float, list[str]]:
    """A solve reported converged must meet the certificate KKT <= 10 * tol.

    The slack of 1e-12 absorbs rounding between two evaluations of the
    same gradient; it is five orders below the certificate.
    """
    r = kkt_residual(G, z, xi, coef)
    if not r <= 10.0 * tol + 1e-12:
        return r, [f"certified solve has KKT residual {r:.3g} > 10*tol = {10 * tol:.3g}"]
    return r, []


def per_source_distortion(truth_X, x_hat) -> np.ndarray:
    """(1/n) ||X_i - x_hat_i||^2 for every source row i."""
    X = np.asarray(truth_X, dtype=float)
    return np.sum((X - np.asarray(x_hat, dtype=float)) ** 2, axis=1) / X.shape[1]


def check_distortion(reported, truth_X, x_hat) -> list[str]:
    want = per_source_distortion(truth_X, x_hat)
    got = np.asarray(reported, dtype=float)
    if got.shape != want.shape or not np.allclose(got, want, rtol=REL, atol=1e-300):
        return ["reported per-source distortion differs from (1/n)||X_i - x_hat_i||^2"]
    return []


def stage1_median_sq_err(y_hats, proj_truths) -> float:
    """Median over all time indices of ||Y^t - Yhat^t||^2, pooled over receivers."""
    errs = [np.sum((np.asarray(yh) - np.asarray(Y)) ** 2, axis=1) for yh, Y in zip(y_hats, proj_truths)]
    return float(np.median(np.concatenate(errs)))


def theorem_c_use(c, k1, k2, n, N, m, sigma, D) -> float:
    """Network-use budget of the theorem: c k1 k2 ln(n) ln(N) / m * sigma^2 / D."""
    return c * k1 * k2 * math.log(n) * math.log(N) / m * sigma**2 / D


def naive_baseline(n, N, m, sigma, D) -> float:
    """Correlation-blind network uses (nN/m) log2(sigma^2 / D), floored at 0."""
    return max((n * N / m) * math.log2(sigma**2 / D), 0.0)


def check_budget(reported_c_use, c, k1, k2, n, N, m, sigma, D) -> list[str]:
    want = theorem_c_use(c, k1, k2, n, N, m, sigma, D)
    if not close(reported_c_use, want):
        return [f"budget {reported_c_use!r} differs from the theorem formula {want!r} at c={c!r}"]
    return []


def check_baseline(reported, n, N, m, sigma, D) -> list[str]:
    want = naive_baseline(n, N, m, sigma, D)
    if not close(reported, want):
        return [f"naive baseline {reported!r} differs from (nN/m) log2(sigma^2/D) = {want!r}"]
    return []


def check_bisection(c, evaluations, passes, resolution) -> list[str]:
    """The returned c passed, and some failing evaluation lies within `resolution` below it.

    evaluations: (c, m1, m2, fraction) rows; passes(fraction) is the
    acceptance rule the calibration used.
    """
    problems = []
    passed_at_c = [f for ce, _, _, f in evaluations if ce == c]
    if not passed_at_c or not passes(passed_at_c[-1]):
        problems.append(f"returned c={c!r} has no passing evaluation")
    below = [ce for ce, _, _, f in evaluations if ce < c and not passes(f)]
    if not below or c / max(below) > resolution * (1 + REL):
        problems.append(f"no failing evaluation within a factor {resolution} below c={c!r}")
    return problems


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against xs (xs already on a log scale)."""
    x = np.asarray(xs, dtype=float)
    y = np.log(np.asarray(ys, dtype=float))
    xc = x - x.mean()
    return float(xc @ (y - y.mean()) / (xc @ xc))


def min_singular_value(M) -> float:
    return float(np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)[-1])


def rank(M, tol=1e-10) -> int:
    sv = np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)
    return int(np.count_nonzero(sv > tol * sv[0]))


def cone_vectors(dim, support, alpha, count, rng) -> np.ndarray:
    """count random unit vectors (rows) inside C(S; alpha), off-support mass uniform in [0, alpha]."""
    S = np.asarray(support)
    off_mask = np.ones(dim, dtype=bool)
    off_mask[S] = False
    Y = np.zeros((count, dim))
    Y[:, S] = rng.normal(size=(count, S.size))
    off = rng.normal(size=(count, int(off_mask.sum())))
    budget = rng.uniform(size=count) * alpha * np.abs(Y[:, S]).sum(axis=1)
    Y[:, off_mask] = off * (budget / np.abs(off).sum(axis=1))[:, None]
    return Y / np.linalg.norm(Y, axis=1)[:, None]


def check_cascade_left(G, C1, lam1, ys) -> list[str]:
    """LEFT cascade inequality (1/q)||C1 G y||^2 >= lam1^2 (1/q)||G y||^2, lam1 = sigma_min(C1)."""
    problems = []
    want = min_singular_value(C1)
    if not close(lam1, want):
        problems.append(f"reported sigma_min(C1) {lam1!r} differs from the SVD value {want!r}")
    GY = np.asarray(G) @ np.asarray(ys).T
    lhs = np.sum((np.asarray(C1) @ GY) ** 2, axis=0)
    rhs = want**2 * np.sum(GY**2, axis=0)
    bad = int(np.count_nonzero(lhs < rhs * (1 - 1e-10)))
    if bad:
        problems.append(f"LEFT cascade inequality fails on {bad} independent cone vectors")
    return problems


def on_support_floor(G, support) -> float:
    """Smallest eigenvalue of (1/q) G_S^T G_S: the exact minimum over vectors supported on S."""
    G = np.asarray(G, dtype=float)
    sub = G[:, list(support)]
    return float(np.linalg.eigvalsh(sub.T @ sub / G.shape[0])[0])


def check_re_upper_estimate(G, gamma_hat, witness, witness_support, alpha, per_support) -> list[str]:
    """An upper estimate of the RE level must be attained by a cone vector and sit below
    the exact on-support minimum of every support it searched."""
    G = np.asarray(G, dtype=float)
    q = G.shape[0]
    v = np.asarray(witness, dtype=float)
    problems = []
    ratio = float(np.sum((G @ v) ** 2) / q / (v @ v))
    if not close(ratio, gamma_hat):
        problems.append(f"witness ratio {ratio!r} differs from gamma_hat {gamma_hat!r}")
    S = list(witness_support)
    off = np.ones(v.size, dtype=bool)
    off[S] = False
    margin = alpha * np.abs(v[S]).sum() - np.abs(v[off]).sum()
    if margin < -1e-12 * np.abs(v).sum():
        problems.append(f"witness lies outside the cone (margin {margin:.3g})")
    if not close(gamma_hat, min(g for _, g in per_support)):
        problems.append("gamma_hat is not the minimum of the per-support levels")
    for sup, g in per_support:
        floor = on_support_floor(G, sup)
        if g > floor + REL * abs(floor):
            problems.append(f"support {sup}: level {g!r} above its exact on-support minimum {floor!r}")
            break
    return problems
