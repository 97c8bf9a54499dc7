"""l1-regularized least-squares decoding.

The solver minimizes

    f(y) = (1/2q) ||z - G y||_2^2 + xi * ||y||_1

exactly, by following its piecewise-linear solution path from the null
solution down to the weight xi (homotopy).  A solution is reported
converged only when the path reached xi AND the KKT stationarity
residual is at most 10 * tol, which makes the convergence flag a
checkable certificate.

On top of the solver sit the two decoding stages of the pipeline: a
spatial decode per time index (design G B Psi) and a temporal decode
per source (design A Phi), one stage function on a prebuilt design,
plus decode_all, which builds a receiver's designs once and runs both
stages over its whole observation block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mathcore import as_matrix, as_vector

_GRAM_ROWS = 8  # Gram rows solve_lasso allocates first; it doubles them when the active set outgrows them


@dataclass
class LassoProblem:
    """One l1-regularized least-squares instance.

    z: observation vector, length q.
    G: design matrix, q x p.
    xi: regularization weight, > 0.
    """

    z: np.ndarray
    G: np.ndarray
    xi: float

    def __post_init__(self):
        self.G = as_matrix(self.G, "design")
        self.z = as_vector(self.z, "observations")
        if self.z.shape[0] != self.G.shape[0]:
            raise ValueError("observation length must match design rows")
        if not self.xi > 0:
            raise ValueError("xi must be positive")

    @property
    def q(self) -> int:
        return self.G.shape[0]

    @property
    def p(self) -> int:
        return self.G.shape[1]


@dataclass
class LassoSolution:
    """A solve's coefficients, objective, KKT residual, path steps taken and certificate."""

    coef: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int
    converged: bool


def kkt_check(prob: LassoProblem, coef) -> float:
    """Maximum stationarity violation of coef for prob.

    For each coordinate j with gradient g_j = (1/q) G_j^T (G coef - z):
    active coordinates must satisfy g_j = -xi sign(coef_j), inactive
    ones |g_j| <= xi.  Returns the worst violation (0 at an optimum).
    """
    c = as_vector(coef, "coef")
    if c.shape[0] != prob.p:
        raise ValueError("coef length must match design columns")
    return _scores(prob, c)[1]


def _scores(prob: LassoProblem, coef) -> tuple[float, float]:
    """The objective of coef and its KKT residual (see kkt_check), both from one residual z - G coef."""
    r = prob.z - prob.G @ coef
    g = prob.G.T @ -r / prob.q
    viol = np.where(coef != 0, np.abs(g + prob.xi * np.sign(coef)), np.abs(g) - prob.xi)
    objective = float(0.5 * (r @ r) / prob.q + prob.xi * np.sum(np.abs(coef)))
    return objective, max(float(viol.max()), 0.0)


def default_xi(sigma_hat: float, q: int, p: int) -> float:
    """High-probability regularization weight 2 sigma sqrt(2 ln p / q) (Bickel, Ritov & Tsybakov 2009).

    Floored at 1e-12 so the objective stays well-posed when sigma_hat = 0.
    """
    if sigma_hat < 0:
        raise ValueError("sigma_hat must be nonnegative")
    if q < 1 or p < 2:
        raise ValueError("need q >= 1 and p >= 2")
    return max(2.0 * sigma_hat * math.sqrt(2.0 * math.log(p) / q), 1e-12)


def solve_lasso(prob: LassoProblem, max_iter: int = 10_000, tol: float = 1e-8) -> LassoSolution:
    """Exact solve by following the piecewise-linear solution path in lam.

    The path starts from the null solution at lam_max = max|c|, c being
    the correlations (1/q) G^T z.  Along each piece the active columns
    A, with signs s, hold their correlations c_A = (1/q) G_A^T (z - G y)
    at exactly lam * s, so y_A moves along d = H_AA^{-1} s as lam falls,
    with H = (1/q) G^T G, and every correlation moves along a = d H_A.
    A piece ends at the nearest event: an inactive correlation reaches
    +-lam (the column joins) or an active coefficient reaches zero (it
    leaves).  At xi the coefficients are solved once more on G_A, with
    the final active set and sign pattern (Osborne, Presnell & Turlach
    2000; Efron et al. 2004).

    The path is stepped in Gram-row form: c is formed once, and the row
    H_j = (1/q) G_j^T G of a column is formed when it joins and dropped
    when it leaves, so a step costs one |A| x |A| solve and one
    |A| x p product.  The first piece is the zero-length step at which
    the column of largest |c_j| joins with sign(c_j); it counts as a
    path step.  Only the events depend on how the path is stepped: the
    finish on G_A is the same, so a certified solve that meets the same
    events returns the same coefficients to the bit.

    Args:
        prob: the instance to solve.
        max_iter: cap on path steps.
        tol: certificate level: converged means the path reached xi
            and kkt_check <= 10 * tol.

    A solve that hits max_iter, meets a singular active system or fails
    the certificate returns its iterate with converged=False; none of
    these is an error.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not (tol > 0):
        raise ValueError("tol must be positive")
    G, z, q, p, xi = prob.G, prob.z, prob.q, prob.p, prob.xi
    coef = np.zeros(p)
    # row 0 holds c and row 1 -c, so that both join bounds lam -+ c over 1 -+ a are one 2 x p expression
    C = np.empty((2, p))
    C[0] = G.T @ z / q
    np.negative(C[0], out=C[1])
    top = np.abs(C[0])
    j = int(top.argmax())
    lam = float(top[j])
    reached = lam <= xi
    # the first k entries: active columns in join order, their signs, coefficients and
    # Gram rows H[i] = (1/q) G_j^T G; H starts small and doubles when full
    active, signs, coef_a = np.empty(p, dtype=np.intp), np.empty(p), np.empty(p)
    H = np.empty((_GRAM_ROWS, p))
    k = steps = 0
    if not reached:  # first piece: the top column j joins at lam_max itself
        active[0], signs[0], coef_a[0] = j, 1.0 if C[0, j] > 0 else -1.0, 0.0
        H[0] = G[:, j] @ G / q
        k = steps = 1
    Ad = np.empty((2, p))  # a and -a
    num, den, ratio = np.empty((2, p)), np.empty((2, p)), np.empty((2, p))
    movable = np.empty((2, p), dtype=bool)
    join = np.empty(p)
    barred = None  # the column that just left may not rejoin on the next step
    try:
        while not reached and steps < max_iter:
            A, ca = active[:k], coef_a[:k]
            d = np.linalg.solve(H[:k, A], signs[:k])
            np.matmul(d, H[:k], out=Ad[0])
            np.negative(Ad[0], out=Ad[1])
            # after a step g an inactive c_j - g a_j meets lam - g or -(lam - g);
            # one moving (almost) parallel to the bound, such as a copy of an
            # active column, never joins, and one past it by rounding joins at once
            np.subtract(lam, C, out=num)
            np.subtract(1.0, Ad, out=den)
            np.greater(den, 1e-10, out=movable)
            ratio.fill(np.inf)
            np.divide(num, den, out=ratio, where=movable)
            np.maximum(ratio.min(axis=0, out=join), 0.0, out=join)
            join[A] = np.inf
            if barred is not None:
                join[barred] = np.inf
            j = int(join.argmin())
            cross = np.divide(-ca, d, out=np.full(k, np.inf), where=ca * d < 0)
            end = lam - xi
            step = min(end, join[j], cross.min(initial=np.inf))
            ca += step * d
            C -= step * Ad
            lam -= step
            steps += 1
            barred = None
            if step == end:
                reached = True
            elif step == join[j]:
                if k == H.shape[0]:
                    H = np.concatenate([H, np.empty_like(H)])
                H[k] = G[:, j] @ G / q
                active[k], signs[k], coef_a[k] = j, 1.0 if ratio[0, j] <= ratio[1, j] else -1.0, 0.0
                k += 1
            else:
                i = int(cross.argmin())
                barred = int(active[i])
                for buf in (active, signs, coef_a, H):
                    buf[i:k - 1] = buf[i + 1:k]
                k -= 1
        if reached:
            GA = G[:, active[:k]]
            coef[active[:k]] = np.linalg.solve(GA.T @ GA, GA.T @ z - q * xi * signs[:k])
    except np.linalg.LinAlgError:
        reached = False
    if not reached:
        coef[active[:k]] = coef_a[:k]
    objective, kkt = _scores(prob, coef)
    return LassoSolution(coef, objective, kkt, steps, reached and kkt <= 10.0 * tol)


def debias_refit(prob: LassoProblem, coef) -> np.ndarray:
    """Least-squares refit of coef on its recovered support in prob.

    The nonzero coordinates are refit by unregularized least squares on
    the corresponding columns of prob.G against prob.z; the rest are set
    to exactly zero.  Removes the l1 shrinkage bias.  LassoProblem has
    checked G and z already, and coef is a solve's length-p vector.
    Refit values below 1e-12 of the peak are numerical zeros (columns
    the least squares assigned only float dust) and are cleared.
    """
    out = np.zeros_like(coef)
    S = np.flatnonzero(coef)
    if S.size:
        sol, *_ = np.linalg.lstsq(prob.G[:, S], prob.z, rcond=None)
        sol[np.abs(sol) < 1e-12 * np.max(np.abs(sol), initial=0.0)] = 0.0
        out[S] = sol
    return out


@dataclass
class DecodeResult:
    """Both decoding stages for one receiver observation block.

    mu_hat: N x m1, column t = recovered spatial coefficients at time t.
    y_hat: m1 x N, row t = Psi @ mu_hat[:, t].
    theta_hat: N x n, row i = recovered temporal coefficients of source i.
    x_hat: N x n, row i = Phi @ theta_hat[i].
    per_source_distortion: length N, (1/n) ||X_i - x_hat_i||^2; None
        when no ground truth was supplied.
    """

    mu_hat: np.ndarray
    y_hat: np.ndarray
    theta_hat: np.ndarray
    x_hat: np.ndarray
    per_source_distortion: np.ndarray | None = None
    spatial_converged: bool = True
    temporal_converged: bool = True


def decode_spatial(z, D, xi, debias=True):
    """One decode stage: recover coef from z ~ D coef; returns (coef, solution).

    D is a prebuilt design, which decode_all builds once per design it
    shares.  Stage 1 decodes the time slice Z^t on G diag(b_t) Psi,
    giving mu; stage 2, decode_temporal, the same function, decodes row
    i of y_hat on A Phi, giving theta; direct_recovery_trial decodes on
    a bare transfer matrix.  Solves the LASSO with q = len(z) and, when
    debias, refits the recovered support by debias_refit.  Both calls go
    through this module's names solve_lasso and debias_refit.
    """
    prob = LassoProblem(z, D, xi)
    sol = solve_lasso(prob)
    return (debias_refit(prob, sol.coef) if debias else sol.coef), sol


decode_temporal = decode_spatial


def decode_all(
    receiver_obs,
    G,
    patterns,
    Psi,
    Phi,
    A,
    xi_spatial,
    truth_X=None,
    proj_truth=None,
    debias=True,
    run_temporal=True,
):
    """Run both decoder stages over an m2 x m1 receiver observation block.

    Each design is built once: the stage-1 design G diag(b_t) Psi only
    when pattern t differs from pattern t-1, and the stage-2 design
    A Phi once for all N sources.  The stage-2 weight of source i is
    default_xi of a stage-1 error level: rms(y_hat_i - A X_i) when
    truth_X is given, else the median stage-1 fit residual
    rms(Z^t - G diag(b_t) y_hat^t), shared by all sources.

    Args:
        receiver_obs: m2 x m1 matrix, column t = the observations Z^t.
        G: m2 x N transfer matrix of this receiver.
        patterns: length-m1 sequence of 0/1 on-off diagonals (length N),
            such as the m1 x N matrix whose row t is pattern t.
        Psi, Phi: spatial (N x N) and temporal (n x n) dictionaries.
        A: m1 x n projection matrix shared by all sources.
        xi_spatial: stage-1 regularization weight.
        truth_X: optional N x n ground-truth sample matrix; enables the
            per-source distortion report and the truth-driven weight.
        proj_truth: optional m1 x N matrix of the true projected samples
            (column i = A X_i); recomputed from truth_X when omitted.
        debias: least-squares refit on each recovered support.
        run_temporal: skip the per-source temporal stage when False
            (stage-1 scaling experiments); theta_hat and x_hat stay zero
            and the distortion report is that of the zero reconstruction.

    m1 = 0 is allowed and yields an empty result.
    """
    obs = np.asarray(receiver_obs, dtype=np.float64)
    if obs.ndim != 2:
        raise ValueError("receiver_obs must be 2-D (m2 x m1)")
    G = as_matrix(G, "G")
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError("A must be the 2-D m1 x n projection matrix")
    Psi = as_matrix(Psi, "Psi")
    Phi = as_matrix(Phi, "Phi")
    N = Psi.shape[0]
    n = Phi.shape[0]
    m1 = obs.shape[1]
    if len(patterns) != m1:
        raise ValueError("need one on-off pattern per time index")
    patterns = [as_vector(b, "pattern") for b in patterns]
    if any(G.shape[1] != b.shape[0] or N != b.shape[0] for b in patterns):
        raise ValueError("pattern length must match G columns and Psi rows")
    if truth_X is not None:
        truth_X = as_matrix(truth_X, "truth_X")
    stage2 = m1 > 0 and run_temporal
    fallback = stage2 and truth_X is None  # weight from the fit residuals

    mu_hat = np.zeros((N, m1))
    y_hat = np.zeros((m1, N))
    spatial_ok = True
    fit_rms = []
    for t, b in enumerate(patterns):
        if t == 0 or not np.array_equal(b, patterns[t - 1]):
            GB = G * b[None, :]
            D = GB @ Psi
        mu, sol = decode_spatial(obs[:, t], D, xi_spatial, debias=debias)
        yh = Psi @ mu
        mu_hat[:, t] = mu
        y_hat[t, :] = yh
        spatial_ok = spatial_ok and sol.converged
        if fallback:
            fit_rms.append(np.linalg.norm(obs[:, t] - GB @ yh) / math.sqrt(max(1, obs.shape[0])))

    theta_hat = np.zeros((N, n))
    x_hat = np.zeros((N, n))
    temporal_ok = True
    if stage2:
        if fallback:
            xis = [default_xi(float(np.median(fit_rms)), m1, n)] * N
        else:
            if proj_truth is None:
                proj_truth = A @ truth_X.T
            xis = [default_xi(np.linalg.norm(y_hat[:, i] - proj_truth[:, i]) / math.sqrt(m1), m1, n)
                   for i in range(N)]
        D = as_matrix(A, "A") @ Phi
        for i, xi_i in enumerate(xis):
            theta, sol = decode_temporal(y_hat[:, i], D, xi_i, debias=debias)
            theta_hat[i] = theta
            x_hat[i] = Phi @ theta
            temporal_ok = temporal_ok and sol.converged

    distortion = None
    if truth_X is not None:
        distortion = np.sum((truth_X - x_hat) ** 2, axis=1) / n

    return DecodeResult(mu_hat, y_hat, theta_hat, x_hat, distortion, spatial_ok, temporal_ok)
