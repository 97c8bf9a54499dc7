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
per source (design A Phi), plus decode_all which runs both stages over
a whole receiver observation block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mathcore import as_matrix, as_vector


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

    def objective(self, coef) -> float:
        r = self.z - self.G @ coef
        return float(0.5 * (r @ r) / self.q + self.xi * np.sum(np.abs(coef)))


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
    g = prob.G.T @ (prob.G @ c - prob.z) / prob.q
    active = c != 0
    viol_active = np.abs(g[active] + prob.xi * np.sign(c[active]))
    viol_inactive = np.maximum(np.abs(g[~active]) - prob.xi, 0.0)
    worst = 0.0
    if viol_active.size:
        worst = max(worst, float(viol_active.max()))
    if viol_inactive.size:
        worst = max(worst, float(viol_inactive.max()))
    return worst


def default_xi(sigma_hat: float, q: int, p: int, scale: float = 2.0) -> float:
    """High-probability regularization weight scale * sigma * sqrt(2 ln p / q).

    Floored at 1e-12 so the objective stays well-posed when sigma_hat = 0.
    """
    if sigma_hat < 0:
        raise ValueError("sigma_hat must be nonnegative")
    if q < 1 or p < 2:
        raise ValueError("need q >= 1 and p >= 2")
    return max(scale * sigma_hat * math.sqrt(2.0 * math.log(p) / q), 1e-12)


def solve_lasso(prob: LassoProblem, max_iter: int = 10_000, tol: float = 1e-8) -> LassoSolution:
    """Exact solve by following the piecewise-linear solution path in lam.

    The path starts from the null solution at lam_max = max|(1/q) G^T z|.
    Along each piece the active columns A, with signs s, hold their
    correlations c_A = (1/q) G_A^T (z - G y) at exactly lam * s, so y_A
    moves along d = ((1/q) G_A^T G_A)^{-1} s as lam falls.  A piece ends
    at the nearest event: an inactive correlation reaches +-lam (the
    column joins) or an active coefficient reaches zero (it leaves).
    At xi the coefficients are solved once more on the final active
    set and sign pattern (Osborne, Presnell & Turlach 2000; Efron et
    al. 2004).

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
    G, z, q, xi = prob.G, prob.z, prob.q, prob.xi
    coef = np.zeros(prob.p)
    active = np.zeros(0, dtype=int)
    signs = np.zeros(0)
    lam = float(np.max(np.abs(G.T @ z))) / q
    barred = None  # the column that just left may not rejoin on the next step
    steps = 0
    reached = lam <= xi
    try:
        while not reached and steps < max_iter:
            GA = G[:, active]
            d = q * np.linalg.solve(GA.T @ GA, signs)
            c, a = (G.T @ np.column_stack([z - GA @ coef[active], GA @ d]) / q).T
            # after a step g an inactive c_j - g a_j meets lam - g or -(lam - g);
            # one moving (almost) parallel to the bound, such as a copy of an
            # active column, never joins, and one past it by rounding joins at once
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
        if reached:
            GA = G[:, active]
            coef[active] = np.linalg.solve(GA.T @ GA, GA.T @ z - q * xi * signs)
    except np.linalg.LinAlgError:
        reached = False
    kkt = kkt_check(prob, coef)
    return LassoSolution(coef, prob.objective(coef), kkt, steps, reached and kkt <= 10.0 * tol)


def debias_refit(z, D, coef, support_tol: float = 0.0) -> np.ndarray:
    """Least-squares refit of coef on its recovered support.

    Coordinates with |coef| > support_tol are refit by unregularized
    least squares on the corresponding design columns; the rest are set
    to exactly zero.  Removes the l1 shrinkage bias.
    Refit values below 1e-12 of the peak are numerical zeros (columns
    the least squares assigned only float dust) and are cleared.
    """
    D = as_matrix(D, "design")
    z = as_vector(z, "observations")
    c = as_vector(coef, "coef")
    out = np.zeros_like(c)
    S = np.flatnonzero(np.abs(c) > support_tol)
    if S.size:
        sol, *_ = np.linalg.lstsq(D[:, S], z, rcond=None)
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
    stage1_residual_rms: length N, per-source RMS of y_hat[:, i] - A X_i
        against truth; None without truth.
    """

    mu_hat: np.ndarray
    y_hat: np.ndarray
    theta_hat: np.ndarray
    x_hat: np.ndarray
    per_source_distortion: np.ndarray | None = None
    stage1_residual_rms: np.ndarray | None = None
    spatial_converged: bool = True
    temporal_converged: bool = True


def decode_spatial(Z, G, pattern_diag, Psi, xi, debias=True, max_iter=10_000, tol=1e-8):
    """Stage-1 decode: recover (mu, y_hat) from Z = G B Psi mu + W.

    Builds the design D = G diag(b) Psi and solves the LASSO with
    q = len(Z).  Returns (mu, y_hat, solution) with y_hat = Psi mu.
    """
    G = as_matrix(G, "G")
    Psi = as_matrix(Psi, "Psi")
    b = as_vector(pattern_diag, "pattern")
    if G.shape[1] != b.shape[0] or Psi.shape[0] != b.shape[0]:
        raise ValueError("pattern length must match G columns and Psi rows")
    D = (G * b[None, :]) @ Psi
    sol = solve_lasso(LassoProblem(Z, D, xi), max_iter=max_iter, tol=tol)
    mu = sol.coef
    if debias:
        mu = debias_refit(np.asarray(Z, dtype=float), D, mu)
    return mu, Psi @ mu, sol


def decode_temporal(y_row, A, Phi, xi, debias=True, max_iter=10_000, tol=1e-8):
    """Stage-2 decode: recover (theta, x_hat) from y_row ~ A Phi theta.

    Solves the LASSO with design A @ Phi and q = len(y_row); returns
    (theta, x_hat, solution) with x_hat = Phi theta.
    """
    A = as_matrix(A, "A")
    Phi = as_matrix(Phi, "Phi")
    D = A @ Phi
    sol = solve_lasso(LassoProblem(y_row, D, xi), max_iter=max_iter, tol=tol)
    theta = sol.coef
    if debias:
        theta = debias_refit(np.asarray(y_row, dtype=float), D, theta)
    return theta, Phi @ theta, sol


def decode_all(
    receiver_obs,
    G,
    patterns,
    Psi,
    Phi,
    A,
    xi_spatial,
    xi_temporal=None,
    truth_X=None,
    proj_truth=None,
    debias=True,
    xi_scale=2.0,
    run_temporal=True,
):
    """Run both decoder stages over an m2 x m1 receiver observation block.

    Args:
        receiver_obs: m2 x m1 matrix, column t = the observations Z^t.
        G: m2 x N transfer matrix of this receiver.
        patterns: length-m1 sequence of 0/1 on-off diagonals (length N).
        Psi, Phi: spatial (N x N) and temporal (n x n) dictionaries.
        A: m1 x n projection matrix shared by all sources.
        xi_spatial: stage-1 regularization weight.
        xi_temporal: stage-2 weight; a scalar, a length-N array, or None.
            When None, a per-source weight is derived from the measured
            stage-1 residual scale if truth is available, otherwise from
            the median stage-1 fit residual.
        truth_X: optional N x n ground-truth sample matrix; enables the
            per-source distortion report and residual-driven xi.
        proj_truth: optional m1 x N matrix of the true projected samples
            (column i = A X_i); recomputed from truth_X when omitted.
        debias: least-squares refit on each recovered support.
        xi_scale: scale passed to default_xi for derived stage-2 weights.
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

    mu_hat = np.zeros((N, m1))
    y_hat = np.zeros((m1, N))
    spatial_ok = True
    fit_rms = []
    for t in range(m1):
        mu, yh, sol = decode_spatial(
            obs[:, t], G, patterns[t], Psi, xi_spatial, debias=debias
        )
        mu_hat[:, t] = mu
        y_hat[t, :] = yh
        spatial_ok = spatial_ok and sol.converged
        den = max(1, obs.shape[0])
        fit_rms.append(np.linalg.norm(obs[:, t] - (G * np.asarray(patterns[t])[None, :]) @ yh) / math.sqrt(den))

    theta_hat = np.zeros((N, n))
    x_hat = np.zeros((N, n))
    residual_rms = None
    if truth_X is not None:
        truth_X = as_matrix(truth_X, "truth_X")
        if proj_truth is None:
            proj_truth = A @ truth_X.T
        residual_rms = np.array(
            [np.linalg.norm(y_hat[:, i] - proj_truth[:, i]) / math.sqrt(max(m1, 1)) for i in range(N)]
        )

    temporal_ok = True
    if m1 > 0 and run_temporal:
        for i in range(N):
            if xi_temporal is None:
                if residual_rms is not None:
                    sigma_u = residual_rms[i]
                else:
                    sigma_u = float(np.median(fit_rms))  # channel-scale fallback
                xi_i = default_xi(sigma_u, m1, n, scale=xi_scale)
            else:
                xi_i = float(np.atleast_1d(xi_temporal)[i]) if np.ndim(xi_temporal) else float(xi_temporal)
            theta, xh, sol = decode_temporal(y_hat[:, i], A, Phi, xi_i, debias=debias)
            theta_hat[i] = theta
            x_hat[i] = xh
            temporal_ok = temporal_ok and sol.converged

    distortion = None
    if truth_X is not None:
        distortion = np.sum((truth_X - x_hat) ** 2, axis=1) / n

    return DecodeResult(
        mu_hat, y_hat, theta_hat, x_hat, distortion, residual_rms,
        spatial_ok, temporal_ok,
    )
