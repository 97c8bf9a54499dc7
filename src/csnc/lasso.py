"""l1-regularized least-squares decoding.

The solver minimizes

    f(y) = (1/2q) ||z - G y||_2^2 + xi * ||y||_1

by cyclic coordinate descent with exact univariate soft-threshold
updates, so the objective is non-increasing update by update.  A
solution is reported converged only once the per-sweep coefficient
change is below tol AND the KKT stationarity residual is below
10 * tol, which makes the convergence flag a checkable certificate.

On top of the solver sit the two decoding stages of the pipeline: a
spatial decode per time index (design G B Psi) and a temporal decode
per source (design A Phi), plus decode_all which runs both stages over
a whole receiver observation block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    coef: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int
    converged: bool
    trace: list[float] = field(default_factory=list)


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


def _sweep(gram, grad, coef, nrm_q, order, xi):
    """One pass of exact coordinate updates over `order`; returns max change.

    grad is the scaled residual correlation (1/q) G^T (z - G coef),
    kept consistent in place alongside coef (covariance-form updates).
    The soft threshold is inlined: per-coordinate numpy calls dominate
    the runtime otherwise.
    """
    max_delta = 0.0
    for j in order:
        nj = nrm_q[j]
        if nj == 0.0:
            continue  # unidentifiable column, coefficient pinned at 0
        old = coef[j]
        rho = grad[j] + nj * old
        if rho > xi:
            new = (rho - xi) / nj
        elif rho < -xi:
            new = (rho + xi) / nj
        else:
            new = 0.0
        if new != old:
            grad -= gram[j] * (new - old)  # gram is symmetric: row j == column j
            coef[j] = new
            delta = abs(new - old)
            if delta > max_delta:
                max_delta = delta
    return max_delta


def solve_lasso(
    prob: LassoProblem,
    max_iter: int = 10_000,
    tol: float = 1e-8,
    kkt_tol: float = 1e-6,
    init=None,
    keep_trace: bool = False,
) -> LassoSolution:
    """Cyclic coordinate descent with active-set sweeps after the first pass.

    Updates are covariance-form (against a cached (1/q) G^T G), and
    when xi sits far below the null-solution threshold max|(1/q)G^T z|
    the solve walks a geometric continuation path of decreasing weights
    with warm starts, which keeps the sweep count small on nearly
    noiseless instances.  Every update is still an exact univariate
    soft-threshold minimization, so the objective never increases.

    Args:
        prob: the instance to solve.
        max_iter: cap on total coordinate sweeps.
        tol: convergence threshold on the max coefficient change per
            full sweep; the converged flag additionally requires the
            KKT residual to be <= 10 * tol.
        kkt_tol: certificate level recorded in the solution; converged
            solutions satisfy kkt_residual <= min(kkt_tol, 10 * tol).
        init: optional warm-start coefficient vector.
        keep_trace: record the objective after every sweep at the
            target weight.

    Hitting max_iter returns the current iterate with converged=False;
    it is not an error.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not (tol > 0):
        raise ValueError("tol must be positive")
    G, z, q, p, xi = prob.G, prob.z, prob.q, prob.p, prob.xi

    if init is None:
        coef = np.zeros(p)
    else:
        coef = as_vector(init, "init").copy()
        if coef.shape[0] != p:
            raise ValueError("init length must match design columns")
    nrm_q = np.einsum("ij,ij->j", G, G) / q
    coef[nrm_q == 0.0] = 0.0
    gram = (G.T @ G) / q
    b = (G.T @ z) / q
    grad = b - gram @ coef

    # continuation schedule: geometric descent from near the null threshold
    lam_max = float(np.max(np.abs(b))) if p else 0.0
    path = []
    if init is None and lam_max > 0 and xi < 0.01 * lam_max:
        lam = 0.1 * lam_max
        while lam > 2.0 * xi and len(path) < 60:
            path.append(lam)
            lam *= 0.3
    path.append(xi)

    full = np.arange(p)
    cert = min(kkt_tol, 10.0 * tol)
    sweeps = 0
    converged = False
    kkt = math.inf
    trace: list[float] = []

    def objective_now():
        r = z - G @ coef
        return float(0.5 * (r @ r) / q + xi * np.sum(np.abs(coef)))

    for stage, lam in enumerate(path):
        final = stage == len(path) - 1
        stage_tol = tol if final else max(tol, 1e-3 * lam)
        while sweeps < max_iter:
            delta = _sweep(gram, grad, coef, nrm_q, full, lam)
            sweeps += 1
            if final and keep_trace:
                trace.append(objective_now())
            if delta < stage_tol:
                if not final:
                    break
                grad = b - gram @ coef  # refresh accumulated drift
                kkt = kkt_check(prob, coef)
                if kkt <= cert:
                    converged = True
                    break
                continue  # drift was the blocker; keep sweeping
            active = np.flatnonzero(coef)
            while active.size and sweeps < max_iter:
                delta = _sweep(gram, grad, coef, nrm_q, active, lam)
                sweeps += 1
                if final and keep_trace:
                    trace.append(objective_now())
                if delta < stage_tol:
                    break
    if math.isinf(kkt):
        kkt = kkt_check(prob, coef)
    objective = objective_now()
    return LassoSolution(coef, objective, kkt, sweeps, converged, trace)


def debias_refit(z, D, coef, support_tol: float = 0.0) -> np.ndarray:
    """Least-squares refit of coef on its recovered support.

    Coordinates with |coef| > support_tol are refit by unregularized
    least squares on the corresponding design columns; the rest are set
    to exactly zero.  Removes the soft-threshold shrinkage bias.
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
