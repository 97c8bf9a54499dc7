"""l1-regularized least-squares decoding.

The solver minimizes

    f(y) = (1/2q) ||z - G y||_2^2 + xi * ||y||_1

exactly, by following its piecewise-linear solution path from the null
solution down to the weight xi (homotopy).  lasso_paths steps the paths
of a whole block of problems that share one design in lockstep, with
batched solves and products; a problem's path is the same to the bit
whether it is stepped alone or in any block.  solve_lasso finishes one
problem's path on its final active set and checks the result there: a
solution is reported converged only when the path reached xi AND the
KKT stationarity residual is at most 10 * TOL, which makes the
convergence flag a checkable certificate.  Every solution leaves
through one solve_lasso call per problem.

On top of the solver sit the two decoding stages of the pipeline: a
spatial decode per time index (design G B Psi) and a temporal decode
per source (design A Phi), one stage function that decodes a block of
columns on one prebuilt design, plus decode_all, which builds a
receiver's designs once and decodes each design's whole block at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mathcore import as_matrix, as_vector

_LOCKSTEP = 32  # most paths lasso_paths steps at once, which bounds its working set
TOL = 1e-8  # certificate level: a converged solve has a KKT residual of at most 10 * TOL


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


@dataclass
class LassoPath:
    """Where one homotopy path stopped: its active columns in join order, their signs and iterate."""

    active: np.ndarray
    signs: np.ndarray
    coef: np.ndarray  # coefficients of the active columns
    steps: int
    reached: bool  # the path reached xi


def lasso_paths(D, Z, xis, max_iter=10_000) -> list[LassoPath]:
    """Step the homotopy of every column of Z on the shared design D in lockstep; one LassoPath per column.

    Column b's path starts from the null solution at lam_max = max|c|,
    c being the correlations (1/q) D^T Z_b.  Along each piece the active
    columns A, with signs s, hold their correlations at exactly lam * s,
    so the coefficients move along d = H_AA^{-1} s as lam falls, with
    H = (1/q) D^T D, and every correlation moves along a = d H_A.  A
    piece ends at the nearest event: an inactive correlation reaches
    +-lam (the column joins) or an active coefficient reaches zero (it
    leaves and may not rejoin on the next step).  The first piece is the
    zero-length step at which the column of largest |c_j| joins with
    sign(c_j); it counts as a path step.  A path stops when it reaches
    xis[b], after max_iter steps (one cap for the whole block), or at
    a singular active system, where it keeps the iterate and step count
    from before that step (Osborne, Presnell & Turlach 2000; Efron et
    al. 2004).  A non-finite D or Z raises ValueError: it always makes
    a correlation non-finite.

    The columns are stepped in batches of at most _LOCKSTEP, each until
    all its paths have stopped.  Every live path of a batch has taken
    the same number of steps, so one check stops them all at max_iter.
    The live paths of a batch are kept compacted at the front of
    buffers reused for the whole call.  A step makes one
    batched np.linalg.solve of the active blocks H_AA, and one batched
    product d H_A over the Gram rows of the active columns, per
    active-set size among the live paths: padding the smaller blocks
    into one solve would change their bits.  The Gram row
    H_j = (1/q) D_j^T D of a column is built the first time it joins any
    path and is then shared.  The bounds of every event are arrays
    over the live paths, one argmin finds each path's first event, and
    one update moves every path's lam, correlations and coefficients.
    No value of one path enters another's arithmetic, so a column's path
    is the same to the bit in whatever batch it is stepped.
    """
    D, Z = np.asarray(D, dtype=np.float64), np.asarray(Z, dtype=np.float64)
    if D.ndim != 2 or Z.ndim != 2 or D.size == 0 or Z.size == 0:
        raise ValueError("need a nonempty 2-D design and observation block")
    q, p = D.shape
    nb = Z.shape[1]
    xis = np.asarray(xis, dtype=np.float64)
    if Z.shape[0] != q:
        raise ValueError("observation length must match design rows")
    if xis.shape != (nb,) or not all(xi > 0 for xi in xis.tolist()):
        raise ValueError("need one positive xi per column")
    if np.ndim(max_iter) != 0 or not max_iter >= 1:
        raise ValueError("max_iter must be one cap >= 1 for the whole block")

    W = min(nb, _LOCKSTEP)
    # live path i: X[i] = [lam | c | -c | coefficients of the active slots (zero past k)] moves along
    # V[i] = [1 | a | -a | -d], so one update steps them all, and one subtraction from [lam | 1]
    # gives the numerators lam -+ c and denominators 1 -+ a of the join bounds of both signs;
    # active[i, :size[i]] are the active columns in join order, and shut[i] is inf at them, 0 elsewhere
    XV = np.empty((2, W, 1 + 3 * p))
    X, V = XV
    V[:, 0] = 1.0
    lam, c2, coef = X[:, 0], X[:, 1:2 * p + 1], X[:, 2 * p + 1:]
    a2, negd = V[:, 1:2 * p + 1], V[:, 2 * p + 1:]
    ND, ratio = np.empty((2, W, 2 * p)), np.empty((W, 2 * p))
    movable = np.empty((W, 2 * p), dtype=bool)
    # bounds[i]: lam - xi, the join bounds of the p columns, then the crossing bounds of the active
    # slots, so that one argmin finds the first event, and a tie goes to xi, then to a join
    bounds = np.empty((W, 1 + 2 * p))
    shut = np.empty((W, p))
    active = np.empty((W, p), dtype=np.intp)
    signs, xi = np.empty((W, p)), np.empty(W)
    col, size = np.empty(W, dtype=np.intp), np.empty(W, dtype=np.intp)  # path i's column of Z and k
    bar = np.empty(W, dtype=np.intp)  # the column path i left on its last step, barred from this one, or -1
    slot = np.full(p, -1, dtype=np.intp)  # Gram row of column j: rows[slot[j]], once it joined a path
    rows = np.empty((min(p, 16), p))
    built = 0
    paths: list[LassoPath | None] = [None] * nb
    nl = steps = 0  # live paths, steps the batch has taken
    seen = -1  # the nl at which the views of the live paths were taken

    def join(i, j, sign):
        nonlocal rows, built
        if slot[j] < 0:
            if built == rows.shape[0]:
                rows = np.concatenate([rows, np.empty_like(rows)])[:p]
            rows[built] = D[:, j] @ D / q
            slot[j] = built
            built += 1
        n = size[i]
        active[i, n], signs[i, n], shut[i, j], size[i] = j, sign, np.inf, n + 1

    def retire(done, reached):
        nonlocal nl
        for i in done:
            n = size[i]
            paths[col[i]] = LassoPath(active[i, :n].copy(), signs[i, :n].copy(), coef[i, :n].copy(),
                                      steps, reached)
        keep = [i for i in range(nl) if i not in done]
        nl = len(keep)
        if nl and keep[-1] >= nl:
            for buf in (X, V, shut, active, signs, xi, col, size, bar):
                buf[:nl] = buf[keep]

    for start in range(0, nb, W):
        # admit the next batch of columns; each one's first piece joins its top column
        stop = min(nb, start + W)
        c0 = np.matmul(D.T, Z.T[start:stop, :, None])[:, :, 0] / q
        top = np.abs(c0)
        lam0 = np.maximum.reduce(top, axis=1)
        tops, xl = lam0.tolist(), xis[start:stop].tolist()
        if not all(map(math.isfinite, tops)):  # a non-finite entry of D or Z always shows here
            raise ValueError("design and observations must be finite")
        go = []
        for g in range(stop - start):
            if tops[g] > xl[g]:
                go.append(g)
            else:  # xi is at or above lam_max: the null solution, after no step
                paths[start + g] = LassoPath(np.empty(0, dtype=np.intp), np.empty(0), np.empty(0), 0, True)
        if len(go) < stop - start:
            c0, top, lam0 = c0[go], top[go], lam0[go]
        nl, steps = len(go), 1
        lam[:nl], xi[:nl] = lam0, [xl[g] for g in go]
        c2[:nl, :p] = c0
        np.negative(c0, out=c2[:nl, p:])
        coef[:nl] = 0.0
        shut[:nl] = 0.0
        col[:nl], size[:nl], bar[:nl] = [start + g for g in go], 0, -1
        for i, j in enumerate(top.argmax(axis=1).tolist()):
            join(i, j, 1.0 if c0[i, j] > 0 else -1.0)
        barring = False  # whether a live path bars a column on this step

        while nl and steps < max_iter:
            if nl != seen:  # views of the live paths
                seen = nl
                x, v, nd2, mv, r = X[:nl], V[:nl], ND[:, :nl], movable[:nl], ratio[:nl]
                a, na, jb, gap, sizes = a2[:nl, :p], a2[:nl, p:], bounds[:nl, 1:p + 1], bounds[:nl, 0], size[:nl]

            ks = sizes.tolist()
            groups = sorted(set(ks))
            kmax = groups[-1]
            if len(groups) > 1:
                negd[:nl, :kmax] = 0.0  # -d past a path's active set stays zero
            failed = set()
            for n in groups:
                idx = slice(0, nl) if len(groups) == 1 else np.flatnonzero(sizes == n)
                A = active[idx, :n]
                R = slot[A]
                H, s = rows[R[:, :, None], A[:, None, :]], signs[idx, :n]
                try:  # numpy solves a single system faster unstacked, to the same bits
                    d = np.linalg.solve(H, s[:, :, None])[:, :, 0] if len(s) > 1 else np.linalg.solve(H[0], s[0])[None]
                except np.linalg.LinAlgError:  # the singular systems stop their paths; the rest solve as they would
                    d = np.zeros(s.shape)
                    for g, i in enumerate(np.arange(nl)[idx].tolist()):
                        try:
                            d[g] = np.linalg.solve(H[g], s[g])
                        except np.linalg.LinAlgError:
                            failed.add(i)
                negd[idx, :n] = -d
                a2[idx, :p] = np.matmul(d[:, None], rows[R])[:, 0] if len(d) > 1 else d[0] @ rows[R[0]]
            if failed:
                retire(failed, False)
                continue

            np.negative(a, out=na)
            # after a step g an inactive c_j - g a_j meets lam - g or -(lam - g);
            # one moving (almost) parallel to the bound, such as a copy of an
            # active column, never joins, and one past it by rounding joins at once
            np.subtract(XV[:, :nl, :1], XV[:, :nl, 1:2 * p + 1], out=nd2)
            np.greater(nd2[1], 1e-10, out=mv)
            r.fill(np.inf)
            np.divide(nd2[0], nd2[1], out=r, where=mv)
            np.minimum(r[:, :p], r[:, p:], out=jb)
            np.maximum(jb, shut[:nl], out=jb)  # past the bound by rounding: 0; active: inf
            if barring:
                b = np.flatnonzero(bar[:nl] >= 0)
                jb[b, bar[b]] = np.inf
                bar[:nl] = -1
                barring = False
            # coefficient i crosses zero at -coef_i / d_i when that is positive
            ca, nd, cb = coef[:nl, :kmax], negd[:nl, :kmax], bounds[:nl, p + 1:p + 1 + kmax]
            cb.fill(np.inf)
            np.divide(ca, nd, out=cb, where=ca * nd > 0)
            np.subtract(x[:, 0], xi[:nl], out=gap)
            bl = bounds[:nl, :p + 1 + kmax]
            e = bl.argmin(axis=1)
            step = np.minimum.reduce(bl, axis=1)
            w = 2 * p + 1 + kmax
            x[:, :w] -= step[:, None] * v[:, :w]
            steps += 1

            hit = set()
            for i, y in enumerate(e.tolist()):
                if y == 0:  # reached xi
                    hit.add(i)
                elif y <= p:  # column y - 1 joins, with the sign of the bound it met
                    join(i, y - 1, 1.0 if r[i, y - 1] <= r[i, p + y - 1] else -1.0)
                else:  # the coefficient in slot y - p - 1 reached zero: its column leaves
                    at, n = y - p - 1, ks[i]
                    bar[i] = active[i, at]
                    shut[i, active[i, at]] = 0.0
                    active[i, at:n - 1] = active[i, at + 1:n]
                    signs[i, at:n - 1] = signs[i, at + 1:n]
                    coef[i, at:n - 1] = coef[i, at + 1:n]
                    coef[i, n - 1] = 0.0
                    size[i] = n - 1
                    barring = True
            if hit:
                retire(hit, True)
        retire(range(nl), False)  # the live paths, all max_iter steps in, stop at the cap
    return paths


def solve_lasso(prob: LassoProblem, path: LassoPath | None = None) -> LassoSolution:
    """Exact solve: finish prob's homotopy path on G_A and certify the result.

    path is prob's LassoPath from lasso_paths, which decode_spatial steps
    for a whole block of problems on one design; without it, prob's path
    is stepped alone, capped at lasso_paths' default of 10 000 steps.  A
    path that reached xi is finished by solving once more on G_A, with
    its final active set and signs, (G_A^T G_A) y_A = G_A^T z - q xi s;
    the finish depends on the path only through its events, so a
    certified solve that meets the same events returns the same
    coefficients to the bit.

    The objective and the KKT residual are computed here, from one
    residual, so every solution's certificate is checked in this call:
    converged means the path reached xi and kkt_check <= 10 * TOL.  A
    path that hit its cap or a singular active system, a singular finish
    and a failed certificate each return the iterate with
    converged=False; none of these is an error.
    """
    if path is None:
        [path] = lasso_paths(prob.G, prob.z[:, None], [prob.xi])
    G, z, xi, A = prob.G, prob.z, prob.xi, path.active
    coef = np.zeros(prob.p)
    reached = path.reached
    if reached:
        GA = G[:, A]
        try:
            coef[A] = np.linalg.solve(GA.T @ GA, GA.T @ z - prob.q * xi * path.signs)
        except np.linalg.LinAlgError:
            reached = False
    if not reached:
        coef[A] = path.coef
    objective, kkt = _scores(prob, coef)
    return LassoSolution(coef, objective, kkt, path.steps, reached and kkt <= 10.0 * TOL)


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
    converged: every solve of both stages converged.
    """

    mu_hat: np.ndarray
    y_hat: np.ndarray
    theta_hat: np.ndarray
    x_hat: np.ndarray
    per_source_distortion: np.ndarray | None
    converged: bool


def decode_spatial(Z, D, xis, debias=True):
    """One decode stage: recover each column of the q x B block Z on the design D.

    Returns (coefs, solutions): row b of the B x p array coefs is
    recovered from column Z[:, b] with weight xis[b], and solutions[b]
    is its LassoSolution.  D is a prebuilt design shared by the whole
    block: stage 1 decodes the time slices Z^t of a run of equal on-off
    patterns on G diag(b_t) Psi, giving mu; stage 2, decode_temporal,
    the same function, decodes the columns y_hat_i of the stage-1
    estimate on A Phi, giving theta; direct_recovery_trial decodes one
    column on a bare transfer matrix.  lasso_paths steps the block's
    paths together; then, column by column, solve_lasso finishes and
    certifies each path and, when debias, debias_refit refits its
    recovered support, both called through this module's names.
    """
    Z = np.asarray(Z, dtype=np.float64)
    paths = lasso_paths(D, Z, xis)
    coefs, sols = np.empty((len(paths), np.shape(D)[1])), []
    for b, (xi, path) in enumerate(zip(xis, paths)):
        prob = LassoProblem(Z[:, b], D, xi)
        sol = solve_lasso(prob, path=path)
        coefs[b] = debias_refit(prob, sol.coef) if debias else sol.coef
        sols.append(sol)
    return coefs, sols


decode_temporal = decode_spatial


def decode_all(receiver_obs, G, B, Psi, Phi, A, sigma, truth_X=None, proj_truth=None, debias=True,
               run_temporal=True):
    """Run both decoder stages over an m2 x m1 receiver observation block.

    Each design is built once and decodes its whole block in one
    decode_spatial call: the stage-1 design G diag(b_t) Psi once per run
    of equal consecutive rows of B, and the stage-2 design A Phi once
    for all N sources.  The stage-1 weight is default_xi(sigma, m2, N).
    The stage-2 weight of source i is default_xi of a stage-1 error
    level: rms(y_hat_i - A X_i) when truth_X is given, else the median
    stage-1 fit residual rms(Z^t - G diag(b_t) y_hat^t), shared by all
    sources.

    Args:
        receiver_obs: m2 x m1 matrix, column t = the observations Z^t.
        G: m2 x N transfer matrix of this receiver.
        B: m1 x N on-off matrix, row t = the 0/1 pattern b_t.
        Psi, Phi: spatial (N x N) and temporal (n x n) dictionaries.
        A: m1 x n projection matrix shared by all sources.
        sigma: the channel noise level.
        truth_X: optional N x n ground-truth sample matrix; enables the
            per-source distortion report and the truth-driven weight.
        proj_truth: optional m1 x N matrix of the true projected samples
            (column i = A X_i); recomputed from truth_X when omitted.
        debias: least-squares refit on each recovered support.
        run_temporal: skip the per-source temporal stage when False
            (stage-1 scaling experiments); theta_hat and x_hat stay zero
            and the distortion report is that of the zero reconstruction.
    """
    obs = np.asarray(receiver_obs, dtype=np.float64)
    if obs.ndim != 2:
        raise ValueError("receiver_obs must be 2-D (m2 x m1)")
    G, B, A = as_matrix(G, "G"), as_matrix(B, "B"), as_matrix(A, "A")
    Psi, Phi = as_matrix(Psi, "Psi"), as_matrix(Phi, "Phi")
    (m2, N), n, m1 = G.shape, Phi.shape[0], obs.shape[1]
    if B.shape != (m1, N) or Psi.shape[0] != N:
        raise ValueError("B needs one pattern per time index; pattern length must match G columns and Psi rows")
    if truth_X is not None:
        truth_X = as_matrix(truth_X, "truth_X")
    fallback = run_temporal and truth_X is None  # stage-2 weight from the fit residuals

    xi = default_xi(sigma, m2, N)
    mu_hat, y_hat = np.zeros((N, m1)), np.zeros((m1, N))
    converged, fit_rms = True, []
    # a run of equal patterns shares one design, decoded as one block
    starts = np.flatnonzero(np.any(B[1:] != B[:-1], axis=1)) + 1
    for t0, t1 in zip([0, *starts.tolist()], [*starts.tolist(), m1]):
        GB = G * B[t0][None, :]
        mus, sols = decode_spatial(obs[:, t0:t1], GB @ Psi, [xi] * (t1 - t0), debias=debias)
        for t, mu, sol in zip(range(t0, t1), mus, sols):
            yh = Psi @ mu
            mu_hat[:, t] = mu
            y_hat[t, :] = yh
            converged = converged and sol.converged
            if fallback:
                fit_rms.append(np.linalg.norm(obs[:, t] - GB @ yh) / math.sqrt(m2))

    theta_hat, x_hat = np.zeros((N, n)), np.zeros((N, n))
    if run_temporal:
        if fallback:
            xis = [default_xi(float(np.median(fit_rms)), m1, n)] * N
        else:
            if proj_truth is None:
                proj_truth = A @ truth_X.T
            xis = [default_xi(np.linalg.norm(y_hat[:, i] - proj_truth[:, i]) / math.sqrt(m1), m1, n)
                   for i in range(N)]
        theta_hat, sols = decode_temporal(y_hat, A @ Phi, xis, debias=debias)
        for i, theta in enumerate(theta_hat):
            x_hat[i] = Phi @ theta
        converged = converged and all(sol.converged for sol in sols)

    distortion = None if truth_X is None else np.sum((truth_X - x_hat) ** 2, axis=1) / n
    return DecodeResult(mu_hat, y_hat, theta_hat, x_hat, distortion, converged)
