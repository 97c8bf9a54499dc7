"""l1-regularized least-squares decoding.

The solver minimizes

    f(y) = (1/2q) ||z - G y||_2^2 + xi * ||y||_1

exactly, by following its piecewise-linear solution path from the null
solution down to the weight xi (homotopy).  lasso_paths steps the paths
of a whole block of problems that share one design in lockstep, with
batched solves and products over the rows of the design's Gram matrix
H = (1/q) G^T G; a problem's path is the same to the bit whether it is
stepped alone or in any block.  Before it returns, lasso_paths finishes
every path that reached xi on its final active set A from the same Gram
rows, by solving H_AA y = c0_A - xi s with c0 = (1/q) G^T z, one
batched solve per active-set size, and scores every path from one
residual block: each path's objective and KKT stationarity residual.
Every solve, product and score takes the batched form, also for a
block of one path.
solve_lasso is the one exit per problem: it packages the block's
certificate of its path, and a solution is reported converged only when
the path reached xi AND the KKT residual is at most 10 * TOL, which
makes the convergence flag a checkable certificate.

On top of the solver sit the two decoding stages of the pipeline: a
spatial decode per time index (design G B Psi) and a temporal decode
per source (design A Phi), one stage function that decodes a block of
columns on one prebuilt design and refits the block's supports with
one debias_refit call, plus decode_all, which builds a receiver's
designs once and decodes each design's whole block at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mathcore import as_matrix, as_vector, matvecs, rowdots

_LOCKSTEP = 32  # most paths lasso_paths steps at once, which bounds its working set
TOL = 1e-8  # certificate level: a converged solve has a KKT residual of at most 10 * TOL
# debias_refit solves the normal equations H_SS x = c0_S, whose relative error grows like
# cond(H_SS) * eps, against lstsq's sqrt(cond(H_SS)) * eps; above this bound it keeps lstsq
COND_MAX = 1e4


@dataclass
class LassoProblem:
    """One l1-regularized least-squares instance.

    z: observation vector, length q.
    G: design matrix, q x p.
    xi: regularization weight, finite and > 0.
    """

    z: np.ndarray
    G: np.ndarray
    xi: float

    def __post_init__(self):
        self.G = as_matrix(self.G, "design")
        self.z = as_vector(self.z, "observations")
        if self.z.shape[0] != self.G.shape[0]:
            raise ValueError("observation length must match design rows")
        if not 0.0 < self.xi < math.inf:  # also rejects NaN
            raise ValueError("xi must be finite and positive")

    @classmethod
    def _checked(cls, z, G, xi):
        """A problem of a block whose checks have already passed, as lasso_paths checks decode_spatial's."""
        prob = cls.__new__(cls)
        prob.z, prob.G, prob.xi = z, G, xi
        return prob

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
    ones |g_j| <= xi.  Returns the worst violation (0 at an optimum),
    scored by the block certificate of lasso_paths on a block of one.
    """
    c = as_vector(coef, "coef")
    if c.shape[0] != prob.p:
        raise ValueError("coef length must match design columns")
    return _certify(prob.G, prob.z[:, None], np.array([prob.xi]), c[None])[1][0]


def _certify(D, Z, xis, C) -> tuple[list[float], list[float]]:
    """The objective and the KKT residual (see kkt_check) of each row of C, from one residual block.

    Row b of the n x p array C is scored on column b of the q x n block Z
    with weight xis[b], from its residual r = Z_b - D C_b and gradient
    (1/q) D^T (-r).  The products are mathcore.matvecs' and rowdots', so
    each row rounds as its own 1-D product, and its scores have the same
    bits in any block.
    """
    q, w = D.shape[0], xis[:, None]
    R = Z.T - matvecs(D, C)
    g = matvecs(D.T, -R) / q
    kkts = np.where(C != 0, np.abs(np.sign(C) * w + g), np.abs(g) - w).max(axis=1).tolist()
    return (0.5 * rowdots(R, R) / q + xis * np.abs(C).sum(axis=1)).tolist(), [max(v, 0.0) for v in kkts]


def default_xi(sigma_hat: float, q: int, p: int) -> float:
    """High-probability regularization weight 2 sigma sqrt(2 ln p / q) (Bickel, Ritov & Tsybakov 2009).

    Floored at 1e-12 so the objective stays well-posed when sigma_hat = 0.
    """
    if not 0.0 <= sigma_hat < math.inf:  # also rejects NaN
        raise ValueError("sigma_hat must be finite and nonnegative")
    if q < 1 or p < 2:
        raise ValueError("need q >= 1 and p >= 2")
    return max(2.0 * sigma_hat * math.sqrt(2.0 * math.log(p) / q), 1e-12)


class _Gram:
    """A block's correlations C0 (row b: D^T Z_b) and the rows D[:, j] @ D of its design's Gram matrix.

    Each Gram row is built once, the first time it is needed.  The rows
    are q H_j, unscaled: dividing by q first would round, and then not
    even a least-squares problem on identity columns would be solved
    exactly.  A row's bits do not depend on which others exist.  C0 is
    one mathcore.matvecs product, which reads each column of Z from a
    contiguous copy: its row b has the same bits in any block or layout.
    """

    def __init__(self, D, Z):
        self.D, p = D, D.shape[1]
        self.C0 = matvecs(D.T, Z.T)
        self.coefs = None  # lasso_paths' coefficient block, row b: path b's, once its paths are finished
        self.slot = np.full(p, -1, dtype=np.intp)  # row of column j: rows[slot[j]], once built
        self.rows = np.empty((min(p, 16), p))
        self.built = 0

    def add(self, j):
        if self.slot[j] < 0:
            if self.built == self.rows.shape[0]:
                self.rows = np.concatenate([self.rows, np.empty_like(self.rows)])[:self.D.shape[1]]
            self.rows[self.built] = self.D[:, j] @ self.D
            self.slot[j] = self.built
            self.built += 1

    def blocks(self, A):
        """D_A^T D_A for each row A of the n x k index array A, as one n x k x k array."""
        R = self.slot[A]
        if R.min() < 0:
            for j in np.unique(A[R < 0]).tolist():
                self.add(j)
            R = self.slot[A]
        return self.rows[R[:, :, None], A[:, None, :]]


@dataclass(slots=True)
class LassoPath:
    """Where one homotopy path stopped: its active columns in join order, their signs and coefficients.

    coef is the solution at xi when the path reached xi, else the iterate
    it stopped at.  row is that point over all p columns, and objective
    and kkt are its scores (see kkt_check).  gram holds the block's
    correlations, the Gram rows of the design and the block's
    coefficients gram.coefs, whose row b is path b's row; it is shared
    by every path of one lasso_paths call.
    """

    active: np.ndarray
    signs: np.ndarray
    coef: np.ndarray  # coefficients of the active columns
    steps: int
    reached: bool  # the path reached xi
    gram: _Gram = field(repr=False, compare=False)
    row: np.ndarray | None = field(default=None, repr=False, compare=False)
    objective: float = math.nan
    kkt: float = math.nan


def lasso_paths(D, Z, xis, max_iter=10_000) -> list[LassoPath]:
    """Step and finish the homotopy of every column of Z on the shared design D in lockstep; one LassoPath each.

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
    a correlation non-finite.  So does an xi that is not finite and
    positive.

    A path that reached xi is then finished: at xi its active columns A,
    with signs s, satisfy H_AA y = c0_A - xi s exactly, which is solved
    afresh, times q, from the Gram rows and the correlations D^T Z_b,
    one batched solve per active-set size.  A singular system leaves its
    path with its iterate and reached=False, as a singular step does;
    the others solve as they would alone.

    Every path is then scored where it stopped.  Its coefficients are
    scattered into row b of the B x p block gram.coefs, and, _LOCKSTEP
    rows at a time, one residual block Z^T - D C and one gradient block
    (1/q) D^T (D C - Z^T) give each path's objective and KKT residual
    (see kkt_check and _certify).  Each row rounds as its own 1-D
    product, so a path's certificate too is the same to the bit in any
    block.

    The columns are stepped in batches of at most _LOCKSTEP, each until
    all its paths have stopped.  Every live path of a batch has taken
    the same number of steps, so one check stops them all at max_iter.
    The live paths of a batch are kept compacted at the front of
    buffers reused for the whole call: a stopped path's place is taken
    by one live path from the tail.  A step makes one
    batched np.linalg.solve of the active blocks, and one batched
    product over the Gram rows of the active columns, per active-set
    size among the live paths: padding the smaller blocks into one solve
    would change their bits.  Both use the unscaled rows D_j^T D = q H_j
    (see _Gram): d = q (D_A^T D_A)^{-1} s and a = (d / q) D_A^T D.  The
    Gram row of a column is built the first time it joins any path and
    is then shared, also with the finish and, through the paths' gram,
    with the refit; so are the correlations D^T Z, formed once for the
    whole call.  The bounds of every event are arrays
    over the live paths, one argmin finds each path's first event, and
    one update moves every path's lam, correlations and coefficients.
    No value of one path enters another's arithmetic, and the
    correlations are taken from a contiguous copy of Z^T, so a column's
    path is the same to the bit in whatever batch, and from whatever
    memory layout, it is stepped.
    """
    D, Z = np.asarray(D, dtype=np.float64), np.asarray(Z, dtype=np.float64)
    if D.ndim != 2 or Z.ndim != 2 or D.size == 0 or Z.size == 0:
        raise ValueError("need a nonempty 2-D design and observation block")
    q, p = D.shape
    nb = Z.shape[1]
    xis = np.asarray(xis, dtype=np.float64)
    if Z.shape[0] != q:
        raise ValueError("observation length must match design rows")
    if xis.shape != (nb,) or not all(0.0 < xi < math.inf for xi in xis.tolist()):  # also rejects NaN
        raise ValueError("need one finite positive xi per column")
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
    gram = _Gram(D, Z)  # the row of a column is built when it first joins a path
    slot, C0 = gram.slot, gram.C0
    paths: list[LassoPath | None] = [None] * nb
    nl = steps = 0  # live paths, steps the batch has taken
    seen = -1  # the nl at which the views of the live paths were taken

    def join(i, j, sign):
        gram.add(j)
        n = size[i]
        active[i, n], signs[i, n], shut[i, j], size[i] = j, sign, np.inf, n + 1

    def retire(done, reached):
        nonlocal nl
        for i in done:
            n = size[i]
            paths[col[i]] = LassoPath(active[i, :n].copy(), signs[i, :n].copy(), coef[i, :n].copy(),
                                      steps, reached, gram)
        left = nl - len(done)
        holes = [i for i in done if i < left]  # each takes one live row from the tail
        if holes:
            tail = [i for i in range(left, nl) if i not in done]
            for buf in (X, V, shut, active, signs, xi, col, size, bar):
                buf[holes] = buf[tail]
        nl = left

    for start in range(0, nb, W):
        # admit the next batch of columns; each one's first piece joins its top column
        stop = min(nb, start + W)
        c0 = C0[start:stop] / q
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
                paths[start + g] = LassoPath(np.empty(0, dtype=np.intp), np.empty(0), np.empty(0), 0, True, gram)
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
            rows = gram.rows
            for n in groups:
                idx = slice(0, nl) if len(groups) == 1 else np.flatnonzero(sizes == n)
                A = active[idx, :n]
                R = slot[A]
                H, s = rows[R[:, :, None], A[:, None, :]], signs[idx, :n]
                d, bad = _solve_stack(H, s)
                if bad:  # the singular systems stop their paths; the rest solve as they would
                    failed.update(np.arange(nl)[idx][bad].tolist())
                negd[idx, :n] = d * -q  # d = (D_A^T D_A)^-1 s = H_AA^-1 s / q
                a2[idx, :p] = np.matmul(d[:, None], rows[R])[:, 0]
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

    for _, idx in _by_size([len(path.active) if path.reached else 0 for path in paths]):
        A, s = np.array([paths[b].active for b in idx]), np.array([paths[b].signs for b in idx])
        Y, bad = _solve_stack(gram.blocks(A), C0[idx[:, None], A] - q * xis[idx, None] * s)
        for g, b in enumerate(idx.tolist()):
            if g in bad:
                paths[b].reached = False
            else:
                paths[b].coef = Y[g]

    gram.coefs = C = np.zeros((nb, p))  # row b: path b's coefficients over all p columns
    for b, path in enumerate(paths):
        C[b, path.active] = path.coef

    for b0 in range(0, nb, W):  # certify the block, W rows at a time
        rows = slice(b0, b0 + W)
        objectives, kkts = _certify(D, Z[:, rows], xis[rows], C[rows])
        for path, row, objective, kkt in zip(paths[rows], C[rows], objectives, kkts):
            path.row, path.objective, path.kkt = row, objective, kkt
    return paths


def _solve_stack(H, R):
    """Solve H[g] y = R[g] for every g in one batched call; returns (Y, positions of singular systems).

    A singular system fails the whole stack, which is then solved one
    system at a time: each solvable one as it would be in the stack, and
    each singular one's row of Y left zero.
    """
    try:
        return np.linalg.solve(H, R[:, :, None])[:, :, 0], []
    except np.linalg.LinAlgError:
        Y, bad = np.zeros(R.shape), []
        for g in range(len(R)):
            try:
                Y[g] = np.linalg.solve(H[g], R[g])
            except np.linalg.LinAlgError:
                bad.append(g)
        return Y, bad


def _by_size(sizes) -> list[tuple[int, np.ndarray]]:
    """(n, positions of size n) for every size n > 0 among sizes, in order of first appearance."""
    groups: dict[int, list[int]] = {}
    for b, n in enumerate(sizes):
        if n:
            groups.setdefault(n, []).append(b)
    return [(n, np.array(idx)) for n, idx in groups.items()]


def solve_lasso(prob: LassoProblem, path: LassoPath | None = None) -> LassoSolution:
    """Exact solve: the one exit of every problem, which packages the block's certificate of its path.

    path is prob's LassoPath from lasso_paths; decode_spatial steps,
    finishes and scores a whole block's paths in one lasso_paths call,
    then calls this once per problem.  Without path, prob's path is
    stepped, finished and scored alone, capped at lasso_paths' default
    of 10 000 steps; a path's bits do not depend on its block, so a bare
    call returns the same bits as a block's.

    The solution's coef is the path's row of the block's coefficients,
    and its objective and KKT residual are the path's scores, so every
    solution's certificate is checked by the time of this call:
    converged means the path reached xi and kkt_check <= 10 * TOL.  A
    path that hit its cap, a singular active system or a singular
    finish, and a failed certificate, each return the path's
    coefficients with converged=False; none of these is an error.
    """
    if path is None:
        [path] = lasso_paths(prob.G, prob.z[:, None], [prob.xi])
    return LassoSolution(path.row, path.objective, path.kkt, path.steps, path.reached and path.kkt <= 10.0 * TOL)


def debias_refit(D, Z, coefs, gram: _Gram | None = None) -> np.ndarray:
    """Least-squares refit of each row of coefs on its recovered support; one call refits a block.

    Row b of the B x p array coefs was recovered from column b of the
    q x B block Z on the design D; any other shape of coefs raises
    ValueError.  Its nonzero coordinates S are refit by unregularized
    least squares on D_S against Z_b, which removes the l1 shrinkage
    bias, and the rest are set to exactly zero.  The refit solves
    D_S^T D_S x = D_S^T Z_b, one batched solve per support size, from
    gram: the correlations D^T Z and the Gram rows that the paths of a
    lasso_paths call on the same D and Z carry, built here when omitted.
    A system that is singular, or whose condition number (by
    np.linalg.eigvalsh) is above COND_MAX, keeps np.linalg.lstsq on D_S.  Refit values below 1e-12 of a row's
    peak are float dust and are cleared.  No row enters another's
    arithmetic, so a row's refit is the same to the bit in any block.
    """
    D, Z = np.asarray(D, dtype=np.float64), np.asarray(Z, dtype=np.float64)
    on = np.asarray(coefs) != 0
    if D.ndim != 2 or Z.ndim != 2 or on.shape != (Z.shape[1], D.shape[1]):
        raise ValueError("coefs must hold one row per column of Z and one column per column of D")
    gram = _Gram(D, Z) if gram is None else gram
    out = np.zeros(on.shape)
    for n, idx in _by_size(on.sum(axis=1).tolist()):
        S, rows = np.nonzero(on[idx])[1].reshape(len(idx), n), idx[:, None]
        H = gram.blocks(S)
        lam = np.linalg.eigvalsh(H)  # ascending, so cond(H_SS) = lam[:, -1] / lam[:, 0]
        ok = (lam[:, 0] > 0) & (lam[:, -1] <= COND_MAX * lam[:, 0])
        fit, X, bad = np.flatnonzero(ok), np.zeros(S.shape), np.flatnonzero(~ok).tolist()
        if len(fit):
            X[fit], singular = _solve_stack(H[fit], gram.C0[rows[fit], S[fit]])
            bad += fit[singular].tolist()
        for g in bad:
            X[g], *_ = np.linalg.lstsq(D[:, S[g]], Z[:, idx[g]], rcond=None)
        size = np.abs(X)
        X[size < 1e-12 * size.max(axis=1, keepdims=True)] = 0.0
        out[rows, S] = X
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
    is its LassoSolution, whose coef is a view of row b of the paths'
    coefficient block (coefs itself when not debias).  D is a prebuilt
    design shared by the whole block: stage 1 decodes the time slices
    Z^t of a run of equal on-off patterns on G diag(b_t) Psi, giving mu;
    stage 2, decode_temporal, the same function, decodes the columns
    y_hat_i of the stage-1 estimate on A Phi, giving theta;
    direct_recovery_trial decodes one column on a bare transfer matrix.
    One lasso_paths call steps, finishes and scores the block's paths;
    solve_lasso then packages each problem's certificate, one call per
    column (its problem unchecked again: lasso_paths checked the block),
    and, when debias, one debias_refit call refits the paths'
    coefficient block from their correlations and Gram rows.  Both are
    called through this module's names.
    """
    D, Z = np.asarray(D, dtype=np.float64), np.asarray(Z, dtype=np.float64)
    paths = lasso_paths(D, Z, xis)
    sols = [solve_lasso(LassoProblem._checked(z, D, xi), path=path) for z, xi, path in zip(Z.T, xis, paths)]
    gram = paths[0].gram
    return (debias_refit(D, Z, gram.coefs, gram) if debias else gram.coefs), sols


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
    sources.  The syntheses y_hat^t = Psi mu^t and x_hat_i = Phi theta_i
    and the residual norms are whole-block mathcore.matvecs and rowdots
    products, each row rounded as its own matrix-vector or dot product.

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
        mu_hat[:, t0:t1] = mus.T
        y_hat[t0:t1] = matvecs(Psi, mus)
        converged = converged and all(sol.converged for sol in sols)
        if fallback:
            R = matvecs(GB, y_hat[t0:t1])
            R -= obs[:, t0:t1].T  # in place, so row t stays contiguous: GB y_hat^t - Z^t
            fit_rms.append(np.sqrt(rowdots(R, R)) / math.sqrt(m2))

    theta_hat, x_hat = np.zeros((N, n)), np.zeros((N, n))
    if run_temporal:
        if fallback:
            xis = [default_xi(float(np.median(np.concatenate(fit_rms))), m1, n)] * N
        else:
            if proj_truth is None:
                proj_truth = A @ truth_X.T
            R = np.ascontiguousarray((y_hat - proj_truth).T)  # row i: y_hat_i - A X_i
            xis = [default_xi(rms, m1, n) for rms in (np.sqrt(rowdots(R, R)) / math.sqrt(m1)).tolist()]
        theta_hat, sols = decode_temporal(y_hat, A @ Phi, xis, debias=debias)
        x_hat = matvecs(Phi, theta_hat)
        converged = converged and all(sol.converged for sol in sols)

    distortion = None if truth_X is None else np.sum((truth_X - x_hat) ** 2, axis=1) / n
    return DecodeResult(mu_hat, y_hat, theta_hat, x_hat, distortion, converged)
