"""Empirical restricted-eigenvalue machinery.

The restricted eigenvalue level of a q x p design G over the cone
C(S; alpha) = { y : ||y_{S^c}||_1 <= alpha ||y_S||_1 } is

    gamma = min over nonzero cone vectors of (1/q) ||G y||^2 / ||y||^2.

The exact minimum is intractable, so estimate_re reports an UPPER
estimate: the minimum of the ratio over sampled supports and sampled
cone vectors, tightened per support by the exact minimum over vectors
supported on S (the smallest eigenvalue of the on-support Gram block,
which the cone always contains).

cascade_check probes the two pointwise inequalities behind the
cascading property of RE designs: left-multiplying by C1 can shrink
the ratio by at most sigma_min(C1)^2, and right-multiplying by C2 by
at most sigma_min(C2)^2 for vectors the multiplication keeps inside
the cone.

Both score a whole block of sampled vectors at once, with the batched
products mathcore.matvecs and rowdots: each row is rounded as its own
matrix-vector or dot product, so a vector's ratio does not depend on
the block it was sampled in.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .mathcore import Seed, as_matrix, matvecs, min_singular_value, rowdots


@dataclass(frozen=True)
class ConeSpec:
    """Cone C(S; alpha) inside R^dim: off-support l1 mass at most alpha times on-support."""

    dim: int
    support: tuple[int, ...]
    alpha: float = 1.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        S = tuple(sorted(set(int(i) for i in self.support)))
        if not S:
            raise ValueError("support must be nonempty")
        if S[0] < 0 or S[-1] >= self.dim:
            raise ValueError("support indices must lie in [0, dim)")
        if not (1.0 <= self.alpha < math.inf):  # also rejects NaN
            raise ValueError("alpha must be finite and >= 1")
        object.__setattr__(self, "support", S)

    @property
    def complement(self) -> np.ndarray:
        mask = np.ones(self.dim, dtype=bool)
        mask[list(self.support)] = False
        return np.flatnonzero(mask)


def _cone_margins(Y, spec: ConeSpec) -> np.ndarray:
    """alpha * ||y_S||_1 - ||y_{S^c}||_1 for every row y of Y."""
    on = np.abs(Y[:, list(spec.support)]).sum(axis=1)
    return spec.alpha * on - np.abs(Y[:, spec.complement]).sum(axis=1)


def sample_cone_vectors(spec: ConeSpec, seeds) -> np.ndarray:
    """Random unit vectors in C(S; alpha), one row per seed.

    Row i is drawn from seeds[i]'s generator alone: the on-support block
    i.i.d. normal, then the off-support block i.i.d. normal, then a
    slack uniform in [0, 1] when the support leaves a complement.  The
    off block is rescaled so its l1 norm equals slack * alpha *
    ||y_S||_1.  A row does not depend on the other seeds, so it equals
    sample_cone_vectors(spec, [seeds[i]])[0].

    One generator serves the whole call: it is built for the first seed
    and reseated (Seed.reseat) for each later one, which starts exactly
    the stream seed.rng() would.  That is safe because each row's draws
    finish before the next row's reseat, and the generator never leaves
    this function.
    """
    S = list(spec.support)
    comp = spec.complement
    draws = np.empty((len(seeds), len(S) + comp.size))
    slacks = np.zeros(len(seeds))
    rng = None
    for i, seed in enumerate(seeds):
        rng = seed.rng() if rng is None else seed.reseat(rng)
        rng.standard_normal(out=draws[i])
        if comp.size:
            slacks[i] = rng.random()
    on, off = draws[:, : len(S)], draws[:, len(S) :]
    on[~on.any(axis=1), 0] = 1.0  # measure-zero guard
    Y = np.zeros((len(seeds), spec.dim))
    Y[:, S] = on
    budget = slacks * spec.alpha * np.abs(on).sum(axis=1)
    l1 = np.abs(off).sum(axis=1)
    Y[:, comp] = off * np.divide(budget, l1, out=np.zeros_like(l1), where=l1 > 0)[:, None]
    return Y / np.sqrt(rowdots(Y, Y))[:, None]


@dataclass
class REEstimate:
    """Sampled upper estimate of the RE level gamma of a design.

    gamma_hat is a minimum over a subset of the cone, hence an upper
    bound on the true constant; refining with more samples can only
    lower it.
    """

    gamma_hat: float
    alpha: float
    sparsity: int
    samples_used: int
    argmin_vector: np.ndarray
    argmin_support: tuple[int, ...]
    per_support_gamma: list[tuple[tuple[int, ...], float]] = field(default_factory=list)


def _ratios(G, Y, q) -> np.ndarray:
    """(1/q) ||G y||^2 / ||y||^2 for every row y of Y."""
    GY = matvecs(G, Y)
    return rowdots(GY, GY) / q / rowdots(Y, Y)


def estimate_re(
    G,
    sparsity: int,
    alpha: float = 1.0,
    num_supports: int = 50,
    num_vectors_per_support: int = 50,
    seed: Seed = Seed(0),
) -> REEstimate:
    """Empirical lower-envelope search for the RE level of G.

    Supports of the given sparsity are enumerated exhaustively when
    p <= 20 and num_supports covers all of them, otherwise sampled.
    Per support the search combines the exact on-support minimum (the
    smallest eigenvalue of the on-support Gram block over q) with
    sampled cone vectors.  Deterministic given the seed: stream
    child(1, s) is reserved for support s, and its child(i) for that
    support's cone vector i.
    """
    G = as_matrix(G, "G")
    q, p = G.shape
    if sparsity < 1 or sparsity > p:
        raise ValueError("need 1 <= sparsity <= p")
    if num_supports < 1:
        raise ValueError("num_supports must be >= 1")
    if num_vectors_per_support < 0:
        raise ValueError("num_vectors_per_support must be >= 0")
    total = math.comb(p, sparsity)
    if p <= 20 and num_supports >= total:
        supports = [tuple(c) for c in itertools.combinations(range(p), sparsity)]
    else:
        rng = seed.child(0).rng()
        supports = [tuple(np.sort(rng.choice(p, size=sparsity, replace=False))) for _ in range(num_supports)]

    best = math.inf
    best_vec = None
    best_sup = None
    per_support = []
    for s_idx, S in enumerate(supports):
        sub = G[:, list(S)]
        w, V = np.linalg.eigh(sub.T @ sub / q)
        local = float(w[0])
        vec = np.zeros(p)
        vec[list(S)] = V[:, 0]
        spec = ConeSpec(p, S, alpha)
        if num_vectors_per_support:
            sseed = seed.child(1, s_idx)
            Y = sample_cone_vectors(spec, [sseed.child(i) for i in range(num_vectors_per_support)])
            r = _ratios(G, Y, q)
            j = int(np.argmin(r))  # the first of equal minima, as a strict-less scan keeps
            if r[j] < local:
                local, vec = float(r[j]), Y[j].copy()
        per_support.append((S, local))
        if local < best:
            best, best_vec, best_sup = local, vec, S
    samples = len(supports) * num_vectors_per_support
    return REEstimate(best, alpha, sparsity, samples, best_vec, best_sup, per_support)


@dataclass
class CascadeReport:
    violations_left: int
    violations_right: int
    worst_margin: float
    membership_skipped: int
    samples: int
    lambda1: float
    lambda2: float
    gamma_used: float


_MARGIN_TOL = 1e-10  # relative slack a cascade inequality may miss by through rounding


def cascade_check(
    G,
    C1,
    C2,
    spec: ConeSpec,
    num_vectors: int = 100,
    seed: Seed = Seed(0),
) -> CascadeReport:
    """Pointwise probe of the RE cascade inequalities on sampled cone vectors.

    LEFT, for every sampled y:   (1/q)||C1 G y||^2 >= lam1^2 (1/q)||G y||^2.
    RIGHT, for y with C2 y still in the cone (others are skipped and
    counted):                    (1/q)||G C2 y||^2 >= gamma lam2^2 ||y||^2.

    lam1, lam2 are the smallest singular values of C1, C2.  gamma is the
    battery's empirical cone floor: the minimum design ratio over the
    exact on-support directions of spec.support, all sampled vectors,
    and their membership-passing images.  With that instantiation every
    step of the chain is an exact pointwise inequality, so any
    violation beyond the _MARGIN_TOL relative margin indicates an
    implementation bug, not sampling noise.  worst_margin is the
    smallest relative slack seen.
    """
    G = as_matrix(G, "G")
    C1 = as_matrix(C1, "C1")
    C2 = as_matrix(C2, "C2")
    q, p = G.shape
    if C1.shape != (q, q) or C2.shape != (p, p):
        raise ValueError("C1 must be q x q and C2 p x p")
    if spec.dim != p:
        raise ValueError("cone dimension must match design columns")
    if num_vectors < 1:
        raise ValueError("num_vectors must be >= 1")
    lam1 = min_singular_value(C1)
    lam2 = min_singular_value(C2)

    S = list(spec.support)
    sub = G[:, S]
    gamma_S = float(np.linalg.eigvalsh(sub.T @ sub / q)[0])

    Y = sample_cone_vectors(spec, [seed.child(i) for i in range(num_vectors)])
    V = matvecs(C2, Y)  # the images C2 y
    members = _cone_margins(V, spec) >= 0
    GY, GV = matvecs(G, Y), matvecs(G, V)
    gy, gv, yy, vv = rowdots(GY, GY), rowdots(GV, GV), rowdots(Y, Y), rowdots(V, V)
    counted = members & (vv > 0)
    gamma = min(gamma_S, float(np.min(gy / q / yy)),
                float(np.min(gv[counted] / q / vv[counted], initial=math.inf)))

    CGY = matvecs(C1, GY)
    rhs = lam1**2 * gy / q
    left = (rowdots(CGY, CGY) / q - rhs) / np.maximum(rhs, 1e-300)
    rhs = gamma * lam2**2 * yy[members]
    right = (gv[members] / q - rhs) / np.maximum(rhs, 1e-300)
    return CascadeReport(
        violations_left=int(np.count_nonzero(left < -_MARGIN_TOL)),
        violations_right=int(np.count_nonzero(right < -_MARGIN_TOL)),
        worst_margin=float(min(left.min(), right.min(initial=math.inf))),
        membership_skipped=int(np.count_nonzero(~members)),
        samples=num_vectors,
        lambda1=lam1,
        lambda2=lam2,
        gamma_used=gamma,
    )


def cascade_triple(seed: Seed, q: int, p: int, k: int):
    """One (G, C1, C2, support) triple of the cascade battery, drawn from seed's children 0-3.

    G is a q x p standard normal design (child 0); C1 = I + 0.2 W1 / sqrt(q)
    (child 1) and C2 = I + 0.05 W2 / sqrt(p) (child 2), W1 and W2 standard
    normal, the small C2 perturbation keeping cone membership frequent;
    the support is k distinct columns, sorted (child 3).  Child 4 is
    left for cascade_check's cone vectors.
    """
    G = seed.child(0).rng().normal(size=(q, p))
    C1 = np.eye(q) + 0.2 * seed.child(1).rng().normal(size=(q, q)) / math.sqrt(q)
    C2 = np.eye(p) + 0.05 * seed.child(2).rng().normal(size=(p, p)) / math.sqrt(p)
    support = tuple(np.sort(seed.child(3).rng().choice(p, size=k, replace=False)))
    return G, C1, C2, support


def error_bound(delta: float, gamma: float, sigma: float, k: int, p: int, q: int) -> float:
    """Recovery error ceiling (delta / gamma^2) sigma^2 k ln(p) / q."""
    if not gamma > 0:
        raise ValueError("gamma must be positive (RE condition failed)")
    if q < 1 or p < 2 or k < 0:
        raise ValueError("need q >= 1, p >= 2, k >= 0")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    return (delta / gamma**2) * sigma**2 * k * math.log(p) / q


def constant_c(
    delta: float,
    gamma1: float,
    gamma2: float,
    lam1: float,
    lam2: float,
    lam3: float,
    lam4: float,
) -> float:
    """Budget constant delta (lam3 lam4)^2 / ((gamma1 gamma2)^2 (lam1 lam2)^4)."""
    vals = dict(delta=delta, gamma1=gamma1, gamma2=gamma2, lam1=lam1, lam2=lam2, lam3=lam3, lam4=lam4)
    for name, v in vals.items():
        if not v > 0:
            raise ValueError(f"{name} must be positive")
    return delta * (lam3 * lam4) ** 2 / ((gamma1 * gamma2) ** 2 * (lam1 * lam2) ** 4)


def save_re_report(est: REEstimate, path: str) -> None:
    """Per-support gamma table as CSV plus the overall estimate."""
    with open(path, "w") as fh:
        fh.write("support,gamma\n")
        for S, g in est.per_support_gamma:
            fh.write("\"" + " ".join(map(str, S)) + f"\",{g:.17g}\n")
        fh.write(f"\"OVERALL (alpha={est.alpha:g} k={est.sparsity})\",{est.gamma_hat:.17g}\n")
