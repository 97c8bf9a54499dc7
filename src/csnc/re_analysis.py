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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .mathcore import Seed, as_matrix, min_singular_value


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
        if self.alpha < 1.0:
            raise ValueError("alpha must be >= 1")
        object.__setattr__(self, "support", S)

    @property
    def complement(self) -> np.ndarray:
        mask = np.ones(self.dim, dtype=bool)
        mask[list(self.support)] = False
        return np.flatnonzero(mask)


def cone_membership_margin(y, spec: ConeSpec) -> float:
    """alpha * ||y_S||_1 - ||y_{S^c}||_1; nonnegative inside the cone."""
    y = np.asarray(y, dtype=float)
    S = list(spec.support)
    on = np.sum(np.abs(y[S]))
    off = np.sum(np.abs(y[spec.complement]))
    return float(spec.alpha * on - off)


def sample_cone_vector(spec: ConeSpec, seed: Seed, slack: float | None = None) -> np.ndarray:
    """Random unit vector in C(S; alpha).

    The on- and off-support blocks are drawn i.i.d. normal and the off
    block is rescaled so its l1 norm equals slack * alpha * ||y_S||_1,
    with slack uniform in [0, 1] unless given.  slack = 0 puts the
    vector exactly on the support.
    """
    rng = seed.rng()
    y = np.zeros(spec.dim)
    S = list(spec.support)
    comp = spec.complement
    y[S] = rng.normal(size=len(S))
    if np.all(y[S] == 0):  # measure-zero guard
        y[S[0]] = 1.0
    if comp.size:
        off = rng.normal(size=comp.size)
        s = rng.uniform() if slack is None else float(slack)
        if not (0.0 <= s <= 1.0):
            raise ValueError("slack must lie in [0, 1]")
        budget = s * spec.alpha * np.sum(np.abs(y[S]))
        l1 = np.sum(np.abs(off))
        y[comp] = off * (budget / l1) if l1 > 0 else 0.0
    return y / np.linalg.norm(y)


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


def _ratio(G, y, q):
    Gy = G @ y
    return float((Gy @ Gy) / q / (y @ y))


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
    sampled cone vectors.  Deterministic given the seed: stream i is
    reserved for support i.
    """
    G = as_matrix(G, "G")
    q, p = G.shape
    if sparsity < 1 or sparsity > p:
        raise ValueError("need 1 <= sparsity <= p")
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
    samples = 0
    for s_idx, S in enumerate(supports):
        sub = G[:, list(S)]
        gram = sub.T @ sub / q
        w, V = np.linalg.eigh(gram)
        local = float(w[0])
        vec = np.zeros(p)
        vec[list(S)] = V[:, 0]
        spec = ConeSpec(p, S, alpha)
        sseed = seed.child(1, s_idx)
        for i in range(num_vectors_per_support):
            y = sample_cone_vector(spec, sseed.child(i))
            samples += 1
            r = _ratio(G, y, q)
            if r < local:
                local = r
                vec = y
        per_support.append((S, local))
        if local < best:
            best, best_vec, best_sup = local, vec, S
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
    lam1 = min_singular_value(C1)
    lam2 = min_singular_value(C2)

    S = list(spec.support)
    sub = G[:, S]
    gamma_S = float(np.linalg.eigvalsh(sub.T @ sub / q)[0])

    ys = [sample_cone_vector(spec, seed.child(i)) for i in range(num_vectors)]
    images = [C2 @ y for y in ys]
    members = [cone_membership_margin(v, spec) >= 0 for v in images]

    def ratio(v):
        Gv = G @ v
        return float((Gv @ Gv) / q / (v @ v))

    gamma = gamma_S
    for y in ys:
        gamma = min(gamma, ratio(y))
    for v, ok in zip(images, members):
        if ok and float(v @ v) > 0:
            gamma = min(gamma, ratio(v))

    left_bad = 0
    right_bad = 0
    skipped = 0
    worst = math.inf
    for y, v, ok in zip(ys, images, members):
        Gy = G @ y
        lhs = (C1 @ Gy) @ (C1 @ Gy) / q
        rhs = lam1**2 * (Gy @ Gy) / q
        margin = (lhs - rhs) / max(rhs, 1e-300)
        worst = min(worst, margin)
        if margin < -_MARGIN_TOL:
            left_bad += 1

        if not ok:
            skipped += 1
            continue
        Gv = G @ v
        lhs = (Gv @ Gv) / q
        rhs = gamma * lam2**2 * (y @ y)
        margin = (lhs - rhs) / max(rhs, 1e-300)
        worst = min(worst, margin)
        if margin < -_MARGIN_TOL:
            right_bad += 1
    return CascadeReport(left_bad, right_bad, worst, skipped, num_vectors, lam1, lam2, gamma)


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
