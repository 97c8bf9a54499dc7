"""Doubly sparse source ensembles.

An ensemble of N sources with n samples each is generated as
X = Psi M Phi^T, where the core M is zero outside a k2 x k1 block of
randomly chosen rows and columns.  This makes both redundancy
assumptions exact at once: each source's coefficient vector
theta_i = (row i of Psi M) is k1-sparse because every row of M shares
one column support, and for ANY fixed linear functional a the
cross-source vector y with y_j = a^T X_j equals Psi (M Phi^T a), whose
coefficient vector is k2-sparse because M has at most k2 nonzero rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .mathcore import Seed, as_matrix, gaussian_matrix, matvecs, rowdots

DICTIONARY_KINDS = ("identity", "random-orthonormal", "discrete-cosine")


@dataclass(frozen=True)
class SparsityProfile:
    """Ensemble dimensions: N sources x n samples, sparsities k1 (temporal) and k2 (spatial)."""

    N: int
    n: int
    k1: int
    k2: int

    def __post_init__(self):
        if self.N < 1 or self.n < 1:
            raise ValueError("need N >= 1 and n >= 1")
        if not (0 <= self.k1 <= self.n):
            raise ValueError("need 0 <= k1 <= n")
        if not (0 <= self.k2 <= self.N):
            raise ValueError("need 0 <= k2 <= N")


@dataclass
class DictionaryPair:
    """Temporal (n x n) and spatial (N x N) dictionaries, both orthonormal as make_dictionary builds them."""

    Phi: np.ndarray
    Psi: np.ndarray
    kind_phi: str = "random-orthonormal"
    kind_psi: str = "random-orthonormal"


@dataclass
class SourceEnsemble:
    """Sample matrix X (row i = source i) with its generative factorization."""

    X: np.ndarray
    core: np.ndarray
    row_support: np.ndarray
    col_support: np.ndarray
    profile: SparsityProfile


def make_dictionary(kind: str, dim: int, seed: Seed | None = None) -> np.ndarray:
    """Build an orthonormal dim x dim dictionary of the requested kind.

    identity           -> I
    random-orthonormal -> Q from the QR of a seeded Gaussian matrix,
                          sign-fixed so the factorization is unique
    discrete-cosine    -> orthonormal type-II DCT basis, read-only and
                          shared between calls of the same dim
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if kind == "identity":
        return np.eye(dim)
    if kind == "discrete-cosine":
        return _dct(dim)
    if seed is None:
        raise ValueError(f"kind {kind!r} requires a seed")
    if kind == "random-orthonormal":
        Q, R = np.linalg.qr(gaussian_matrix(dim, dim, seed))
        return Q * np.sign(np.diag(R))[None, :]
    raise ValueError(f"unknown dictionary kind {kind!r}")


@functools.lru_cache(maxsize=8)
def _dct(dim: int) -> np.ndarray:
    """The orthonormal type-II DCT basis, built once per size and shared read-only."""
    j = np.arange(dim)
    k = j[:, None]
    C = np.cos(np.pi * (2 * j[None, :] + 1) * k / (2 * dim))
    C *= np.sqrt(2.0 / dim)
    C[0, :] = np.sqrt(1.0 / dim)
    C.flags.writeable = False  # the view below inherits it and cannot lift it
    return C.T  # columns are the cosine atoms


def make_dictionary_pair(kind_phi, kind_psi, n, N, seed: Seed) -> DictionaryPair:
    """Convenience builder for (Phi n x n, Psi N x N) from kinds and one seed."""
    return DictionaryPair(make_dictionary(kind_phi, n, seed.child(0)), make_dictionary(kind_psi, N, seed.child(1)),
                          kind_phi, kind_psi)


def generate_ensemble(
    profile: SparsityProfile,
    dicts: DictionaryPair,
    amp_range: tuple[float, float],
    seed: Seed,
) -> SourceEnsemble:
    """Draw a random ensemble X = Psi M Phi^T satisfying both sparsity assumptions.

    Supports are uniform without replacement; nonzero core entries have
    magnitude uniform in [lo, hi] (0 < lo <= hi) and random sign.
    """
    lo, hi = amp_range
    if not (0 < lo <= hi):
        raise ValueError("amplitude range must satisfy 0 < lo <= hi")
    N, n = profile.N, profile.n
    if dicts.Psi.shape[0] != N or dicts.Phi.shape[0] != n:
        raise ValueError("dictionary dimensions do not match the profile")
    rng = seed.rng()
    rows = np.sort(rng.choice(N, size=profile.k2, replace=False))
    cols = np.sort(rng.choice(n, size=profile.k1, replace=False))
    core = np.zeros((N, n))
    if rows.size and cols.size:
        mags = rng.uniform(lo, hi, size=(rows.size, cols.size))
        signs = 2.0 * rng.integers(0, 2, size=mags.shape) - 1.0
        core[np.ix_(rows, cols)] = mags * signs
    X = dicts.Psi @ core @ dicts.Phi.T
    return SourceEnsemble(X, core, rows, cols, profile)


@dataclass
class AssumptionReport:
    temporal_ok: bool
    spatial_ok: bool
    worst_residual: float


def verify_assumption(
    ens: SourceEnsemble,
    dicts: DictionaryPair,
    sparsity_tol: float | None = None,
    num_random_functionals: int = 10,
    seed: Seed = Seed(0),
) -> AssumptionReport:
    """Check both redundancy assumptions directly from X (the core is not trusted).

    temporal_ok: every theta_i = Phi^{-1} X_i has at most k1 entries above
    sparsity_tol.  spatial_ok: for every coordinate functional and
    num_random_functionals random ones, mu = Psi^{-1} (X a) has at most
    k2 entries above sparsity_tol.  worst_residual is the largest
    relative reconstruction error left after hard-truncating each
    coefficient vector to the allowed sparsity.

    sparsity_tol defaults to 1e-8 times the largest coefficient magnitude.
    """
    X = as_matrix(ens.X, "X")
    N, n = X.shape
    if dicts.Phi.shape[0] != n or dicts.Psi.shape[0] != N:
        raise ValueError("dictionary dimensions do not match the ensemble")
    k1, k2 = ens.profile.k1, ens.profile.k2

    Theta = np.linalg.solve(dicts.Phi, X.T)  # column i = theta_i
    rng = seed.rng()  # column j of Amat: functional j, the n coordinate ones first
    Amat = np.column_stack([np.eye(n)] + [rng.normal(size=n) for _ in range(num_random_functionals)])
    Mu = np.linalg.solve(dicts.Psi, X @ Amat)  # column j = mu for functional j

    def _check(coeffs, k, originals, basis):
        """Whether every column of coeffs has at most k heavy entries, and the worst truncation residual."""
        tol = 1e-8 * max(float(np.abs(coeffs).max()), 1.0) if sparsity_tol is None else sparsity_tol
        heavy = np.abs(coeffs) > tol
        R = matvecs(basis, (coeffs * ~heavy).T)  # row j: basis @ (column j's light entries)
        O = np.ascontiguousarray(originals.T)
        worst = np.sqrt(rowdots(R, R)) / np.maximum(1.0, np.sqrt(rowdots(O, O)))
        return bool(heavy.sum(axis=0).max() <= k), float(worst.max())

    temporal_ok, worst_t = _check(Theta, k1, X.T, dicts.Phi)
    spatial_ok, worst_s = _check(Mu, k2, X @ Amat, dicts.Psi)
    return AssumptionReport(temporal_ok, spatial_ok, max(worst_t, worst_s))


def save_ensemble(ens: SourceEnsemble, path: str, dicts: DictionaryPair | None = None,
                  seed: Seed | None = None, dict_seed: Seed | None = None) -> None:
    """Write X to `path` as CSV plus a `<path>.meta` sidecar.

    The sidecar records the profile, supports, nonzero core block, the
    generating seeds when supplied, and the dictionary kinds so the
    ensemble can be reconstructed exactly (17 significant digits).
    """
    np.savetxt(path, ens.X, delimiter=",", fmt="%.17g")
    p = ens.profile
    lines = ["[ensemble]", "schema = 1",
             f"N = {p.N}", f"n = {p.n}", f"k1 = {p.k1}", f"k2 = {p.k2}",
             "row_support = " + " ".join(str(i) for i in ens.row_support),
             "col_support = " + " ".join(str(i) for i in ens.col_support)]
    if seed is not None:
        lines += [f"seed_master = {seed.master}", f"seed_stream = {seed.stream}"]
    if dicts is not None:
        lines += [f"kind_phi = {dicts.kind_phi}", f"kind_psi = {dicts.kind_psi}"]
    if dict_seed is not None:
        lines += [f"dict_seed_master = {dict_seed.master}", f"dict_seed_stream = {dict_seed.stream}"]
    lines.append("[core]")
    for r in ens.row_support:
        lines.append(" ".join(f"{ens.core[r, c]:.17g}" for c in ens.col_support))
    with open(path + ".meta", "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_ensemble(path: str) -> tuple[SourceEnsemble, dict]:
    """Read back a save_ensemble pair; returns (ensemble, sidecar metadata)."""
    X = np.loadtxt(path, delimiter=",", ndmin=2)
    meta: dict = {}
    core_rows: list[list[float]] = []
    section = None
    with open(path + ".meta") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("["):
                section = line.strip("[]")
                continue
            if section == "core":
                core_rows.append([float(v) for v in line.split()])
            else:
                key, _, value = line.partition("=")
                meta[key.strip()] = value.strip()
    profile = SparsityProfile(int(meta["N"]), int(meta["n"]), int(meta["k1"]), int(meta["k2"]))
    rows = np.array([int(v) for v in meta["row_support"].split()] if meta["row_support"] else [], dtype=int)
    cols = np.array([int(v) for v in meta["col_support"].split()] if meta["col_support"] else [], dtype=int)
    core = np.zeros((profile.N, profile.n))
    for r, vals in zip(rows, core_rows):
        core[r, cols] = vals
    return SourceEnsemble(X, core, rows, cols, profile), meta
