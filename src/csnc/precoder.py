"""Temporal projection and probabilistic on-off spatial pre-coding.

Step one of the pipeline projects each source's n samples down to m1
dimensions with a random matrix; step two masks sources with an i.i.d.
Bernoulli 0/1 diagonal so only a fraction transmit at each time.

The projection is a single matrix shared by every source: with
a shared A, every cross-source slice Y^t = (A X_i)_t keeps the exact
spatial sparsity of the ensemble, which is what the spatial decoder
relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mathcore import Seed, as_matrix, gaussian_matrix, rademacher_matrix
from .sources import SourceEnsemble

PROJECTION_FAMILIES = ("gaussian", "rademacher", "identity")


@dataclass
class ProjectionOperator:
    """m1 x n projection shared by all sources."""

    A: np.ndarray

    def __post_init__(self):
        self.A = as_matrix(self.A, "A")

    @property
    def m1(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


def make_projection(m1, n, family, seed: Seed) -> ProjectionOperator:
    """Draw a projection operator.

    gaussian draws i.i.d. normal(0, 1) entries and rademacher uniform
    {-1, +1}; identity requires m1 == n and is a degenerate family kept
    for lossless-pipeline tests.
    """
    if m1 < 1:
        raise ValueError("m1 must be >= 1")
    if family == "gaussian":
        A = gaussian_matrix(m1, n, 1.0, seed)
    elif family == "rademacher":
        A = rademacher_matrix(m1, n, seed)
    elif family == "identity":
        if m1 != n:
            raise ValueError("identity projection requires m1 == n")
        A = np.eye(n)
    else:
        raise ValueError(f"unknown projection family {family!r}")
    return ProjectionOperator(A)


def temporal_project(ens: SourceEnsemble, op: ProjectionOperator) -> np.ndarray:
    """Project every source: returns the m1 x N matrix whose column i is A X_i."""
    X = ens.X
    if op.n != X.shape[1]:
        raise ValueError("projection width must match samples per source")
    return op.A @ X.T


@dataclass
class OnOffPattern:
    """0/1 transmit mask over the N sources (draw_onoff draws it Bernoulli(prob))."""

    diag: np.ndarray

    def __post_init__(self):
        self.diag = np.asarray(self.diag, dtype=np.float64)
        if self.diag.ndim != 1 or not np.all(np.isin(self.diag, (0.0, 1.0))):
            raise ValueError("pattern diagonal must be a 0/1 vector")

    @property
    def active_count(self) -> int:
        return int(self.diag.sum())


def draw_onoff(N: int, prob: float, seed: Seed) -> OnOffPattern:
    """i.i.d. Bernoulli(prob) on-off diagonal over N sources."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if not (0.0 <= prob <= 1.0):
        raise ValueError("prob must lie in [0, 1]")
    diag = (seed.rng().random(N) < prob).astype(np.float64)
    return OnOffPattern(diag)


def expected_transmission_savings(pat: OnOffPattern) -> float:
    """Fraction of sources that stay silent under this pattern."""
    return 1.0 - pat.active_count / pat.diag.shape[0]

