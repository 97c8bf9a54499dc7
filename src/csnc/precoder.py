"""Temporal projection and probabilistic on-off spatial pre-coding.

Step one of the pipeline projects each source's n samples down to m1
dimensions with an i.i.d. Gaussian matrix; step two masks sources with
an i.i.d. Bernoulli 0/1 diagonal, drawn afresh for each time index, so
only a fraction transmit at each time.

The projection is a single m1 x n matrix A shared by every source:
with a shared A, every cross-source slice Y^t = (A X_i)_t keeps the
exact spatial sparsity of the ensemble, which is what the spatial
decoder relies on.
"""

from __future__ import annotations

import numpy as np

from .mathcore import Seed, as_matrix, gaussian_matrix
from .sources import SourceEnsemble


def make_projection(m1, n, seed: Seed) -> np.ndarray:
    """Draw the m1 x n projection matrix A with i.i.d. normal(0, 1) entries."""
    if m1 < 1:
        raise ValueError("m1 must be >= 1")
    return gaussian_matrix(m1, n, seed)


def temporal_project(ens: SourceEnsemble, A) -> np.ndarray:
    """Project every source: returns the m1 x N matrix whose column i is A X_i."""
    A = as_matrix(A, "A")
    X = ens.X
    if A.shape[1] != X.shape[1]:
        raise ValueError("projection width must match samples per source")
    return A @ X.T


def draw_onoff(N: int, prob: float, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. Bernoulli(prob) on-off diagonal over N sources, as a 0/1 float vector drawn from rng."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if not (0.0 <= prob <= 1.0):
        raise ValueError("prob must lie in [0, 1]")
    return (rng.random(N) < prob).astype(np.float64)
