"""The network as a linear operator.

A receiver observes Z = G (b * y) + W per time index: G is its
transfer matrix, b the on-off mask, and W white Gaussian noise.  G can
be drawn directly (i.i.d. Gaussian, for clean scaling experiments) or
derived from the two-layer random topology of the dense-mixing example:
sources wired to m high in-degree intermediates with random +-1 coding
coefficients (G1), followed by dense random linear coding down to m2
outputs (G2), so G = G2 G1.

Composite transfer matrices are rescaled to unit entry variance so a
topology-derived G is statistically interchangeable with a direct
Gaussian one; without this the restricted-eigenvalue level and the
regularization scale would drift with the topology size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .mathcore import Seed, as_matrix, as_vector, gaussian_matrix, rademacher_matrix


@dataclass
class TransferMatrix:
    """End-to-end m2 x N linear map for one receiver.

    decomposition holds (G1, G2) with G = G2 @ G1 exactly when the
    matrix was derived from a two-layer topology; the normalization is
    folded into G2.
    """

    G: np.ndarray
    decomposition: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        self.G = as_matrix(self.G, "G")

    @property
    def m2(self) -> int:
        return self.G.shape[0]

    @property
    def N(self) -> int:
        return self.G.shape[1]


def build_example_topology(N: int, m: int, connect_prob: float, seed: Seed) -> np.ndarray:
    """First layer of a random two-layer topology: the m x N 0/1 incidence.

    Entry (j, i) is 1 when source i feeds intermediate j, which happens
    independently with probability connect_prob; connect_prob must be at
    least 1/3 so the intermediates are high in-degree (expected in-degree
    >= N/3).  Every intermediate feeds the receiver, so the second layer
    needs no record.
    """
    if N < 3 or m < 1:
        raise ValueError("need N >= 3 and m >= 1")
    if not (1.0 / 3.0 <= connect_prob <= 1.0):  # also rejects NaN
        raise ValueError("connect_prob must lie in [1/3, 1]")
    return (seed.rng().random((m, N)) < connect_prob).astype(np.float64)


def derive_transfer_matrix(
    incidence,
    m2: int,
    coeff_family: str = "rademacher",
    seed: Seed = Seed(0),
) -> TransferMatrix:
    """Transfer matrix of a two-layer topology: G = G2 G1 (rescaled).

    incidence is the m x N 0/1 first-layer matrix of
    build_example_topology.  G1[j, i] carries the coding coefficient of
    edge (source i -> intermediate j), zero when absent: a Rademacher
    (+-1) draw, coeff_family "rademacher", the one family; any other
    raises ValueError.  G2 is a dense m2 x m Gaussian modeling random
    linear coding through the second stage, so m2 <= m.  G is scaled by
    1/sqrt(m * edge_density) to unit entry variance.
    """
    mask = as_matrix(incidence, "incidence")
    if not ((mask == 0.0) | (mask == 1.0)).all():
        raise ValueError("incidence must be a 0/1 matrix")
    m, N = mask.shape
    if m2 < 1 or m2 > m:
        raise ValueError("need 1 <= m2 <= m (the second stage cannot create information)")
    if coeff_family != "rademacher":
        raise ValueError(f"unknown coefficient family {coeff_family!r}")

    n_edges = int(np.count_nonzero(mask))
    G1 = rademacher_matrix(m, N, seed.child(1)) * mask
    G2 = gaussian_matrix(m2, m, seed.child(2))
    if n_edges:  # fold the normalization into the second stage: G = G2 G1 exactly
        density = n_edges / (m * N)
        G2 = (1.0 / np.sqrt(m * density)) * G2
    return TransferMatrix(G2 @ G1, (G1, G2))


def direct_transfer_matrix(m2: int, N: int, seed: Seed) -> TransferMatrix:
    """Topology-free m2 x N transfer matrix with i.i.d. normal(0, 1) entries."""
    if m2 < 1 or N < 1:
        raise ValueError("need m2 >= 1 and N >= 1")
    return TransferMatrix(gaussian_matrix(m2, N, seed))


def transmit(tm: TransferMatrix, b, y, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """One network use: Z = G (b * y) + W, b the 0/1 on-off diagonal, W i.i.d. normal(0, sigma^2) from rng.

    Nothing is drawn when sigma = 0.
    """
    b = np.asarray(b, dtype=np.float64)
    v = as_vector(y, "y")
    if b.ndim != 1 or not ((b == 0.0) | (b == 1.0)).all():  # NaN fails both comparisons
        raise ValueError("pattern must be a 1-D 0/1 vector")
    if v.shape[0] != tm.N or b.shape[0] != tm.N:
        raise ValueError("source vector and pattern must have length N")
    if not (sigma >= 0 and math.isfinite(sigma)):
        raise ValueError("sigma must be finite and >= 0")
    z = tm.G @ (b * v)
    if sigma > 0:
        z = z + rng.normal(0.0, sigma, size=tm.m2)
    return z


def network_uses(m1: int, m2: int, m: int) -> Fraction:
    """Network uses consumed by the whole scheme: exactly m1 * m2 / m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m1 < 0 or m2 < 0:
        raise ValueError("m1 and m2 must be nonnegative")
    return Fraction(m1 * m2, m)

