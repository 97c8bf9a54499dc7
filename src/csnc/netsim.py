"""The network as a linear operator.

A receiver observes Z = G (b * y) + W per time index: G is its
transfer matrix, b the on-off mask, and W white Gaussian noise.  G can
be drawn directly (i.i.d. Gaussian, for clean scaling experiments) or
derived from the two-layer random topology of the dense-mixing example:
sources wired to m high in-degree intermediates with random coding
coefficients (G1), followed by dense random linear coding down to m2
outputs (G2), so G = G2 G1.

Composite transfer matrices are rescaled to unit entry variance so a
topology-derived G is statistically interchangeable with a direct
Gaussian one; without this the restricted-eigenvalue level and the
regularization scale would drift with the topology size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .mathcore import Seed, as_matrix, as_vector, gaussian_matrix, rademacher_matrix
from .precoder import OnOffPattern

COEFF_FAMILIES = ("rademacher", "gaussian")


@dataclass
class NetworkTopology:
    """Layered DAG: sources -> intermediates -> one receiver."""

    node_count: int
    edges: list[tuple[int, int]]
    source_nodes: list[int]
    intermediate_nodes: list[int]
    receiver_nodes: list[int]


@dataclass
class TransferMatrix:
    """End-to-end m2 x N linear map for one receiver.

    decomposition holds (G1, G2) with G = scale * G2 G1 when the matrix
    was derived from a two-layer topology.
    """

    G: np.ndarray
    decomposition: tuple[np.ndarray, np.ndarray] | None = None
    receiver: int = 0
    scale: float = 1.0

    def __post_init__(self):
        self.G = as_matrix(self.G, "G")

    @property
    def m2(self) -> int:
        return self.G.shape[0]

    @property
    def N(self) -> int:
        return self.G.shape[1]


@dataclass(frozen=True)
class ChannelModel:
    """AWGN with per-component noise standard deviation sigma."""

    sigma: float

    def __post_init__(self):
        if not (self.sigma >= 0 and np.isfinite(self.sigma)):
            raise ValueError("sigma must be finite and >= 0")


def build_example_topology(N: int, m: int, connect_prob: float, seed: Seed) -> NetworkTopology:
    """Random two-layer topology: N sources, m intermediates, one receiver.

    Each (source, intermediate) edge is present independently with
    probability connect_prob; connect_prob must be at least 1/3 so the
    intermediates are high in-degree (expected in-degree >= N/3).  Every
    intermediate feeds the receiver.
    """
    if N < 3 or m < 1:
        raise ValueError("need N >= 3 and m >= 1")
    if connect_prob < 1.0 / 3.0 or connect_prob > 1.0:
        raise ValueError("connect_prob must lie in [1/3, 1]")
    rng = seed.rng()
    sources = list(range(N))
    intermediates = list(range(N, N + m))
    receiver = N + m
    present = rng.random((m, N)) < connect_prob
    edges = [(i, N + j) for j in range(m) for i in range(N) if present[j, i]]
    edges += [(N + j, receiver) for j in range(m)]
    return NetworkTopology(N + m + 1, edges, sources, intermediates, [receiver])


def derive_transfer_matrix(
    topo: NetworkTopology,
    m2: int,
    coeff_family: str = "rademacher",
    seed: Seed = Seed(0),
    normalize: bool = True,
) -> TransferMatrix:
    """Transfer matrix of a two-layer topology: G = G2 G1 (rescaled).

    G1[j, i] carries the coding coefficient of edge (source i ->
    intermediate j), zero when absent; coefficients come from
    coeff_family.  G2 is a dense m2 x m Gaussian modeling random linear
    coding through the second stage, so m2 <= m.  With normalize, G is
    scaled by 1/sqrt(m * edge_density) to unit entry variance.
    """
    N = len(topo.source_nodes)
    m = len(topo.intermediate_nodes)
    if m2 < 1 or m2 > m:
        raise ValueError("need 1 <= m2 <= m (the second stage cannot create information)")
    if coeff_family not in COEFF_FAMILIES:
        raise ValueError(f"unknown coefficient family {coeff_family!r}")
    src_index = {node: i for i, node in enumerate(topo.source_nodes)}
    mid_index = {node: j for j, node in enumerate(topo.intermediate_nodes)}

    if coeff_family == "rademacher":
        coeffs = rademacher_matrix(m, N, seed.child(1))
    else:
        coeffs = gaussian_matrix(m, N, 1.0, seed.child(1))
    mask = np.zeros((m, N))
    n_edges = 0
    for a, b in topo.edges:
        if a in src_index and b in mid_index:
            mask[mid_index[b], src_index[a]] = 1.0
            n_edges += 1
    G1 = coeffs * mask
    G2 = gaussian_matrix(m2, m, 1.0, seed.child(2))
    scale = 1.0
    if normalize and n_edges:
        density = n_edges / (m * N)
        scale = 1.0 / np.sqrt(m * density)
    G2 = scale * G2  # fold the normalization into the second stage: G = G2 G1 exactly
    return TransferMatrix(G2 @ G1, (G1, G2), topo.receiver_nodes[0], scale)


def direct_transfer_matrix(m2: int, N: int, seed: Seed, family: str = "gaussian") -> TransferMatrix:
    """Topology-free transfer matrix with i.i.d. unit-variance entries."""
    if m2 < 1 or N < 1:
        raise ValueError("need m2 >= 1 and N >= 1")
    if family == "gaussian":
        G = gaussian_matrix(m2, N, 1.0, seed)
    elif family == "rademacher":
        G = rademacher_matrix(m2, N, seed)
    elif family == "identity":
        if m2 != N:
            raise ValueError("identity transfer requires m2 == N")
        G = np.eye(N)
    else:
        raise ValueError(f"unknown transfer family {family!r}")
    return TransferMatrix(G)


def transmit(tm: TransferMatrix, pat: OnOffPattern, y, ch: ChannelModel, seed: Seed) -> np.ndarray:
    """One network use: Z = G (pattern * y) + W, W i.i.d. normal(0, sigma^2)."""
    v = as_vector(y, "y")
    if v.shape[0] != tm.N or pat.diag.shape[0] != tm.N:
        raise ValueError("source vector and pattern must have length N")
    z = tm.G @ (pat.diag * v)
    if ch.sigma > 0:
        z = z + seed.rng().normal(0.0, ch.sigma, size=tm.m2)
    return z


def network_uses(m1: int, m2: int, m: int) -> Fraction:
    """Network uses consumed by the whole scheme: exactly m1 * m2 / m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m1 < 0 or m2 < 0:
        raise ValueError("m1 and m2 must be nonnegative")
    return Fraction(m1 * m2, m)

