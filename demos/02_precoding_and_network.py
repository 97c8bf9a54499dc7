"""Pre-coding and the network as a linear operator.

Shows the temporal projection to m1 dimensions, the Bernoulli on-off
transmit masks (and the power saving they buy), the two-layer random
topology with its G = G2 G1 transfer matrix, and a noisy transmission.

Run: python demos/02_precoding_and_network.py
"""

import numpy as np

from csnc import (
    Seed,
    SparsityProfile,
    build_example_topology,
    derive_transfer_matrix,
    draw_onoff,
    generate_ensemble,
    make_dictionary_pair,
    make_projection,
    matrix_rank,
    network_uses,
    temporal_project,
    transmit,
)


def main():
    N, n, m, m1, m2 = 64, 32, 16, 10, 16
    seed = Seed(21)
    dicts = make_dictionary_pair("random-orthonormal", "random-orthonormal", n, N, seed.child(1))
    ens = generate_ensemble(SparsityProfile(N, n, 3, 3), dicts, (1.0, 2.0), seed.child(2))

    A = make_projection(m1, n, seed.child(3))
    Y = temporal_project(ens, A)
    print(f"projected {n}-sample sources down to m1={m1}: Y is {Y.shape[0]} x {Y.shape[1]}")

    b = draw_onoff(N, m2 / N, seed.child(4).rng())
    print(f"on-off mask at prob m2/N={m2/N:.3f}: {int(b.sum())} of {N} transmit "
          f"({1.0 - b.mean():.0%} stay silent)")

    incidence = build_example_topology(N, m, 1.0 / 3.0, seed.child(5))
    print(f"topology: {N} sources -> {m} intermediates -> 1 receiver, "
          f"{int(incidence.sum())} first-stage edges")

    tm = derive_transfer_matrix(incidence, m2, "rademacher", seed.child(6))
    G1, G2 = tm.decomposition
    print(f"transfer matrix G = G2 G1: {tm.G.shape}, rank {matrix_rank(tm.G)} "
          f"(G1 {G1.shape}, G2 {G2.shape})")

    z = transmit(tm, b, Y[0], 0.1, seed.child(7).rng())
    print(f"one network use at sigma=0.1 delivers {z.shape[0]} combinations, |z| up to {np.abs(z).max():.2f}")
    print(f"total scheme cost: {network_uses(m1, m2, m)} network uses (m1 m2 / m)")


if __name__ == "__main__":
    main()
