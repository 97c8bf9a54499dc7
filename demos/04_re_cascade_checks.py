"""Restricted-eigenvalue machinery and the cascade inequalities.

Estimates the RE level of Gaussian and topology-derived designs over a
sparsity cone, probes the two cascade inequalities pointwise, and
evaluates the recovery-error ceiling and the budget constant.

Run: python demos/04_re_cascade_checks.py
"""

import numpy as np

from csnc import (
    ConeSpec,
    Seed,
    build_example_topology,
    cascade_check,
    constant_c,
    derive_transfer_matrix,
    error_bound,
    estimate_re,
    sample_cone_vectors,
)


def main():
    seed = Seed(55)
    q, p, k = 60, 200, 5

    G = seed.child(0).rng().normal(size=(q, p))
    est = estimate_re(G, sparsity=k, alpha=1.0, num_supports=40, num_vectors_per_support=40,
                      seed=seed.child(1))
    print(f"Gaussian {q}x{p} design, k={k} cone: gamma_hat = {est.gamma_hat:.4f} "
          f"(upper estimate from {est.samples_used} samples)")

    topo = build_example_topology(p, q, 1.0 / 3.0, seed.child(2))
    tm = derive_transfer_matrix(topo, q, "rademacher", seed.child(3))
    est2 = estimate_re(tm.G, sparsity=k, alpha=1.0, num_supports=40, num_vectors_per_support=40,
                       seed=seed.child(4))
    print(f"topology-derived design: gamma_hat = {est2.gamma_hat:.4f}")

    # cone sampling honors the l1 constraint exactly
    spec = ConeSpec(p, tuple(range(k)), alpha=1.0)
    y = sample_cone_vectors(spec, [seed.child(5)])[0]
    on = np.sum(np.abs(y[:k]))
    off = np.sum(np.abs(y[k:]))
    print(f"sampled cone vector: off-support l1 {off:.3f} <= alpha * on-support l1 {on:.3f}")

    # cascading: well-conditioned outer factors keep the RE level alive
    C1 = np.eye(q) + 0.2 * seed.child(6).rng().normal(size=(q, q)) / np.sqrt(q)
    C2 = np.eye(p) + 0.2 * seed.child(7).rng().normal(size=(p, p)) / np.sqrt(p)
    rep = cascade_check(G, C1, C2, spec, num_vectors=200, seed=seed.child(8))
    print(f"cascade battery: left violations {rep.violations_left}, right {rep.violations_right}, "
          f"{rep.membership_skipped} skipped for cone membership, worst margin {rep.worst_margin:.3g}")
    print(f"smallest singular values: lambda1 = {rep.lambda1:.3f}, lambda2 = {rep.lambda2:.3f}")

    bound = error_bound(delta=1.0, gamma=est.gamma_hat, sigma=0.1, k=k, p=p, q=q)
    print(f"recovery error ceiling at sigma=0.1: {bound:.4g}")
    c = constant_c(1.0, est.gamma_hat, est2.gamma_hat, 0.9, 0.9, 1.1, 1.1)
    print(f"composite budget constant for those levels: c = {c:.3f}")


if __name__ == "__main__":
    main()
