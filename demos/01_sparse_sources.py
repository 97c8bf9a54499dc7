"""Doubly sparse source ensembles: generation, verification, round-trip.

Builds an ensemble of N correlated sources whose samples factor as
X = Psi M Phi^T with a k2 x k1 nonzero core block, then checks both
redundancy assumptions directly from X and shows the CSV round trip.

Run: python demos/01_sparse_sources.py
"""

import os
import tempfile

import numpy as np

from csnc import Seed, SparsityProfile, generate_ensemble, make_dictionary_pair, verify_assumption
from csnc.sources import load_ensemble, save_ensemble


def main():
    N, n, k1, k2 = 32, 24, 3, 2
    seed = Seed(7)
    dicts = make_dictionary_pair("discrete-cosine", "random-orthonormal", n, N, seed.child(1))
    ens = generate_ensemble(SparsityProfile(N, n, k1, k2), dicts, (1.0, 2.0), seed.child(2))

    print(f"ensemble: {N} sources x {n} samples, k1={k1} (temporal), k2={k2} (spatial)")
    print(f"core block rows {list(ens.row_support)}, cols {list(ens.col_support)}")

    resid = np.linalg.norm(ens.X - dicts.Psi @ ens.core @ dicts.Phi.T)
    print(f"factorization residual: {resid:.3e}")

    report = verify_assumption(ens, dicts, sparsity_tol=1e-8)
    print(f"temporal sparsity holds: {report.temporal_ok}")
    print(f"spatial sparsity holds:  {report.spatial_ok}")
    print(f"worst truncation residual: {report.worst_residual:.3e}")

    # spatial closure: ANY fixed functional of the samples is k2-sparse in Psi
    a = seed.child(3).rng().normal(size=n)
    mu = np.linalg.solve(dicts.Psi, ens.X @ a)
    heavy = np.flatnonzero(np.abs(mu) > 1e-10 * np.max(np.abs(mu)))
    print(f"random functional -> spatial coefficients on rows {list(heavy)}")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ensemble.csv")
        save_ensemble(ens, path, dicts, seed=seed.child(2), dict_seed=seed.child(1))
        loaded, meta = load_ensemble(path)
    print(f"round trip exact: {np.array_equal(loaded.X, ens.X)} (meta keys: {sorted(meta)[:4]}...)")


if __name__ == "__main__":
    main()
