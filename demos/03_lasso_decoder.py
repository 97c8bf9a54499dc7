"""The certified LASSO solver and the two-stage decoder.

Solves instances with the homotopy solver, shows the KKT
certificate, the closed form on an orthonormal design, and a full
spatial-then-temporal decode against ground truth.

Run: python demos/03_lasso_decoder.py
"""

import numpy as np

from csnc import (
    LassoProblem,
    Seed,
    default_xi,
    decode_spatial,
    decode_temporal,
    solve_lasso,
)


def main():
    rng = Seed(33).rng()

    # a noisy sparse recovery instance
    q, p, k, sigma = 40, 120, 4, 0.1
    G = rng.normal(size=(q, p))
    truth = np.zeros(p)
    support = np.sort(rng.choice(p, k, replace=False))
    truth[support] = rng.uniform(1, 2, k) * rng.choice([-1, 1], k)
    z = G @ truth + rng.normal(0, sigma, q)

    xi = default_xi(sigma, q, p)
    sol = solve_lasso(LassoProblem(z, G, xi))
    print(f"solved {q}x{p} instance: {sol.iterations} path steps, objective {sol.objective:.6f}")
    print(f"converged={sol.converged}, KKT residual {sol.kkt_residual:.2e}")

    # orthonormal design: the solution is one soft threshold
    Q, R = np.linalg.qr(rng.normal(size=(p, p)))
    D = Q * np.sqrt(p)
    z2 = D @ truth + rng.normal(0, sigma, p)
    sol2 = solve_lasso(LassoProblem(z2, D, xi))
    closed = np.sign(D.T @ z2 / p) * np.maximum(np.abs(D.T @ z2 / p) - xi, 0)
    print(f"orthonormal-design closed form matches: {np.allclose(sol2.coef, closed, atol=1e-8)}")

    # spatial stage recovers the sparse coefficients behind masked mixtures; its
    # design is G diag(b) Psi, here G itself (all-on pattern, identity dictionary)
    [mu_hat], _ = decode_spatial(z[:, None], G, [xi])
    print(f"spatial decode: support {np.flatnonzero(mu_hat).tolist()} vs truth {support.tolist()}, "
          f"rel err {np.linalg.norm(mu_hat - truth) / np.linalg.norm(truth):.2e}")

    # temporal stage: same machinery against a dictionary, on the design A Phi
    n, k1, m1 = 48, 3, 24
    A = rng.normal(size=(m1, n))
    Phi = np.eye(n)  # identity dictionary for the demo
    theta = np.zeros(n)
    theta[rng.choice(n, k1, replace=False)] = rng.uniform(1, 2, k1)
    x = Phi @ theta
    y = A @ x + rng.normal(0, 0.05, m1)
    [theta_hat], _ = decode_temporal(y[:, None], A @ Phi, [default_xi(0.05, m1, n)])
    print(f"temporal decode rel err: {np.linalg.norm(Phi @ theta_hat - x) / np.linalg.norm(x):.2e}")


if __name__ == "__main__":
    main()
