"""Each independent check accepts a right answer and rejects a planted wrong one.

    python3 -m pytest perfbench/test_checks.py      (or: python3 perfbench/test_checks.py)

Needs numpy only; nothing here imports csnc.
"""

import math
import os
import sys
import unittest

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402


def lasso_by_projected_gradient(G, z, xi, iters=20000):
    """Reference LASSO minimiser (proximal gradient), independent of the csnc solver."""
    q = G.shape[0]
    step = q / np.linalg.norm(G, 2) ** 2
    c = np.zeros(G.shape[1])
    for _ in range(iters):
        v = c - step * (G.T @ (G @ c - z) / q)
        c = np.sign(v) * np.maximum(np.abs(v) - step * xi, 0.0)
    return c


class TestChecks(unittest.TestCase):
    def setUp(self):
        self.rng = np.random.default_rng(7)

    def test_kkt_certificate_rejects_perturbed_coefficients(self):
        G = self.rng.normal(size=(20, 12))
        truth = np.zeros(12)
        truth[[1, 5]] = [1.5, -2.0]
        z = G @ truth + 0.01 * self.rng.normal(size=20)
        coef = lasso_by_projected_gradient(G, z, 0.05)
        _, ok = checks.check_certificate(G, z, 0.05, coef, 1e-8)
        self.assertEqual(ok, [])
        bad = coef.copy()
        bad[1] += 1e-3
        _, problems = checks.check_certificate(G, z, 0.05, bad, 1e-8)
        self.assertTrue(problems)
        wrong_support = coef.copy()
        wrong_support[3] = 1e-4
        self.assertTrue(checks.check_certificate(G, z, 0.05, wrong_support, 1e-8)[1])

    def test_distortion_rejects_wrong_report(self):
        X = self.rng.normal(size=(4, 8))
        x_hat = X + 0.1 * self.rng.normal(size=(4, 8))
        right = np.sum((X - x_hat) ** 2, axis=1) / 8
        self.assertEqual(checks.check_distortion(right, X, x_hat), [])
        wrong = right.copy()
        wrong[2] *= 0.5
        self.assertTrue(checks.check_distortion(wrong, X, x_hat))
        self.assertTrue(checks.check_distortion(right[:3], X, x_hat))

    def test_budget_and_baseline_reject_wrong_values(self):
        args = (0.83, 2, 2, 32, 32, 8, 0.1, 0.0025)
        c_use = 0.83 * 4 * math.log(32) ** 2 / 8 * 4
        self.assertEqual(checks.check_budget(c_use, *args), [])
        self.assertTrue(checks.check_budget(c_use * 1.01, *args))
        self.assertEqual(checks.check_baseline(256.0, 32, 32, 8, 0.1, 0.0025), [])
        self.assertTrue(checks.check_baseline(128.0, 32, 32, 8, 0.1, 0.0025))
        self.assertAlmostEqual(checks.naive_baseline(128, 128, 32, 0.1, 0.0025), 1024.0, places=9)
        self.assertEqual(checks.naive_baseline(8, 8, 8, 0.01, 0.0025), 0.0)

    def test_bisection_rejects_a_wide_bracket(self):
        def passes(f):
            return f == 1.0 or f > 0.9

        evals = [(0.001, 3, 3, 0.0), (1e6, 32, 32, 1.0), (0.76, 13, 12, 0.85), (0.83, 13, 13, 0.95)]
        self.assertEqual(checks.check_bisection(0.83, evals, passes, 1.1), [])
        self.assertTrue(checks.check_bisection(0.83, evals[:2] + evals[3:], passes, 1.1))
        self.assertTrue(checks.check_bisection(0.76, evals, passes, 1.1))

    def test_slope(self):
        xs = np.log([50, 100, 200, 400])
        self.assertAlmostEqual(checks.loglog_slope(xs, 3.0 / np.exp(xs)), -1.0, places=12)
        self.assertAlmostEqual(checks.loglog_slope(xs, np.exp(2 * xs)), 2.0, places=12)

    def test_cascade_left_rejects_wrong_lambda_and_violations(self):
        G = self.rng.normal(size=(10, 20))
        C1 = np.eye(10) + 0.2 * self.rng.normal(size=(10, 10)) / math.sqrt(10)
        ys = checks.cone_vectors(20, (2, 7, 11), 1.0, 30, self.rng)
        S, off = [2, 7, 11], [i for i in range(20) if i not in (2, 7, 11)]
        self.assertTrue(np.all(np.abs(ys[:, off]).sum(1) <= np.abs(ys[:, S]).sum(1) * (1 + 1e-12)))
        lam = checks.min_singular_value(C1)
        self.assertEqual(checks.check_cascade_left(G, C1, lam, ys), [])
        self.assertTrue(checks.check_cascade_left(G, C1, lam * 1.5, ys))

    def test_rank(self):
        A = self.rng.normal(size=(6, 10))
        self.assertEqual(checks.rank(A), 6)
        A[5] = A[0] + A[1]
        self.assertEqual(checks.rank(A), 5)

    def test_re_upper_estimate_rejects_unattained_or_too_high_levels(self):
        G = self.rng.normal(size=(8, 16))
        sup = (1, 4)
        sub = G[:, list(sup)]
        w, V = np.linalg.eigh(sub.T @ sub / 8)
        v = np.zeros(16)
        v[list(sup)] = V[:, 0]
        per_support = [(sup, float(w[0]))]
        self.assertEqual(checks.check_re_upper_estimate(G, float(w[0]), v, sup, 1.0, per_support), [])
        # a level the witness does not attain
        self.assertTrue(checks.check_re_upper_estimate(G, 0.5 * w[0], v, sup, 1.0, [(sup, 0.5 * w[0])]))
        # a witness outside the cone
        outside = v.copy()
        outside[0] = 10.0
        level = float(np.sum((G @ outside) ** 2) / 8 / (outside @ outside))
        problems = checks.check_re_upper_estimate(G, level, outside, sup, 1.0, [(sup, level)])
        self.assertTrue(any("outside the cone" in p for p in problems))
        # a per-support level above that support's exact minimum
        self.assertTrue(checks.check_re_upper_estimate(G, float(w[0]), v, sup, 1.0,
                                                       per_support + [((2, 3), 1e9)]))


if __name__ == "__main__":
    unittest.main()
