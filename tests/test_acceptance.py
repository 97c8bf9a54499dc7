"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The end-to-end
criterion calibrates the budget constant on pilot trials, so the whole
module takes several minutes on one core; everything is seeded and
byte-reproducible.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from csnc.harness import (
    ExperimentConfig,
    calibrate_c,
    direct_recovery_trial,
    export_results,
    naive_baseline,
    run_trials,
    write_summary,
)
from csnc.lasso import LassoProblem, kkt_check, solve_lasso
from csnc.mathcore import Seed, matrix_rank
from csnc.netsim import build_example_topology, derive_transfer_matrix
from csnc.re_analysis import ConeSpec, cascade_check, cascade_triple
from csnc.sources import SparsityProfile, generate_ensemble, make_dictionary_pair, verify_assumption

from oracles import orthonormal_design, projected_subgradient_lasso

MASTER = Seed(20260808)


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


# --- criterion 3 and 7 batteries (shared with the determinism criterion) ---

def noiseless_recovery_battery(master: Seed):
    rows = []
    hits = 0
    for i in range(100):
        sq, sup_ok, rel = direct_recovery_trial(80, 256, 5, 0.0, master.child(3, i))
        ok = sup_ok and rel < 1e-3
        hits += ok
        rows.append((i, int(sup_ok), rel, int(ok)))
    return hits, rows


def rank_battery(master: Seed):
    rows = []
    hits = 0
    for i in range(100):
        topo = build_example_topology(200, 40, 1.0 / 3.0, master.child(7, i, 0))
        tm = derive_transfer_matrix(topo, 40, "rademacher", master.child(7, i, 1))
        r = matrix_rank(tm.G)
        hits += r == 40
        rows.append((i, r))
    return hits, rows


def write_rows_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")


# --- criterion 8 shared fixture (feeds 9 and 10) ---

DEFAULT_CFG = ExperimentConfig(
    profile=SparsityProfile(N=128, n=128, k1=4, k2=4),
    m=32, m1=32, m2=32, sigma=0.1, D=0.0025,  # sigma^2 / D = 4
    master_seed=MASTER, trials=50,
)


@pytest.fixture(scope="module")
def calibrated_run(artifacts):
    t0 = time.time()
    calib = calibrate_c(DEFAULT_CFG, pilot_trials=30, target=0.9)
    fresh_cfg = replace(DEFAULT_CFG, m1=calib.plan.m1, m2=calib.plan.m2)
    records = run_trials(fresh_cfg, range(50))
    csv_path = str(artifacts / "criterion8_trials.csv")
    export_results(records, csv_path)
    elapsed = time.time() - t0
    return dict(calib=calib, cfg=fresh_cfg, records=records, csv=csv_path, elapsed=elapsed)


class TestAcceptance:
    def test_01_lasso_against_reference_oracle(self):
        t0 = time.time()
        worst_gap = -math.inf
        worst_kkt = 0.0
        for i in range(50):
            rng = MASTER.child(1, i).rng()
            q = int(rng.integers(5, 31))
            p = int(rng.integers(5, 31))
            k = int(rng.integers(1, max(2, min(q, p) // 2)))
            G = rng.normal(size=(q, p))
            coef = np.zeros(p)
            coef[rng.choice(p, k, replace=False)] = rng.uniform(1, 2, k) * rng.choice([-1, 1], k)
            sigma = float(rng.choice([0.0, 0.05, 0.2]))
            z = G @ coef + (rng.normal(0, sigma, q) if sigma else 0.0)
            xi = float(rng.uniform(0.02, 0.3))
            prob = LassoProblem(z, G, xi)
            sol = solve_lasso(prob)
            _, ref = projected_subgradient_lasso(z, G, xi)
            worst_gap = max(worst_gap, sol.objective - ref)
            worst_kkt = max(worst_kkt, kkt_check(prob, sol.coef))
        elapsed = time.time() - t0
        ok = worst_gap <= 1e-6 and worst_kkt <= 1e-5 and elapsed < 10
        report(1, ok, f"50 instances: worst objective gap {worst_gap:.2e} (<=1e-6), "
                      f"worst KKT {worst_kkt:.2e} (<=1e-5), {elapsed:.1f}s (<10s)")

    def test_02_orthonormal_design_closed_form(self):
        worst = 0.0
        for i in range(20):
            rng = MASTER.child(2, i).rng()
            p = int(rng.integers(8, 31))
            G = orthonormal_design(p, rng)
            z = rng.normal(size=p) * 2.0
            xi = float(rng.uniform(0.05, 0.5))
            sol = solve_lasso(LassoProblem(z, G, xi))
            b = G.T @ z / p
            closed = np.sign(b) * np.maximum(np.abs(b) - xi, 0.0)
            worst = max(worst, float(np.max(np.abs(sol.coef - closed))))
        ok = worst <= 1e-8
        report(2, ok, f"20 orthonormal designs: worst coefficient gap {worst:.2e} (<=1e-8)")

    def test_03_noiseless_exact_recovery(self):
        t0 = time.time()
        hits, _ = noiseless_recovery_battery(MASTER)
        elapsed = time.time() - t0
        ok = hits >= 95 and elapsed < 60
        report(3, ok, f"q=80, p=256, k=5, sigma=0: exact support + rel err <1e-3 in "
                      f"{hits}/100 seeds (>=95), {elapsed:.1f}s (<60s)")

    def test_04_error_bound_scaling(self):
        t0 = time.time()
        from csnc.harness import sweep

        # stage-1 scaling experiments: raw solver error (no debias), no stage 2
        sigma_cfg = ExperimentConfig(
            profile=SparsityProfile(N=256, n=16, k1=2, k2=5),
            m=32, m1=4, m2=100, sigma=0.1, D=0.01,
            master_seed=MASTER.child(4, 1), trials=50, debias=False, stage2=False,
            kind_phi="discrete-cosine", kind_psi="discrete-cosine",
        )
        res_sigma = sweep(sigma_cfg, "sigma", [0.05, 0.1, 0.2, 0.4])

        q_cfg = ExperimentConfig(
            profile=SparsityProfile(N=512, n=16, k1=2, k2=2),
            m=32, m1=4, m2=100, sigma=0.1, D=0.01,
            master_seed=MASTER.child(4, 2), trials=50, debias=False, stage2=False,
            kind_phi="discrete-cosine", kind_psi="discrete-cosine",
        )
        res_q = sweep(q_cfg, "m2", [50, 100, 200, 400])
        elapsed = time.time() - t0
        ok = (
            abs(res_sigma.slope - 1.0) <= 0.15
            and abs(res_q.slope + 1.0) <= 0.2
            and elapsed < 600
        )
        report(4, ok, f"median stage-1 error slopes: vs sigma^2 {res_sigma.slope:.3f} "
                      f"(1.0 +/- 0.15), vs q {res_q.slope:.3f} (-1.0 +/- 0.2), "
                      f"{elapsed:.0f}s (<600s)")

    def test_05_cascade_inequality_battery(self):
        t0 = time.time()
        q, p, k = 30, 60, 4
        left = right = skipped = 0
        worst = math.inf
        for i in range(200):
            s = MASTER.child(5, i)
            G, C1, C2, support = cascade_triple(s, q, p, k)
            rep = cascade_check(G, C1, C2, ConeSpec(p, support, 1.0), 100, s.child(4))
            left += rep.violations_left
            right += rep.violations_right
            skipped += rep.membership_skipped
        elapsed = time.time() - t0
        checked = 200 * 100 - skipped
        ok = left == 0 and right == 0 and elapsed < 120 and checked > 10_000
        report(5, ok, f"200 triples x 100 cone samples: LEFT violations {left} (=0), "
                      f"RIGHT violations {right} (=0) among {checked} membership-passing "
                      f"({skipped} skipped), {elapsed:.0f}s (<120s)")

    def test_06_generative_model_exactness(self):
        t0 = time.time()
        all_ok = True
        worst = 0.0
        for i in range(100):
            s = MASTER.child(6, i)
            dicts = make_dictionary_pair("random-orthonormal", "random-orthonormal", 32, 48, s.child(0))
            ens = generate_ensemble(SparsityProfile(48, 32, 3, 3), dicts, (1.0, 2.0), s.child(1))
            rep = verify_assumption(ens, dicts, sparsity_tol=1e-8, num_random_functionals=10,
                                    seed=s.child(2))
            all_ok = all_ok and rep.temporal_ok and rep.spatial_ok
            worst = max(worst, rep.worst_residual)
            # shared-functional closure: spatial support never leaves the row support
            rng = s.child(3).rng()
            for _ in range(10):
                a = rng.normal(size=32)
                mu = np.linalg.solve(dicts.Psi, ens.X @ a)
                heavy = np.flatnonzero(np.abs(mu) > 1e-8)
                if not set(heavy) <= set(ens.row_support):
                    all_ok = False
        elapsed = time.time() - t0
        ok = all_ok and elapsed < 60
        report(6, ok, f"100 ensembles: assumption verified at tol 1e-8, closure over 10 "
                      f"functionals each, worst residual {worst:.2e}, {elapsed:.0f}s (<60s)")

    def test_07_topology_rank_claim(self):
        t0 = time.time()
        hits, _ = rank_battery(MASTER)
        elapsed = time.time() - t0
        ok = hits >= 95 and elapsed < 120
        report(7, ok, f"N=200, m=m2=40, p=1/3: rank(G)=40 in {hits}/100 seeds (>=95), "
                      f"{elapsed:.0f}s (<120s)")

    def test_08_theorem_budget_end_to_end(self, calibrated_run):
        calib = calibrated_run["calib"]
        records = calibrated_run["records"]
        frac = sum(r.success for r in records) / len(records)
        from fractions import Fraction

        cfg = calibrated_run["cfg"]
        c_use_ok = all(r.c_use == Fraction(cfg.m1 * cfg.m2, cfg.m) for r in records)
        elapsed = calibrated_run["elapsed"]
        ok = frac >= 0.85 and c_use_ok and elapsed < 1200
        report(8, ok, f"calibrated c={calib.c:.3g} -> (m1,m2)=({cfg.m1},{cfg.m2}); fresh "
                      f"success {frac:.0%} (>=85%), c_use exact {c_use_ok}, "
                      f"{elapsed:.0f}s (<1200s)")

    def test_09_budget_beats_naive_baseline(self, calibrated_run, artifacts):
        calib = calibrated_run["calib"]
        p = DEFAULT_CFG.profile
        baseline = naive_baseline(p.n, p.N, DEFAULT_CFG.m, DEFAULT_CFG.sigma, DEFAULT_CFG.D)
        budget = calib.plan.c_use
        ratio = budget / baseline
        summary_path = str(artifacts / "criterion9_summary.txt")
        write_summary(summary_path, {
            "calibrated_c": f"{calib.c:.17g}",
            "theorem_budget_c_use": f"{budget:.17g}",
            "suggested_m1": calib.plan.m1,
            "suggested_m2": calib.plan.m2,
            "naive_baseline": f"{baseline:.17g}",
            "budget_over_baseline_ratio": f"{ratio:.17g}",
        })
        ok = abs(baseline - 1024.0) < 1e-9 and budget < baseline
        report(9, ok, f"calibrated budget {budget:.1f} < naive baseline {baseline:.0f}, "
                      f"ratio {ratio:.4f} written to {summary_path}")

    def test_10_determinism_byte_identical(self, calibrated_run, artifacts):
        t0 = time.time()
        # criterion 3 battery re-run
        _, rows3a = noiseless_recovery_battery(MASTER)
        _, rows3b = noiseless_recovery_battery(MASTER)
        p3a = str(artifacts / "c3_a.csv")
        p3b = str(artifacts / "c3_b.csv")
        write_rows_csv(p3a, "seed_index,support_exact,rel_err,ok", rows3a)
        write_rows_csv(p3b, "seed_index,support_exact,rel_err,ok", rows3b)
        same3 = open(p3a, "rb").read() == open(p3b, "rb").read()

        # criterion 7 battery re-run
        _, rows7a = rank_battery(MASTER)
        _, rows7b = rank_battery(MASTER)
        p7a = str(artifacts / "c7_a.csv")
        p7b = str(artifacts / "c7_b.csv")
        write_rows_csv(p7a, "seed_index,rank", rows7a)
        write_rows_csv(p7b, "seed_index,rank", rows7b)
        same7 = open(p7a, "rb").read() == open(p7b, "rb").read()

        # criterion 8 fresh-trial export re-run
        cfg = calibrated_run["cfg"]
        rerun = run_trials(cfg, range(50))
        p8 = str(artifacts / "c8_rerun.csv")
        export_results(rerun, p8)
        same8 = open(p8, "rb").read() == open(calibrated_run["csv"], "rb").read()

        elapsed = time.time() - t0
        ok = same3 and same7 and same8
        report(10, ok, f"byte-identical reruns: criterion3 {same3}, criterion7 {same7}, "
                       f"criterion8 {same8} ({elapsed:.0f}s)")
