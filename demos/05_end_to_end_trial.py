"""End-to-end pipeline trials, the network-use budget, and a sweep.

Runs seeded trials of the whole scheme (generate, project, mask,
transmit, decode), compares the budget formula against the
correlation-blind baseline, and fits the noise power law with a sweep.

Run: python demos/05_end_to_end_trial.py
"""

import os
import tempfile

import numpy as np

from csnc import ExperimentConfig, Seed, SparsityProfile, naive_baseline, run_trials, sweep, theorem_budget
from csnc.harness import export_results


def main():
    cfg = ExperimentConfig(
        profile=SparsityProfile(N=64, n=48, k1=3, k2=3),
        m=16, m1=20, m2=28, sigma=0.1, D=0.0025,
        master_seed=Seed(99), trials=10,
    )
    records = run_trials(cfg, range(cfg.trials))
    frac = np.mean([r.success for r in records])
    print(f"{cfg.trials} trials at (m1, m2) = ({cfg.m1}, {cfg.m2}): "
          f"success {frac:.0%}, median worst-source distortion "
          f"{np.median([r.max_distortion for r in records]):.2e} (allowed {cfg.D})")
    print(f"network uses per trial: {records[0].c_use} (exact m1 m2 / m)")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "records.csv")
        export_results(records, path)
        with open(path) as fh:
            print(f"records exported as CSV: {sum(1 for _ in fh)} lines")

    plan = theorem_budget(1.0, 3, 3, 48, 64, 16, 0.1, 0.0025)
    base = naive_baseline(48, 64, 16, 0.1, 0.0025)
    print(f"budget at c=1: {plan.c_use:.1f} uses, suggested split ({plan.m1}, {plan.m2}); "
          f"correlation-blind baseline: {base:.0f} uses")

    res = sweep(cfg, "sigma", [0.05, 0.1, 0.2])
    print(f"noise sweep: median stage-1 errors "
          f"{[f'{c.median_stage1_sq_err:.3g}' for c in res.cells]}, "
          f"fitted log-log slope vs sigma^2: {res.slope:.2f}")


if __name__ == "__main__":
    main()
