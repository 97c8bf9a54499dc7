"""Print sha256 digests of csnc's pinned outputs, computed by a given checkout.

Run: python3 tools/export_digests.py <checkout> > digests.txt

The package is imported from <checkout>/src, so running this once on
each of two checkouts and diffing the two outputs shows whether a
change kept these outputs byte-identical:

- the export_results CSV of trials 0-3 of each of the five export
  configs below, and of trials 0-15 of the acceptance config;
- for the acceptance config and each of the five export configs, the
  drawn trials 0-3 themselves: the ensemble X, the projection Y, and
  every receiver's transfer matrix G and observation block;
- the decode of trials 0-3 of the small config with debias=False: the
  bytes of every receiver's mu_hat, y_hat, theta_hat and x_hat from
  decode_trial.  The export CSV keeps only per-trial summaries, and the
  default refit ignores a stage-2 weight once the support is fixed, so
  this is the line that moves when a weight moves by an ulp;
- with debias=False and with debias=True, the coefficients of one
  decode_spatial call on a seeded tall block: 40 columns on a 60 x 12
  Gaussian design, so the design has more than 3p + 2 rows;
- the export_results CSV of the ten trial records of the m2=50 cell of
  the criterion-4 m2 sweep (N=512, stage 1 only);
- the calibration of the small config (N=n=32, m=8, 20 pilot trials):
  c and the plan in full precision, and a digest of its evaluation table;
- at sigma 0 and at sigma 0.1, the (sq_err, support_exact, rel_err)
  triples of 100 single-stage recoveries direct_recovery_trial(80, 256,
  5, sigma, ...), the criterion-3 battery; sigma 0.1 takes default_xi;
- the same 100 recoveries at sigma 0.1 with debias=False, the branch
  that skips the refit;
- at master seeds 20260808 and 12345, the analysis battery as perfbench's
  analysis-battery workload runs it: the 200 criterion-5 cascade reports,
  the 100 criterion-7 topologies (G, G1, G2; G1's nonzeros are the
  first-layer edges, since Rademacher coefficients are +-1), the 10 RE estimates,
  and a block of 600 sample_cone_vectors rows;
- the number of LASSO solves all of the above made, and a digest of each
  solve's path steps, convergence flag, and the bytes of its objective
  and KKT residual, in call order, so a change that moves one solve's
  path or certificate shows in the same diff.

Each line is "<name> <value>".  Expect about half a minute on one core.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np


def export_digest(harness, records) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "export.csv")
        harness.export_results(records, path)
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def trial_digest(harness, cfg) -> str:
    """Digest of trials 0-3 as build_trial draws them: X, Y, and each receiver's G and observations."""
    parts = []
    for i in range(4):
        trial = harness.build_trial(cfg, i)
        parts += [trial.ens.X.tobytes(), trial.Y.tobytes()]
        for tm, obs in zip(trial.transfers, trial.observations):
            parts += [tm.G.tobytes(), obs.tobytes()]
    return sha(parts)


def decode_digest(harness, cfg) -> str:
    """Digest of decode_trial on trials 0-3: each receiver's mu_hat, y_hat, theta_hat and x_hat."""
    parts = []
    for i in range(4):
        for res in harness.decode_trial(cfg, harness.build_trial(cfg, i)):
            parts += [res.mu_hat.tobytes(), res.y_hat.tobytes(), res.theta_hat.tobytes(), res.x_hat.tobytes()]
    return sha(parts)


def tall_decode_digest(lasso, debias) -> str:
    """Digest of decode_spatial's coefficients for 40 seeded columns of 1-4 nonzeros on a 60 x 12 design."""
    rng = np.random.default_rng(20260808)
    D = rng.normal(size=(60, 12))
    M = np.zeros((12, 40))
    for b in range(40):
        k = 1 + b % 4
        M[rng.choice(12, k, replace=False), b] = rng.uniform(1, 2, k) * rng.choice([-1, 1], k)
    Z = D @ M + rng.normal(0, 0.3, (60, 40))
    xis = [lasso.default_xi(0.3, 60, 12)] * 40
    coefs, _ = lasso.decode_spatial(Z, D, xis, debias=debias)
    return sha([coefs.tobytes()])


def analysis_digests(csnc, master):
    """Digests of the analysis battery under one master seed, keyed by name."""
    re_analysis, netsim = csnc.re_analysis, csnc.netsim
    q, p, k = 30, 60, 4
    cascades = []
    for i in range(200):  # criterion-5 triples: q=30, p=60, k=4, 100 cone vectors
        s = master.child(5, i)
        G = s.child(0).rng().normal(size=(q, p))
        C1 = np.eye(q) + 0.2 * s.child(1).rng().normal(size=(q, q)) / math.sqrt(q)
        C2 = np.eye(p) + 0.05 * s.child(2).rng().normal(size=(p, p)) / math.sqrt(p)
        support = tuple(np.sort(s.child(3).rng().choice(p, k, replace=False)))
        rep = re_analysis.cascade_check(G, C1, C2, re_analysis.ConeSpec(p, support, 1.0), 100, s.child(4))
        cascades.append(dataclasses.astuple(rep))
    topologies = []
    for i in range(100):  # criterion-7 topologies: N=200, m=m2=40, connect_prob 1/3, Rademacher
        topo = netsim.build_example_topology(200, 40, 1.0 / 3.0, master.child(7, i, 0))
        tm = netsim.derive_transfer_matrix(topo, 40, "rademacher", master.child(7, i, 1))
        G1, G2 = tm.decomposition
        topologies += [tm.G.tobytes(), G1.tobytes(), G2.tobytes()]
    estimates = []
    for i in range(10):  # direct 32 x 128 Gaussian designs, sparsity 4, 50 supports x 50 vectors
        tm = netsim.direct_transfer_matrix(32, 128, master.child(11, i, 0))
        est = re_analysis.estimate_re(tm.G, 4, 1.0, 50, 50, master.child(11, i, 1))
        estimates += [est.gamma_hat, est.samples_used, est.argmin_vector.tobytes(), est.argmin_support,
                      est.per_support_gamma]
    spec = re_analysis.ConeSpec(60, (3, 17, 31, 52), 1.5)
    rows = re_analysis.sample_cone_vectors(spec, [master.child(13, i) for i in range(600)])
    return {
        "cascade 200 triples": sha(cascades),
        "topology 100 designs": sha(topologies),
        "re-estimate 10 designs": sha(estimates),
        "cone-vectors 600 rows": sha([rows.tobytes()]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", help="root of a csnc checkout (the directory holding src/csnc)")
    args = parser.parse_args(argv)
    src = os.path.join(os.path.abspath(args.checkout), "src")
    if not os.path.isfile(os.path.join(src, "csnc", "__init__.py")):
        print(f"export_digests: no csnc package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import csnc
    from csnc import harness
    from csnc.mathcore import Seed
    from csnc.sources import SparsityProfile

    if os.path.dirname(os.path.abspath(csnc.__file__)) != os.path.join(src, "csnc"):
        print(f"export_digests: imported csnc from {csnc.__file__}, not from {src}", file=sys.stderr)
        return 2

    paths = []  # (iterations, converged, objective and KKT residual bytes) of every solve, in call order
    solve_lasso = csnc.lasso.solve_lasso

    def recording_solve(*args, **kwargs):
        sol = solve_lasso(*args, **kwargs)
        paths.append((sol.iterations, sol.converged, np.float64(sol.objective).tobytes(),
                      np.float64(sol.kkt_residual).tobytes()))
        return sol

    csnc.lasso.solve_lasso = recording_solve

    Config = harness.ExperimentConfig
    acceptance = Config(SparsityProfile(128, 128, 4, 4), m=32, m1=32, m2=32, sigma=0.1, D=0.0025,
                        master_seed=Seed(20260808))
    small = Config(SparsityProfile(32, 24, 2, 2), m=24, m1=14, m2=20, sigma=0.05, D=0.01,
                   master_seed=Seed(42))
    configs = {
        "small": small,
        "small-example1": replace(small, network_mode="example1"),
        "small-case1": replace(small, case="case1-sparseB"),
        "small-receivers2": replace(small, receivers=2),
        "small-dct-stage1": replace(small, kind_phi="discrete-cosine", kind_psi="discrete-cosine",
                                    stage2=False, debias=False),
    }

    records = harness.run_trials(acceptance, range(16))
    print(f"export acceptance trials 0-3 {export_digest(harness, records[:4])}")
    for name, cfg in configs.items():
        print(f"export {name} trials 0-3 {export_digest(harness, harness.run_trials(cfg, range(4)))}")
    print(f"export acceptance trials 0-15 {export_digest(harness, records)}")
    for name, cfg in {"acceptance": acceptance, **configs}.items():
        print(f"trial {name} trials 0-3 {trial_digest(harness, cfg)}")
    print(f"decode small debias=False trials 0-3 {decode_digest(harness, replace(small, debias=False))}")
    for debias in (False, True):
        print(f"decode tall debias={debias} {tall_decode_digest(csnc.lasso, debias)}")

    # the criterion-4 m2 sweep's cell m2=50, as harness.sweep runs it
    m2_cfg = Config(SparsityProfile(512, 16, 2, 2), m=32, m1=4, m2=50, sigma=0.1, D=0.01, trials=10,
                    master_seed=Seed(20260808).child(4, 2), debias=False, stage2=False,
                    kind_phi="discrete-cosine", kind_psi="discrete-cosine")
    print(f"sweep m2=50 trials 0-9 {export_digest(harness, harness.run_trials(m2_cfg, range(10)))}")

    cal_cfg = Config(SparsityProfile(32, 32, 2, 2), m=8, m1=8, m2=8, sigma=0.1, D=0.0025,
                     master_seed=Seed(20260808))
    cal = harness.calibrate_c(cal_cfg, pilot_trials=20, target=0.9)
    table = "\n".join(repr(tuple(e)) for e in cal.evaluations).encode()
    print(f"calibrate-small c {cal.c!r}")
    print(f"calibrate-small plan {cal.plan.m1},{cal.plan.m2} c_use {cal.plan.c_use!r}")
    print(f"calibrate-small evaluations {len(cal.evaluations)} {hashlib.sha256(table).hexdigest()}")

    for sigma in (0.0, 0.1):
        triples = [harness.direct_recovery_trial(80, 256, 5, sigma, Seed(20260808).child(3, i)) for i in range(100)]
        print(f"recovery sigma {sigma:g} 100 trials {sha(triples)}")
    triples = [harness.direct_recovery_trial(80, 256, 5, 0.1, Seed(20260808).child(3, i), debias=False)
               for i in range(100)]
    print(f"recovery sigma 0.1 debias=False 100 trials {sha(triples)}")

    for master in (20260808, 12345):
        for name, value in analysis_digests(csnc, Seed(master)).items():
            print(f"analysis seed {master} {name} {value}")
    print(f"solve paths {len(paths)} {sha(paths)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
