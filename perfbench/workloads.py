"""The four workloads: inputs, operations and the checks run on their outputs.

Each workload is a closed loop with one caller: the next operation
starts when the previous one returns.  A round is one pass over the
workload's whole set of operations; every run attempts whole rounds.

Inputs that contain a solve known to stop uncertified stay on the
acceptance seed 20260808 whatever --seed is: those solves fail on every
run, so the failed share of a round is the same at every seed, and a
seed-dependent input set would make it vary with the seed.  --seed
orders the trials of `trials-acceptance`, draws the inputs of the
recovery batteries of `stage1-scaling`, and draws and orders those of
`analysis-battery`; none of these makes an uncertified solve.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from fractions import Fraction

import numpy as np

import checks

ACCEPTANCE_SEED = 20260808


def _acceptance_cfg(csnc):
    """The acceptance DEFAULT_CFG: N=n=128, k1=k2=4, m=m1=m2=32, sigma=0.1, D=0.0025."""
    return csnc.ExperimentConfig(
        profile=csnc.SparsityProfile(N=128, n=128, k1=4, k2=4),
        m=32, m1=32, m2=32, sigma=0.1, D=0.0025,
        master_seed=csnc.Seed(ACCEPTANCE_SEED), trials=50,
    )


def check_trial_record(probe, op, rec, cfg):
    """Recompute distortion, success, stage-1 error and c_use of a TrialRecord
    from the truth and reconstructions that decode_all received and returned."""
    problems = []
    decodes = probe.pending_decodes
    if len(decodes) != cfg.receivers:
        problems.append(f"{len(decodes)} decodes for {cfg.receivers} receivers")
    worst = 0.0
    for truth, _, res in decodes:
        problems += checks.check_distortion(res.per_source_distortion, truth, res.x_hat)
        worst = max(worst, float(checks.per_source_distortion(truth, res.x_hat).max()))
    if not checks.close(rec.max_distortion, worst):
        problems.append(f"max_distortion {rec.max_distortion!r} differs from the recomputed {worst!r}")
    if rec.success != (worst <= cfg.D):
        problems.append(f"success={rec.success} but recomputed max distortion {worst:.3g} vs D={cfg.D:g}")
    s1 = checks.stage1_median_sq_err([r.y_hat for _, _, r in decodes], [Y for _, Y, _ in decodes])
    if not checks.close(rec.stage1_median_sq_err, s1, abs_=1e-300):
        problems.append(f"stage1_median_sq_err {rec.stage1_median_sq_err!r} differs from {s1!r}")
    if rec.c_use != Fraction(cfg.m1 * cfg.m2, cfg.m):
        problems.append(f"c_use {rec.c_use} is not m1*m2/m")
    probe.error(op.label, problems)
    return worst


class Workload:
    name = ""

    def __init__(self, probe, csnc, seed: int, run_dir: str):
        self.probe, self.csnc, self.seed, self.run_dir = probe, csnc, seed, run_dir

    def prepare(self):
        """Build the configs the program receives (timed as set-up)."""

    def warmup(self):
        """One untimed operation, part of set-up."""

    def round(self):
        raise NotImplementedError

    def close(self):
        """Remove temporary files."""


class TrialsAcceptance(Workload):
    """run_trial on the acceptance config, trials 0-15, one trial per operation."""

    name = "trials-acceptance"
    TRIALS = 16

    def __init__(self, *a):
        super().__init__(*a)
        self.probe.wrap(self.csnc.harness, "run_trial", "harness.run_trial",
                        op_label=lambda cfg, i: f"trial {i}", op_check=self.check)

    def prepare(self):
        self.cfg = _acceptance_cfg(self.csnc)
        self.order = list(range(self.TRIALS))
        random.Random(self.seed).shuffle(self.order)

    def warmup(self):
        self.csnc.harness.run_trial(self.cfg, 0)

    def round(self):
        for i in self.order:
            self.csnc.harness.run_trial(self.cfg, i)

    def check(self, op, rec, args, kwargs):
        check_trial_record(self.probe, op, rec, args[0])
        if op.failed is None and not rec.success:
            self.probe.error(op.label, [f"all solves certified but max distortion "
                                        f"{rec.max_distortion:.3g} > D={args[0].D:g}"])


class Stage1Scaling(Workload):
    """Single-stage decoding: two criterion-3 noiseless batteries and the criterion-4 sweeps.

    The battery runs twice (recoveries 0-99 and 100-199): with a single one,
    the 100 short recoveries and the 80 longer sweep trials would put the
    median operation at the recoveries' 90th percentile, where it swings
    with every small timing change.
    """

    name = "stage1-scaling"
    RECOVERIES = 200
    SWEEP_TRIALS = 10
    SIGMAS = [0.05, 0.1, 0.2, 0.4]
    M2S = [50, 100, 200, 400]

    def __init__(self, *a):
        super().__init__(*a)
        h = self.csnc.harness
        self.probe.wrap(h, "direct_recovery_trial", "harness.direct_recovery_trial",
                        op_label=lambda *args: f"recovery {self.index}",
                        op_check=self.check_recovery)
        self.probe.wrap(h, "run_trial", "harness.run_trial",
                        op_label=lambda cfg, i: f"{self.axis}={getattr(cfg, self.axis):g} trial {i}",
                        op_check=self.check_sweep_trial)

    def prepare(self):
        c = self.csnc
        pinned = c.Seed(ACCEPTANCE_SEED)
        common = dict(m=32, m1=4, m2=100, sigma=0.1, D=0.01, trials=self.SWEEP_TRIALS, debias=False,
                      stage2=False, kind_phi="discrete-cosine", kind_psi="discrete-cosine")
        self.sigma_cfg = c.ExperimentConfig(profile=c.SparsityProfile(N=256, n=16, k1=2, k2=5),
                                            master_seed=pinned.child(4, 1), **common)
        self.m2_cfg = c.ExperimentConfig(profile=c.SparsityProfile(N=512, n=16, k1=2, k2=2),
                                         master_seed=pinned.child(4, 2), **common)
        self.battery = c.Seed(self.seed)
        self.exact = [0, 0]

    def recovery(self, i):
        """Criterion-3 recovery: q=80, p=256, k=5, sigma=0."""
        self.index = i
        self.csnc.harness.direct_recovery_trial(80, 256, 5, 0.0, self.battery.child(3, i))

    def warmup(self):
        self.recovery(self.RECOVERIES)

    def round(self):
        # recoveries are split around the two sweeps, so their times (which set
        # op_ms_p50) are sampled across the whole round rather than one second of it
        blocks = np.array_split(np.arange(self.RECOVERIES), 3)
        self.exact = [0, 0]
        for block, sweep in zip(blocks, (("sigma", self.sigma_cfg, self.SIGMAS, 1.0, 0.15),
                                         ("m2", self.m2_cfg, self.M2S, -1.0, 0.2), None)):
            for i in block:
                self.recovery(int(i))
            if sweep is not None:
                self.sweep(*sweep)
        with self.probe.checking():
            for b, exact in enumerate(self.exact):
                if exact < 95:
                    self.probe.error(self.name, [f"noiseless recovery exact in {exact}/100 of battery {b} (< 95)"])

    def sweep(self, axis, cfg, values, want, tol):
        self.axis, self.cell_errs = axis, {}
        res = self.csnc.harness.sweep(cfg, axis, values)
        with self.probe.checking():
            self.check_sweep(axis, res, want, tol)

    def check_recovery(self, op, out, args, kwargs):
        _, support_exact, rel_err = out
        if self.index < self.RECOVERIES:
            self.exact[self.index // 100] += bool(support_exact and rel_err < 1e-3)

    def check_sweep_trial(self, op, rec, args, kwargs):
        check_trial_record(self.probe, op, rec, args[0])
        self.cell_errs.setdefault(getattr(args[0], self.axis), []).append(rec.stage1_median_sq_err)

    def check_sweep(self, axis, res, want, tol):
        problems = []
        xs, ys = [], []
        for cell in res.cells:
            med = float(np.median(self.cell_errs.get(cell.value, [math.nan])))
            if not checks.close(cell.median_stage1_sq_err, med, abs_=1e-300):
                problems.append(f"cell {cell.value:g}: median stage-1 error {cell.median_stage1_sq_err!r} "
                                f"differs from the trials' {med!r}")
            xs.append(2 * math.log(cell.value) if axis == "sigma" else math.log(cell.value))
            ys.append(med)
        slope = checks.loglog_slope(xs, ys)
        if res.slope is None or abs(res.slope - slope) > 1e-9:
            problems.append(f"slope {res.slope!r} differs from the refit {slope!r}")
        if abs(slope - want) > tol:
            problems.append(f"slope {slope:.3f} outside {want:+g} +/- {tol}")
        self.probe.error(f"{axis} sweep", problems)


class CalibrateSmall(Workload):
    """`csnc calibrate --threads 1` in-process on N=n=32, k1=k2=2, m=8; one pilot trial per operation."""

    name = "calibrate-small"
    PILOT = 20
    TARGET = 0.9
    RESOLUTION = 1.1  # calibrate_c's default bisection resolution

    def __init__(self, *a):
        super().__init__(*a)
        h = self.csnc.harness
        self.probe.wrap(h, "run_trial", "harness.run_trial", op_label=self.label, op_check=self.check_pilot)
        self.probe.wrap(h, "calibrate_c", "harness.calibrate_c", after=self.capture)
        self.cfg_path = os.path.join(self.run_dir, f"calibrate-small-{os.getpid()}.cfg")
        self.out_path = self.cfg_path[:-4] + ".summary.txt"

    def prepare(self):
        with open(self.cfg_path, "w") as fh:
            fh.write("[experiment]\nN = 32\nn = 32\nk1 = 2\nk2 = 2\nm = 8\nm1 = 8\nm2 = 8\n"
                     f"sigma = 0.1\nD = 0.0025\nmaster_seed = {ACCEPTANCE_SEED}\n")
        self.cfg = self.csnc.harness.load_config(self.cfg_path)
        self.streams, self.successes = {}, {}

    def warmup(self):
        self.csnc.harness.run_trial(self.cfg, 0)

    def label(self, cfg, i):
        batch = self.streams.setdefault((cfg.m1, cfg.m2), [])
        if cfg.master_seed.stream not in batch:
            batch.append(cfg.master_seed.stream)
        return f"pilot m1={cfg.m1} m2={cfg.m2} batch {batch.index(cfg.master_seed.stream)} trial {i}"

    def round(self):
        self.streams, self.successes, self.result = {}, {}, None
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = self.csnc.cli.main(["calibrate", "--config", self.cfg_path, "--threads", "1",
                                     "--pilot-trials", str(self.PILOT), "--target", str(self.TARGET),
                                     "--output", self.out_path])
        self.stdout = out.getvalue()
        with self.probe.checking():
            self.check_calibration(rc)

    def capture(self, result, args, kwargs):
        self.result = result

    def check_pilot(self, op, rec, args, kwargs):
        cfg = args[0]
        check_trial_record(self.probe, op, rec, cfg)
        batch = self.streams[(cfg.m1, cfg.m2)].index(cfg.master_seed.stream)
        self.successes.setdefault((cfg.m1, cfg.m2, batch), []).append(rec.success)
        self.probe.count("pilot_trials")

    def passes(self, frac):
        return frac == 1.0 or frac > self.TARGET

    def check_calibration(self, rc):
        res, p, cfg = self.result, self.cfg.profile, self.cfg
        if rc != 0 or res is None:
            self.probe.error(self.name, [f"csnc calibrate exited {rc}"])
            return
        self.probe.count("calibrate_evals", len(res.evaluations))
        problems = checks.check_budget(res.plan.c_use, res.c, p.k1, p.k2, p.n, p.N, cfg.m, cfg.sigma, cfg.D)
        baseline = checks.naive_baseline(p.n, p.N, cfg.m, cfg.sigma, cfg.D)
        if not res.plan.c_use < baseline:
            problems.append(f"calibrated c_use {res.plan.c_use:.6g} not below the naive baseline {baseline:.6g}")
        problems += checks.check_bisection(res.c, res.evaluations, self.passes, self.RESOLUTION)
        for c, m1, m2, frac in res.evaluations:
            first = self.successes.get((m1, m2, 0), [])
            f0 = sum(first) / self.PILOT
            want = f0
            if self.passes(f0) and f0 < 1.0:
                want = min(f0, sum(self.successes.get((m1, m2, 1), [])) / self.PILOT)
            if len(first) != self.PILOT or frac != want:
                problems.append(f"evaluation at c={c:.6g} reports {frac} but its pilot trials give {want}")
        with open(self.out_path) as fh:
            summary = dict(line.rstrip("\n").split(": ", 1) for line in fh)
        problems += checks.check_baseline(float(summary["naive_baseline"]), p.n, p.N, cfg.m, cfg.sigma, cfg.D)
        if float(summary["c_use"]) != res.plan.c_use:
            problems.append("summary file c_use differs from the calibration result")
        self.probe.error(self.name, problems)

    def close(self):
        for path in (self.cfg_path, self.out_path):
            if os.path.exists(path):
                os.remove(path)


class AnalysisBattery(Workload):
    """No LASSO solve: cascade triples, topology ranks and RE estimates, one per operation."""

    name = "analysis-battery"
    TRIPLES = 200
    TOPOLOGIES = 100
    RE_DESIGNS = 10

    def prepare(self):
        self.master = self.csnc.Seed(self.seed)
        self.full_rank = 0
        # the three kinds of operation are interleaved in a seeded order, so each
        # kind's times are sampled across the whole round
        self.plan = ([(self.cascade, i) for i in range(self.TRIPLES)]
                     + [(self.topology, i) for i in range(self.TOPOLOGIES)]
                     + [(self.re_estimate, i) for i in range(self.RE_DESIGNS)])
        random.Random(self.seed).shuffle(self.plan)

    def warmup(self):
        self.cascade(self.TRIPLES)
        self.topology(self.TOPOLOGIES)
        self.re_estimate(self.RE_DESIGNS)

    def round(self):
        self.full_rank = 0
        for op, i in self.plan:
            op(i)
        if self.full_rank < 95:
            self.probe.error(self.name, [f"rank 40 in {self.full_rank}/100 topologies (< 95)"])

    def cascade(self, i):
        """Criterion-5 triple: q=30, p=60, k=4, 100 cone vectors."""
        c, probe = self.csnc, self.probe
        q, p, k = 30, 60, 4
        with probe.operation(f"cascade {i}") as op:
            s = self.master.child(5, i)
            G = s.child(0).rng().normal(size=(q, p))
            C1 = np.eye(q) + 0.2 * s.child(1).rng().normal(size=(q, q)) / math.sqrt(q)
            C2 = np.eye(p) + 0.05 * s.child(2).rng().normal(size=(p, p)) / math.sqrt(p)
            support = tuple(np.sort(s.child(3).rng().choice(p, k, replace=False)))
            rep = c.re_analysis.cascade_check(G, C1, C2, c.re_analysis.ConeSpec(p, support, 1.0), 100, s.child(4))
        with probe.checking():
            problems = []
            if rep.violations_left or rep.violations_right:
                problems.append(f"{rep.violations_left} LEFT and {rep.violations_right} RIGHT violations")
            ys = checks.cone_vectors(p, support, 1.0, 20, np.random.default_rng([self.seed, 5, i]))
            problems += checks.check_cascade_left(G, C1, rep.lambda1, ys)
            if not checks.close(rep.lambda2, checks.min_singular_value(C2)):
                problems.append("reported sigma_min(C2) differs from the SVD value")
            floor = checks.on_support_floor(G, support)
            if rep.gamma_used > floor * (1 + checks.REL):
                problems.append(f"cone floor {rep.gamma_used!r} above the on-support minimum {floor!r}")
            probe.error(op.label, problems)
            probe.count("cone_samples", rep.samples)

    def topology(self, i):
        """Criterion-7 topology: N=200, m=m2=40, connect_prob 1/3, Rademacher coefficients."""
        c, probe = self.csnc, self.probe
        with probe.operation(f"topology {i}") as op:
            topo = c.netsim.build_example_topology(200, 40, 1.0 / 3.0, self.master.child(7, i, 0))
            tm = c.netsim.derive_transfer_matrix(topo, 40, "rademacher", self.master.child(7, i, 1))
            r = c.mathcore.matrix_rank(tm.G)
        with probe.checking():
            problems = []
            if r != checks.rank(tm.G):
                problems.append(f"matrix_rank {r} differs from the SVD rank {checks.rank(tm.G)}")
            G1, G2 = tm.decomposition
            if not np.allclose(tm.G, G2 @ G1, rtol=1e-12, atol=1e-12):
                problems.append("G is not G2 @ G1")
            probe.error(op.label, problems)
        self.full_rank += r == 40

    def re_estimate(self, i):
        """estimate_re on a direct 32 x 128 Gaussian design, sparsity 4, 50 supports x 50 vectors."""
        c, probe = self.csnc, self.probe
        with probe.operation(f"re {i}") as op:
            tm = c.netsim.direct_transfer_matrix(32, 128, self.master.child(11, i, 0))
            est = c.re_analysis.estimate_re(tm.G, 4, 1.0, 50, 50, self.master.child(11, i, 1))
        with probe.checking():
            probe.error(op.label, checks.check_re_upper_estimate(
                tm.G, est.gamma_hat, est.argmin_vector, est.argmin_support, est.alpha, est.per_support_gamma))
            probe.count("cone_samples", est.samples_used)


WORKLOADS = {w.name: w for w in (TrialsAcceptance, Stage1Scaling, CalibrateSmall, AnalysisBattery)}
