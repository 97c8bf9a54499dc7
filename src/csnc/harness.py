"""End-to-end pipeline trials, budget calibration, sweeps, and exports.

A trial executes the four pipeline steps against a freshly drawn
ensemble: temporal projection to m1 dimensions, per-time on-off
pre-coding, transmission of each time slice through every receiver's
transfer matrix under AWGN, and the two-stage decode.  The record
keeps per-source distortion against ground truth, the exact network
use count m1 * m2 / m, and a stage-1 error summary used by the
scaling sweeps.

Seeding is hierarchical: trial seed = master.child(tag, index), and
every random object inside a trial (dictionaries, ensemble,
projection, patterns, per-receiver transfer matrices and noise) draws
from its own named substream.  Receiver r's streams depend only on r,
so adding receivers never perturbs existing ones.  build_trial is the
one place these objects are drawn; run_trial and the per-trial CLI
verbs all start from it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .lasso import DecodeResult, decode_all, decode_spatial, default_xi
from .mathcore import Seed
from .netsim import (
    ChannelModel,
    TransferMatrix,
    build_example_topology,
    derive_transfer_matrix,
    direct_transfer_matrix,
    network_uses,
    transmit,
)
from .precoder import OnOffPattern, ProjectionOperator, draw_onoff, make_projection, temporal_project
from .sources import (
    DictionaryPair,
    SourceEnsemble,
    SparsityProfile,
    generate_ensemble,
    make_dictionary_pair,
)

NETWORK_MODES = ("direct", "example1", "identity")
CASES = ("case1-sparseB", "case2-denseB")

# substream tags
_TRIAL, _DICTS, _ENSEMBLE, _PROJ, _TOPO, _TRANSFER, _PATTERN, _NOISE, _PILOT = range(1, 10)

CONFIG_SCHEMA_VERSION = 1


@dataclass
class ExperimentConfig:
    """Everything one pipeline experiment needs; see load_config for the file schema."""

    profile: SparsityProfile
    m: int
    m1: int
    m2: int
    sigma: float
    D: float
    master_seed: Seed = Seed(0)
    kind_phi: str = "random-orthonormal"
    kind_psi: str = "random-orthonormal"
    network_mode: str = "direct"
    case: str = "case2-denseB"
    projection_family: str = "gaussian"
    coeff_family: str = "rademacher"
    connect_prob: float = 1.0 / 3.0
    receivers: int = 1
    trials: int = 50
    amp_lo: float = 8.0
    amp_hi: float = 16.0
    redraw_b_per_t: bool = True
    debias: bool = True
    xi_spatial: float | None = None
    xi_temporal: float | None = None
    xi_scale: float = 2.0
    stage2: bool = True  # False: stage-1 scaling experiments skip the temporal decode

    def __post_init__(self):
        p = self.profile
        if not (1 <= self.m1 <= p.n):
            raise ValueError("need 1 <= m1 <= n")
        if not (1 <= self.m2 <= p.N):
            raise ValueError("need 1 <= m2 <= N")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not self.D > 0:
            raise ValueError("D must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.trials < 1 or self.receivers < 1:
            raise ValueError("need trials >= 1 and receivers >= 1")
        if self.network_mode not in NETWORK_MODES:
            raise ValueError(f"unknown network mode {self.network_mode!r}")
        if self.case not in CASES:
            raise ValueError(f"unknown case {self.case!r}")
        if self.network_mode == "example1" and self.m2 > self.m:
            raise ValueError("example1 mode requires m2 <= m")
        if self.network_mode == "identity" and self.m2 != p.N:
            raise ValueError("identity network mode requires m2 == N")
        if not (0 < self.amp_lo <= self.amp_hi):
            raise ValueError("amplitude range must satisfy 0 < lo <= hi")


@dataclass
class TrialRecord:
    """Outcome of one end-to-end trial."""

    trial_index: int
    per_source_distortion: np.ndarray  # receivers x N
    max_distortion: float
    c_use: Fraction
    support_recovery_rate: float
    stage1_median_sq_err: float
    success: bool
    m1: int
    m2: int
    seed: Seed
    converged: bool  # every solve of both stages at every receiver converged
    timing_ms: float = 0.0


def _make_transfer(cfg: ExperimentConfig, seed: Seed) -> TransferMatrix:
    N = cfg.profile.N
    if cfg.network_mode == "direct":
        return direct_transfer_matrix(cfg.m2, N, seed)
    if cfg.network_mode == "identity":
        return direct_transfer_matrix(N, N, seed, family="identity")
    topo = build_example_topology(N, cfg.m, cfg.connect_prob, seed.child(_TOPO))
    return derive_transfer_matrix(topo, cfg.m2, cfg.coeff_family, seed)


@dataclass
class Trial:
    """Every random object of one trial, each drawn from its named substream."""

    seed: Seed
    dicts: DictionaryPair
    ens: SourceEnsemble
    op: ProjectionOperator
    Y: np.ndarray  # m1 x N, column i = A X_i
    patterns: list[OnOffPattern]  # one per time index
    transfers: list[TransferMatrix]  # one per receiver
    observations: list[np.ndarray]  # one m2 x m1 block per receiver, column t = Z^t


def build_trial(cfg: ExperimentConfig, index: int) -> Trial:
    """Draw trial `index` of cfg: pipeline steps 1-3 up to the receiver observations."""
    p = cfg.profile
    seed = cfg.master_seed.child(_TRIAL, index)

    dicts = make_dictionary_pair(cfg.kind_phi, cfg.kind_psi, p.n, p.N, seed.child(_DICTS))
    ens = generate_ensemble(p, dicts, (cfg.amp_lo, cfg.amp_hi), seed.child(_ENSEMBLE))
    op = make_projection(cfg.m1, p.n, cfg.projection_family, seed.child(_PROJ))
    Y = temporal_project(ens, op)

    prob = cfg.m2 / p.N if cfg.case == "case1-sparseB" else 1.0
    if cfg.redraw_b_per_t:
        patterns = [draw_onoff(p.N, prob, seed.child(_PATTERN, t)) for t in range(cfg.m1)]
    else:
        patterns = [draw_onoff(p.N, prob, seed.child(_PATTERN, 0))] * cfg.m1

    ch = ChannelModel(cfg.sigma)
    transfers = [_make_transfer(cfg, seed.child(_TRANSFER, r)) for r in range(cfg.receivers)]
    observations = [
        np.column_stack(
            [transmit(tm, patterns[t], Y[t], ch, seed.child(_NOISE, r, t)) for t in range(cfg.m1)]
        )
        for r, tm in enumerate(transfers)
    ]
    return Trial(seed, dicts, ens, op, Y, patterns, transfers, observations)


def decode_trial(cfg: ExperimentConfig, trial: Trial) -> list[DecodeResult]:
    """Pipeline step 4: the two-stage decode at every receiver, scored against the truth."""
    xi_spatial = cfg.xi_spatial
    if xi_spatial is None:
        xi_spatial = default_xi(cfg.sigma, cfg.m2, cfg.profile.N, scale=cfg.xi_scale)
    diags = [pat.diag for pat in trial.patterns]
    return [
        decode_all(
            obs, tm.G, diags, trial.dicts.Psi, trial.dicts.Phi, trial.op.A, xi_spatial,
            xi_temporal=cfg.xi_temporal, truth_X=trial.ens.X, proj_truth=trial.Y,
            debias=cfg.debias, xi_scale=cfg.xi_scale, run_temporal=cfg.stage2,
        )
        for tm, obs in zip(trial.transfers, trial.observations)
    ]


def run_trial(cfg: ExperimentConfig, trial_index: int) -> TrialRecord:
    """Build, decode and score one trial against ground truth."""
    t0 = time.perf_counter()
    p = cfg.profile
    trial = build_trial(cfg, trial_index)
    results = decode_trial(cfg, trial)

    theta_true = trial.dicts.Psi @ trial.ens.core  # row i = temporal coefficients of source i
    theta_peak = np.max(np.abs(theta_true)) if theta_true.size else 0.0
    # support recovery counts coefficients at meaningful amplitude: decoders
    # legitimately leave sub-noise junk on zero sources, which a strict
    # nonzero comparison would score as failure despite tiny distortion
    support_tol = 1e-3 * max(theta_peak, 1.0)

    distortions = np.array([res.per_source_distortion for res in results])
    support_hits = 0
    stage1_errs: list[float] = []
    for res in results:
        stage1_errs.extend(np.sum((res.y_hat - trial.Y) ** 2, axis=1).tolist())
        for i in range(p.N):
            rec = np.flatnonzero(np.abs(res.theta_hat[i]) > support_tol)
            true = np.flatnonzero(np.abs(theta_true[i]) > support_tol)
            if np.array_equal(rec, true):
                support_hits += 1

    max_distortion = float(distortions.max()) if distortions.size else 0.0
    return TrialRecord(
        trial_index=trial_index,
        per_source_distortion=distortions,
        max_distortion=max_distortion,
        c_use=network_uses(cfg.m1, cfg.m2, cfg.m),
        support_recovery_rate=support_hits / (cfg.receivers * p.N),
        stage1_median_sq_err=float(np.median(stage1_errs)) if stage1_errs else 0.0,
        success=max_distortion <= cfg.D,
        m1=cfg.m1,
        m2=cfg.m2,
        seed=trial.seed,
        converged=all(res.spatial_converged and res.temporal_converged for res in results),
        timing_ms=(time.perf_counter() - t0) * 1e3,
    )


def run_trials(cfg: ExperimentConfig, indices=None, workers: int = 1) -> list[TrialRecord]:
    """Run many trials; order of results follows indices regardless of scheduling."""
    if indices is None:
        indices = range(cfg.trials)
    indices = list(indices)
    if workers > 1 and len(indices) > 1:
        # imported here: multiprocessing adds about 1.5 MB to every process that imports csnc
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            recs = list(pool.map(run_trial, [cfg] * len(indices), indices, chunksize=1))
    else:
        recs = [run_trial(cfg, i) for i in indices]
    return recs


@dataclass(frozen=True)
class BudgetPlan:
    """Required network uses plus a suggested (m1, m2) split."""

    c_use: float
    m1: int
    m2: int


def theorem_budget(c, k1, k2, n, N, m, sigma, D) -> BudgetPlan:
    """Network-use budget c * k1 k2 ln(n) ln(N) / m * sigma^2 / D.

    The suggested split balances the two per-stage error factors
    (k1 ln n / m1 vs k2 ln N / m2) subject to m1 * m2 = budget * m, and
    is clipped to the feasible box; m1 (m2) is floored at k1 + 1
    (k2 + 1) because fewer measurements than the sparsity can never
    recover anything.
    """
    if min(c, k1, k2, m) <= 0 or n < 2 or N < 2:
        raise ValueError("need positive c, k1, k2, m and n, N >= 2")
    if not D > 0:
        raise ValueError("D must be positive")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    c_use = c * k1 * k2 * math.log(n) * math.log(N) / m * sigma**2 / D
    raw_m1 = math.sqrt(c_use * m * math.log(n) * k1 / (math.log(N) * k2)) if c_use > 0 else 0.0
    m1 = min(max(math.ceil(raw_m1), 1, min(k1 + 1, n)), n)
    m2 = min(max(math.ceil(c_use * m / m1), 1, min(k2 + 1, N)), N)
    return BudgetPlan(c_use, m1, m2)


def naive_baseline(n, N, m, sigma, D) -> float:
    """Network uses of the correlation-blind scheme: (nN/m) log2(sigma^2 / D), floored at 0."""
    if min(n, N, m) < 1 or not D > 0 or sigma < 0:
        raise ValueError("need positive dimensions and D > 0, sigma >= 0")
    if sigma**2 <= D:
        return 0.0
    return (n * N / m) * math.log2(sigma**2 / D)


class CalibrationError(RuntimeError):
    """No budget constant up to the search ceiling met the success target."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass
class CalibrationResult:
    c: float
    plan: BudgetPlan
    success_fraction: float
    evaluations: list[tuple[float, int, int, float]] = field(default_factory=list)


def calibrate_c(
    cfg: ExperimentConfig,
    pilot_trials: int = 30,
    target: float = 0.9,
    c_lo: float = 1e-3,
    c_hi: float = 1e6,
    resolution: float = 1.1,
    workers: int = 1,
) -> CalibrationResult:
    """Smallest budget constant whose suggested (m1, m2) hits the success target.

    Pilot trials run on dedicated substreams of the master seed, with
    the same per-trial seeds for every candidate, so the calibration is
    a deterministic function of (cfg, pilot_trials).  Success near the
    recovery threshold is a steep function of the plan and the
    bisection tries several marginal plans, so a lax acceptance rule
    systematically stops on lucky pilot batches.  Two guards make the
    returned plan transfer to fresh seeds: a batch passes only when its
    success fraction strictly exceeds the target (a batch sitting
    exactly on the boundary is not evidence of clearing it), and a
    passing batch must be confirmed by a second, disjoint batch (a
    perfect first batch is accepted outright).  Log-space bisection
    stops once the bracket ratio is below `resolution`; if even c_hi
    fails, a CalibrationError carrying the evaluation table is raised.
    """
    if pilot_trials < 20:
        raise ValueError("need at least 20 pilot trials")
    p = cfg.profile
    batches = [
        replace(cfg, master_seed=cfg.master_seed.child(_PILOT, b), trials=pilot_trials)
        for b in (0, 1)
    ]
    evals: list[tuple[float, int, int, float]] = []
    cache: dict[tuple[int, int, int], float] = {}

    def batch_fraction(plan: BudgetPlan, b: int) -> float:
        key = (plan.m1, plan.m2, b)
        if key not in cache:
            trial_cfg = replace(batches[b], m1=plan.m1, m2=plan.m2)
            recs = run_trials(trial_cfg, range(pilot_trials), workers=workers)
            cache[key] = sum(r.success for r in recs) / pilot_trials
        return cache[key]

    def passes(frac: float) -> bool:
        return frac == 1.0 or frac > target

    def success_fraction(c: float) -> tuple[float, BudgetPlan]:
        plan = theorem_budget(c, p.k1, p.k2, p.n, p.N, cfg.m, cfg.sigma, cfg.D)
        frac = batch_fraction(plan, 0)
        if passes(frac) and frac < 1.0:
            frac = min(frac, batch_fraction(plan, 1))
        evals.append((c, plan.m1, plan.m2, frac))
        return frac, plan

    if cfg.sigma == 0.0:
        frac, plan = success_fraction(c_lo)  # budget is 0 regardless of c
        if passes(frac):
            return CalibrationResult(c_lo, plan, frac, evals)
        raise CalibrationError(
            "noiseless budget is degenerate and the floor plan failed",
            {"evaluations": evals, "target": target},
        )

    frac_lo, plan_lo = success_fraction(c_lo)
    if passes(frac_lo):
        return CalibrationResult(c_lo, plan_lo, frac_lo, evals)
    frac_hi, plan_hi = success_fraction(c_hi)
    if not passes(frac_hi):
        raise CalibrationError(
            f"no c <= {c_hi:g} reaches a {target:.0%} pilot success rate",
            {"evaluations": evals, "target": target},
        )
    lo, hi = c_lo, c_hi
    best_frac, best_plan = frac_hi, plan_hi
    while hi / lo > resolution:
        mid = math.sqrt(lo * hi)
        frac, plan = success_fraction(mid)
        if passes(frac):
            hi, best_frac, best_plan = mid, frac, plan
        else:
            lo = mid
    return CalibrationResult(hi, best_plan, best_frac, evals)


def direct_recovery_trial(
    q: int,
    p: int,
    k: int,
    sigma: float,
    seed: Seed,
    amp_range=(1.0, 2.0),
    xi: float | None = None,
    debias: bool = True,
    xi_scale: float = 2.0,
):
    """One single-stage recovery experiment: z = G mu + w, decode, score.

    Draws a k-sparse truth with magnitudes in amp_range, a direct
    Gaussian q x p transfer matrix, and AWGN at level sigma; decodes
    with the spatial decoder (identity dictionary).  When xi is None it
    defaults to the sigma-driven weight, or to a small data-relative
    level in the noiseless case.  Returns (sq_err, support_exact,
    rel_err).
    """
    rng = seed.child(0).rng()
    support = np.sort(rng.choice(p, size=k, replace=False))
    mu = np.zeros(p)
    if k:
        mags = rng.uniform(amp_range[0], amp_range[1], size=k)
        mu[support] = mags * (2.0 * rng.integers(0, 2, size=k) - 1.0)
    tm = direct_transfer_matrix(q, p, seed.child(1))
    pat = OnOffPattern(np.ones(p), 1.0)
    z = transmit(tm, pat, mu, ChannelModel(sigma), seed.child(2))
    if xi is None:
        if sigma > 0:
            xi = default_xi(sigma, q, p, scale=xi_scale)
        else:
            xi = max(1e-4 * np.max(np.abs(tm.G.T @ z)) / q, 1e-12)
    mu_hat, _, _ = decode_spatial(z, tm.G, pat.diag, np.eye(p), xi, debias=debias)
    sq_err = float(np.sum((mu - mu_hat) ** 2))
    rec = np.flatnonzero(mu_hat)
    support_exact = rec.size == k and np.array_equal(rec, support)
    rel_err = math.sqrt(sq_err) / max(np.linalg.norm(mu), 1e-300)
    return sq_err, support_exact, rel_err


SWEEP_AXES = ("sigma", "m2", "m1", "k2", "N")


@dataclass
class SweepCell:
    value: float
    trials: int
    success_fraction: float
    mean_max_distortion: float
    median_max_distortion: float
    p95_max_distortion: float
    median_stage1_sq_err: float


@dataclass
class SweepResult:
    axis: str
    values: list[float]
    cells: list[SweepCell]
    slope: float | None
    excluded: list[float] = field(default_factory=list)


def _apply_axis(cfg: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    p = cfg.profile
    if axis == "sigma":
        return replace(cfg, sigma=float(value))
    if axis == "m2":
        return replace(cfg, m2=int(value))
    if axis == "m1":
        return replace(cfg, m1=int(value))
    if axis == "k2":
        return replace(cfg, profile=SparsityProfile(p.N, p.n, p.k1, int(value)))
    if axis == "N":
        return replace(cfg, profile=SparsityProfile(int(value), p.n, p.k1, p.k2))
    raise ValueError(f"unknown sweep axis {axis!r}")


def sweep(cfg: ExperimentConfig, axis: str, values, workers: int = 1) -> SweepResult:
    """Run cfg.trials trials per axis value and fit the predicted power law.

    The log-log slope of the median stage-1 squared error is fit
    against sigma^2 (expected slope +1), m2 (-1), or k2 (+1); the m1
    axis fits the median end distortion instead (-1), and the N axis
    reports statistics only.  Degenerate cells whose median error is
    zero are excluded from the regression and listed in the result.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}")
    values = list(values)
    if not values:
        raise ValueError("values must be nonempty")
    if sorted(values) != values:
        raise ValueError("values must be sorted ascending")
    cells = []
    for v in values:
        cfg_v = _apply_axis(cfg, axis, v)
        recs = run_trials(cfg_v, range(cfg.trials), workers=workers)
        maxd = np.array([r.max_distortion for r in recs])
        cells.append(
            SweepCell(
                value=float(v),
                trials=len(recs),
                success_fraction=float(np.mean([r.success for r in recs])),
                mean_max_distortion=float(maxd.mean()),
                median_max_distortion=float(np.median(maxd)),
                p95_max_distortion=float(np.percentile(maxd, 95)),
                median_stage1_sq_err=float(np.median([r.stage1_median_sq_err for r in recs])),
            )
        )

    slope = None
    excluded: list[float] = []
    if len(values) >= 2 and axis != "N":
        if axis == "sigma":
            xs = [2.0 * math.log(c.value) for c in cells if c.value > 0]  # log sigma^2
            ys = [c.median_stage1_sq_err for c, x in zip(cells, values) if x > 0]
        elif axis == "m1":
            xs = [math.log(c.value) for c in cells]
            ys = [c.median_max_distortion for c in cells]
        else:
            xs = [math.log(c.value) for c in cells]
            ys = [c.median_stage1_sq_err for c in cells]
        keep_x, keep_y = [], []
        for x, y, c in zip(xs, ys, cells):
            if y > 0 and math.isfinite(y):
                keep_x.append(x)
                keep_y.append(math.log(y))
            else:
                excluded.append(c.value)
        if len(keep_x) >= 2:
            slope = float(np.polyfit(keep_x, keep_y, 1)[0])
    return SweepResult(axis, [float(v) for v in values], cells, slope, excluded)


def _f(x) -> str:
    return f"{float(x):.17g}"


_EXPORT_HEADER = """\
# csnc trial export, schema 1
# kind: detail = one (trial, receiver, source) distortion row;
#       trial = per-trial aggregate; overall = whole-run aggregate
# trial, receiver, source: integer indices (empty where not applicable)
# distortion: per-source mean squared reconstruction error (1/n)||X_i - Xhat_i||^2
# max_distortion: worst distortion over receivers and sources in the trial
# c_use: exact network uses m1*m2/m as a rational string
# support_recovery_rate: fraction of (receiver, source) pairs with exact temporal support
# stage1_median_sq_err: median over time indices of ||Y^t - Yhat^t||^2
# success: 1 if max_distortion <= allowed distortion
# m1, m2: projection and combination counts used
# seed_master, seed_stream: trial substream key
kind,trial,receiver,source,distortion,max_distortion,c_use,support_recovery_rate,stage1_median_sq_err,success,m1,m2,seed_master,seed_stream
"""


def export_results(records: list[TrialRecord], path: str) -> None:
    """Write trial records as CSV: detail rows, per-trial rows, one overall row.

    timing_ms is deliberately not exported so identical seeds always
    produce byte-identical files.
    """
    records = sorted(records, key=lambda r: r.trial_index)
    with open(path, "w") as fh:
        fh.write(_EXPORT_HEADER)
        for r in records:
            nrec, nsrc = r.per_source_distortion.shape
            for rec_i in range(nrec):
                for src in range(nsrc):
                    fh.write(
                        f"detail,{r.trial_index},{rec_i},{src},{_f(r.per_source_distortion[rec_i, src])},"
                        f"{_f(r.max_distortion)},{r.c_use},{_f(r.support_recovery_rate)},"
                        f"{_f(r.stage1_median_sq_err)},{int(r.success)},{r.m1},{r.m2},"
                        f"{r.seed.master},{r.seed.stream}\n"
                    )
        for r in records:
            fh.write(
                f"trial,{r.trial_index},,,,{_f(r.max_distortion)},{r.c_use},{_f(r.support_recovery_rate)},"
                f"{_f(r.stage1_median_sq_err)},{int(r.success)},{r.m1},{r.m2},"
                f"{r.seed.master},{r.seed.stream}\n"
            )
        if records:
            frac = sum(r.success for r in records) / len(records)
            med = float(np.median([r.max_distortion for r in records]))
            fh.write(f"overall,,,,,{_f(med)},,{_f(frac)},,,,,,\n")


def export_sweep(result: SweepResult, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("# csnc sweep export, schema 1\n")
        fh.write("axis,value,trials,success_fraction,mean_max_distortion,"
                 "median_max_distortion,p95_max_distortion,median_stage1_sq_err,slope\n")
        for c in result.cells:
            fh.write(
                f"{result.axis},{_f(c.value)},{c.trials},{_f(c.success_fraction)},"
                f"{_f(c.mean_max_distortion)},{_f(c.median_max_distortion)},"
                f"{_f(c.p95_max_distortion)},{_f(c.median_stage1_sq_err)},\n"
            )
        slope = "" if result.slope is None else _f(result.slope)
        fh.write(f"{result.axis},,,,,,,,{slope}\n")


def write_summary(path: str, lines: dict) -> None:
    """Plain-text key: value report."""
    with open(path, "w") as fh:
        for key, value in lines.items():
            fh.write(f"{key}: {value}\n")


def save_config(cfg: ExperimentConfig, path: str) -> None:
    p = cfg.profile

    def b(x):
        return "true" if x else "false"

    lines = [
        "[experiment]",
        f"schema = {CONFIG_SCHEMA_VERSION}",
        f"N = {p.N}", f"n = {p.n}", f"k1 = {p.k1}", f"k2 = {p.k2}",
        f"m = {cfg.m}", f"m1 = {cfg.m1}", f"m2 = {cfg.m2}",
        f"sigma = {cfg.sigma!r}", f"D = {cfg.D!r}",
        f"master_seed = {cfg.master_seed.master}", f"seed_stream = {cfg.master_seed.stream}",
        f"kind_phi = {cfg.kind_phi}", f"kind_psi = {cfg.kind_psi}",
        f"network_mode = {cfg.network_mode}", f"case = {cfg.case}",
        f"projection_family = {cfg.projection_family}", f"coeff_family = {cfg.coeff_family}",
        f"connect_prob = {cfg.connect_prob!r}",
        f"receivers = {cfg.receivers}", f"trials = {cfg.trials}",
        f"amp_lo = {cfg.amp_lo!r}", f"amp_hi = {cfg.amp_hi!r}",
        f"redraw_b_per_t = {b(cfg.redraw_b_per_t)}", f"debias = {b(cfg.debias)}",
        f"xi_spatial = {'' if cfg.xi_spatial is None else repr(cfg.xi_spatial)}",
        f"xi_temporal = {'' if cfg.xi_temporal is None else repr(cfg.xi_temporal)}",
        f"xi_scale = {cfg.xi_scale!r}",
        f"stage2 = {b(cfg.stage2)}",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Read an INI-style `key = value` config under an [experiment] section.

    overrides (same keys as the file) take precedence over file values;
    unknown keys raise.  See save_config for the full schema.
    """
    import configparser

    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str  # keys are case-sensitive (N vs n)
    with open(path) as fh:
        parser.read_file(fh)
    if "experiment" not in parser:
        raise ValueError("config file must have an [experiment] section")
    raw = dict(parser["experiment"])
    raw.pop("schema", None)
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    required = ("N", "n", "k1", "k2", "m", "m1", "m2", "sigma", "D")
    missing = [k for k in required if k not in raw or raw[k] == ""]
    if missing:
        raise ValueError(f"missing required config keys: {missing}")

    def geti(key, default=None):
        v = raw.pop(key, default)
        return int(v) if v is not None else None

    def getf(key, default=None):
        v = raw.pop(key, default)
        return float(v) if v not in (None, "") else None

    def getb(key, default):
        v = raw.pop(key, None)
        if v is None:
            return default
        if isinstance(v, bool):
            return v
        return str(v).strip().lower() in ("1", "true", "yes", "on")

    profile = SparsityProfile(geti("N"), geti("n"), geti("k1"), geti("k2"))
    seed = Seed(geti("master_seed", 0), geti("seed_stream", 0))
    cfg = ExperimentConfig(
        profile=profile,
        m=geti("m"),
        m1=geti("m1"),
        m2=geti("m2"),
        sigma=getf("sigma"),
        D=getf("D"),
        master_seed=seed,
        kind_phi=raw.pop("kind_phi", "random-orthonormal"),
        kind_psi=raw.pop("kind_psi", "random-orthonormal"),
        network_mode=raw.pop("network_mode", "direct"),
        case=raw.pop("case", "case2-denseB"),
        projection_family=raw.pop("projection_family", "gaussian"),
        coeff_family=raw.pop("coeff_family", "rademacher"),
        connect_prob=getf("connect_prob", 1.0 / 3.0),
        receivers=geti("receivers", 1),
        trials=geti("trials", 50),
        amp_lo=getf("amp_lo", 8.0),
        amp_hi=getf("amp_hi", 16.0),
        redraw_b_per_t=getb("redraw_b_per_t", True),
        debias=getb("debias", True),
        xi_spatial=getf("xi_spatial", None),
        xi_temporal=getf("xi_temporal", None),
        xi_scale=getf("xi_scale", 2.0),
        stage2=getb("stage2", True),
    )
    if raw:
        raise ValueError(f"unknown config keys: {sorted(raw)}")
    return cfg
