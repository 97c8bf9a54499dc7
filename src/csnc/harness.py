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

import configparser
import math
import time
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from fractions import Fraction
from typing import get_type_hints

import numpy as np

from .lasso import DecodeResult, decode_all, decode_spatial, default_xi
from .mathcore import Seed
from .netsim import (
    TransferMatrix,
    build_example_topology,
    derive_transfer_matrix,
    direct_transfer_matrix,
    network_uses,
    transmit,
)
from .precoder import draw_onoff, make_projection, temporal_project
from .sources import (
    DICTIONARY_KINDS,
    DictionaryPair,
    SourceEnsemble,
    SparsityProfile,
    generate_ensemble,
    make_dictionary_pair,
)

NETWORK_MODES = ("direct", "example1")
CASES = ("case1-sparseB", "case2-denseB")
AMP_RANGE = (8.0, 16.0)  # magnitude range of the nonzero core entries of every ensemble
CONNECT_PROB = 1.0 / 3.0  # example1: each source feeds each intermediate with this probability

# substream tags
_TRIAL, _DICTS, _ENSEMBLE, _PROJ, _TOPO, _TRANSFER, _PATTERN, _NOISE, _PILOT = range(1, 10)

CONFIG_SCHEMA_VERSION = 4


@dataclass
class ExperimentConfig:
    """Everything one pipeline experiment needs; its fields define the config file (save_config)."""

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
    receivers: int = 1
    trials: int = 50
    debias: bool = True
    stage2: bool = True  # False: stage-1 scaling experiments skip the temporal decode

    def __post_init__(self):
        p = self.profile
        if not (1 <= self.m1 <= p.n):
            raise ValueError("need 1 <= m1 <= n")
        if not (1 <= self.m2 <= p.N):
            raise ValueError("need 1 <= m2 <= N")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not (self.D > 0 and math.isfinite(self.D)):
            raise ValueError("D must be positive and finite")
        if not (self.sigma >= 0 and math.isfinite(self.sigma)):
            raise ValueError("sigma must be finite and nonnegative")
        if self.trials < 1 or self.receivers < 1:
            raise ValueError("need trials >= 1 and receivers >= 1")
        for key, allowed in (("network_mode", NETWORK_MODES), ("case", CASES), ("kind_phi", DICTIONARY_KINDS),
                             ("kind_psi", DICTIONARY_KINDS)):
            if getattr(self, key) not in allowed:
                raise ValueError(f"unknown {key} {getattr(self, key)!r}: expected one of {', '.join(allowed)}")
        if self.network_mode == "example1" and self.m2 > self.m:
            raise ValueError("example1 mode requires m2 <= m")


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
    topo = build_example_topology(N, cfg.m, CONNECT_PROB, seed.child(_TOPO))
    return derive_transfer_matrix(topo, cfg.m2, seed=seed)


@dataclass
class Trial:
    """Every random object of one trial, each drawn from its named substream, as bare arrays."""

    seed: Seed
    dicts: DictionaryPair
    ens: SourceEnsemble
    A: np.ndarray  # m1 x n projection
    Y: np.ndarray  # m1 x N, column i = A X_i
    B: np.ndarray  # m1 x N on-off matrix, row t = the 0/1 pattern b_t
    transfers: list[TransferMatrix]  # one per receiver
    observations: list[np.ndarray]  # one m2 x m1 block per receiver, column t = Z^t


def build_trial(cfg: ExperimentConfig, index: int) -> Trial:
    """Draw trial `index` of cfg: pipeline steps 1-3 up to the receiver observations."""
    p = cfg.profile
    seed = cfg.master_seed.child(_TRIAL, index)

    dicts = make_dictionary_pair(cfg.kind_phi, cfg.kind_psi, p.n, p.N, seed.child(_DICTS))
    ens = generate_ensemble(p, dicts, AMP_RANGE, seed.child(_ENSEMBLE))
    A = make_projection(cfg.m1, p.n, seed.child(_PROJ))
    Y = temporal_project(ens, A)

    prob = cfg.m2 / p.N if cfg.case == "case1-sparseB" else 1.0
    rng = seed.rng()  # every per-time stream, reseated to it (Seed.reseat) just before its draw
    B = np.array([draw_onoff(p.N, prob, seed.child(_PATTERN, t).reseat(rng)) for t in range(cfg.m1)])

    transfers = [_make_transfer(cfg, seed.child(_TRANSFER, r)) for r in range(cfg.receivers)]
    observations = [
        np.column_stack(
            [transmit(tm, B[t], Y[t], cfg.sigma, seed.child(_NOISE, r, t).reseat(rng)) for t in range(cfg.m1)]
        )
        for r, tm in enumerate(transfers)
    ]
    return Trial(seed, dicts, ens, A, Y, B, transfers, observations)


def decode_trial(cfg: ExperimentConfig, trial: Trial) -> list[DecodeResult]:
    """Pipeline step 4: the two-stage decode at every receiver, scored against the truth."""
    return [
        decode_all(
            obs, tm.G, trial.B, trial.dicts.Psi, trial.dicts.Phi, trial.A, cfg.sigma,
            truth_X=trial.ens.X, proj_truth=trial.Y, debias=cfg.debias, run_temporal=cfg.stage2,
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
    true_support = np.abs(theta_true) > support_tol

    distortions = np.array([res.per_source_distortion for res in results])
    support_hits = 0
    stage1_errs: list[float] = []
    for res in results:
        stage1_errs.extend(np.sum((res.y_hat - trial.Y) ** 2, axis=1).tolist())
        support_hits += int(np.all((np.abs(res.theta_hat) > support_tol) == true_support, axis=1).sum())

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
        converged=all(res.converged for res in results),
        timing_ms=(time.perf_counter() - t0) * 1e3,
    )


def run_trials(cfg: ExperimentConfig, indices, workers: int = 1) -> list[TrialRecord]:
    """Run the trials of the given indices; order of results follows indices regardless of scheduling."""
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
    recover anything.  A budget past the float range raises ValueError.
    """
    if min(k1, k2, m) <= 0 or n < 2 or N < 2:
        raise ValueError("need positive k1, k2, m and n, N >= 2")
    if not (0 < c < math.inf and 0 < D < math.inf and 0 <= sigma < math.inf):  # also rejects NaN
        raise ValueError("need finite c > 0, D > 0 and sigma >= 0")
    try:
        c_use = c * k1 * k2 * math.log(n) * math.log(N) / m * sigma**2 / D
    except OverflowError:  # sigma**2 or an integer past the float range
        c_use = math.inf
    if not math.isfinite(c_use):
        raise ValueError("the budget c_use overflows the float range")
    raw_m1 = math.sqrt(c_use * m * math.log(n) * k1 / (math.log(N) * k2)) if c_use > 0 else 0.0
    m1 = min(max(math.ceil(raw_m1), 1, min(k1 + 1, n)), n)
    m2 = min(max(math.ceil(c_use * m / m1), 1, min(k2 + 1, N)), N)
    return BudgetPlan(c_use, m1, m2)


def naive_baseline(n, N, m, sigma, D) -> float:
    """Network uses of the correlation-blind scheme: (nN/m) log2(sigma^2 / D), floored at 0.

    A baseline past the float range raises ValueError.
    """
    if min(n, N, m) < 1 or not (0 < D < math.inf and 0 <= sigma < math.inf):  # also rejects NaN
        raise ValueError("need positive dimensions and finite D > 0, sigma >= 0")
    try:
        uses = (n * N / m) * math.log2(sigma**2 / D) if sigma**2 > D else 0.0
    except OverflowError:  # sigma**2 or n N / m past the float range
        uses = math.inf
    if not math.isfinite(uses):
        raise ValueError("the naive baseline overflows the float range")
    return uses


class CalibrationError(RuntimeError):
    """No budget constant up to the search ceiling met the success target."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


CALIBRATION_RESOLUTION = 1.1  # calibrate_c bisects until the bracket ratio is at most this


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
    stops once the bracket ratio is below CALIBRATION_RESOLUTION; if
    even c_hi fails, a CalibrationError carrying the evaluation table is raised.
    At sigma = 0 every c gives the same floor plan, so c_lo decides, and
    c_hi's evaluation reuses c_lo's cached batches.
    """
    if pilot_trials < 20:
        raise ValueError("need at least 20 pilot trials")
    if not 0 < target <= 1:
        raise ValueError("target must lie in (0, 1]")
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
    while hi / lo > CALIBRATION_RESOLUTION:
        mid = math.sqrt(lo * hi)
        frac, plan = success_fraction(mid)
        if passes(frac):
            hi, best_frac, best_plan = mid, frac, plan
        else:
            lo = mid
    return CalibrationResult(hi, best_plan, best_frac, evals)


def direct_recovery_trial(q: int, p: int, k: int, sigma: float, seed: Seed, debias: bool = True):
    """One single-stage recovery experiment: z = G mu + w, decode, score.

    Draws a k-sparse truth with magnitudes in [1, 2] and random signs, a
    direct Gaussian q x p transfer matrix, and AWGN at level sigma;
    decodes by decode_spatial on G, the spatial decode's design for an
    all-on pattern and the identity dictionary, refitting the support
    when debias.  The weight is default_xi(sigma, q, p), or in the
    noiseless case a small data-relative level.  Returns (sq_err,
    support_exact, rel_err).
    """
    rng = seed.child(0).rng()
    support = np.sort(rng.choice(p, size=k, replace=False))
    mu = np.zeros(p)
    if k:
        mags = rng.uniform(1.0, 2.0, size=k)
        mu[support] = mags * (2.0 * rng.integers(0, 2, size=k) - 1.0)
    tm = direct_transfer_matrix(q, p, seed.child(1))
    z = transmit(tm, np.ones(p), mu, sigma, seed.child(2).reseat(rng))
    if sigma > 0:
        xi = default_xi(sigma, q, p)
    else:
        xi = max(1e-4 * np.max(np.abs(tm.G.T @ z)) / q, 1e-12)
    [mu_hat], _ = decode_spatial(z[:, None], tm.G, [xi], debias)
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
    if axis == "sigma":
        return replace(cfg, sigma=float(value))
    if not float(value).is_integer():  # also rejects NaN and inf
        raise ValueError(f"{axis} takes integer values, not {value!r}")
    if axis in ("m1", "m2"):
        return replace(cfg, **{axis: int(value)})
    return replace(cfg, profile=replace(cfg.profile, **{axis: int(value)}))


def sweep_configs(cfg: ExperimentConfig, axis: str, values) -> list[ExperimentConfig]:
    """cfg with the axis set to each value: every cell's config, built and so checked before any trial runs.

    ValueError names an unknown axis, empty or unsorted values, a
    non-integer value on an integer axis (m2, m1, k2, N), or a value that
    makes an invalid config.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}")
    values = list(values)
    if not values:
        raise ValueError("values must be nonempty")
    if sorted(values) != values:
        raise ValueError("values must be sorted ascending")
    return [_apply_axis(cfg, axis, v) for v in values]


def sweep(cfg: ExperimentConfig, axis: str, values, workers: int = 1) -> SweepResult:
    """Run cfg.trials trials per axis value and fit the predicted power law.

    The log-log slope of the median stage-1 squared error is fit
    against sigma^2 (expected slope +1), m2 (-1), or k2 (+1); the m1
    axis fits the median end distortion instead (-1), and the N axis
    reports statistics only.  A cell whose axis value is not positive,
    or whose fitted median is not positive and finite, is left out of
    the fit and listed in the result's `excluded`.  Every cell's config
    is built by sweep_configs before the first trial runs.
    """
    values = list(values)
    cells = []
    for v, cfg_v in zip(values, sweep_configs(cfg, axis, values)):
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
        keep_x, keep_y = [], []
        for c in cells:
            y = c.median_max_distortion if axis == "m1" else c.median_stage1_sq_err
            if c.value > 0 and y > 0 and math.isfinite(y):
                x = math.log(c.value)
                keep_x.append(2.0 * x if axis == "sigma" else x)  # the sigma axis fits against sigma^2
                keep_y.append(math.log(y))
            else:
                excluded.append(c.value)
        if len(keep_x) >= 2:
            slope = float(np.polyfit(keep_x, keep_y, 1)[0])
    return SweepResult(axis, [float(v) for v in values], cells, slope, excluded)


def _f(x) -> str:
    return f"{float(x):.17g}"


_EXPORT_HEADER = """\
# csnc trial export, schema 2
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
# overall row: max_distortion is the median over trials of max_distortion and
#       success the fraction of trials that succeeded; every other column is empty
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
            fh.write(f"overall,,,,,{_f(med)},,,,{_f(frac)},,,,\n")


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


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _parse(section, key: str, kind):
    """One config value read as its field's type; an empty value is an error."""
    if section[key] == "":
        raise ValueError(f"config key {key} is empty")
    get = {bool: section.getboolean, int: section.getint, str: section.get, float: section.getfloat}[kind]
    try:
        return get(key)
    except ValueError as exc:
        raise ValueError(f"config key {key}: {exc}") from None


# file keys of the seed's attributes; the profile's attributes keep their names
_SEED_KEYS = {"master": "master_seed", "stream": "seed_stream"}


def _config_schema():
    """(field, type, [(key, attribute, type)]) per ExperimentConfig field, in file order.

    A field holding a dataclass (profile, master_seed) is written as one
    key per attribute of that dataclass; attribute is None for the others.
    """
    schema = []
    hints = get_type_hints(ExperimentConfig)
    for f in fields(ExperimentConfig):
        kind = hints[f.name]
        if is_dataclass(kind):
            sub = get_type_hints(kind)
            keys = [(_SEED_KEYS.get(a.name, a.name), a.name, sub[a.name]) for a in fields(kind)]
        else:
            keys = [(f.name, None, kind)]
        schema.append((f, kind, keys))
    return schema


_CONFIG_SCHEMA = _config_schema()
CONFIG_KEYS = tuple(key for _, _, keys in _CONFIG_SCHEMA for key, _, _ in keys)


def save_config(cfg: ExperimentConfig, path: str) -> None:
    """Write cfg as load_config reads it: `schema`, then CONFIG_KEYS in order."""
    lines = ["[experiment]", f"schema = {CONFIG_SCHEMA_VERSION}"]
    for f, _, keys in _CONFIG_SCHEMA:
        value = getattr(cfg, f.name)
        lines += [f"{key} = {_format(getattr(value, attr) if attr else value)}" for key, attr, _ in keys]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_config(path: str, default_seed: Seed | None = None) -> ExperimentConfig:
    """Read an INI-style `key = value` config under an [experiment] section.

    The keys are CONFIG_KEYS plus an ignored `schema`; one the file leaves
    out takes ExperimentConfig's default, and default_seed, when given,
    replaces the default seed.  Values are read by field type: bools
    accept true/false, yes/no, on/off and 1/0, and an empty value is
    rejected.  A malformed file, an unknown key (the three weight keys
    of a schema-1 file, the amp_lo, amp_hi, coeff_family and
    connect_prob keys of a schema-2 file, and the projection_family and
    redraw_b_per_t keys of a schema-3 file among them), an unknown kind
    or mode, or a missing required key raises ValueError.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (N vs n)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ValueError(f"malformed config file: {exc}") from None
    if not parser.has_section("experiment"):
        raise ValueError("config file must have an [experiment] section")
    section = parser["experiment"]
    unknown = sorted(set(section) - {"schema", *CONFIG_KEYS})
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    kw, missing = {}, []
    for f, kind, keys in _CONFIG_SCHEMA:
        default = default_seed if f.name == "master_seed" and default_seed is not None else f.default
        parts = {}
        for key, attr, key_kind in keys:
            if key in section:
                parts[attr] = _parse(section, key, key_kind)
            elif default is MISSING:
                missing.append(key)
            else:
                parts[attr] = getattr(default, attr) if attr else default
        if len(parts) == len(keys):
            kw[f.name] = kind(**parts) if is_dataclass(kind) else parts[None]
    if missing:
        raise ValueError(f"missing required config keys: {missing}")
    return ExperimentConfig(**kw)
