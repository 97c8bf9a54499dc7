"""Command-line entry point.

One verb per invocation.  The seed is the --seed flag's, else the
config file's, else the CSNC_SEED environment variable's.  A config
file holds an [experiment] section of the keys `csnc --help` lists;
absent keys take ExperimentConfig's defaults, bools accept true/false,
yes/no, on/off or 1/0, and an empty value is rejected.  No key sets a
decoder weight: both stages derive theirs by lasso.default_xi.  The
per-trial verbs (generate, project, decode, re-estimate) act on trial
0 of the configured seed, the same trial `trial --index 0` runs.  Exit
codes: 0 success, 1 assertion or calibration failure, 2 usage error (a
flag value out of range or malformed, reported as "invalid argument
--<flag>"; budget flags whose budget overflows, reported as "invalid
arguments"; or a malformed config file, reported as "invalid
configuration"), 3 I/O error.  A sweep checks every cell's config before
its first trial, and reports a value that makes an invalid one as a
--values fault.  With -v, the trial and simulate
verbs log each trial record's index, time, convergence and max
distortion, and calibrate its evaluation table, to stderr; stdout and
every written file are the same with or without it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import harness, re_analysis, sources
from .mathcore import Seed

CONFIG_SCHEMA_HELP = (
    f"config schema version {harness.CONFIG_SCHEMA_VERSION} (absent keys take ExperimentConfig's "
    "defaults): [experiment] section with " + ", ".join(harness.CONFIG_KEYS)
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

# integer flags per verb and their least values; a flag below its floor is a usage error named by the flag.
# Every verb but budget also takes --threads, at least 1.
_COUNT_FLAGS = {
    "re-estimate": (("sparsity", 1), ("supports", 1), ("vectors", 0)),
    "cascade-check": (("triples", 1), ("vectors", 1)),
    "trial": (("index", 0),),
    "calibrate": (("pilot_trials", 20),),  # calibrate_c's least pilot batch
    "budget": (("k1", 1), ("k2", 1), ("n", 2), ("N", 2), ("m", 1)),  # theorem_budget's ranges
}

# float flags per verb: (flag, range check, the range in words); every check rejects NaN
_RANGE_FLAGS = {
    "calibrate": (("target", lambda v: 0 < v <= 1, "must lie in (0, 1]"),),  # calibrate_c's target range
    "re-estimate": (("alpha", lambda v: 1 <= v < math.inf, "must be finite and >= 1"),),  # ConeSpec's range
    "budget": (("c", lambda v: 0 < v < math.inf, "must be finite and > 0"),
               ("sigma", lambda v: 0 <= v < math.inf, "must be finite and >= 0"),
               ("D", lambda v: 0 < v < math.inf, "must be finite and > 0")),
}


def _log_records(log: bool, records) -> None:
    if log:
        for r in records:
            print(f"trial {r.trial_index}: timing_ms={r.timing_ms:.1f} converged={r.converged} "
                  f"max_distortion={r.max_distortion:.6g}", file=sys.stderr)


def _log_evaluations(log: bool, evaluations) -> None:
    if log:
        rows = ["calibration evaluations:", f"{'c':>12} {'m1':>5} {'m2':>5} {'success':>8}"]
        rows += [f"{c:12.6g} {m1:5d} {m2:5d} {frac:8.3f}" for c, m1, m2, frac in evaluations]
        print("\n".join(rows), file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csnc",
        description="Compressive-sensing joint source-channel-network coding lab. " + CONFIG_SCHEMA_HELP,
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--output", help="output file path")
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                       help="worker process cap for trial batches")
        p.add_argument("-v", "--verbose", action="store_true",
                       help="log trial records or the calibration table to stderr")

    common(sub.add_parser("generate", help="export trial 0's source ensemble"))
    common(sub.add_parser("project", help="export trial 0's temporally projected samples Y"))
    common(sub.add_parser("simulate", help="run all configured trials and export records"))
    common(sub.add_parser("decode", help="decode trial 0 and export every receiver's reconstruction"))
    p = sub.add_parser("re-estimate", help="estimate the restricted-eigenvalue level of trial 0's transfer matrix")
    common(p)
    p.add_argument("--sparsity", type=int, help="cone sparsity (default k2)")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--supports", type=int, default=50)
    p.add_argument("--vectors", type=int, default=50)
    p = sub.add_parser("cascade-check", help="probe the RE cascade inequalities")
    common(p)
    p.add_argument("--triples", type=int, default=20)
    p.add_argument("--vectors", type=int, default=50)
    p = sub.add_parser("trial", help="run a single trial and print its record")
    common(p)
    p.add_argument("--index", type=int, default=0, help="trial index")
    p = sub.add_parser("sweep", help="sweep one axis and export per-cell statistics")
    common(p)
    p.add_argument("--axis", required=True, choices=harness.SWEEP_AXES)
    p.add_argument("--values", required=True, help="comma-separated ascending values")
    p = sub.add_parser("calibrate", help="calibrate the budget constant c on pilot trials")
    common(p)
    p.add_argument("--pilot-trials", type=int, default=30)
    p.add_argument("--target", type=float, default=0.9)
    p = sub.add_parser("budget", help="evaluate the network-use budget formula")
    for flag in ("--k1", "--k2", "--n", "--N", "--m"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--D", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    return parser


def _load(args) -> harness.ExperimentConfig:
    """Config with seed precedence: --seed flag > config file > CSNC_SEED env var."""
    if args.seed is not None:
        return replace(harness.load_config(args.config), master_seed=Seed(args.seed))
    env = os.environ.get("CSNC_SEED")
    return harness.load_config(args.config, default_seed=Seed(int(env)) if env else None)


def dispatch(args, log: bool = False) -> int:
    """Run the parsed verb; with log (-v), the records also go to stderr."""
    verb = args.verb

    if verb == "budget":
        plan = harness.theorem_budget(args.c, args.k1, args.k2, args.n, args.N, args.m, args.sigma, args.D)
        baseline = harness.naive_baseline(args.n, args.N, args.m, args.sigma, args.D)
        print(f"c_use = {plan.c_use:.6g}")
        print(f"suggested m1 = {plan.m1}, m2 = {plan.m2}")
        print(f"naive baseline = {baseline:.6g}")
        return EXIT_OK

    cfg = _load(args)
    p = cfg.profile
    seed = cfg.master_seed
    out = args.output

    if verb == "generate":
        trial = harness.build_trial(cfg, 0)
        path = out or "ensemble.csv"
        sources.save_ensemble(trial.ens, path, trial.dicts, seed=trial.seed.child(harness._ENSEMBLE),
                              dict_seed=trial.seed.child(harness._DICTS))
        report = sources.verify_assumption(trial.ens, trial.dicts)
        print(f"wrote {path} (+.meta); temporal_ok={report.temporal_ok} "
              f"spatial_ok={report.spatial_ok} worst_residual={report.worst_residual:.3g}")
        return EXIT_OK if (report.temporal_ok and report.spatial_ok) else EXIT_FAIL

    if verb == "project":
        Y = harness.build_trial(cfg, 0).Y
        path = out or "projected.csv"
        np.savetxt(path, Y, delimiter=",", fmt="%.17g")
        print(f"wrote {path} ({Y.shape[0]} x {Y.shape[1]})")
        return EXIT_OK

    if verb == "simulate":
        records = harness.run_trials(cfg, range(cfg.trials), workers=args.threads)
        _log_records(log, records)
        path = out or "results.csv"
        harness.export_results(records, path)
        frac = sum(r.success for r in records) / len(records)
        harness.write_summary(path + ".summary.txt", {
            "trials": len(records),
            "success_fraction": f"{frac:.17g}",
            "median_max_distortion": f"{np.median([r.max_distortion for r in records]):.17g}",
            "c_use": records[0].c_use,
            "allowed_distortion": f"{cfg.D:.17g}",
        })
        print(f"wrote {path}; success fraction {frac:.3f}")
        return EXIT_OK

    if verb == "decode":
        results = harness.decode_trial(cfg, harness.build_trial(cfg, 0))
        x_hat = np.vstack([res.x_hat for res in results])  # receiver-major
        path = out or "decode.csv"
        np.savetxt(path, x_hat, delimiter=",", fmt="%.17g")
        worst = max(float(res.per_source_distortion.max()) for res in results)
        print(f"wrote {path} ({x_hat.shape[0]} x {x_hat.shape[1]}); "
              f"max distortion {worst:.6g} (allowed {cfg.D:.6g})")
        return EXIT_OK

    if verb == "trial":
        record = harness.run_trial(cfg, args.index)
        _log_records(log, [record])
        if out:
            harness.export_results([record], out)
        print(f"trial {args.index}: max_distortion={record.max_distortion:.6g} "
              f"c_use={record.c_use} support_recovery={record.support_recovery_rate:.3f} "
              f"success={record.success} converged={record.converged}")
        return EXIT_OK

    if verb == "re-estimate":
        if args.sparsity is not None and args.sparsity > p.N:  # this bound needs N, so it waits for the config
            return _flag_fault("sparsity", f"must be <= N = {p.N}")
        G = harness.build_trial(cfg, 0).transfers[0].G
        k = p.k2 if args.sparsity is None else args.sparsity
        est = re_analysis.estimate_re(G, k, args.alpha, args.supports, args.vectors, seed.child(9))
        if out:
            re_analysis.save_re_report(est, out)
        print(f"gamma_hat = {est.gamma_hat:.6g} over {est.samples_used} samples "
              f"(alpha={args.alpha:g}, k={k})")
        return EXIT_OK if est.gamma_hat > 0 else EXIT_FAIL

    if verb == "cascade-check":
        rng_seed = seed.child(10)
        total_left = total_right = total_skip = 0
        worst = float("inf")
        for i in range(args.triples):
            s = rng_seed.child(i)
            G, C1, C2, support = re_analysis.cascade_triple(s, cfg.m2, p.N, p.k2)
            rep = re_analysis.cascade_check(G, C1, C2, re_analysis.ConeSpec(p.N, support, 1.0), args.vectors,
                                            s.child(4))
            total_left += rep.violations_left
            total_right += rep.violations_right
            total_skip += rep.membership_skipped
            worst = min(worst, rep.worst_margin)
        totals = {"triples": args.triples, "vectors": args.vectors, "violations_left": total_left,
                  "violations_right": total_right, "membership_skipped": total_skip, "worst_margin": f"{worst:.3g}"}
        print(" ".join(f"{key}={value}" for key, value in totals.items()))
        if out:
            harness.write_summary(out, totals)
        return EXIT_OK if total_left == 0 and total_right == 0 else EXIT_FAIL

    if verb == "sweep":
        try:
            harness.sweep_configs(cfg, args.axis, args.values)
        except ValueError as exc:
            return _flag_fault("values", str(exc))
        result = harness.sweep(cfg, args.axis, args.values, workers=args.threads)
        path = out or f"sweep_{args.axis}.csv"
        harness.export_sweep(result, path)
        slope = "n/a" if result.slope is None else f"{result.slope:.4f}"
        print(f"wrote {path}; fitted slope {slope}")
        return EXIT_OK

    if verb == "calibrate":
        result = harness.calibrate_c(cfg, pilot_trials=args.pilot_trials,
                                     target=args.target, workers=args.threads)
        _log_evaluations(log, result.evaluations)
        plan = result.plan
        baseline = harness.naive_baseline(p.n, p.N, cfg.m, cfg.sigma, cfg.D)
        print(f"c = {result.c:.6g} -> c_use = {plan.c_use:.6g} (m1={plan.m1}, m2={plan.m2}), "
              f"pilot success {result.success_fraction:.3f}")
        if out:
            harness.write_summary(out, {
                "c": f"{result.c:.17g}",
                "c_use": f"{plan.c_use:.17g}",
                "m1": plan.m1, "m2": plan.m2,
                "pilot_success_fraction": f"{result.success_fraction:.17g}",
                "naive_baseline": f"{baseline:.17g}",
                "budget_over_baseline": f"{plan.c_use / baseline:.17g}" if baseline > 0 else "inf",
                "calibration_target": f"{args.target:.17g}",
            })
        return EXIT_OK

    raise AssertionError(f"unhandled verb {verb}")  # parser prevents this


def _flag_fault(flag: str, why: str) -> int:
    print(f"invalid argument --{flag.replace('_', '-')}: {why}", file=sys.stderr)
    return EXIT_USAGE


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, floor in _COUNT_FLAGS.get(args.verb, ()) + (("threads", 1),):
        value = getattr(args, flag, None)
        if value is not None and value < floor:
            return _flag_fault(flag, f"must be >= {floor}")
    for flag, admits, why in _RANGE_FLAGS.get(args.verb, ()):
        if not admits(getattr(args, flag)):
            return _flag_fault(flag, why)
    if args.verb == "sweep":
        try:
            args.values = [float(v) for v in args.values.split(",")]
        except ValueError:
            return _flag_fault("values", f"not a comma-separated list of numbers: {args.values!r}")
    try:
        return dispatch(args, getattr(args, "verbose", False))  # budget takes no -v
    except harness.CalibrationError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # budget reads no config: what is left is its flags' overflowing budget
        print(f"invalid {'arguments' if args.verb == 'budget' else 'configuration'}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
