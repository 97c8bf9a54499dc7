"""Seeded benchmark of the csnc lab.

    python3 perfbench/run.py --workload trials-acceptance [--seed 20260808]
                             [--seconds 5] [--trace 0|1]

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's `src/`.  Each run sets up the workload
several times (import, configs, one warm-up operation), then runs whole
rounds of the workload's operations until --seconds have passed, checks
every output (see checks.py), and prints one human-readable line per
metric followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
run also wraps every layer boundary and reports per-layer metrics.  A
record of every run goes to perfbench/runs/.
"""

import os
import sys

# Before numpy is imported: one BLAS thread, so timings do not depend on
# how many cores the machine lends to a process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(HERE, "runs")
SETUP_REPEATS = 5
# A fresh interpreter is the only way to repeat an import; its own start-up is not timed.
IMPORT_PROBE = "import time; t = time.perf_counter(); import numpy, csnc.cli; print(time.perf_counter() - t)"
WORKLOAD_NAMES = ("trials-acceptance", "stage1-scaling", "calibrate-small", "analysis-battery")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_ms_p50": "ms", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=20260808, help="master seed (default: the acceptance seed)")
    ap.add_argument("--seconds", type=float, default=5.0, help="measure whole rounds for at least this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer spans and metrics")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must fit in 64 bits")
    return args


def environment() -> dict:
    """Provenance of a run: code version, numpy/BLAS build, threads and cores."""
    import numpy as np

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            sha = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "csnc")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: f"{deps[k].get('name')} {deps[k].get('version')}" for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                       "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def import_seconds(src: str) -> list[float]:
    """Time `import numpy, csnc.cli` in SETUP_REPEATS fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout))
    return times


def percentile_report(ms: list[float]) -> dict:
    """Median and the highest of p90/p99 that has at least ten samples beyond it."""
    out = {"count": len(ms), "p50": statistics.median(ms)}
    qs = sorted(ms)
    for p in (90, 99):
        if len(ms) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = qs[min(len(qs) - 1, int(len(qs) * p / 100))]
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "csnc", "__init__.py")):
        print(f"perfbench: no csnc package under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    t_import = time.perf_counter()
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    import csnc
    import csnc.cli  # noqa: F401

    import probe as probe_mod
    import workloads
    imports = [time.perf_counter() - t_import] + import_seconds(src)
    if os.path.dirname(os.path.abspath(csnc.__file__)) != os.path.join(src, "csnc"):
        print(f"perfbench: imported csnc from {csnc.__file__}, not from {src}", file=sys.stderr)
        return 2

    os.makedirs(RUN_DIR, exist_ok=True)
    probe = probe_mod.Probe(tracing=bool(args.trace))
    probe.wrap(csnc.lasso, "solve_lasso", "lasso.solve_lasso", after=probe.capture_solve)
    probe.wrap(csnc.harness, "decode_all", "lasso.decode_all", after=probe.capture_decode)
    wl = workloads.WORKLOADS[args.workload](probe, csnc, args.seed, RUN_DIR)
    if args.trace:
        probe_mod.install(probe, {name: getattr(csnc, name) for name in
                                  ("mathcore", "harness", "lasso", "netsim", "re_analysis", "cli")})
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.prepare()
            wl.warmup()
            setups.append(time.perf_counter() - t0)
        probe.reset()

        round_s = []
        start = time.perf_counter()
        while not round_s or time.perf_counter() - start < args.seconds:
            checked = probe.check_s
            t0 = time.perf_counter()
            wl.round()
            round_s.append(time.perf_counter() - t0 - (probe.check_s - checked))
    finally:
        wl.close()
        probe.restore()

    ops = probe.ops
    failed = [op for op in ops if op.failed]
    op_ms = [op.ms for op in ops]
    if args.trace:
        metrics = probe.layer_metrics(len(round_s))
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(imports) + statistics.median(setups),
            "wall_s": statistics.median(round_s),
            "op_ms_p50": statistics.median(op_ms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not probe.errors,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }

    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    base = os.path.join(RUN_DIR, f"{args.workload}_seed{args.seed}_trace{args.trace}_{stamp}_{os.getpid()}")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "utc": stamp, **environment(),
        "import_s": imports, "setup_repeats_s": setups, "rounds": len(round_s), "round_wall_s": round_s,
        "traced_wall_s": statistics.median(round_s) if args.trace else None,
        "op_ms": percentile_report(op_ms),
        "attempted": len(ops), "failed": len(failed),
        "failed_ops": [{"op": op.label, "reason": op.failed} for op in failed],
        "correct": not probe.errors, "errors": probe.errors[:50],
        "metrics": result["metrics"],
    }
    if args.trace:
        record["sweep_histogram"] = probe.sweep_histogram()
        record["spans"] = len(probe.spans)
        record["spans_file"] = os.path.basename(base) + ".spans.csv.gz"
        with gzip.open(base + ".spans.csv.gz", "wt") as fh:
            probe.dump_spans(fh)
    if hasattr(wl, "stdout"):
        record["program_stdout"] = wl.stdout
    with open(base + ".json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload}: seed {args.seed}, {len(round_s)} round(s), {len(ops)} operations, "
          f"{len(failed)} failed, checks {'passed' if not probe.errors else 'FAILED'}")
    for op in failed:
        print(f"  failed: {op.label}: {op.failed}")
    for err in probe.errors[:20]:
        print(f"  wrong output: {err}")
    for k, v in metrics.items():
        print(f"  {k} = {v:.6g} {units[k]}" + (f" (median of {len(op_ms)} operations)" if k == "op_ms_p50" else ""))
    if args.trace:
        print(f"  sweep histogram: {record['sweep_histogram']}")
    print(f"  record: {os.path.relpath(base + '.json', ROOT)}")
    print(json.dumps(result))
    return 0


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("kkt_worst"):
        return "residual"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
