"""Wrappers installed around csnc's public functions, from outside the package.

Every wrapper is installed at the name its caller looks up (for example
`csnc.harness.decode_all`, which `run_trial` calls, and
`csnc.lasso.solve_lasso`, which both decode stages call), so the
package itself is never edited.  Untraced runs install only the hooks
the checks need: operation boundaries and the capture of each solve and
decode.  A traced run also wraps every layer boundary listed in
`install` and records one span per call, kept in memory until the run
ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import checks

perf = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


@dataclass
class Op:
    index: int
    label: str
    ms: float = 0.0
    failed: str | None = None  # why the operation failed, if it did


@dataclass
class Solve:
    iterations: int
    converged: bool
    max_iter: int
    kkt: float | None  # recomputed by the benchmark; None when uncertified


class Probe:
    """Operation bookkeeping, solve capture, checks and (optionally) span tracing."""

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.errors: list[str] = []  # wrong outputs: these make the run incorrect
        self.reset()

    def reset(self):
        """Forget everything measured so far (used after the warm-up)."""
        self.spans.clear()
        self.ops: list[Op] = []
        self.current: Op | None = None
        self.solves: list[Solve] = []
        self.pending_solves: list[tuple] = []  # (problem, solution, tol, max_iter) of the open operation
        self.pending_decodes: list[tuple] = []  # (truth_X, proj_truth, DecodeResult)
        self.check_s = 0.0
        self.counts: dict[str, int] = {}  # workload-level counts: pilot trials, evaluations, cone samples

    def count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def error(self, where: str, problems):
        self.errors.extend(f"{where}: {p}" for p in problems)

    # -- wrapping -------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None, op_label=None, op_check=None):
        """Replace owner.attr by a wrapper.

        after(out, args, kwargs) runs on every return.  With op_label, a
        call made outside any open operation is itself one operation:
        its time is the operation's time, and op_check(op, out, args,
        kwargs) runs after it, untimed.
        """
        fn = getattr(owner, attr)
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if op_label is not None and probe.current is None:
                with probe.operation(op_label(*args, **kwargs)) as op:
                    out = probe._call(fn, name, after, args, kwargs)
                with probe.checking():
                    op_check(op, out, args, kwargs)
                    probe.pending_decodes.clear()
                return out
            return probe._call(fn, name, after, args, kwargs)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))

    def _call(self, fn, name, after, args, kwargs):
        if not self.tracing:
            out = fn(*args, **kwargs)
        else:
            parent = self._stack[-1] if self._stack else None
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                self._stack.pop()
                self.spans[idx] = Span(name, t0, t1, parent, self.current.index if self.current else None)
        if after is not None:
            after(out, args, kwargs)
        return out

    def restore(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # -- operations and checks -----------------------------------------

    @contextmanager
    def operation(self, label: str):
        op = Op(len(self.ops), label)
        self.ops.append(op)
        self.current = op
        t0 = perf()
        try:
            yield op
        finally:
            op.ms = (perf() - t0) * 1e3
            self.current = None
        with self.checking():
            self.settle_solves(op)

    @contextmanager
    def checking(self):
        """Time spent here is excluded from the workload's wall time."""
        t0 = perf()
        try:
            yield
        finally:
            self.check_s += perf() - t0

    def capture_solve(self, sol, args, kwargs):
        self.pending_solves.append((args[0], sol, kwargs.get("tol", 1e-8), kwargs.get("max_iter", 10_000)))

    def capture_decode(self, res, args, kwargs):
        self.pending_decodes.append((kwargs.get("truth_X"), kwargs.get("proj_truth"), res))

    def settle_solves(self, op: Op):
        """Certify every solve of the operation; an uncertified solve fails the operation."""
        for prob, sol, tol, max_iter in self.pending_solves:
            kkt = None
            if sol.converged:
                kkt, problems = checks.check_certificate(prob.G, prob.z, prob.xi, sol.coef, tol)
                self.error(op.label, problems)
            elif op.failed is None:
                op.failed = (f"uncertified solve: {sol.iterations} sweeps (cap {max_iter}), "
                             f"KKT {sol.kkt_residual:.3g}, objective {sol.objective:.6g}")
            self.solves.append(Solve(sol.iterations, sol.converged, max_iter, kkt))
        self.pending_solves.clear()

    # -- per-layer metrics from the spans ---------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer figures, each a per-round mean (counts included)."""
        dur: dict[str, float] = {}
        calls: dict[str, int] = {}
        child = [0.0] * len(self.spans)
        for s in self.spans:
            d = s.end - s.start
            dur[s.name] = dur.get(s.name, 0.0) + d
            calls[s.name] = calls.get(s.name, 0) + 1
            if s.parent is not None:
                child[s.parent] += d
        self_s: dict[str, float] = {}  # span name -> time not covered by its child spans
        for s, c in zip(self.spans, child):
            self_s[s.name] = self_s.get(s.name, 0.0) + (s.end - s.start - c)

        def ms(*names):
            return sum(dur.get(n, 0.0) for n in names) * 1e3 / rounds

        def count(*names):
            return sum(calls.get(n, 0) for n in names) / rounds

        solve_durs = sorted((s.end - s.start for s in self.spans if s.name == "lasso.solve_lasso"), reverse=True)
        sweeps = np.array([s.iterations for s in self.solves]) if self.solves else np.zeros(1)
        solve_s = sum(solve_durs)
        kkts = [s.kkt for s in self.solves if s.kkt is not None]
        m = {
            "mathcore.rng_calls": count("mathcore.Seed.rng"),
            "mathcore.rng_ms": ms("mathcore.Seed.rng"),
            "mathcore.svd_ms": ms("mathcore.singular_values"),
            "sources.generate_ms": ms("sources.make_dictionary_pair", "sources.generate_ensemble"),
            "precoder.project_ms": ms("precoder.make_projection", "precoder.temporal_project",
                                      "precoder.draw_onoff"),
            "netsim.transfer_ms": ms("netsim.direct_transfer_matrix", "netsim.build_example_topology",
                                     "netsim.derive_transfer_matrix"),
            "netsim.transmit_ms": ms("netsim.transmit"),
            "netsim.transmit_calls": count("netsim.transmit"),
            "lasso.stage1_ms": ms("lasso.decode_spatial"),
            "lasso.stage2_ms": ms("lasso.decode_temporal"),
            "lasso.debias_ms": ms("lasso.debias_refit"),
            "lasso.solve_ms": solve_s * 1e3 / rounds,
            "lasso.solves": len(self.solves) / rounds,
            "lasso.sweeps_total": float(sweeps.sum()) / rounds if self.solves else 0.0,
            "lasso.sweeps_p50": float(np.percentile(sweeps, 50)) if self.solves else 0.0,
            "lasso.sweeps_p99": float(np.percentile(sweeps, 99)) if self.solves else 0.0,
            "lasso.sweeps_max": float(sweeps.max()) if self.solves else 0.0,
            "lasso.sweep_us": solve_s * 1e6 / float(sweeps.sum()) if self.solves else 0.0,
            "lasso.tail10_share": sum(solve_durs[:10]) / solve_s if solve_s > 0 else 0.0,
            "lasso.unconverged": sum(not s.converged for s in self.solves) / rounds,
            "lasso.kkt_worst": max(kkts) if kkts else 0.0,
            "re_analysis.estimate_ms": ms("re_analysis.estimate_re"),
            "re_analysis.cascade_ms": ms("re_analysis.cascade_check"),
            "re_analysis.cone_samples": self.counts.get("cone_samples", 0) / rounds,
            "harness.trial_self_ms": self_s.get("harness.run_trial", 0.0) * 1e3 / rounds,
            "harness.pilot_trials": self.counts.get("pilot_trials", 0) / rounds,
            "harness.calibrate_evals": self.counts.get("calibrate_evals", 0) / rounds,
        }
        for layer in LAYERS:
            m[f"{layer}.self_ms"] = sum(v for n, v in self_s.items() if n.split(".")[0] == layer) * 1e3 / rounds
        return m

    def sweep_histogram(self) -> dict[str, int]:
        """Solves per decade of sweep count, with solves stopped at the cap counted apart."""
        hist: dict[str, int] = {}
        for s in self.solves:
            if s.iterations >= s.max_iter:
                key = f"cap {s.max_iter}"
            else:
                lo = 10 ** int(np.log10(max(s.iterations, 1)))
                key = f"{lo}-{10 * lo - 1}"
            hist[key] = hist.get(key, 0) + 1
        return dict(sorted(hist.items(), key=lambda kv: (kv[0].startswith("cap"), len(kv[0]), kv[0])))

    def dump_spans(self, fh):
        fh.write("name,start_s,end_s,parent,op\n")
        t0 = self.spans[0].start if self.spans else 0.0
        for s in self.spans:
            fh.write(f"{s.name},{s.start - t0:.9f},{s.end - t0:.9f},"
                     f"{'' if s.parent is None else s.parent},{'' if s.op is None else s.op}\n")


LAYERS = ("mathcore", "sources", "precoder", "netsim", "lasso", "re_analysis", "harness", "cli")


def install(probe: Probe, csnc_modules: dict):
    """Wrap every layer boundary a traced run times.  Names are '<layer>.<function>'."""
    mc, h, lasso, netsim, re_an, cli = (csnc_modules[k] for k in
                                          ("mathcore", "harness", "lasso", "netsim", "re_analysis", "cli"))
    sites = [
        (mc.Seed, "rng", "mathcore.Seed.rng"),
        (mc, "singular_values", "mathcore.singular_values"),
        (netsim, "gaussian_matrix", "mathcore.gaussian_matrix"),
        (netsim, "rademacher_matrix", "mathcore.rademacher_matrix"),
        (h, "make_dictionary_pair", "sources.make_dictionary_pair"),
        (h, "generate_ensemble", "sources.generate_ensemble"),
        (h, "make_projection", "precoder.make_projection"),
        (h, "temporal_project", "precoder.temporal_project"),
        (h, "draw_onoff", "precoder.draw_onoff"),
        (h, "direct_transfer_matrix", "netsim.direct_transfer_matrix"),
        (h, "build_example_topology", "netsim.build_example_topology"),
        (h, "derive_transfer_matrix", "netsim.derive_transfer_matrix"),
        (h, "transmit", "netsim.transmit"),
        (netsim, "direct_transfer_matrix", "netsim.direct_transfer_matrix"),
        (netsim, "build_example_topology", "netsim.build_example_topology"),
        (netsim, "derive_transfer_matrix", "netsim.derive_transfer_matrix"),
        (h, "decode_spatial", "lasso.decode_spatial"),
        (lasso, "decode_spatial", "lasso.decode_spatial"),
        (lasso, "decode_temporal", "lasso.decode_temporal"),
        (lasso, "debias_refit", "lasso.debias_refit"),
        (re_an, "estimate_re", "re_analysis.estimate_re"),
        (re_an, "cascade_check", "re_analysis.cascade_check"),
        (h, "run_trials", "harness.run_trials"),
        (h, "sweep", "harness.sweep"),
        (h, "theorem_budget", "harness.theorem_budget"),
        (h, "load_config", "harness.load_config"),
        (cli, "main", "cli.main"),
    ]
    for owner, attr, name in sites:
        probe.wrap(owner, attr, name)
