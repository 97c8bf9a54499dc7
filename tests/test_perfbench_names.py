"""Every csnc name the benchmark in perfbench/ wraps or calls still works.

An untraced benchmark run looks up only the names its checks need; the
layer boundaries a traced run (--trace 1) wraps are looked up only then.
The first test makes every wrap perfbench/run.py makes: its two capture
wraps, each workload's own wraps (made when the workload is built) and
probe.install's layer wraps.  A rename or a dropped import in csnc that
would break a traced run fails here.  The second sets up each workload
as an untraced run does (prepare, then the warm-up operation) and closes
it, so a config key or a positional argument that a workload passes,
and that csnc no longer takes, fails here too; it also counts the
warm-up's certified solves, so a decode exit that bypasses solve_lasso
fails here.  Nothing under perfbench/ changes.
"""

import sys
from pathlib import Path

import pytest

import csnc
import csnc.cli  # noqa: F401

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import probe as perfbench_probe  # noqa: E402
import workloads  # noqa: E402

MODULES = ("mathcore", "harness", "lasso", "netsim", "re_analysis", "cli")


def snapshot():
    return {name: dict(vars(getattr(csnc, name))) for name in MODULES}


def assert_restored(before):
    for name, attrs in before.items():  # every wrap is undone
        assert all(vars(getattr(csnc, name))[attr] is fn for attr, fn in attrs.items())


def test_every_wrapped_name_exists(tmp_path):
    before = snapshot()
    probe = perfbench_probe.Probe(tracing=True)
    try:
        probe.wrap(csnc.lasso, "solve_lasso", "lasso.solve_lasso", after=probe.capture_solve)
        probe.wrap(csnc.harness, "decode_all", "lasso.decode_all", after=probe.capture_decode)
        for workload in workloads.WORKLOADS.values():
            workload(probe, csnc, 0, str(tmp_path))
        perfbench_probe.install(probe, {name: getattr(csnc, name) for name in MODULES})
        assert csnc.lasso.solve_lasso is not before["lasso"]["solve_lasso"]
    finally:
        probe.restore()
    assert_restored(before)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_sets_up_and_warms_up(tmp_path, name):
    before = snapshot()
    probe = perfbench_probe.Probe(tracing=False)
    try:
        probe.wrap(csnc.lasso, "solve_lasso", "lasso.solve_lasso", after=probe.capture_solve)
        probe.wrap(csnc.harness, "decode_all", "lasso.decode_all", after=probe.capture_decode)
        workload = workloads.WORKLOADS[name](probe, csnc, 0, str(tmp_path))
        try:
            workload.prepare()
            workload.warmup()
        finally:
            workload.close()
    finally:
        probe.restore()
    assert probe.errors == []
    assert [op.label for op in probe.ops if op.failed] == []
    # every solve of the warm-up left through solve_lasso, where perfbench certifies it: a trial
    # solves once per time index and once per source at each receiver, a recovery once
    if name in ("trials-acceptance", "calibrate-small"):
        cfg = workload.cfg
        assert len(probe.solves) == cfg.receivers * (cfg.m1 + cfg.profile.N)
    else:
        assert len(probe.solves) == {"stage1-scaling": 1, "analysis-battery": 0}[name]
    assert_restored(before)
