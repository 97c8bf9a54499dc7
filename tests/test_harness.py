import math
from fractions import Fraction

import numpy as np
import pytest

import csnc.lasso
from csnc.harness import (
    CalibrationError,
    ExperimentConfig,
    build_trial,
    calibrate_c,
    decode_trial,
    direct_recovery_trial,
    export_results,
    export_sweep,
    load_config,
    naive_baseline,
    run_trial,
    run_trials,
    save_config,
    sweep,
    theorem_budget,
    write_summary,
)
from csnc.mathcore import Seed
from csnc.sources import SparsityProfile


def small_cfg(**kw):
    base = dict(
        profile=SparsityProfile(N=32, n=24, k1=2, k2=2),
        m=8,
        m1=14,
        m2=20,
        sigma=0.05,
        D=0.01,
        master_seed=Seed(42),
        trials=4,
        amp_lo=8.0,
        amp_hi=16.0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestRunTrial:
    def test_determinism(self):
        cfg = small_cfg()
        a = run_trial(cfg, 3)
        b = run_trial(cfg, 3)
        assert np.array_equal(a.per_source_distortion, b.per_source_distortion)
        assert a.max_distortion == b.max_distortion
        assert a.c_use == b.c_use
        assert a.seed == b.seed

    def test_lossless_degenerate_pipeline(self):
        cfg = ExperimentConfig(
            profile=SparsityProfile(N=16, n=12, k1=3, k2=2),
            m=4, m1=12, m2=16, sigma=0.0, D=1e-6,
            master_seed=Seed(5), network_mode="identity", projection_family="identity",
            kind_phi="identity", kind_psi="identity",
        )
        rec = run_trial(cfg, 0)
        assert np.all(rec.per_source_distortion == 0.0)
        assert rec.success

    def test_smoke_bounds(self):
        rec = run_trial(small_cfg(), 0)
        assert math.isfinite(rec.max_distortion)
        assert 0.0 <= rec.support_recovery_rate <= 1.0
        assert rec.c_use == Fraction(14 * 20, 8)

    def test_case1_pipeline_runs(self):
        rec = run_trial(small_cfg(case="case1-sparseB"), 0)
        assert math.isfinite(rec.max_distortion)

    def test_example1_network_mode(self):
        cfg = small_cfg(network_mode="example1", m=24, m2=20, connect_prob=0.5)
        rec = run_trial(cfg, 0)
        assert math.isfinite(rec.max_distortion)

    def test_receiver_independence(self):
        one = run_trial(small_cfg(receivers=1), 2)
        two = run_trial(small_cfg(receivers=2), 2)
        assert np.array_equal(one.per_source_distortion[0], two.per_source_distortion[0])

    def test_accounting_identity(self):
        for m1, m2, m in [(14, 20, 8), (5, 7, 3)]:
            cfg = small_cfg(m1=m1, m2=m2, m=m)
            rec = run_trial(cfg, 0)
            assert rec.c_use == Fraction(m1 * m2, m)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_cfg(m1=25)  # m1 > n
        with pytest.raises(ValueError):
            small_cfg(m2=33)  # m2 > N
        with pytest.raises(ValueError):
            small_cfg(D=0.0)
        with pytest.raises(ValueError):
            small_cfg(trials=0)
        with pytest.raises(ValueError):
            small_cfg(network_mode="mesh")
        with pytest.raises(ValueError):
            small_cfg(network_mode="example1", m=8, m2=20)  # m2 > m


class TestBuildTrial:
    def test_run_trial_scores_the_built_trial(self):
        cfg = small_cfg(receivers=2)
        trial = build_trial(cfg, 1)
        results = decode_trial(cfg, trial)
        rec = run_trial(cfg, 1)
        assert rec.seed == trial.seed
        assert np.array_equal(rec.per_source_distortion, [res.per_source_distortion for res in results])

    @pytest.mark.parametrize("network", [{}, dict(network_mode="example1", m=24, connect_prob=0.5)],
                             ids=["direct", "example1"])
    def test_adding_a_receiver_leaves_receiver_zero_bit_identical(self, network):
        one = build_trial(small_cfg(receivers=1, **network), 2)
        two = build_trial(small_cfg(receivers=2, **network), 2)
        assert len(two.transfers) == len(two.observations) == 2
        assert np.array_equal(one.transfers[0].G, two.transfers[0].G)
        assert np.array_equal(one.observations[0], two.observations[0])
        assert one.observations[0].shape == (20, 14)


class TestConvergenceFlag:
    def test_converged_trial(self):
        assert run_trial(small_cfg(), 0).converged is True

    @pytest.mark.parametrize("capped", ["solve_lasso", "decode_spatial", "decode_temporal"])
    def test_capped_solver_is_flagged(self, monkeypatch, capped):
        fn = getattr(csnc.lasso, capped)

        def one_sweep(*args, **kw):
            return fn(*args, **{**kw, "max_iter": 1})

        monkeypatch.setattr(csnc.lasso, capped, one_sweep)
        assert run_trial(small_cfg(), 0).converged is False


class TestCertifiedSolves:
    """Trials whose stage-1 solves coordinate descent left uncertified at its 10 000-sweep cap."""

    def test_acceptance_trial_15(self):
        cfg = ExperimentConfig(
            profile=SparsityProfile(N=128, n=128, k1=4, k2=4),
            m=32, m1=32, m2=32, sigma=0.1, D=0.0025, master_seed=Seed(20260808),
        )
        rec = run_trial(cfg, 15)
        assert rec.converged is True
        assert rec.success is True

    def test_m2_sweep_cell_50_trial_5(self):
        cfg = ExperimentConfig(
            profile=SparsityProfile(N=512, n=16, k1=2, k2=2),
            m=32, m1=4, m2=50, sigma=0.1, D=0.01, master_seed=Seed(20260808).child(4, 2),
            debias=False, stage2=False, kind_phi="discrete-cosine", kind_psi="discrete-cosine",
        )
        assert run_trial(cfg, 5).converged is True


class TestTheoremBudget:
    def test_unit_noise_to_distortion_ratio(self):
        plan = theorem_budget(10, 4, 4, 128, 128, 32, 0.1, 0.01)
        expected = 10 * 16 * math.log(128) ** 2 / 32
        assert plan.c_use == pytest.approx(expected, rel=1e-12)
        assert plan.c_use == pytest.approx(117.71, abs=0.05)

    def test_doubling_d_halves_budget(self):
        a = theorem_budget(2, 3, 3, 64, 64, 8, 0.2, 0.01)
        b = theorem_budget(2, 3, 3, 64, 64, 8, 0.2, 0.02)
        assert a.c_use == pytest.approx(2 * b.c_use, rel=1e-12)

    def test_split_is_feasible_and_balanced(self):
        plan = theorem_budget(1.0, 4, 4, 128, 128, 32, 0.1, 0.0025)
        assert 1 <= plan.m1 <= 128 and 1 <= plan.m2 <= 128
        assert plan.m1 * plan.m2 >= plan.c_use * 32  # ceil covers the budget
        # symmetric problem: the split is square
        assert abs(plan.m1 - plan.m2) <= 1

    def test_sparsity_floor(self):
        plan = theorem_budget(1e-9, 4, 4, 128, 128, 32, 0.1, 0.0025)
        assert plan.m1 >= 5 and plan.m2 >= 5

    def test_invalid(self):
        with pytest.raises(ValueError):
            theorem_budget(1, 4, 4, 128, 128, 32, 0.1, 0.0)
        with pytest.raises(ValueError):
            theorem_budget(0, 4, 4, 128, 128, 32, 0.1, 0.01)


class TestNaiveBaseline:
    def test_zero_when_noise_at_or_below_distortion(self):
        assert naive_baseline(128, 128, 32, 0.5, 0.25) == 0.0  # sigma^2 == D
        assert naive_baseline(128, 128, 32, 0.1, 0.02) == 0.0  # sigma^2 < D

    def test_direct_value(self):
        assert naive_baseline(128, 128, 32, 0.2, 0.01) == pytest.approx(512 * 2.0)

    def test_ratio_against_budget_reported(self):
        base = naive_baseline(128, 128, 32, 0.2, 0.01)
        plan = theorem_budget(1.0, 4, 4, 128, 128, 32, 0.2, 0.01)
        assert base > plan.c_use  # correlation-aware scheme wins at desk scale


class TestCalibrate:
    def _cfg(self, sigma=0.05, **kw):
        base = dict(
            profile=SparsityProfile(N=16, n=12, k1=2, k2=2),
            m=8, m1=8, m2=12, sigma=sigma, D=0.01,
            master_seed=Seed(42), trials=4, amp_lo=8.0, amp_hi=16.0,
        )
        base.update(kw)
        return ExperimentConfig(**base)

    def test_noiseless_budget_returns_search_floor(self):
        # sigma = 0 collapses the budget to the floor plan for every c
        cfg = ExperimentConfig(
            profile=SparsityProfile(N=16, n=12, k1=1, k2=1),
            m=4, m1=2, m2=2, sigma=0.0, D=1e6, master_seed=Seed(9), trials=4,
        )
        res = calibrate_c(cfg, pilot_trials=20, c_lo=1e-3)
        assert res.c == 1e-3
        assert res.success_fraction == 1.0
        assert (res.plan.m1, res.plan.m2) == (2, 2)

    def test_determinism(self):
        cfg = self._cfg()
        a = calibrate_c(cfg, pilot_trials=20, c_lo=0.05, c_hi=100.0)
        b = calibrate_c(cfg, pilot_trials=20, c_lo=0.05, c_hi=100.0)
        assert a.c == b.c
        assert a.evaluations == b.evaluations

    def test_monotone_in_noise(self):
        # the threshold-dominated regime forces c proportional to D / sigma^2,
        # so the calibrated c can only shrink (or stay) as sigma grows
        cs = [
            calibrate_c(self._cfg(sigma=s), pilot_trials=20, c_lo=0.05, c_hi=100.0).c
            for s in (0.05, 0.1, 0.2)
        ]
        assert cs[1] <= cs[0] * 1.1001 and cs[2] <= cs[1] * 1.1001

    def test_unreachable_target_raises_with_diagnostics(self):
        cfg = ExperimentConfig(
            profile=SparsityProfile(N=16, n=12, k1=6, k2=6),
            m=4, m1=2, m2=2, sigma=3.0, D=1e-9, master_seed=Seed(1), trials=4,
            amp_lo=1.0, amp_hi=1.0,
        )
        with pytest.raises(CalibrationError) as err:
            calibrate_c(cfg, pilot_trials=20, c_hi=1e-2)
        assert err.value.diagnostics["evaluations"]

    def test_pilot_floor(self):
        with pytest.raises(ValueError):
            calibrate_c(self._cfg(), pilot_trials=5)


class TestSweep:
    def test_single_value_axis_has_no_slope(self):
        res = sweep(small_cfg(trials=2), "sigma", [0.05])
        assert res.slope is None
        assert len(res.cells) == 1

    def test_sigma_axis_slope_near_one(self):
        cfg = small_cfg(
            profile=SparsityProfile(N=48, n=16, k1=2, k2=3),
            m=8, m1=4, m2=36, trials=12, debias=False,
            kind_phi="discrete-cosine", kind_psi="discrete-cosine",
        )
        res = sweep(cfg, "sigma", [0.05, 0.1, 0.2, 0.4])
        assert res.slope == pytest.approx(1.0, abs=0.3)

    def test_values_must_be_sorted(self):
        with pytest.raises(ValueError):
            sweep(small_cfg(trials=2), "sigma", [0.2, 0.1])

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            sweep(small_cfg(trials=2), "k1", [1, 2])

    def test_zero_error_cells_excluded(self):
        cfg = ExperimentConfig(
            profile=SparsityProfile(N=16, n=12, k1=0, k2=0),
            m=4, m1=6, m2=8, sigma=0.0, D=1e-4, master_seed=Seed(2), trials=2,
        )
        res = sweep(cfg, "m2", [4, 8])
        assert res.slope is None
        assert res.excluded == [4.0, 8.0]

    def test_export(self, tmp_path):
        res = sweep(small_cfg(trials=2), "m2", [16, 20])
        path = str(tmp_path / "sweep.csv")
        export_sweep(res, path)
        text = open(path).read()
        assert "median_stage1_sq_err" in text


class TestExports:
    def test_empty_records_header_only(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        export_results([], path)
        lines = [l for l in open(path) if not l.startswith("#")]
        assert len(lines) == 1
        assert lines[0].startswith("kind,trial,receiver,source")

    def test_column_contract_and_round_trip(self, tmp_path):
        cfg = small_cfg(trials=2)
        records = run_trials(cfg, range(2))
        path = str(tmp_path / "out.csv")
        export_results(records, path)
        header_line = next(l for l in open(path) if not l.startswith("#"))
        cols = header_line.strip().split(",")
        for needed in ("c_use", "max_distortion", "seed_master"):
            assert needed in cols
        rows = [l.strip().split(",") for l in open(path) if not l.startswith("#")][1:]
        detail = [r for r in rows if r[0] == "detail"]
        assert len(detail) == 2 * 1 * 32  # trials x receivers x sources
        # float round trip at 17 significant digits
        d00 = float(detail[0][cols.index("distortion")])
        assert d00 == records[0].per_source_distortion[0, 0]
        tr = [r for r in rows if r[0] == "trial"]
        assert Fraction(tr[0][cols.index("c_use")]) == records[0].c_use

    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_cfg(trials=2)
        p1, p2, p3 = (str(tmp_path / f"{name}.csv") for name in "abc")
        export_results(run_trials(cfg, range(2)), p1)
        export_results(run_trials(cfg, range(2)), p2)
        export_results(run_trials(cfg, range(2), workers=2), p3)
        assert open(p1, "rb").read() == open(p2, "rb").read() == open(p3, "rb").read()

    def test_summary(self, tmp_path):
        path = str(tmp_path / "s.txt")
        write_summary(path, {"a": 1, "b": "x"})
        assert open(path).read() == "a: 1\nb: x\n"


class TestConfigIO:
    def test_round_trip(self, tmp_path):
        cfg = small_cfg(xi_spatial=0.123, redraw_b_per_t=False, case="case1-sparseB")
        path = str(tmp_path / "exp.cfg")
        save_config(cfg, path)
        loaded = load_config(path)
        assert loaded == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[experiment]\nN = 8\nn = 8\nk1 = 1\nk2 = 1\nm = 2\nm1 = 4\nm2 = 4\n"
                        "sigma = 0.1\nD = 0.01\nbogus = 1\n")
        with pytest.raises(ValueError):
            load_config(str(path))

    def test_overrides(self, tmp_path):
        cfg = small_cfg()
        path = str(tmp_path / "exp.cfg")
        save_config(cfg, path)
        loaded = load_config(path, overrides={"sigma": "0.25"})
        assert loaded.sigma == 0.25


class TestCaseParity:
    def test_case1_within_reach_of_case2(self):
        # probabilistic masking at prob m2/N costs little when Psi is orthonormal
        common = dict(
            profile=SparsityProfile(N=32, n=24, k1=2, k2=2),
            m=8, m1=14, m2=20, sigma=0.05, D=0.01,
            master_seed=Seed(314), trials=20, amp_lo=8.0, amp_hi=16.0,
        )
        f1 = np.mean([r.success for r in run_trials(ExperimentConfig(case="case1-sparseB", **common))])
        f2 = np.mean([r.success for r in run_trials(ExperimentConfig(case="case2-denseB", **common))])
        assert abs(f1 - f2) <= 0.15


class TestDirectRecovery:
    def test_noiseless_recovery(self):
        sq, sup_ok, rel = direct_recovery_trial(60, 128, 4, 0.0, Seed(77))
        assert sup_ok and rel < 1e-6

    def test_noise_scaling_sanity(self):
        lo = np.median([direct_recovery_trial(80, 128, 4, 0.05, Seed(1, i), debias=False)[0] for i in range(20)])
        hi = np.median([direct_recovery_trial(80, 128, 4, 0.2, Seed(1, i), debias=False)[0] for i in range(20)])
        assert hi > 4 * lo  # squared error grows at least quadratically here

    def test_error_ratio_bounded_across_cells(self):
        # ||y - yhat||^2 / (sigma^2 k ln(p) / q): the 95th percentile stays
        # within a factor 4 across cells once q >= 4 k ln p
        p = 128
        ratios = {}
        for k in (2, 3):
            for q in (64, 128):
                if q < 4 * k * math.log(p):
                    continue
                for sigma in (0.1, 0.2):
                    cell = []
                    for i in range(30):
                        seed = Seed(9090).child(k, q, int(sigma * 100), i)
                        sq, _, _ = direct_recovery_trial(q, p, k, sigma, seed, debias=False)
                        cell.append(sq / (sigma**2 * k * math.log(p) / q))
                    ratios[(k, q, sigma)] = float(np.percentile(cell, 95))
        vals = list(ratios.values())
        assert max(vals) / min(vals) < 4.0
