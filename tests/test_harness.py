import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import csnc.harness
import csnc.lasso
from csnc.harness import (
    CASES,
    CONFIG_KEYS,
    NETWORK_MODES,
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
from csnc.precoder import draw_onoff
from csnc.sources import DICTIONARY_KINDS, SparsityProfile

from lossless import decode_identity_trial


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
        # identity dictionaries, projection and network, no noise: every source comes back exactly
        cfg = ExperimentConfig(
            profile=SparsityProfile(N=16, n=12, k1=3, k2=2),
            m=4, m1=12, m2=16, sigma=0.0, D=1e-6,
            master_seed=Seed(5), kind_phi="identity", kind_psi="identity",
        )
        [res] = decode_identity_trial(cfg, 0)
        assert res.converged
        assert np.all(res.per_source_distortion == 0.0)

    def test_smoke_bounds(self):
        rec = run_trial(small_cfg(), 0)
        assert math.isfinite(rec.max_distortion)
        assert 0.0 <= rec.support_recovery_rate <= 1.0
        assert rec.c_use == Fraction(14 * 20, 8)

    def test_case1_pipeline_runs(self):
        rec = run_trial(small_cfg(case="case1-sparseB"), 0)
        assert math.isfinite(rec.max_distortion)

    def test_example1_network_mode(self):
        cfg = small_cfg(network_mode="example1", m=24, m2=20)
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

    @pytest.mark.parametrize("bad", [dict(D=math.inf), dict(sigma=math.inf), dict(sigma=math.nan)],
                             ids=["D=inf", "sigma=inf", "sigma=nan"])
    def test_non_finite_sigma_and_D_rejected(self, bad):
        # D = inf would count every trial as a success
        with pytest.raises(ValueError):
            small_cfg(**bad)

    @pytest.mark.parametrize("key, value", [
        ("kind_phi", "bogus"), ("kind_psi", "gaussian-invertible"), ("network_mode", "identity"),
    ])
    def test_unknown_kind_or_family_rejected_at_construction(self, key, value):
        with pytest.raises(ValueError, match=f"unknown {key} '{value}'"):
            small_cfg(**{key: value})

    @pytest.mark.parametrize("prob", [math.nan, math.inf, 0.2, 1.5], ids=["nan", "inf", "low", "high"])
    def test_connect_prob_outside_range_rejected(self, prob, monkeypatch):
        # the connect probability is a harness constant now, so the range check an example1
        # trial meets is build_example_topology's; with NaN and no check, example1 would draw
        # no edge: all-zero transfer matrices and a "converged" failed trial
        monkeypatch.setattr(csnc.harness, "CONNECT_PROB", prob)
        with pytest.raises(ValueError, match="connect_prob"):
            run_trial(small_cfg(network_mode="example1", m=24), 0)


class TestBuildTrial:
    def test_run_trial_scores_the_built_trial(self):
        for cfg in (small_cfg(receivers=2), small_cfg(receivers=2, m1=6)):  # support rates 1 and 7/16
            trial = build_trial(cfg, 1)
            results = decode_trial(cfg, trial)
            rec = run_trial(cfg, 1)
            assert rec.seed == trial.seed
            assert np.array_equal(rec.per_source_distortion, [res.per_source_distortion for res in results])
            # reference: the per-source comparison of the recovered and true supports
            theta_true = trial.dicts.Psi @ trial.ens.core
            tol = 1e-3 * max(np.max(np.abs(theta_true)), 1.0)
            hits = sum(
                np.array_equal(np.flatnonzero(np.abs(res.theta_hat[i]) > tol),
                               np.flatnonzero(np.abs(theta_true[i]) > tol))
                for res in results for i in range(cfg.profile.N)
            )
            assert rec.support_recovery_rate == hits / (2 * cfg.profile.N)

    @pytest.mark.parametrize("network", [{}, dict(network_mode="example1", m=24)],
                             ids=["direct", "example1"])
    def test_adding_a_receiver_leaves_receiver_zero_bit_identical(self, network):
        one = build_trial(small_cfg(receivers=1, **network), 2)
        two = build_trial(small_cfg(receivers=2, **network), 2)
        assert len(two.transfers) == len(two.observations) == 2
        assert np.array_equal(one.transfers[0].G, two.transfers[0].G)
        assert np.array_equal(one.observations[0], two.observations[0])
        assert one.observations[0].shape == (20, 14)

    def test_trial_holds_projection_and_pattern_matrices(self):
        cfg = small_cfg(case="case1-sparseB")
        trial = build_trial(cfg, 0)
        assert trial.A.shape == (cfg.m1, cfg.profile.n) and trial.B.shape == (cfg.m1, cfg.profile.N)
        assert np.array_equal(trial.Y, trial.A @ trial.ens.X.T)
        assert not all(np.array_equal(b, trial.B[0]) for b in trial.B)
        # row t is the pattern drawn from the trial's substream for time index t
        prob = cfg.m2 / cfg.profile.N
        for t, b in enumerate(trial.B):
            assert np.array_equal(b, draw_onoff(cfg.profile.N, prob, trial.seed.child(csnc.harness._PATTERN, t).rng()))


class TestConvergenceFlag:
    def test_converged_trial(self):
        assert run_trial(small_cfg(), 0).converged is True

    @pytest.mark.parametrize("capped", ["lasso_paths", "decode_spatial", "decode_temporal"])
    def test_capped_solver_is_flagged(self, monkeypatch, capped):
        # every path is capped at one step where paths are stepped; a decode stage hands back
        # its block's solutions marked unconverged
        fn = getattr(csnc.lasso, capped)

        def one_step(D, Z, xis, max_iter=10_000):
            return fn(D, Z, xis, max_iter=1)

        def unconverged(*args, **kw):
            coefs, sols = fn(*args, **kw)
            return coefs, [replace(sol, converged=False) for sol in sols]

        monkeypatch.setattr(csnc.lasso, capped, one_step if capped == "lasso_paths" else unconverged)
        assert run_trial(small_cfg(), 0).converged is False


class TestTracedNames:
    """Every decode reaches the module names a tracer wraps: lasso.debias_refit and harness.decode_spatial."""

    @staticmethod
    def count_calls(monkeypatch, module, name):
        calls = []
        fn = getattr(module, name)

        def counter(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counter)
        return calls

    @pytest.mark.parametrize("debias", [True, False])
    def test_trial_refits_through_debias_refit(self, monkeypatch, debias):
        # one refit of the whole block per decode stage call
        calls = self.count_calls(monkeypatch, csnc.lasso, "debias_refit")
        stages = [self.count_calls(monkeypatch, csnc.lasso, name) for name in ("decode_spatial", "decode_temporal")]
        cfg = small_cfg(receivers=2, debias=debias)
        run_trial(cfg, 0)
        assert len(stages[1]) == cfg.receivers and len(stages[0]) >= cfg.receivers
        assert len(calls) == (len(stages[0]) + len(stages[1]) if debias else 0)

    def test_direct_recovery_decodes_through_harness_name(self, monkeypatch):
        calls = self.count_calls(monkeypatch, csnc.harness, "decode_spatial")
        direct_recovery_trial(60, 128, 4, 0.0, Seed(77))
        assert len(calls) == 1


class TestDesignsBuiltOnce:
    """decode_all builds each of a receiver's designs once, so the solves that share one share the object."""

    def solve_designs(self, monkeypatch, cfg):
        """The design of every solve of trial 0, as (stage-1, stage-2) lists per receiver."""
        designs = []
        solve = csnc.lasso.solve_lasso

        def spy(prob, *args, **kwargs):
            designs.append(prob.G)
            return solve(prob, *args, **kwargs)

        monkeypatch.setattr(csnc.lasso, "solve_lasso", spy)
        run_trial(cfg, 0)
        per = cfg.m1 + cfg.profile.N
        assert len(designs) == cfg.receivers * per
        return [(designs[r * per:r * per + cfg.m1], designs[r * per + cfg.m1:(r + 1) * per])
                for r in range(cfg.receivers)]

    def test_stage2_solves_share_one_design(self, monkeypatch):
        receivers = self.solve_designs(monkeypatch, small_cfg(case="case1-sparseB", receivers=2))
        for _, stage2 in receivers:
            assert all(D is stage2[0] for D in stage2)
        assert receivers[0][1][0] is not receivers[1][1][0]

    def test_all_on_stage1_solves_share_one_design(self, monkeypatch):
        cfg = small_cfg()
        assert cfg.case == "case2-denseB"  # all-on, each row of B its own draw
        [(stage1, stage2)] = self.solve_designs(monkeypatch, cfg)
        assert all(D is stage1[0] for D in stage1)
        assert stage1[0] is not stage2[0]


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


@st.composite
def lossless_configs(draw):
    """A noiseless all-on config with m1 = n and m2 = N, for decode_identity_trial."""
    N, n = draw(st.integers(2, 20)), draw(st.integers(2, 20))
    return ExperimentConfig(
        profile=SparsityProfile(N, n, draw(st.integers(0, n)), draw(st.integers(0, N))),
        m=4, m1=n, m2=N, sigma=0.0, D=1e-12,
        master_seed=Seed(draw(st.integers(0, 2**64 - 1))),
        kind_phi=draw(st.sampled_from(["identity", "discrete-cosine"])),
        kind_psi=draw(st.sampled_from(["identity", "discrete-cosine"])),
    )


class TestLosslessRecoveryProperty:
    @given(cfg=lossless_configs(), index=st.integers(0, 1000))
    def test_identity_network_recovers_exactly(self, cfg, index):
        # with the projection and network identities, decoding must be exact
        [res] = decode_identity_trial(cfg, index)
        assert res.converged
        assert res.per_source_distortion.max() <= 1e-12


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

    @pytest.mark.parametrize("c, sigma, D", [
        (math.inf, 0.1, 0.01), (math.nan, 0.1, 0.01), (1.0, math.inf, 0.01), (1.0, math.nan, 0.01),
        (1.0, 0.1, math.inf), (1.0, 0.1, math.nan),
    ], ids=["c=inf", "c=nan", "sigma=inf", "sigma=nan", "D=inf", "D=nan"])
    def test_non_finite_rejected(self, c, sigma, D):
        with pytest.raises(ValueError, match="finite"):
            theorem_budget(c, 4, 4, 128, 128, 32, sigma, D)
        if not math.isfinite(sigma) or not math.isfinite(D):
            with pytest.raises(ValueError, match="finite"):
                naive_baseline(128, 128, 32, sigma, D)

    @pytest.mark.parametrize("c, sigma, D", [(1.0, 1e200, 0.01), (1e308, 1.0, 1e-300), (1e308, 0.0, 0.01)],
                             ids=["sigma-squared", "product", "inf-times-zero"])
    def test_overflowing_budget_rejected(self, c, sigma, D):
        with pytest.raises(ValueError, match="overflows"):
            theorem_budget(c, 40, 40, 128, 128, 1, sigma, D)


class TestNaiveBaseline:
    def test_zero_when_noise_at_or_below_distortion(self):
        assert naive_baseline(128, 128, 32, 0.5, 0.25) == 0.0  # sigma^2 == D
        assert naive_baseline(128, 128, 32, 0.1, 0.02) == 0.0  # sigma^2 < D

    def test_direct_value(self):
        assert naive_baseline(128, 128, 32, 0.2, 0.01) == pytest.approx(512 * 2.0)

    @pytest.mark.parametrize("n, sigma, D", [(10**400, 0.2, 0.01), (10**300, 1e10, 1e-300)],
                             ids=["n-N-over-m", "product"])
    def test_overflowing_baseline_rejected(self, n, sigma, D):
        # n N / m leaves the float range as an integer division, or the product as a float
        with pytest.raises(ValueError, match="overflows"):
            naive_baseline(n, 128, 32, sigma, D)

    def test_ratio_against_budget_reported(self):
        base = naive_baseline(128, 128, 32, 0.2, 0.01)
        plan = theorem_budget(1.0, 4, 4, 128, 128, 32, 0.2, 0.01)
        assert base > plan.c_use  # correlation-aware scheme wins at desk scale


class TestCalibrate:
    def _cfg(self, sigma=0.05, **kw):
        base = dict(
            profile=SparsityProfile(N=16, n=12, k1=2, k2=2),
            m=8, m1=8, m2=12, sigma=sigma, D=0.01,
            master_seed=Seed(42), trials=4,
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

    def test_noiseless_failing_floor_plan_runs_one_batch(self, monkeypatch):
        # sigma = 0 gives the floor plan (7, 7) for every c: c_hi reuses c_lo's cached batch
        cfg = ExperimentConfig(
            profile=SparsityProfile(N=16, n=12, k1=6, k2=6),
            m=4, m1=2, m2=2, sigma=0.0, D=1e-9, master_seed=Seed(1), trials=4,
        )
        calls = []
        run_trial = csnc.harness.run_trial
        monkeypatch.setattr(csnc.harness, "run_trial", lambda c, i: calls.append(i) or run_trial(c, i))
        with pytest.raises(CalibrationError, match=r"no c <= 1e\+06 reaches a 90% pilot success rate") as err:
            calibrate_c(cfg, pilot_trials=20)
        assert err.value.diagnostics["evaluations"] == [(1e-3, 7, 7, 0.0), (1e6, 7, 7, 0.0)]
        assert calls == list(range(20))

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
        )
        with pytest.raises(CalibrationError) as err:
            calibrate_c(cfg, pilot_trials=20, c_hi=1e-2)
        assert err.value.diagnostics["evaluations"]

    def test_pilot_floor(self):
        with pytest.raises(ValueError):
            calibrate_c(self._cfg(), pilot_trials=5)

    @pytest.mark.parametrize("target", [-0.5, 0.0, math.nan, 1.5])
    def test_target_out_of_range(self, target):
        with pytest.raises(ValueError, match="target"):
            calibrate_c(self._cfg(), pilot_trials=20, target=target)


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

    @pytest.mark.parametrize("axis, values, fitted", [
        ("m1", [6, 10], "median_max_distortion"),
        ("k2", [1, 3], "median_stage1_sq_err"),
        ("N", [24, 32], None),
    ], ids=["m1", "k2", "N"])
    def test_axis_fits_its_statistic(self, axis, values, fitted):
        res = sweep(small_cfg(trials=2), axis, values)
        assert [c.value for c in res.cells] == values and res.excluded == []
        if fitted is None:
            assert res.slope is None
        else:
            y = [math.log(getattr(c, fitted)) for c in res.cells]
            assert res.slope == pytest.approx(np.polyfit([math.log(v) for v in values], y, 1)[0], rel=1e-12)

    def test_values_must_be_sorted(self):
        with pytest.raises(ValueError):
            sweep(small_cfg(trials=2), "sigma", [0.2, 0.1])

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            sweep(small_cfg(trials=2), "k1", [1, 2])

    @pytest.mark.parametrize("axis, values", [
        ("m2", [4.0, 4.9]), ("k2", [2.5, 3]), ("m1", [6, math.inf]), ("N", [math.nan]),
    ], ids=["m2", "k2", "m1-inf", "N-nan"])
    def test_integer_axis_rejects_non_integers(self, axis, values):
        # an integer axis used to run int(value) and record the unrounded value
        with pytest.raises(ValueError, match=f"{axis} takes integer values"):
            sweep(small_cfg(trials=2), axis, values)

    def test_every_cell_checked_before_any_trial(self, monkeypatch):
        ran = []
        monkeypatch.setattr(csnc.harness, "run_trials", lambda cfg, *a, **kw: ran.append(cfg.m2) or [])
        with pytest.raises(ValueError, match="m2 <= N"):
            sweep(small_cfg(trials=2), "m2", [4, 8, 99])
        assert ran == []

    SOURCE_FREE = ExperimentConfig(
        profile=SparsityProfile(N=16, n=12, k1=0, k2=0),
        m=4, m1=6, m2=8, sigma=0.0, D=1e-4, master_seed=Seed(2), trials=2,
    )

    def test_zero_error_cells_excluded(self):
        res = sweep(self.SOURCE_FREE, "m2", [4, 8])
        assert res.slope is None
        assert res.excluded == [4.0, 8.0]

    def test_zero_error_sigma_cells_excluded(self):
        # every cell of a source-free config decodes to zero error, so all three are listed
        res = sweep(self.SOURCE_FREE, "sigma", [0.0, 0.05, 0.1])
        assert res.slope is None
        assert res.excluded == [0.0, 0.05, 0.1]

    def test_zero_sigma_cell_excluded(self):
        # sigma = 0 has no log sigma^2: it is left out of the fit and listed
        res = sweep(small_cfg(trials=2), "sigma", [0.0, 0.05, 0.1])
        assert res.excluded == [0.0]
        assert res.slope is not None

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
        assert open(path).readline() == "# csnc trial export, schema 2\n"
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
        # the overall row: the success fraction under success, no support rate
        assert rows[-1][0] == "overall" and len(rows[-1]) == len(cols)
        overall = dict(zip(cols, rows[-1]))
        assert float(overall["success"]) == sum(r.success for r in records) / len(records)
        assert overall["support_recovery_rate"] == ""
        assert float(overall["max_distortion"]) == float(np.median([r.max_distortion for r in records]))

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
        cfg = small_cfg(case="case1-sparseB", debias=False)
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

    @pytest.mark.parametrize("key", ["xi_spatial", "xi_temporal", "xi_scale"])
    def test_schema_1_weight_key_rejected(self, tmp_path, key):
        # schema 1 wrote these three keys; the weights now follow default_xi alone
        path = tmp_path / "exp.cfg"
        save_config(small_cfg(), str(path))
        path.write_text(path.read_text() + f"{key} = 0.1\n")
        with pytest.raises(ValueError, match=f"unknown config keys: \\['{key}'\\]"):
            load_config(str(path))

    def test_default_seed(self, tmp_path):
        cfg = small_cfg(master_seed=Seed(42, 3))
        path = tmp_path / "exp.cfg"
        save_config(cfg, str(path))
        assert load_config(str(path), default_seed=Seed(7)) == cfg  # the file's seed wins
        lines = [l for l in path.read_text().splitlines() if not l.startswith(("master_seed", "seed_stream"))]
        path.write_text("\n".join(lines) + "\n")
        assert load_config(str(path), default_seed=Seed(7, 1)) == replace(cfg, master_seed=Seed(7, 1))
        assert load_config(str(path)) == replace(cfg, master_seed=Seed(0))

    def test_absent_keys_take_defaults(self, tmp_path):
        path = tmp_path / "min.cfg"
        path.write_text("[experiment]\nN = 8\nn = 6\nk1 = 1\nk2 = 2\nm = 2\nm1 = 4\nm2 = 5\n"
                        "sigma = 0.1\nD = 0.01\n")
        want = ExperimentConfig(SparsityProfile(8, 6, 1, 2), m=2, m1=4, m2=5, sigma=0.1, D=0.01)
        assert load_config(str(path)) == want


@st.composite
def configs(draw):
    """A random valid ExperimentConfig."""
    N, n, m = draw(st.integers(1, 40)), draw(st.integers(1, 40)), draw(st.integers(1, 40))
    mode = draw(st.sampled_from(NETWORK_MODES))
    m2 = draw(st.integers(1, min(N, m) if mode == "example1" else N))
    return ExperimentConfig(
        profile=SparsityProfile(N, n, draw(st.integers(0, n)), draw(st.integers(0, N))),
        m=m, m1=draw(st.integers(1, n)), m2=m2,
        sigma=draw(st.floats(0.0, 1e3)), D=draw(st.floats(1e-12, 1e3)),
        master_seed=Seed(draw(st.integers(0, 2**64 - 1)), draw(st.integers(0, 2**64 - 1))),
        kind_phi=draw(st.sampled_from(DICTIONARY_KINDS)), kind_psi=draw(st.sampled_from(DICTIONARY_KINDS)),
        network_mode=mode, case=draw(st.sampled_from(CASES)),
        receivers=draw(st.integers(1, 8)), trials=draw(st.integers(1, 1000)),
        debias=draw(st.booleans()), stage2=draw(st.booleans()),
    )


BOOL_KEYS = ("debias", "stage2")
BOOL_SPELLINGS = ("true", "false", "yes", "no", "on", "off", "1", "0")


class TestConfigFuzz:
    @given(cfg=configs())
    def test_round_trip(self, tmp_path_factory, cfg):
        path = str(tmp_path_factory.mktemp("cfg") / "exp.cfg")
        save_config(cfg, path)
        assert load_config(path) == cfg

    @given(cfg=configs(), corruption=st.sampled_from(["empty", "unknown", "bool"]), data=st.data())
    def test_one_corrupted_key_raises_value_error(self, tmp_path_factory, cfg, corruption, data):
        path = tmp_path_factory.mktemp("cfg") / "exp.cfg"
        save_config(cfg, str(path))
        lines = path.read_text().splitlines()
        if corruption == "unknown":
            names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,11}", fullmatch=True)
            lines.append(data.draw(names.filter(lambda k: k not in CONFIG_KEYS + ("schema",))) + " = 1")
        else:
            if corruption == "empty":
                keys, values = CONFIG_KEYS, st.just("")
            else:
                keys = BOOL_KEYS
                values = st.from_regex(r"[a-z0-9]{1,6}", fullmatch=True).filter(lambda v: v not in BOOL_SPELLINGS)
            key, value = data.draw(st.sampled_from(keys)), data.draw(values)
            lines = [f"{key} = {value}" if l.split(" = ")[0] == key else l for l in lines]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            load_config(str(path))


class TestCaseParity:
    def test_case1_within_reach_of_case2(self):
        # probabilistic masking at prob m2/N costs little when Psi is orthonormal
        common = dict(
            profile=SparsityProfile(N=32, n=24, k1=2, k2=2),
            m=8, m1=14, m2=20, sigma=0.05, D=0.01,
            master_seed=Seed(314),
        )
        f1 = np.mean([r.success for r in run_trials(ExperimentConfig(case="case1-sparseB", **common), range(20))])
        f2 = np.mean([r.success for r in run_trials(ExperimentConfig(case="case2-denseB", **common), range(20))])
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
