import os
import re
import subprocess
import sys

import numpy as np
import pytest

from csnc import cli
from csnc.harness import AMP_RANGE, ExperimentConfig, build_trial, decode_trial, load_config, save_config
from csnc.mathcore import Seed
from csnc.re_analysis import estimate_re, save_re_report
from csnc.sources import SparsityProfile, generate_ensemble, load_ensemble, make_dictionary_pair

from lossless import decode_identity_trial


def write_cfg(path, **kw):
    base = dict(
        profile=SparsityProfile(N=16, n=12, k1=2, k2=2),
        m=4, m1=8, m2=12, sigma=0.05, D=0.01,
        master_seed=Seed(11), trials=3,
    )
    base.update(kw)
    save_config(ExperimentConfig(**base), str(path))
    return str(path)


@pytest.fixture
def cfg_path(tmp_path):
    return write_cfg(tmp_path / "exp.cfg")


class TestParsing:
    def test_no_verb_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main([])
        assert err.value.code == 2

    def test_unknown_verb_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 2

    def test_help_documents_schema(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["--help"])
        assert err.value.code == 0
        out = " ".join(capsys.readouterr().out.split())  # undo argparse line wrapping
        assert "schema version 4" in out
        for verb in ("generate", "project", "simulate", "decode", "re-estimate",
                     "cascade-check", "trial", "sweep", "calibrate", "budget"):
            assert verb in out

    def test_help_lists_every_config_key(self, cfg_path, capsys):
        keys = [line.split("=")[0].strip() for line in open(cfg_path) if "=" in line]
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        words = set(re.split(r"[\s,:]+", capsys.readouterr().out))
        assert [k for k in keys if k != "schema" and k not in words] == []

    def test_trial_flags_parse(self, cfg_path):
        args = cli.build_parser().parse_args(["trial", "--config", cfg_path, "--seed", "7"])
        assert args.verb == "trial"
        assert args.seed == 7


BUDGET_ARGV = ["budget", "--k1", "4", "--k2", "4", "--n", "128", "--N", "128",
               "--m", "32", "--sigma", "0.1", "--D", "0.01", "--c", "10"]


def budget_argv(flag, value):
    argv = list(BUDGET_ARGV)
    argv[argv.index(flag) + 1] = value
    return argv


class TestBudgetVerb:
    def test_prints_value_and_split(self, capsys):
        rc = cli.main(BUDGET_ARGV)
        assert rc == 0
        out = capsys.readouterr().out
        assert "c_use = 117.7" in out
        assert "suggested m1 =" in out

    @pytest.mark.parametrize("flag, value, why", [
        ("--c", "inf", "must be finite and > 0"),
        ("--c", "nan", "must be finite and > 0"),
        ("--c", "0", "must be finite and > 0"),
        ("--sigma", "inf", "must be finite and >= 0"),
        ("--sigma", "-0.1", "must be finite and >= 0"),
        ("--D", "inf", "must be finite and > 0"),
        ("--D", "nan", "must be finite and > 0"),
        ("--k1", "0", "must be >= 1"),
        ("--N", "1", "must be >= 2"),
        ("--m", "0", "must be >= 1"),
    ])
    def test_flag_fault_is_named(self, capsys, flag, value, why):
        assert cli.main(budget_argv(flag, value)) == 2
        captured = capsys.readouterr()
        assert f"invalid argument {flag}: {why}" in captured.err
        assert "Traceback" not in captured.err and "invalid configuration" not in captured.err
        assert captured.out == ""

    def test_overflowing_baseline_is_usage_error(self, capsys):
        # the budget stays in range, but n N / m of the naive baseline leaves it
        assert cli.main(budget_argv("--n", "1" + "0" * 400)) == 2
        captured = capsys.readouterr()
        assert "invalid arguments: the naive baseline overflows" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_overflowing_budget_is_usage_error(self, capsys):
        # every flag is in range, but sigma^2 leaves the float range
        assert cli.main(budget_argv("--sigma", "1e200")) == 2
        captured = capsys.readouterr()
        assert "invalid arguments: the budget c_use overflows" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


class TestSimulateVerb:
    def test_noiseless_identity_config(self, tmp_path):
        # a noiseless config file with identity dictionaries; decode_identity_trial makes the
        # projection and network identities too, and every trial then decodes exactly
        cfg = load_config(write_cfg(
            tmp_path / "ident.cfg",
            profile=SparsityProfile(N=12, n=10, k1=2, k2=2),
            m=4, m1=10, m2=12, sigma=0.0, D=1e-6,
            kind_phi="identity", kind_psi="identity", trials=2,
        ))
        for index in range(cfg.trials):
            [res] = decode_identity_trial(cfg, index)
            assert res.converged
            assert np.all(res.per_source_distortion == 0.0)

    def test_byte_identical_outputs_for_same_argv(self, cfg_path, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert cli.main(["simulate", "--config", cfg_path, "--output", a]) == 0
        assert cli.main(["simulate", "--config", cfg_path, "--output", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_unwritable_output_is_io_error(self, cfg_path):
        rc = cli.main(["simulate", "--config", cfg_path, "--output", "/nonexistent/dir/x.csv"])
        assert rc == 3


class TestTrialAndDecode:
    def test_trial_prints_record(self, cfg_path, capsys):
        rc = cli.main(["trial", "--config", cfg_path, "--index", "1"])
        assert rc == 0
        assert "max_distortion=" in capsys.readouterr().out

    def test_trial_line_shows_convergence(self, cfg_path, capsys):
        assert cli.main(["trial", "--config", cfg_path]) == 0
        assert "converged=True" in capsys.readouterr().out

    def test_seed_flag_overrides_config(self, cfg_path, tmp_path, capsys):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        cli.main(["trial", "--config", cfg_path, "--seed", "99", "--output", a])
        cli.main(["trial", "--config", cfg_path, "--output", b])
        assert open(a).read() != open(b).read()

    def test_decode_writes_reconstruction(self, cfg_path, tmp_path, capsys):
        out = str(tmp_path / "dec.csv")
        rc = cli.main(["decode", "--config", cfg_path, "--output", out])
        assert rc == 0
        assert os.path.exists(out)


class TestGenerateAndProject:
    def test_generate(self, cfg_path, tmp_path, capsys):
        out = str(tmp_path / "ens.csv")
        rc = cli.main(["generate", "--config", cfg_path, "--output", out])
        assert rc == 0
        X = np.loadtxt(out, delimiter=",")
        assert X.shape == (16, 12)
        assert os.path.exists(out + ".meta")

    def test_project(self, cfg_path, tmp_path, capsys):
        out = str(tmp_path / "Y.csv")
        rc = cli.main(["project", "--config", cfg_path, "--output", out])
        assert rc == 0
        Y = np.loadtxt(out, delimiter=",")
        assert Y.shape == (8, 16)


class TestArtifactsMatchTrial:
    """generate, project, decode and re-estimate export objects of trial 0."""

    def test_generate_is_the_trial_ensemble(self, cfg_path, tmp_path, capsys):
        out = str(tmp_path / "ens.csv")
        assert cli.main(["generate", "--config", cfg_path, "--output", out]) == 0
        cfg = load_config(cfg_path)
        trial = build_trial(cfg, 0)
        ens, meta = load_ensemble(out)
        assert np.array_equal(ens.X, trial.ens.X)
        p = cfg.profile
        dict_seed = Seed(int(meta["dict_seed_master"]), int(meta["dict_seed_stream"]))
        dicts = make_dictionary_pair(meta["kind_phi"], meta["kind_psi"], p.n, p.N, dict_seed)
        ens_seed = Seed(int(meta["seed_master"]), int(meta["seed_stream"]))
        regen = generate_ensemble(p, dicts, AMP_RANGE, ens_seed)
        assert np.array_equal(regen.X, trial.ens.X)

    def test_project_is_the_trial_projection(self, cfg_path, tmp_path, capsys):
        out = str(tmp_path / "Y.csv")
        assert cli.main(["project", "--config", cfg_path, "--output", out]) == 0
        Y = np.loadtxt(out, delimiter=",", ndmin=2)
        assert np.array_equal(Y, build_trial(load_config(cfg_path), 0).Y)

    def test_decode_is_the_stacked_reconstruction(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path / "two.cfg", receivers=2)
        out = str(tmp_path / "dec.csv")
        assert cli.main(["decode", "--config", cfg_path, "--output", out]) == 0
        cfg = load_config(cfg_path)
        results = decode_trial(cfg, build_trial(cfg, 0))
        x_hat = np.loadtxt(out, delimiter=",", ndmin=2)
        assert np.array_equal(x_hat, np.vstack([results[0].x_hat, results[1].x_hat]))

    def test_re_estimate_uses_receiver_zero(self, cfg_path, tmp_path, capsys):
        out, want = str(tmp_path / "re.csv"), str(tmp_path / "want.csv")
        argv = ["re-estimate", "--config", cfg_path, "--supports", "10", "--vectors", "10"]
        assert cli.main(argv + ["--output", out]) == 0
        cfg = load_config(cfg_path)
        G = build_trial(cfg, 0).transfers[0].G
        save_re_report(estimate_re(G, cfg.profile.k2, 1.0, 10, 10, cfg.master_seed.child(9)), want)
        assert open(out).read() == open(want).read()


class TestAnalysisVerbs:
    def test_cascade_check_passes(self, cfg_path, capsys):
        rc = cli.main(["cascade-check", "--config", cfg_path, "--triples", "5", "--vectors", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "violations_left=0" in out
        assert "violations_right=0" in out

    def test_cascade_check_output_holds_printed_totals(self, cfg_path, tmp_path, capsys):
        argv = ["cascade-check", "--config", cfg_path, "--triples", "3", "--vectors", "10"]
        assert cli.main(argv) == 0
        printed = capsys.readouterr().out
        out = str(tmp_path / "cascade.txt")
        assert cli.main(argv + ["--output", out]) == 0
        assert capsys.readouterr().out == printed  # stdout is unchanged by --output
        pairs = [line.split(": ") for line in open(out).read().splitlines()]
        assert " ".join(f"{key}={value}" for key, value in pairs) == printed.strip()

    @pytest.mark.parametrize("argv", [
        ["re-estimate", "--supports", "0"],
        ["re-estimate", "--vectors", "-3"],
        ["cascade-check", "--triples", "0"],
        ["cascade-check", "--vectors", "0"],
    ], ids=["no-supports", "negative-vectors", "no-triples", "no-vectors"])
    def test_vacuous_battery_is_usage_error(self, cfg_path, capsys, argv):
        assert cli.main(argv[:1] + ["--config", cfg_path] + argv[1:]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        floor = 0 if argv == ["re-estimate", "--vectors", "-3"] else 1
        assert f"invalid argument {argv[1]}: must be >= {floor}" in err
        assert "invalid configuration" not in err

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--axis", "m2", "--values", "8,x"], "--values: not a comma-separated list of numbers: '8,x'"),
        (["sweep", "--axis", "m2", "--values", "12,8"], "--values: values must be sorted ascending"),
        (["sweep", "--axis", "k2", "--values", "2.5,3"], "--values: k2 takes integer values, not 2.5"),
        (["sweep", "--axis", "m2", "--values", "4,8,99"], "--values: need 1 <= m2 <= N"),
        (["calibrate", "--pilot-trials", "0"], "--pilot-trials: must be >= 20"),
        (["re-estimate", "--sparsity", "0"], "--sparsity: must be >= 1"),
        (["trial", "--index", "-1"], "--index: must be >= 0"),
        (["calibrate", "--target", "-0.5"], "--target: must lie in (0, 1]"),
        (["calibrate", "--target", "nan"], "--target: must lie in (0, 1]"),
        (["calibrate", "--target", "1.5"], "--target: must lie in (0, 1]"),
        (["re-estimate", "--alpha", "0.5"], "--alpha: must be finite and >= 1"),
        (["re-estimate", "--alpha", "nan"], "--alpha: must be finite and >= 1"),
        (["re-estimate", "--sparsity", "1000"], "--sparsity: must be <= N"),
        (["trial", "--threads", "0"], "--threads: must be >= 1"),
        (["re-estimate", "--threads", "-4"], "--threads: must be >= 1"),
    ], ids=["values-not-numbers", "values-descending", "values-not-integers", "values-past-N", "few-pilot-trials",
            "no-sparsity", "negative-index", "negative-target", "nan-target", "target-above-one", "alpha-below-one",
            "nan-alpha", "sparsity-above-n", "no-threads", "negative-threads"])
    def test_flag_fault_is_named(self, cfg_path, capsys, argv, message):
        assert cli.main(argv[:1] + ["--config", cfg_path] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert f"invalid argument {message}" in captured.err
        assert "Traceback" not in captured.err and "invalid configuration" not in captured.err
        assert captured.out == ""

    def test_re_estimate(self, cfg_path, tmp_path, capsys):
        out = str(tmp_path / "re.csv")
        rc = cli.main(["re-estimate", "--config", cfg_path, "--supports", "10",
                       "--vectors", "10", "--output", out])
        assert rc == 0
        assert "gamma_hat" in capsys.readouterr().out
        assert os.path.exists(out)

    def test_sweep(self, cfg_path, tmp_path, capsys):
        out = str(tmp_path / "sw.csv")
        rc = cli.main(["sweep", "--config", cfg_path, "--axis", "m2",
                       "--values", "8,12", "--output", out])
        assert rc == 0
        assert os.path.exists(out)

    def test_calibrate_writes_summary(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "cal.cfg", trials=2)
        out = str(tmp_path / "cal.txt")
        rc = cli.main(["calibrate", "--config", cfg, "--pilot-trials", "20", "--output", out])
        assert rc == 0
        text = open(out).read()
        assert "naive_baseline" in text and "c_use" in text

    def test_invalid_config_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[experiment]\nN = 4\n")
        rc = cli.main(["trial", "--config", str(bad)])
        assert rc == 2

    @pytest.mark.parametrize("old, new", [
        ("sigma = 0.05", "sigma ="),
        ("debias = true", "debias = maybe"),
        ("\nm = 4\n", "\nm = 4\nm = 4\n"),
        ("[experiment]\n", ""),
        ("sigma = 0.05", "sigma = nan"),
        ("kind_phi = random-orthonormal", "kind_phi = gaussian-invertible"),
        ("network_mode = direct", "network_mode = identity"),  # the identity transfer family
    ], ids=["empty-number", "bad-bool", "duplicate-key", "no-section", "nan-sigma", "removed-kind",
            "removed-family"])
    def test_malformed_config_is_usage_error(self, cfg_path, capsys, old, new):
        text = open(cfg_path).read()
        assert old in text
        with open(cfg_path, "w") as fh:
            fh.write(text.replace(old, new))
        assert cli.main(["trial", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and "Traceback" not in err

    def test_schema_1_weight_key_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "old.cfg"
        path.write_text("[experiment]\nschema = 1\nN = 16\nn = 12\nk1 = 2\nk2 = 2\nm = 4\nm1 = 8\nm2 = 12\n"
                        "sigma = 0.05\nD = 0.01\nxi_scale = 2.0\n")
        assert cli.main(["trial", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration: unknown config keys: ['xi_scale']" in err

    @staticmethod
    def schema_3_text(tmp_path):
        """The defaults as a schema-3 save_config wrote them: projection_family and redraw_b_per_t among the keys."""
        return (open(write_cfg(tmp_path / "new.cfg")).read().replace("schema = 4", "schema = 3")
                .replace("receivers = 1\n", "projection_family = gaussian\nreceivers = 1\n")
                .replace("debias = true\n", "redraw_b_per_t = true\ndebias = true\n"))

    def test_schema_2_file_names_its_removed_keys(self, tmp_path, capsys):
        # as a schema-2 save_config wrote the defaults: every key, the six fixed since among them
        path = tmp_path / "old.cfg"
        path.write_text(self.schema_3_text(tmp_path).replace("schema = 3", "schema = 2")
                        + "coeff_family = rademacher\nconnect_prob = 0.3333333333333333\n"
                        "amp_lo = 8.0\namp_hi = 16.0\n")
        assert cli.main(["trial", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert ("invalid configuration: unknown config keys: ['amp_hi', 'amp_lo', 'coeff_family', 'connect_prob', "
                "'projection_family', 'redraw_b_per_t']") in err

    def test_schema_3_file_names_its_removed_keys(self, tmp_path, capsys):
        path = tmp_path / "old.cfg"
        path.write_text(self.schema_3_text(tmp_path))
        removed = "unknown config keys: ['projection_family', 'redraw_b_per_t']"
        with pytest.raises(ValueError) as err:
            load_config(str(path))
        assert removed in str(err.value)
        assert cli.main(["trial", "--config", str(path)]) == 2
        assert f"invalid configuration: {removed}" in capsys.readouterr().err


class TestSeedPrecedence:
    def test_env_seed_used_when_config_has_none(self, tmp_path, monkeypatch, capsys):
        cfg = write_cfg(tmp_path / "e.cfg")
        text = open(cfg).read()
        stripped = "\n".join(
            l for l in text.splitlines() if not l.startswith(("master_seed", "seed_stream"))
        )
        (tmp_path / "noseed.cfg").write_text(stripped + "\n")
        path = str(tmp_path / "noseed.cfg")
        a, b, c = (str(tmp_path / f"{x}.csv") for x in "abc")
        monkeypatch.setenv("CSNC_SEED", "123")
        cli.main(["trial", "--config", path, "--output", a])
        cli.main(["trial", "--config", cfg, "--seed", "123", "--output", b])
        monkeypatch.delenv("CSNC_SEED")
        cli.main(["trial", "--config", path, "--output", c])
        assert open(a).read() == open(b).read()  # env seed == explicit seed 123
        assert open(a).read() != open(c).read()  # env seed beats the implicit default

    def test_config_seed_beats_env(self, cfg_path, tmp_path, monkeypatch):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        monkeypatch.setenv("CSNC_SEED", "555")
        cli.main(["trial", "--config", cfg_path, "--output", a])
        monkeypatch.delenv("CSNC_SEED")
        cli.main(["trial", "--config", cfg_path, "--output", b])
        assert open(a).read() == open(b).read()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "csnc.cli", "budget", "--k1", "2", "--k2", "2", "--n", "64",
         "--N", "64", "--m", "8", "--sigma", "0.1", "--D", "0.01", "--c", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "c_use" in proc.stdout


class TestVerbose:
    """-v logs to stderr only: stdout and written files are the same with or without it."""

    def run(self, argv, capsys):
        rc = cli.main(argv)
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    @pytest.mark.parametrize("verb, indices", [(["trial", "--index", "2"], [2]), (["simulate"], [0, 1, 2])])
    def test_trial_records_logged(self, cfg_path, tmp_path, capsys, verb, indices):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        rc, out, err = self.run(verb + ["--config", cfg_path, "--threads", "1", "--output", a], capsys)
        assert rc == 0 and err == ""
        rc_v, out_v, err_v = self.run(verb + ["--config", cfg_path, "--threads", "1", "--output", b, "-v"], capsys)
        assert rc_v == 0
        assert out_v == out.replace(a, b)
        assert open(a, "rb").read() == open(b, "rb").read()
        lines = err_v.splitlines()
        assert [int(re.match(r"trial (\d+): ", line).group(1)) for line in lines] == indices
        assert all(re.search(r"timing_ms=\S+ converged=(True|False) max_distortion=\S+$", line) for line in lines)

    def test_calibration_table_logged(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "cal.cfg", trials=2)
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        argv = ["calibrate", "--config", cfg, "--pilot-trials", "20", "--threads", "1"]
        rc, out, err = self.run(argv + ["--output", a], capsys)
        assert rc == 0 and err == ""
        rc_v, out_v, err_v = self.run(argv + ["--output", b, "--verbose"], capsys)
        assert rc_v == 0 and out_v == out
        assert open(a, "rb").read() == open(b, "rb").read()
        lines = err_v.splitlines()
        assert lines[0] == "calibration evaluations:"
        assert lines[1].split() == ["c", "m1", "m2", "success"]
        rows = [line.split() for line in lines[2:]]
        assert rows and all(len(r) == 4 for r in rows)
        c_reported = float(re.match(r"c = (\S+)", out).group(1))
        assert any(float(r[0]) == pytest.approx(c_reported, rel=1e-5) for r in rows)
