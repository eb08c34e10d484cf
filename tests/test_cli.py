"""CLI behavior: commands, config handling, exit codes, determinism."""

import argparse
import re
from pathlib import Path

import pytest

import etlab.checks as checks
import etlab.cli as cli
import etlab.experiments as experiments


def run_cli(args):
    return cli.main(args)


PERTURBATIVE_ARGS = {"--n": "3", "--gamma": "1e-3", "--omega": "1", "--delta": "10", "--k": "3"}


def perturbative_argv(**overrides):
    values = dict(PERTURBATIVE_ARGS, **overrides)
    return ["perturbative", *(item for pair in values.items() for item in pair)]


def numeric_flags(command):
    """(flag, dest, a value outside any domain) for each numeric flag of a
    command in the parser table: nan for a float, -1 for an int."""
    parser, _ = cli._build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    params = []
    for a in sub.choices[command]._actions:
        if getattr(a.type, "__name__", None) in ("int", "float"):
            flag = a.option_strings[0]
            bad = "nan" if a.type.__name__ == "float" else "-1"
            params.append(pytest.param(flag, a.dest, bad, id=flag))
    return params


class TestPerturbativeCommand:
    def test_worked_values(self, capsys):
        code = run_cli(
            ["perturbative", "--n", "3", "--gamma", "1e-3", "--omega", "1", "--delta", "10", "--k", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0.01" in out  # omega_k
        assert "0.03" in out  # p'
        assert "does not reduce" in out

    def test_breakeven_true_case(self, capsys):
        code = run_cli(
            ["perturbative", "--n", "3", "--gamma", "1e-6", "--omega", "1", "--delta", "10", "--k", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "reduces" in out

    def test_invalid_params_exit_1(self, capsys):
        code = run_cli(
            ["perturbative", "--n", "0", "--gamma", "1e-3", "--omega", "1", "--delta", "10", "--k", "3"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--gamma", "nan"), ("--omega", "inf"), ("--delta", "inf")])
    def test_nonfinite_rate_exit_1(self, capsys, flag, value):
        # these exited 0 printing nan/inf, or (--delta inf) ended in a
        # ZeroDivisionError traceback
        assert run_cli(perturbative_argv(**{flag: value})) == 1
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "omega, delta, k",
        [("1", "10", "400"), ("10", "1", "400"), ("1", "1e-100", "3"), ("1", "1e100", "3")],
    )
    def test_unrepresentable_rates_exit_1(self, capsys, omega, delta, k):
        # omega_k, p' or (omega/delta)^(2k-2) underflows or overflows; each
        # ended in a ZeroDivisionError or OverflowError traceback
        assert run_cli(perturbative_argv(**{"--omega": omega, "--delta": delta, "--k": k})) == 1
        err = capsys.readouterr().err
        assert all(flag in err for flag in ("--omega", "--delta", "--k"))
        assert "Traceback" not in err


class TestEthInspectCommand:
    def test_steane_report_shows_counterexample(self, capsys):
        code = run_cli(["eth", "inspect", "--code", "steane7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sign -1" in out
        assert "True" in out

    def test_bitflip_report(self, capsys):
        code = run_cli(["eth", "inspect", "--code", "bitflip3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "terms in ETH:        4" in out
        assert "body-ness:           3" in out
        assert "controlled body-ness: 4" in out
        residual = re.search(r"transparency residual: (\S+)", out).group(1)
        assert float(residual) < 1e-12

    def test_unknown_code_exit_1(self, capsys):
        assert run_cli(["eth", "inspect", "--code", "shor9"]) == 1

    def test_bad_kinds_exit_1(self, capsys):
        assert run_cli(["eth", "inspect", "--code", "perfect5", "--kinds", "XQ"]) == 1
        assert "error: kinds must be drawn from X, Y, Z, got 'XQ'" in capsys.readouterr().err

    def test_kinds_printed_in_xyz_order(self, capsys):
        assert run_cli(["eth", "inspect", "--code", "perfect5", "--kinds", "ZX"]) == 0
        assert "(n=5, 10 errors, kinds=XZ)" in capsys.readouterr().out

    def test_non_orthogonal_kinds_exit_1(self, capsys):
        # bitflip3 cannot separate Z errors, so no ETH exists for XYZ
        assert run_cli(["eth", "inspect", "--code", "bitflip3", "--kinds", "XYZ"]) == 1
        err = capsys.readouterr().err
        assert "bitflip3" in err and "XYZ" in err and "not orthogonal" in err


class TestSweepCommand:
    def test_tiny_fig1a_sweep(self, tmp_path, capsys):
        out = tmp_path / "res"
        code = run_cli(
            ["sweep", "fig1a", "--gamma-points", "2", "--out", str(out), "--plot"]
        )
        assert code == 0
        csv_path = out / "fig1a-lindblad.csv"
        svg_path = out / "fig1a-lindblad.svg"
        assert csv_path.exists() and svg_path.exists()
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "gamma_over_omega,scenario,probability,stderr,method"
        assert len(lines) == 1 + 3 * 4  # (2 log points + zero) x 4 scenarios

    def test_seeded_mc_sweep_byte_identical(self, tmp_path):
        args = [
            "sweep", "fig1a", "--method", "mc", "--traj", "40", "--seed", "42",
            "--gamma-points", "2", "--gamma-min", "0.05", "--gamma-max", "0.1",
        ]
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli(args + ["--out", str(out)]) == 0
            outs.append((out / "fig1a-mc.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_config_file_applies(self, tmp_path):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text("[sweep]\ngamma_points = 2\nmethod = lindblad\nout = %s\n" % (tmp_path / "r"))
        assert run_cli(["sweep", "fig1a", "--config", str(cfg)]) == 0
        assert (tmp_path / "r" / "fig1a-lindblad.csv").exists()

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text("[sweep]\ngamma_points = 5\n")
        out = tmp_path / "r"
        assert run_cli(
            ["sweep", "fig1a", "--config", str(cfg), "--gamma-points", "1", "--out", str(out)]
        ) == 0
        lines = (out / "fig1a-lindblad.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 4  # zero + one log point

    def test_unknown_config_key_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text("[sweep]\ngamma_pionts = 5\n")
        assert run_cli(["sweep", "fig1a", "--config", str(cfg)]) == 1
        assert "gamma_pionts" in capsys.readouterr().err

    def test_bad_config_value_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text("[sweep]\ntraj = many\n")
        assert run_cli(["sweep", "fig1a", "--config", str(cfg)]) == 1
        assert "traj" in capsys.readouterr().err

    def test_plot_false_in_config_writes_no_svg(self, tmp_path):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text("[sweep]\nplot = false\ngamma_points = 1\nworkers = 1\n")
        out = tmp_path / "r"
        assert run_cli(["sweep", "fig1a", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "fig1a-lindblad.csv").exists()
        assert not (out / "fig1a-lindblad.svg").exists()
        # the flag beats the file
        assert run_cli(["sweep", "fig1a", "--config", str(cfg), "--out", str(out), "--plot"]) == 0
        assert (out / "fig1a-lindblad.svg").exists()

    @pytest.mark.parametrize(
        "line, named", [("plot = maybe", "plot"), ("dt = abc", "dt"), ("method = exact", "exact")]
    )
    def test_bad_config_values_exit_1(self, tmp_path, capsys, line, named):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text("[sweep]\n%s\nout = %s\n" % (line, tmp_path / "r"))
        assert run_cli(["sweep", "fig1a", "--config", str(cfg)]) == 1
        assert named in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_readme_config_example_accepted(self, tmp_path):
        # keeps the README's [sweep] block and the sweep flags in step
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```ini\n(\[sweep\]\n.*?)```", readme, re.DOTALL).group(1)
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(block)
        _, sweep = cli._build_parser()
        values = cli._load_config_file(str(cfg), sweep)
        assert len(values) == 11
        sweep.set_defaults(**values)
        args = sweep.parse_args(["fig1a"])
        # every value but method's was converted by its flag's type
        assert [k for k in values if isinstance(getattr(args, k), str)] == ["method"]
        assert (args.traj, args.dt, args.out, args.plot) == (4000, 0.002, Path("results"), True)

    def test_missing_config_file_exit_1(self, capsys):
        assert run_cli(["sweep", "fig1a", "--config", "/no/such.ini"]) == 1

    def test_bad_flag_exit_1(self, capsys):
        assert run_cli(["sweep", "fig1c"]) == 1

    def test_bad_method_exit_1(self, capsys):
        assert run_cli(["sweep", "fig1a", "--method", "exact"]) == 1

    def test_numerical_failure_exit_2(self, tmp_path, capsys):
        # enormous gamma with a huge step blows up the integrator
        code = run_cli(
            [
                "sweep", "fig1a", "--dt", "0.5", "--gamma-min", "30", "--gamma-max", "50",
                "--gamma-points", "1", "--out", str(tmp_path / "r"),
            ]
        )
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_no_recovery_rejected_for_fig1b(self, tmp_path, capsys):
        # fig1b has no recovery step; the flag used to be ignored with exit 0
        args = [
            "sweep", "fig1b", "--method", "lindblad", "--gamma-points", "1", "--no-recovery",
            "--out", str(tmp_path / "r"),
        ]
        assert run_cli(args) == 1
        assert "--no-recovery" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_out_is_a_file_exit_1_before_any_job(self, tmp_path, capsys, monkeypatch):
        # the whole sweep used to run first, then end in a FileExistsError
        def never(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(experiments, "fig1a_sweep", never)
        out = tmp_path / "taken"
        out.write_text("")
        assert run_cli(["sweep", "fig1a", "--gamma-points", "1", "--out", str(out)]) == 1
        assert "--out" in capsys.readouterr().err

    def test_unwritable_csv_exit_1(self, tmp_path, capsys):
        out = tmp_path / "r"
        (out / "fig1a-lindblad.csv").mkdir(parents=True)
        assert run_cli(["sweep", "fig1a", "--gamma-points", "1", "--out", str(out)]) == 1
        assert "--out" in capsys.readouterr().err

    def test_default_workers_start_no_pool(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_pool)
        out = tmp_path / "r"
        assert run_cli(["sweep", "fig1a", "--gamma-points", "1", "--out", str(out)]) == 0
        assert (out / "fig1a-lindblad.csv").exists()

    def test_unstable_dt_exit_2(self, tmp_path, capsys):
        # one RK4 step of pi on the noiseless qubit used to return probability
        # 23.6, caught only by the final [0,1] guard
        code = run_cli(
            [
                "sweep", "fig1a", "--dt", "10", "--gamma-points", "1", "--workers", "1",
                "--out", str(tmp_path / "r"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "fig1a/single at gamma/omega=0" in err and "smaller dt" in err
        assert not list(tmp_path.rglob("*.csv"))


class TestVerifyCommand:
    def test_exit_0_when_all_pass(self, monkeypatch, capsys):
        monkeypatch.setattr(checks, "CHECKS", [("fake.pass", lambda: "ok")])
        assert run_cli(["verify"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^\[PASS\] fake\.pass: ok \(\d+\.\d\d s\)$", out, re.MULTILINE)
        assert "1/1" in out

    def test_exit_3_on_invariant_failure(self, monkeypatch, capsys):
        def boom():
            raise checks.CheckFailure("broken")

        monkeypatch.setattr(
            checks, "CHECKS", [("fake.pass", lambda: "ok"), ("fake.fail", boom)]
        )
        assert run_cli(["verify"]) == 3
        out = capsys.readouterr().out
        assert "[FAIL] fake.fail" in out
        assert "1/2" in out


class TestConfigValidation:
    def test_gamma_range_validation(self, capsys):
        assert run_cli(["sweep", "fig1a", "--gamma-min", "-1"]) == 1

    def test_negative_seed(self, capsys):
        assert run_cli(["sweep", "fig1a", "--seed", "-2"]) == 1

    def test_zero_traj(self, capsys):
        assert run_cli(["sweep", "fig1a", "--method", "mc", "--traj", "0"]) == 1

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--gamma-min", "nan"),
            ("--omega", "nan"),
            ("--dt", "-1"),
            ("--gamma-max", "inf"),
            ("--traj", "0"),
            ("--seed", "-2"),
            ("--gamma-points", "0"),
        ],
    )
    def test_nonfinite_or_nonpositive_input_exit_1(self, tmp_path, capsys, flag, value):
        out = tmp_path / "r"
        assert run_cli(["sweep", "fig1a", flag, value, "--out", str(out)]) == 1
        assert flag in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize(
        "args",
        [
            ["--omega", "1e308", "--gamma-min", "10", "--gamma-max", "20", "--gamma-points", "1"],
            ["--omega", "1e-310", "--gamma-points", "1", "--workers", "1"],
        ],
        ids=["gamma-overflows", "duration-overflows"],
    )
    def test_overflowing_omega_exit_1(self, tmp_path, capsys, args):
        # gamma * omega or pi / omega overflowed to inf and ended in a
        # ValueError traceback from the scenario or the integrator
        assert run_cli(["sweep", "fig1a", *args, "--out", str(tmp_path / "r")]) == 1
        assert "--omega" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_repeated_gamma_exit_1(self, tmp_path, capsys):
        # each repeat ran under its own job seed: two mc rows for one
        # (scenario, gamma) key with different values
        args = ["--gamma-min", "0.05", "--gamma-max", "0.05", "--gamma-points", "2"]
        assert run_cli(["sweep", "fig1a", *args, "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert "--gamma-min" in err and "--gamma-max" in err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["--dt", "1e-300"], "--dt"),
            (["--method", "mc", "--dt", "1e-300"], "--dt"),
            (["--method", "mc", "--gamma-min", "1e5", "--gamma-max", "1e6"], "--gamma-max"),
        ],
        ids=["rk4-dt", "mc-dt", "mc-default-step"],
    )
    def test_step_count_above_cap_exit_1_before_any_job(
        self, tmp_path, capsys, monkeypatch, args, flag
    ):
        # these ended in tracebacks that named no flag: an OverflowError from
        # the RK4 step list, numpy's "Maximum allowed dimension exceeded" from
        # the Monte Carlo backbone, and an 18.7 GiB allocation for the
        # default Monte Carlo step at gamma/omega = 1e6
        def task(*args, **kwargs):
            raise AssertionError("a task ran")

        monkeypatch.setattr(experiments, "_run_task", task)
        assert run_cli(["sweep", "fig1a", *args, "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: dt=") and "more than the cap" in err
        assert not list(tmp_path.rglob("*.csv"))
        # checked before --out is created: a rejected sweep leaves no directory
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("experiment", ["fig1a", "fig1b"])
    def test_exact_substeps_above_cap_exit_1_before_any_job(
        self, tmp_path, capsys, monkeypatch, experiment
    ):
        # exact propagation takes ceil(t * bound / 4) substeps and the bound
        # grows with gamma: fig1a at gamma/omega = 1e4 took 14 s, and 1e5
        # ran past a 45 s timeout
        def task(*args, **kwargs):
            raise AssertionError("a task ran")

        monkeypatch.setattr(experiments, "_run_task", task)
        args = ["--method", "lindblad", "--gamma-min", "1e5", "--gamma-max", "1e5"]
        argv = ["sweep", experiment, *args, "--gamma-points", "1", "--out", str(tmp_path / "r")]
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --gamma-max: {experiment}/") and "gamma/omega=1e+05" in err
        assert "exact propagation takes at least" in err and "more than the cap of 100000" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("experiment", ["fig1a", "fig1b"])
    def test_traj_above_cap_exit_1_before_any_job(
        self, tmp_path, capsys, monkeypatch, experiment
    ):
        # 10^12 trajectories ended in numpy's _ArrayMemoryError traceback
        # (7.28 TiB of thresholds and values)
        def task(*args, **kwargs):
            raise AssertionError("a task ran")

        monkeypatch.setattr(experiments, "_run_task", task)
        args = ["--method", "mc", "--gamma-points", "1", "--traj", "1000000000000"]
        assert run_cli(["sweep", experiment, *args, "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --traj: n_traj must be in [1, ")
        assert "got 1000000000000" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["sweep", "fig1a", "--work", "2"], "--work"),
            (["sweep", "fig1a", "--no"], "--no"),
            (["sweep", "fig1a", "--met", "mc", "--tr", "5"], "--met"),
            (["eth", "inspect", "--co", "bitflip3"], "--code"),
            ([a.replace("--delta", "--del") for a in perturbative_argv()], "--delta"),
        ],
        ids=["--work", "--no", "--met", "--co", "--del"],
    )
    def test_flag_prefix_exit_1(self, tmp_path, capsys, monkeypatch, argv, named):
        # a unique prefix used to stand for its flag: `--work 2 --no` ran as
        # `--workers 2 --no-recovery`, so a renamed flag kept answering to
        # any prefix of its old name
        def never(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(experiments, "fig1a_sweep", never)
        assert run_cli([*argv, "--out", str(tmp_path / "r")] if argv[0] == "sweep" else argv) == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_workers_flag_exit_1(self, tmp_path, capsys, value):
        out = tmp_path / "r"
        args = ["sweep", "fig1a", "--gamma-points", "1", "--workers", value, "--out", str(out)]
        assert run_cli(args) == 1
        assert "--workers" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_nonpositive_workers_in_config_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text("[sweep]\ngamma_points = 1\nworkers = 0\nout = %s\n" % (tmp_path / "r"))
        assert run_cli(["sweep", "fig1a", "--config", str(cfg)]) == 1
        assert "--workers" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))


class TestFlagDomains:
    """Every numeric flag in the parser table declares its domain, so a flag
    added without one fails here."""

    @pytest.mark.parametrize("flag, dest, bad", numeric_flags("sweep"))
    def test_sweep_value_outside_domain_exit_1(self, tmp_path, capsys, flag, dest, bad):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(f"[sweep]\n{dest} = {bad}\n")
        out = str(tmp_path / "r")
        for argv in (["fig1a", flag, bad, "--out", out], ["fig1a", "--config", str(cfg), "--out", out]):
            assert run_cli(["sweep", *argv]) == 1
            assert flag in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("flag, dest, bad", numeric_flags("perturbative"))
    def test_perturbative_value_outside_domain_exit_1(self, capsys, flag, dest, bad):
        assert run_cli(perturbative_argv(**{flag: bad})) == 1
        assert flag in capsys.readouterr().err
