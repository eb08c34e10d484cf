"""Command-line front end.

Commands::

    etlab verify                          run every invariant suite
    etlab sweep fig1a [flags]             four-scenario precession sweep
    etlab sweep fig1b [flags]             five-scenario controller sweep
    etlab eth inspect --code <name>       body-ness / transparency report
    etlab perturbative --n ... --k ...    closed-form rate trade-off

The parser built by :func:`_build_parser` is the CLI's one table.  Each
numeric flag's type converts its value and checks its domain, so argparse
names the flag when a value is out of range, and each command registers
its handler there.  The handlers keep only the rules that tie flags
together.

Sweeps always write a CSV (fixed schema, byte-deterministic for a fixed
seed) and optionally a standalone SVG plot.  The optional INI config file
(``--config``, section ``[sweep]``) sets the sweep flags' defaults: each
value is parsed and checked by its flag's type (or against its choices),
and a flag given on the command line beats the file.

Exit codes: 0 success, 1 config error, 2 numerical failure, 3 invariant
failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from . import checks, codes, eth, experiments, output
from .dynamics import NumericsError, StepCountError
from .experiments import DEFAULT_SEED, ExperimentError

__all__ = ["ConfigError", "main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICS = 2
EXIT_INVARIANT = 3


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage as a config error (exit code 1) and
    takes every flag by its full name only, so a renamed flag never answers
    to a prefix of itself.  Subparsers are of this class too."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # noqa: A003 - argparse API
        raise ConfigError(message)


def _flag_type(convert, ok, rule: str):
    """A flag's type: ``convert`` the text, then require ``ok`` of the value.
    argparse names the flag in either failure, as it does for a bare type."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    parse.__name__ = convert.__name__
    return parse


_COUNT = _flag_type(int, lambda v: v >= 1, "at least 1")
_SEED = _flag_type(int, lambda v: v >= 0, "nonnegative")
_POSITIVE = _flag_type(float, lambda v: np.isfinite(v) and v > 0, "finite and positive")
_NONNEGATIVE = _flag_type(float, lambda v: np.isfinite(v) and v >= 0, "finite and nonnegative")
_BODIES = _flag_type(int, lambda v: v >= 2, "at least 2")


def _load_config_file(path: str, sweep: argparse.ArgumentParser) -> dict:
    """The ``[sweep]`` section as defaults for the sweep flags: ``plot`` as a
    bool, every other value as its raw string, which argparse then converts
    with the flag's own type.  A key is a flag's dest; three flags have none.
    argparse checks ``choices`` on command-line values only, so a value is
    checked against its flag's choices here."""
    flags = {a.dest: a for a in sweep._actions if a.option_strings}
    for dest in ("help", "config", "no_recovery"):
        del flags[dest]
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    if parser.sections() not in ([], ["sweep"]):
        extra = [s for s in parser.sections() if s != "sweep"]
        raise ConfigError(f"unknown config section {extra[0]!r} in {path}")
    values = {}
    if parser.has_section("sweep"):
        for key, raw in parser.items("sweep"):
            if key not in flags:
                raise ConfigError(f"unknown config key {key!r} in {path}")
            try:
                values[key] = parser.getboolean("sweep", key) if key == "plot" else raw
            except ValueError as exc:
                raise ConfigError(f"config key {key!r} has invalid value {raw!r}") from exc
            if flags[key].choices and raw not in flags[key].choices:
                raise ConfigError(f"config key {key!r} has invalid value {raw!r}")
    return values


def _build_parser() -> tuple[_Parser, _Parser]:
    """The top-level parser and its ``sweep`` subparser.  Each flag's type,
    domain and default, and each command's handler, is written here only."""
    parser = _Parser(prog="etlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("verify", help="run all invariant suites").set_defaults(handler=_cmd_verify)

    sweep = sub.add_parser("sweep", help="run a scenario sweep over a gamma grid")
    sweep.set_defaults(handler=_cmd_sweep)
    sweep.add_argument("experiment", choices=("fig1a", "fig1b"))
    sweep.add_argument("--config", help="INI config file with a [sweep] section")
    sweep.add_argument(
        "--method", choices=("lindblad", "mc"), help="default: lindblad for fig1a, mc for fig1b"
    )
    sweep.add_argument(
        "--traj", type=_COUNT, default=2000, help="trajectories per grid point (mc; %(default)s)"
    )
    sweep.add_argument(
        "--seed", type=_SEED, default=DEFAULT_SEED, help="master seed of mc jobs only (%(default)s)"
    )
    sweep.add_argument("--out", type=Path, default="out", help="output directory (./%(default)s)")
    sweep.add_argument("--plot", action="store_true", help="also emit an SVG plot")
    sweep.add_argument(
        "--gamma-min", type=_POSITIVE, default=1e-3, help="lowest gamma/omega (%(default)s)"
    )
    sweep.add_argument(
        "--gamma-max", type=_POSITIVE, default=1e-1, help="highest gamma/omega (%(default)s)"
    )
    sweep.add_argument(
        "--gamma-points", type=_COUNT, default=21, help="log-spaced, gamma = 0 added (%(default)s)"
    )
    sweep.add_argument("--omega", type=_POSITIVE, default=1.0, help="drive frequency (%(default)s)")
    sweep.add_argument(
        "--dt",
        type=_POSITIVE,
        help="RK4 step for lindblad, jump-placement step for mc; "
        "default: exact lindblad propagation",
    )
    sweep.add_argument(
        "--workers",
        type=_COUNT,
        help="process pool size (default: serial); N > 1 wants OPENBLAS_NUM_THREADS=1",
    )
    sweep.add_argument(
        "--no-recovery",
        action="store_true",
        help="fig1a: score raw fidelity without the ideal recovery step",
    )

    eth_cmd = sub.add_parser("eth", help="inspect error-transparent Hamiltonians")
    eth_sub = eth_cmd.add_subparsers(dest="action", required=True)
    inspect = eth_sub.add_parser("inspect", help="body-ness and transparency report")
    inspect.set_defaults(handler=_cmd_eth_inspect)
    inspect.add_argument("--code", required=True, choices=sorted(codes.DESIGNED_KINDS))
    inspect.add_argument(
        "--kinds", default=None, help="error kinds, e.g. X or XYZ (default: code's design set)"
    )

    pert = sub.add_parser("perturbative", help="effective k-body interaction trade-off")
    pert.set_defaults(handler=_cmd_perturbative)
    pert.add_argument("--n", type=_COUNT, required=True, help="physical qubit count")
    pert.add_argument("--gamma", type=_NONNEGATIVE, required=True, help="decoherence rate")
    pert.add_argument("--omega", type=_POSITIVE, required=True, help="2-body interaction rate")
    pert.add_argument("--delta", type=_POSITIVE, required=True, help="auxiliary level spacing")
    pert.add_argument("--k", type=_BODIES, required=True, help="target body-ness")
    return parser, sweep


def _cmd_sweep(args: argparse.Namespace) -> int:
    method = args.method or ("lindblad" if args.experiment == "fig1a" else "mc")
    if args.gamma_max < args.gamma_min:
        raise ConfigError("--gamma-max must be at least --gamma-min")
    if args.gamma_points > 1 and args.gamma_max == args.gamma_min:
        raise ConfigError("--gamma-points above 1 needs --gamma-max above --gamma-min")
    if args.experiment == "fig1b" and args.no_recovery:
        raise ConfigError("--no-recovery applies to fig1a only; fig1b has no recovery step")
    grid = experiments.default_gamma_grid(args.gamma_points, args.gamma_min, args.gamma_max)
    # as Python floats, an overflow gives inf without numpy's warning
    if not (np.isfinite(float(grid.max()) * args.omega) and np.isfinite(np.pi / args.omega)):
        raise ConfigError(f"--omega {args.omega!r} overflows gamma * omega or pi / omega")
    specs = experiments.sweep_specs(
        args.experiment, grid * args.omega, args.omega, apply_recovery=not args.no_recovery
    )
    try:
        experiments.check_budget(specs, method, args.traj, args.dt)
    except StepCountError as exc:
        # by default only Monte Carlo has a step, set by the largest rate
        flag = "--gamma-max" if args.dt is None else "--dt"
        raise ConfigError(f"{flag}: {exc}") from exc
    except ValueError as exc:
        # the check's only other ValueError is TrajectoryConfig's, of --traj
        raise ConfigError(f"--traj: {exc}") from exc
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {args.out}: {exc}") from exc
    result = experiments.run_sweep(specs, method, args.traj, args.seed, args.dt, args.workers)
    csv_path = args.out / f"{args.experiment}-{method}.csv"
    plot_path = csv_path.with_suffix(".svg")
    try:
        output.emit_csv(result, csv_path)
        if args.plot:
            output.emit_plot(result, plot_path)
    except OSError as exc:
        raise ConfigError(f"--out {args.out}: {exc}") from exc
    print(f"{args.experiment} [{method}]: {len(result.rows)} rows -> {csv_path}")
    if args.plot:
        print(f"plot -> {plot_path}")
    return EXIT_OK


def _cmd_verify(_args: argparse.Namespace) -> int:
    failed = []
    for name, check in checks.CHECKS:
        start = perf_counter()
        try:
            status, detail = "PASS", check()
        except Exception as exc:  # noqa: BLE001 - verify reports, never crashes
            status, detail = "FAIL", f"{type(exc).__name__}: {exc}"
            failed.append(name)
        print(f"[{status}] {name}: {detail} ({perf_counter() - start:.2f} s)", flush=True)
    print()
    print(f"{len(checks.CHECKS) - len(failed)}/{len(checks.CHECKS)} invariant suites passed")
    for name in failed:
        print(f"  FAILED: {name}")
    return EXIT_INVARIANT if failed else EXIT_OK


def _cmd_eth_inspect(args: argparse.Namespace) -> int:
    code = codes.build_code(args.code)
    kinds = args.kinds if args.kinds else codes.DESIGNED_KINDS[args.code]
    try:
        errorset = codes.error_set(code, kinds)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    h0 = eth.encode_logical(code, eth.LogicalHamiltonian(1.0, -1.0, 0))
    try:
        reps, _ = eth.deduplicate_errors(code, errorset)
        h = eth.make_eth(code, h0, reps)
        controlled = eth.controlled_eth(code, errorset, 1.0)
    except ValueError as exc:
        raise ConfigError(f"no ETH for code {code.name} with kinds {kinds}: {exc}") from exc
    ordered = "".join(k for k in "XYZ" if k in kinds)
    print(f"code: {code.name}  (n={code.n}, {len(errorset)} errors, kinds={ordered})")
    print(f"  terms in ETH:        {1 + len(reps)}")
    print(f"  body-ness:           {eth.bodyness(h)}")
    print(f"  transparency residual: {eth.verify_et(h, h0, code, reps):.3e}")
    print(f"  controlled body-ness: {eth.bodyness(controlled)} (with target qubit)")
    if args.code == "steane7":
        cx = eth.css7_counterexample()
        print(f"  weight-3 logical X conjugated by in-support Z: sign {cx.conjugated_sign}")
        print(f"  naive two-term sum vanishes: {cx.naive_sum_is_zero}")
        print("  (no 3-body ETH exists for this code)")
    return EXIT_OK


def _cmd_perturbative(args: argparse.Namespace) -> int:
    try:
        params = experiments.PerturbativeParams(
            n=args.n, gamma=args.gamma, omega=args.omega, delta=args.delta, k=args.k
        )
    except ValueError as exc:
        raise ConfigError(f"--omega, --delta and --k: {exc}") from exc
    omega_k = experiments.effective_rate(params.omega, params.delta, params.k)
    p_prime, p = experiments.effective_error_prob(params)
    print(f"effective {params.k}-body rate omega_k: {omega_k:.6g}")
    print(f"bare error probability p = gamma/omega: {p:.6g}")
    print(f"encoded error probability p' = n (gamma/omega_k)^2: {p_prime:.6g}")
    verdict = "reduces" if experiments.breakeven(params) else "does not reduce"
    print(f"break-even: the effective interaction {verdict} decoherence effects")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser, sweep = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # the file's values become the flags' defaults, so a flag given
            # on the command line still beats the file
            sweep.set_defaults(**_load_config_file(args.config, sweep))
            args = parser.parse_args(argv)
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericsError, ExperimentError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
