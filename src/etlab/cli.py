"""Command-line front end.

Commands::

    etlab verify                          run every invariant suite
    etlab sweep fig1a [flags]             four-scenario precession sweep
    etlab sweep fig1b [flags]             five-scenario controller sweep
    etlab eth inspect --code <name>       body-ness / transparency report
    etlab perturbative --n ... --k ...    closed-form rate trade-off

Sweeps always write a CSV (fixed schema, byte-deterministic for a fixed
seed) and optionally a standalone SVG plot.  Flag values override the
optional INI config file (section ``[sweep]``).

Exit codes: 0 success, 1 config error, 2 numerical failure, 3 invariant
failure.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import checks, codes, eth, experiments, output
from .dynamics import NumericsError
from .experiments import DEFAULT_SEED, ExperimentError

__all__ = ["ConfigError", "RunConfig", "run_sweep", "main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICS = 2
EXIT_INVARIANT = 3


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    experiment: str
    method: str
    gamma_min: float = 1e-3
    gamma_max: float = 1e-1
    gamma_points: int = 21
    omega: float = 1.0
    n_traj: int = 2000
    seed: int = DEFAULT_SEED
    dt_override: float | None = None
    output_dir: Path = field(default_factory=lambda: Path("out"))
    emit_plot: bool = False
    apply_recovery: bool = True
    max_workers: int | None = None

    def gamma_grid(self) -> np.ndarray:
        _require_finite_positive("--gamma-min", self.gamma_min)
        _require_finite_positive("--gamma-max", self.gamma_max)
        if self.gamma_max < self.gamma_min:
            raise ConfigError("--gamma-max must be at least --gamma-min")
        if self.gamma_points < 1:
            raise ConfigError("gamma_points must be at least 1")
        return experiments.default_gamma_grid(
            points=self.gamma_points, lo=self.gamma_min, hi=self.gamma_max
        )


def _require_finite_positive(flag: str, value: float | None) -> None:
    """Reject NaN, infinities and nonpositive values; None means unset."""
    if value is not None and not (np.isfinite(value) and value > 0):
        raise ConfigError(f"{flag} must be finite and positive, got {value!r}")


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage as a config error (exit code 1)."""

    def error(self, message):  # noqa: A003 - argparse API
        raise ConfigError(message)


_CONFIG_KEYS = {
    "method": str,
    "traj": int,
    "seed": int,
    "out": Path,
    "plot": bool,
    "gamma_min": float,
    "gamma_max": float,
    "gamma_points": int,
    "omega": float,
    "dt": float,
    "workers": int,
}


def _load_config_file(path: str) -> dict:
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
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r} in {path}")
            kind = _CONFIG_KEYS[key]
            try:
                if kind is bool:
                    values[key] = parser.getboolean("sweep", key)
                else:
                    values[key] = kind(raw)
            except ValueError as exc:
                raise ConfigError(f"config key {key!r} has invalid value {raw!r}") from exc
    return values


def _build_parser() -> _Parser:
    parser = _Parser(prog="etlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("verify", help="run all invariant suites")

    sweep = sub.add_parser("sweep", help="run a scenario sweep over a gamma grid")
    sweep.add_argument("experiment", choices=("fig1a", "fig1b"))
    sweep.add_argument("--config", help="INI config file with a [sweep] section")
    sweep.add_argument("--method", choices=("lindblad", "mc"))
    sweep.add_argument("--traj", type=int, help="trajectories per grid point (mc)")
    sweep.add_argument("--seed", type=int, help="master seed (default 12345)")
    sweep.add_argument("--out", type=Path, help="output directory (default ./out)")
    sweep.add_argument("--plot", action="store_true", help="also emit an SVG plot")
    sweep.add_argument("--gamma-min", type=float, dest="gamma_min")
    sweep.add_argument("--gamma-max", type=float, dest="gamma_max")
    sweep.add_argument("--gamma-points", type=int, dest="gamma_points")
    sweep.add_argument("--omega", type=float, help="drive frequency (default 1.0)")
    sweep.add_argument(
        "--dt",
        type=float,
        help="RK4 step for lindblad, jump-placement step for mc; "
        "default: exact lindblad propagation",
    )
    sweep.add_argument("--workers", type=int, help="process pool size")
    sweep.add_argument(
        "--no-recovery",
        action="store_true",
        help="fig1a: score raw fidelity without the ideal recovery step",
    )

    eth_cmd = sub.add_parser("eth", help="inspect error-transparent Hamiltonians")
    eth_sub = eth_cmd.add_subparsers(dest="action", required=True)
    inspect = eth_sub.add_parser("inspect", help="body-ness and transparency report")
    inspect.add_argument("--code", required=True, choices=sorted(codes.CODE_BUILDERS))
    inspect.add_argument(
        "--kinds", default=None, help="error kinds, e.g. X or XYZ (default: code's design set)"
    )

    pert = sub.add_parser("perturbative", help="effective k-body interaction trade-off")
    pert.add_argument("--n", type=int, required=True, help="physical qubit count")
    pert.add_argument("--gamma", type=float, required=True, help="decoherence rate")
    pert.add_argument("--omega", type=float, required=True, help="2-body interaction rate")
    pert.add_argument("--delta", type=float, required=True, help="auxiliary level spacing")
    pert.add_argument("--k", type=int, required=True, help="target body-ness")
    return parser


# RunConfig field -> its flag's dest, which is also its config-file key
_SWEEP_KEYS = {
    "method": "method",
    "gamma_min": "gamma_min",
    "gamma_max": "gamma_max",
    "gamma_points": "gamma_points",
    "omega": "omega",
    "n_traj": "traj",
    "seed": "seed",
    "dt_override": "dt",
    "output_dir": "out",
    "max_workers": "workers",
}


def _sweep_config(args: argparse.Namespace) -> RunConfig:
    """A flag beats the config file; a field set by neither keeps its RunConfig
    default, except the experiment's method and one worker per CPU."""
    file_values = _load_config_file(args.config) if args.config else {}
    values = {
        "method": "lindblad" if args.experiment == "fig1a" else "mc",
        "max_workers": os.cpu_count(),
    }
    for name, key in _SWEEP_KEYS.items():
        if getattr(args, key) is not None:
            values[name] = getattr(args, key)
        elif key in file_values:
            values[name] = file_values[key]
    config = RunConfig(
        experiment=args.experiment,
        emit_plot=bool(args.plot or file_values.get("plot", False)),
        apply_recovery=not args.no_recovery,
        **values,
    )
    if config.method not in ("lindblad", "mc"):
        raise ConfigError(f"unknown method {config.method!r}")
    if config.n_traj < 1:
        raise ConfigError("traj must be at least 1")
    if config.seed < 0:
        raise ConfigError("seed must be nonnegative")
    _require_finite_positive("--omega", config.omega)
    _require_finite_positive("--dt", config.dt_override)
    if config.max_workers is not None and config.max_workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {config.max_workers}")
    return config


def run_sweep(config: RunConfig) -> tuple[Path, Path | None]:
    """Execute one sweep; returns (csv path, plot path or None)."""
    grid = config.gamma_grid() * config.omega
    runner = experiments.fig1a_sweep if config.experiment == "fig1a" else experiments.fig1b_sweep
    kwargs = dict(
        omega=config.omega,
        method=config.method,
        n_traj=config.n_traj,
        seed=config.seed,
        dt=config.dt_override,
        max_workers=config.max_workers,
    )
    if config.experiment == "fig1a":
        kwargs["apply_recovery"] = config.apply_recovery
    elif not config.apply_recovery:
        raise ConfigError("--no-recovery applies to fig1a only; fig1b has no recovery step")
    result = runner(grid, **kwargs)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    csv_path = config.output_dir / f"{config.experiment}-{config.method}.csv"
    output.emit_csv(result, csv_path)
    plot_path = None
    if config.emit_plot:
        plot_path = config.output_dir / f"{config.experiment}-{config.method}.svg"
        output.emit_plot(result, plot_path)
    return csv_path, plot_path


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _sweep_config(args)
    csv_path, plot_path = run_sweep(config)
    with open(csv_path, encoding="utf-8") as fh:
        n_rows = sum(1 for _ in fh) - 1
    print(f"{config.experiment} [{config.method}]: {n_rows} rows -> {csv_path}")
    if plot_path is not None:
        print(f"plot -> {plot_path}")
    return EXIT_OK


def _cmd_verify(_args: argparse.Namespace) -> int:
    def progress(outcome):
        status = "PASS" if outcome.passed else "FAIL"
        print(f"[{status}] {outcome.name}: {outcome.detail} ({outcome.seconds:.2f} s)", flush=True)

    outcomes = checks.run_all(progress=progress)
    failed = [o for o in outcomes if not o.passed]
    print()
    print(f"{len(outcomes) - len(failed)}/{len(outcomes)} invariant suites passed")
    if failed:
        for o in failed:
            print(f"  FAILED: {o.name}")
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_eth_inspect(args: argparse.Namespace) -> int:
    code = codes.build_code(args.code)
    kinds = args.kinds if args.kinds else codes.DESIGNED_KINDS[args.code]
    try:
        errorset = codes.error_set(code, kinds)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        report = eth.eth_report(code, eth.LogicalHamiltonian(1.0, -1.0, 0), errorset)
        controlled = eth.controlled_eth(code, errorset, 1.0)
    except ValueError as exc:
        raise ConfigError(f"no ETH for code {code.name} with kinds {kinds}: {exc}") from exc
    print(f"code: {code.name}  (n={code.n}, {len(errorset)} errors, kinds={''.join(errorset.kinds)})")
    print(f"  terms in ETH:        {report.term_count}")
    print(f"  body-ness:           {report.bodyness}")
    print(f"  transparency residual: {report.max_residual:.3e}")
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
        raise ConfigError(str(exc)) from exc
    omega_k = experiments.effective_rate(params.omega, params.delta, params.k)
    p_prime, p = experiments.effective_error_prob(params)
    print(f"effective {params.k}-body rate omega_k: {omega_k:.6g}")
    print(f"bare error probability p = gamma/omega: {p:.6g}")
    print(f"encoded error probability p' = n (gamma/omega_k)^2: {p_prime:.6g}")
    verdict = "reduces" if experiments.breakeven(params) else "does not reduce"
    print(f"break-even: the effective interaction {verdict} decoherence effects")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "eth":
            return _cmd_eth_inspect(args)
        if args.command == "perturbative":
            return _cmd_perturbative(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericsError, ExperimentError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
