"""The surface of etlab that the benchmark in ``perfbench/`` uses.

The benchmark runs each commit's own source, so a change that deletes or
renames a function, keyword or CLI flag it relies on would only show up as
a failed benchmark run.  These tests read ``perfbench/`` and never edit it:
every name its tracer wraps and every etlab attribute, keyword and CLI
argv its workloads use must still exist and parse.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from etlab import cli, dynamics

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(stem: str):
    """perfbench/<stem>.py as a module, registered so dataclasses resolve."""
    name = f"_perfbench_{stem}"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{stem}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def _etlab_bindings(tree: ast.Module) -> tuple[dict[str, str], list[tuple[str, str]]]:
    """Names bound to etlab modules by ``from etlab import m`` (name -> module
    path), and (module path, name) for each ``from etlab.m import name``."""
    modules, names = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("etlab"):
            for alias in node.names:
                if node.module == "etlab":
                    modules[alias.asname or alias.name] = f"etlab.{alias.name}"
                else:
                    names.append((node.module, alias.name))
    return modules, names


def test_traced_layers_exist():
    tracing = _load("tracing")
    missing = [
        f"etlab.{mod}.{fn}"
        for mod, fns in tracing.LAYERS.items()
        for fn in fns
        if not hasattr(importlib.import_module(f"etlab.{mod}"), fn)
    ]
    assert not missing


def test_tracer_binds_propagator_arguments():
    # the tracer tags each propagator span by binding its arguments by name,
    # H as ``h`` and Monte Carlo's config as ``config``: a renamed parameter
    # would otherwise show only as a failed traced benchmark run
    tracing = _load("tracing")
    tracer = tracing.Tracer()
    x = [dynamics.NoiseChannel.from_matrix(np.array([[0, 1], [1, 0]]), "X")]
    h, psi0 = np.diag([1.0, -1.0]), np.array([1.0, 0.0])
    lindblad = tracer.wrap("dynamics.integrate_lindblad", dynamics.integrate_lindblad)
    mc = tracer.wrap("dynamics.mc_trajectories", dynamics.mc_trajectories)
    lindblad(np.outer(psi0, psi0), h, x, [0.5], dynamics.IntegrationConfig(t_final=1.0))
    mc(psi0, h, x, [0.5], 1.0, [np.eye(2)], dynamics.TrajectoryConfig(n_traj=7, seed=0, dt=0.1))
    assert [(span[0], span[4]) for span in tracer.spans] == [
        ("dynamics.integrate_lindblad", (2, 0)),
        ("dynamics.mc_trajectories", (2, 7)),
    ]


def test_workload_attributes_and_keywords_exist():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    modules, names = _etlab_bindings(tree)
    assert modules, "workloads.py no longer imports etlab modules"
    missing = [f"{mod}.{name}" for mod, name in names
               if not hasattr(importlib.import_module(mod), name)]
    used = 0
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            continue
        used += 1
        module = importlib.import_module(modules[node.value.id])
        if not hasattr(module, node.attr):
            missing.append(f"{modules[node.value.id]}.{node.attr}")
    assert used and not missing
    # every keyword passed to an etlab callable, such as max_workers
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in modules):
            continue
        fn = getattr(importlib.import_module(modules[node.func.value.id]), node.func.attr)
        params = inspect.signature(fn).parameters
        takes_any = any(p.kind is p.VAR_KEYWORD for p in params.values())
        for kw in node.keywords:
            assert kw.arg is None or kw.arg in params or takes_any, f"{node.func.attr}({kw.arg}=)"


def test_cli_workload_argv_parses(tmp_path):
    workloads = _load("workloads")
    parser, _ = cli._build_parser()
    sweeps = [w for w in workloads.WORKLOADS.values() if issubclass(w, workloads._CliSweep)]
    assert sweeps
    for workload in sweeps:
        argv = workload(seed=1, workers=2, workdir=tmp_path).argv
        args = parser.parse_args(argv)
        assert args.workers == 2, argv


def test_parser_rejects_unknown_flags():
    # the argv test above is only as strong as the parser's refusal of a
    # flag it does not know
    parser, _ = cli._build_parser()
    with pytest.raises(cli.ConfigError, match="--no-such-flag"):
        parser.parse_args(["sweep", "fig1a", "--workers", "2", "--no-such-flag"])
