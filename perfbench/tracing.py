"""Spans around etlab's public layer functions, installed from outside.

``install`` replaces each function in ``LAYERS`` with a wrapper that records
a span (name, parent span, start, end, size tag). The wrapper goes wherever
the function is looked up: ``experiments`` binds ``integrate_lindblad`` and
``mc_trajectories``, and ``codes`` and ``eth`` bind ``to_dense``, through
``from ... import``, so patching the defining module alone would miss those
calls. Spans stay in memory and are written out when the run ends.

Run traced workloads with one worker: pool workers would keep their spans in
their own memory. Private internals (``_Generator.rhs``,
``_mc_branched.branch``, ``_select_channel``) are not wrapped; spans inside
the program are a later change.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from time import perf_counter

LAYERS = {
    "qcore": ("to_dense", "pauli_decompose"),
    "codes": ("build_code", "error_spaces_orthogonal", "recover", "recover_adjoint"),
    "eth": ("make_eth", "controlled_eth", "deduplicate_errors", "verify_et", "bodyness"),
    "dynamics": ("integrate_lindblad", "mc_trajectories"),
    "experiments": ("run_scenario",),
    "output": ("emit_csv",),
}
FUNCTIONS = [f"{mod}.{fn}" for mod, names in LAYERS.items() for fn in names]

LINDBLAD_DIMS = (2, 4, 8, 64, 256)
MC_DIMS = (4, 64, 256)


def _size_tag(name: str, fn):
    """Per-call size for the propagators: dimension, and trajectories for MC."""
    if name not in ("dynamics.integrate_lindblad", "dynamics.mc_trajectories"):
        return None
    signature = inspect.signature(fn)

    def tag(args, kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        n_traj = bound["config"].n_traj if name.endswith("mc_trajectories") else 0
        return bound["h"].shape[0], n_traj

    return tag


class Tracer:
    """Nested spans of one thread; each span is [name, parent, start, end, tag]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        tag = _size_tag(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0,
                    tag(args, kwargs) if tag else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._stack.pop()

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "etlab" or n.startswith("etlab.")]
        for mod_name, names in LAYERS.items():
            module = importlib.import_module(f"etlab.{mod_name}")
            for fn_name in names:
                original = getattr(module, fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)


def layer_metrics(spans: list[list], main_s: float) -> dict[str, tuple[float, str]]:
    """Per-function calls and self time, plus the derived per-layer figures.

    ``main_s`` is the traced main call's wall time; the ``share.*`` metrics
    are fractions of it.
    """
    durations = [end - start for _, _, start, end, _ in spans]
    child_s = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[1] >= 0:
            child_s[span[1]] += durations[i]
    calls = dict.fromkeys(FUNCTIONS, 0)
    self_s = dict.fromkeys(FUNCTIONS, 0.0)
    for i, span in enumerate(spans):
        calls[span[0]] += 1
        self_s[span[0]] += durations[i] - child_s[i]

    metrics: dict[str, tuple[float, str]] = {}
    for fn in FUNCTIONS:
        metrics[f"{fn}.calls"] = (calls[fn], "count")
        metrics[f"{fn}.self_s"] = (self_s[fn], "s")

    for name, dims in (("dynamics.integrate_lindblad", LINDBLAD_DIMS),
                       ("dynamics.mc_trajectories", MC_DIMS)):
        for d in dims:
            times = [durations[i] for i, s in enumerate(spans) if s[0] == name and s[4][0] == d]
            metrics[f"{name}.d{d}.s_per_call"] = (
                sum(times) / len(times) if times else 0.0, "s")
    mc = [(durations[i], s[4][1]) for i, s in enumerate(spans)
          if s[0] == "dynamics.mc_trajectories"]
    mc_s = sum(t for t, _ in mc)
    metrics["dynamics.mc_trajectories.traj_per_s"] = (
        sum(n for _, n in mc) / mc_s if mc_s else 0.0, "1/s")
    jobs = [durations[i] for i, s in enumerate(spans) if s[0] == "experiments.run_scenario"]
    metrics["experiments.run_scenario.p50_s"] = (statistics.median(jobs) if jobs else 0.0, "s")
    metrics["experiments.run_scenario.max_s"] = (max(jobs, default=0.0), "s")

    def share(prefixes: tuple[str, ...]) -> float:
        """Time inside the outermost spans of the given functions."""
        covered = [False] * len(spans)
        total = 0.0
        for i, span in enumerate(spans):
            above = span[1] >= 0 and covered[span[1]]
            covered[i] = above or span[0].startswith(prefixes)
            if covered[i] and not above:
                total += durations[i]
        return total / main_s

    metrics["share.dynamics.integrate_lindblad"] = (
        share(("dynamics.integrate_lindblad",)), "1")
    metrics["share.dynamics.mc_trajectories"] = (share(("dynamics.mc_trajectories",)), "1")
    metrics["share.codes_eth"] = (share(("codes.", "eth.")), "1")
    return metrics


def job_seconds(spans: list[list]) -> float:
    """Summed wall time of the sweep jobs (``run_scenario`` spans)."""
    return sum(end - start for name, _, start, end, _ in spans
               if name == "experiments.run_scenario")
