"""etlab benchmark: timed and traced runs of the four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload fig1a-lindblad --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Workloads, their reasons and their oracles are described in
``perfbench/workloads.py``.

Load shape: one benchmark process on a 2-core machine, closed loop. Every
iteration is a fresh process (``child.py``) started only after the previous
one ended; sweeps use ``WORKERS`` pool workers. ``OPENBLAS_NUM_THREADS`` and
``OMP_NUM_THREADS`` are pinned to 1 for every child, so there are never more
compute threads than cores: with default BLAS threads two sweep workers
oversubscribe the cores and the timing measures the scheduler.

``--trace 0`` first runs ``SETUP_PROBES`` set-up-only processes, then timed
iterations until the next one would end after ``--seconds`` (at least one),
and reports for each end-to-end metric the mean over the run's samples (the
median for ``peak_rss_mb``). Timings use the mean: the host's speed flips
between two levels in phases of seconds to tens of seconds, a median of a
run's samples snaps to one level or the other, while the mean follows the
share of slow time and narrows the spread between runs of the same code
(ten codes-eth runs on 2 vCPUs: quartile spread 0.10 of the median for the
mean against 0.13 for the median):

* ``wall_s`` (s): wall time of the main call.
* ``setup_s`` (s): process start until the main call begins (interpreter,
  ``import etlab``, input generation), over probes and iterations.
* ``cpu_s`` (s): user + system CPU of the main call, in the run process and
  its pool workers.
* ``peak_rss_mb`` (MB): the largest max-RSS among the run's processes.
* ``pass_frac`` (1): 1 - failed_frac, operations that passed their oracle
  over operations attempted; failed_frac itself is 0 on a correct run.

``--trace 1`` runs one untraced iteration with ``WORKERS`` workers (for
``wall_s``), then, side by side on the two cores, a traced serial iteration
and an untraced serial one, and reports the per-layer metrics of the traced
one (see ``tracing.py``) plus ``experiments.sweep.parallel_efficiency`` and
``trace.overhead_frac``.

Each run writes ``.bench_results/<workload>-seed<n>-trace<0|1>.json`` with the
samples, the metrics and the environment record (traced runs also write
their spans). The last stdout line is the JSON result; the exit code is 0
when every oracle passed, 1 when one failed, 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig1a-lindblad", "fig1b-mc", "fig1b-lindblad", "codes-eth")
WORKERS = 2
SETUP_PROBES = 3
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
IDLE_LOAD = 0.5
RUN_LIMIT_S = 175.0
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "pass_frac": "1"}


def environment() -> dict:
    """What later numbers must match to be comparable with these."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    load1 = os.getloadavg()[0]
    return {
        "nproc": os.cpu_count(),
        "thread_env": THREAD_ENV,
        "workers": WORKERS,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": commit,
        "loadavg_1m": load1,
        "idle": load1 <= IDLE_LOAD,
    }


class Run:
    """One benchmark run: starts child processes and collects their samples."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.started = time.monotonic()
        self.children = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)

    def start(self, mode: str, workers: int, spans: Path | None = None):
        # a directory per child: traced and serial children run side by side
        self.children += 1
        workdir = self.workdir / f"{mode}-{self.children}"
        workdir.mkdir()
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--workers", str(workers),
               "--workdir", str(workdir), "--mode", mode]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, env=self.env, cwd=ROOT, start_new_session=True)
        return proc, t_spawn

    def finish(self, started) -> dict:
        """Wait for a child; a crash or timeout becomes one failed operation."""
        proc, t_spawn = started
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        try:
            out, err = proc.communicate(timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            err = f"timed out after {RUN_LIMIT_S:.0f} s of run time\n{err}"
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # stray pool workers, if any
            except ProcessLookupError:
                pass
        elapsed = time.monotonic() - t_spawn
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"crashed": True, "attempted": 1, "failed": 1, "elapsed": elapsed,
                    "notes": [f"exit {proc.returncode}: {err.strip()[-2000:]}"]}
        sample = json.loads(lines[-1])
        sample["setup_s"] = sample["main_start"] - t_spawn
        sample["elapsed"] = elapsed
        return sample

    def spawn(self, mode: str, workers: int, spans: Path | None = None) -> dict:
        return self.finish(self.start(mode, workers, spans))


def _center(samples: list[dict], key: str, stat=statistics.fmean) -> float:
    values = [s[key] for s in samples if key in s]
    return stat(values) if values else 0.0


def timed_run(run: Run, seconds: float) -> tuple[dict, list[dict]]:
    deadline = run.started + seconds
    probes = [run.spawn("probe", WORKERS) for _ in range(SETUP_PROBES)]
    samples = []
    while True:
        sample = run.spawn("timed", WORKERS)
        samples.append(sample)
        if time.monotonic() + sample["elapsed"] > deadline:
            break
    good = [s for s in samples if not s.get("crashed")]
    attempted = sum(s.get("attempted", 0) for s in probes + samples)
    failed = sum(s.get("failed", 0) for s in probes + samples)
    metrics = {
        "wall_s": _center(good, "wall_s"),
        "setup_s": _center(probes + samples, "setup_s"),
        "cpu_s": _center(good, "cpu_s"),
        "peak_rss_mb": _center(good, "peak_rss_mb", statistics.median),
        "pass_frac": 1.0 - failed / attempted,
    }
    return {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, probes + samples


def traced_run(run: Run, spans: Path) -> tuple[dict, list[dict]]:
    parallel = run.spawn("timed", WORKERS)
    traced_proc = run.start("traced", 1, spans)
    serial_proc = run.start("timed", 1)
    traced = run.finish(traced_proc)
    serial = run.finish(serial_proc)
    samples = [parallel, traced, serial]
    if any(s.get("crashed") for s in samples):
        return {}, samples
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    metrics["experiments.sweep.parallel_efficiency"] = (
        traced["job_s"] / (WORKERS * parallel["wall_s"]), "1")
    metrics["trace.overhead_frac"] = (traced["wall_s"] / serial["wall_s"] - 1.0, "1")
    for s in samples:
        s.pop("layers", None)
    return metrics, samples


def run_workload(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    workdir = ROOT / ".bench_work" / f"{stem}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = Run(workload, seed, workdir)
        if trace:
            metrics, samples = traced_run(run, results / f"{workload}-seed{seed}-spans.json")
        else:
            metrics, samples = timed_run(run, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(s.get("attempted", 0) for s in samples)
    failed = sum(s.get("failed", 0) for s in samples)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    seed_used = next((s["seed_used"] for s in samples if "seed_used" in s), None)
    record = {"workload": workload, "seed": seed, "seed_used": seed_used, "trace": trace,
              "seconds": seconds, "environment": env, "failed_frac": failed / max(attempted, 1),
              "result": result, "samples": samples}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    crashed = sum(1 for s in samples if s.get("crashed"))
    print(f"{workload}: seed {seed}{' (unused)' if seed_used is False else ''}, "
          f"{len(samples)} processes ({crashed} crashed), {failed}/{attempted} operations failed")
    for note in [n for s in samples for n in s.get("notes", [])][:10]:
        print(f"  FAILED {note.strip().splitlines()[-1]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "etlab" / "__init__.py").is_file():
        print(f"error: no etlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment()
    print(f"environment: {json.dumps(env)}")
    if not env["idle"]:
        print(f"warning: 1-minute load average {env['loadavg_1m']:.2f} > {IDLE_LOAD}; "
              "the machine is not idle", file=sys.stderr)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), env)
               for name in names}
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
