"""One benchmark iteration in a fresh process; started by ``run.py``.

Set-up is everything before the workload's main call: interpreter start,
``import etlab`` and input generation. The parent notes ``time.monotonic()``
just before it starts this process and the child reports it just before the
main call; CLOCK_MONOTONIC is shared by all processes, so the difference is
the set-up time.

Modes:

* ``probe``: set up, report, and exit before the main call.
* ``timed``: run the main call untraced and check its output.
* ``traced``: the same with spans around the layer functions, written as
  JSON to ``--spans``.

The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Largest max-RSS of this process and of its waited-for pool workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--mode", choices=("probe", "timed", "traced"), required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    import etlab

    if not Path(etlab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"etlab imported from {etlab.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workers, args.workdir)
    main_start = time.monotonic()
    if args.mode == "probe":
        print(json.dumps({"main_start": main_start}))
        return 0

    tracer = None
    if args.mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    result = workload.run()
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    tally = workload.check(result)
    sample = {
        "main_start": main_start,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "notes": tally.notes[:20],
        "seed_used": workload.seed_used,
    }
    if tracer is not None:
        from tracing import job_seconds, layer_metrics

        args.spans.write_text(json.dumps(tracer.spans), encoding="utf-8")
        sample["layers"] = layer_metrics(tracer.spans, wall_s)
        sample["job_s"] = job_seconds(tracer.spans)
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
