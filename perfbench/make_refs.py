"""Regenerate the reference CSVs that the benchmark's oracles compare against.

Run from the repository root (takes a few minutes on two cores)::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_refs.py

Writes, under ``perfbench/refs/``:

* ``fig1a-lindblad.csv``: the default ``etlab sweep fig1a`` output, i.e. the
  exact rows the ``fig1a-lindblad`` workload must reproduce.
* ``fig1b-lindblad.csv``: ``fig1b_sweep([0.05], method="lindblad")``, the
  rows the ``fig1b-lindblad`` workload must reproduce.
* ``fig1b-mc-lindblad.csv``: the Lindblad solution on the ``fig1b-mc`` grid
  (``--gamma-points 3``), against which every Monte-Carlo job is pulled.

Only regenerate these at a commit whose sweep output is trusted: the
oracles accept later output that stays within their tolerances of these
files.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from etlab import cli, experiments, output

REFS = Path(__file__).resolve().parent / "refs"


def _cli_sweep(args: list[str], produced: str, target: str) -> None:
    with tempfile.TemporaryDirectory(dir=REFS) as tmp:
        if cli.main(["sweep", *args, "--workers", "2", "--out", tmp]) != 0:
            raise SystemExit(f"sweep {args} failed")
        shutil.copyfile(Path(tmp) / produced, REFS / target)


def main() -> None:
    REFS.mkdir(exist_ok=True)
    _cli_sweep(["fig1a"], "fig1a-lindblad.csv", "fig1a-lindblad.csv")
    output.emit_csv(
        experiments.fig1b_sweep([0.05], method="lindblad", max_workers=2),
        REFS / "fig1b-lindblad.csv",
    )
    _cli_sweep(
        ["fig1b", "--method", "lindblad", "--gamma-points", "3"],
        "fig1b-lindblad.csv",
        "fig1b-mc-lindblad.csv",
    )


if __name__ == "__main__":
    main()
