"""CSV and standalone SVG emission for sweep results.

The CSV schema is fixed: ``gamma_over_omega,scenario,probability,stderr,method``
with decimal (never scientific) notation at 10 significant digits, rows
sorted by (scenario, gamma), LF newlines, UTF-8.

Plots are written directly as self-contained SVG -- no plotting library in
the loop -- so emitting a figure adds zero runtime dependencies and the
output is byte-deterministic.
"""

from __future__ import annotations

import csv
import html
from decimal import Decimal
from pathlib import Path

from .experiments import SweepResult, SweepRow

__all__ = ["CSV_HEADER", "format_number", "emit_csv", "parse_csv", "emit_plot"]

CSV_HEADER = ("gamma_over_omega", "scenario", "probability", "stderr", "method")

_PALETTE = [
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#ff7f0e",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
]


def format_number(x: float) -> str:
    """Decimal-notation rendering with 10 significant digits."""
    return format(Decimal(f"{float(x):.9e}"), "f")


def emit_csv(result: SweepResult, path: str | Path) -> None:
    path = Path(path)
    rows = sorted(result.rows, key=lambda r: (r.scenario, r.gamma_over_omega))
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            for r in rows:
                writer.writerow(
                    [
                        format_number(r.gamma_over_omega),
                        r.scenario,
                        format_number(r.probability),
                        format_number(r.stderr),
                        r.method,
                    ]
                )
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def parse_csv(path: str | Path) -> SweepResult:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        rows = [
            SweepRow(
                gamma_over_omega=float(rec[0]),
                scenario=rec[1],
                probability=float(rec[2]),
                stderr=float(rec[3]),
                method=rec[4],
            )
            for rec in reader
        ]
    return SweepResult(rows=tuple(rows))


def _ticks(lo: float, hi: float, n: int) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (n - 1)
    return [lo + k * step for k in range(n)]


def emit_plot(result: SweepResult, path: str | Path) -> None:
    """One curve per scenario over the gamma grid, with error bars where
    stderr > 0 and a legend naming the scenarios.  Raises on empty input."""
    if not result.rows:
        raise ValueError("cannot plot an empty sweep result")
    width, height = 720, 480
    left, right, top, bottom = 70, 200, 24, 56
    plot_w = width - left - right
    plot_h = height - top - bottom
    x_max = max(r.gamma_over_omega for r in result.rows)
    if x_max <= 0:
        x_max = 1.0

    def sx(x: float) -> float:
        return left + (x / x_max) * plot_w

    def sy(y: float) -> float:
        return top + (1.0 - y) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" data-xmin="0" data-xmax="{x_max:g}" '
        'data-ymin="0" data-ymax="1">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    for x in _ticks(0.0, x_max, 6):
        px = sx(x)
        parts.append(
            f'<line x1="{px:.2f}" y1="{top + plot_h}" x2="{px:.2f}" '
            f'y2="{top + plot_h + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text class="tick" x="{px:.2f}" y="{top + plot_h + 20}" '
            f'font-size="12" text-anchor="middle">{x:g}</text>'
        )
    for y in _ticks(0.0, 1.0, 6):
        py = sy(y)
        parts.append(
            f'<line x1="{left - 5}" y1="{py:.2f}" x2="{left}" y2="{py:.2f}" stroke="#333"/>'
        )
        parts.append(
            f'<text class="tick" x="{left - 9}" y="{py + 4:.2f}" font-size="12" '
            f'text-anchor="end">{y:g}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2}" y="{height - 14}" font-size="14" '
        'text-anchor="middle">gamma / omega</text>'
    )
    parts.append(
        f'<text x="18" y="{top + plot_h / 2}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 18 {top + plot_h / 2})">success probability</text>'
    )

    for idx, label in enumerate(result.scenarios()):
        color = _PALETTE[idx % len(_PALETTE)]
        series = result.series(label)
        pts = " ".join(
            f"{sx(r.gamma_over_omega):.2f},{sy(r.probability):.2f}" for r in series
        )
        parts.append(
            f'<polyline class="curve" data-scenario="{html.escape(label, quote=True)}" points="{pts}" '
            f'fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
        for r in series:
            px = sx(r.gamma_over_omega)
            parts.append(
                f'<circle class="marker" cx="{px:.2f}" cy="{sy(r.probability):.2f}" '
                f'r="2.4" fill="{color}"/>'
            )
            if r.stderr > 0:
                y_lo = sy(max(0.0, r.probability - r.stderr))
                y_hi = sy(min(1.0, r.probability + r.stderr))
                parts.append(
                    f'<line class="errorbar" x1="{px:.2f}" y1="{y_lo:.2f}" '
                    f'x2="{px:.2f}" y2="{y_hi:.2f}" stroke="{color}" stroke-width="1.2"/>'
                )
        ly = top + 16 + idx * 20
        lx = left + plot_w + 16
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text class="legend-label" x="{lx + 30}" y="{ly}" font-size="13">'
            f"{html.escape(label, quote=True)}</text>"
        )
    parts.append("</svg>")
    try:
        Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write plot to {path}: {exc}") from exc
