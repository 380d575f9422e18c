"""Byte-stable result emission: CSV tables, SVG line charts, run metadata.

Charts are written by a small hand-rolled SVG writer rather than a plotting
library so that re-running with the same records produces identical bytes.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict
from typing import Sequence

from . import __version__
from .demand import RNG_NAME
from .experiments import ExperimentConfig, MetricsRecord

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
# The size of every chart, in pixels.
CHART_WIDTH = 640
CHART_HEIGHT = 420


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return repr(float(x))


def write_records_csv(records: Sequence[MetricsRecord], path: str) -> None:
    """One aggregate row (instanceId -1) then per-instance rows per record."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["kind", "sweepValue", "class", "metric", "value", "stderr", "seed", "instanceId"]
        )
        for rec in records:
            writer.writerow(
                [rec.kind, _fmt(rec.sweep_value), rec.policy_class, rec.metric,
                 _fmt(rec.value), _fmt(rec.stderr), rec.seed, -1]
            )
            for idx, v in enumerate(rec.instance_values):
                writer.writerow(
                    [rec.kind, _fmt(rec.sweep_value), rec.policy_class, rec.metric,
                     _fmt(v), "", rec.seed, idx]
                )


def _svg_text(x: float, y: float, text: str, anchor: str = "middle", size: int = 11) -> str:
    return (
        f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" '
        f'font-family="sans-serif" text-anchor="{anchor}">{text}</text>'
    )


def render_line_chart(series: dict[str, list[tuple[float, float]]], title: str) -> str:
    """Minimal deterministic SVG line chart: one polyline per series."""
    width, height, margin = CHART_WIDTH, CHART_HEIGHT, 60
    xs = [pt[0] for pts in series.values() for pt in pts]
    ys = [pt[1] for pts in series.values() for pt in pts]
    if not xs:
        raise ValueError("no data points to chart")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        _svg_text(width / 2, margin / 2, title, size=14),
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(_svg_text(sx(xv), height - margin + 18, f"{xv:.6g}"))
        parts.append(_svg_text(margin - 8, sy(yv) + 4, f"{yv:.6g}", anchor="end"))
    for k, (name, pts) in enumerate(sorted(series.items())):
        color = PALETTE[k % len(PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in sorted(pts))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'
        )
        for x, y in pts:
            parts.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" fill="{color}"/>'
            )
        parts.append(
            _svg_text(width - margin + 4, margin + 16 * k + 10, name, anchor="start")
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_metadata(out_dir: str, payload: dict) -> str:
    """Write ``metadata.json`` (RNG name, version and ``payload``) into
    ``out_dir``, creating it if needed; return its path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "metadata.json")
    with open(path, "w") as fh:
        json.dump({"rng": RNG_NAME, "version": __version__, **payload}, fh,
                  indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return path


def emit_results(
    records: Sequence[MetricsRecord],
    out_dir: str,
    config: ExperimentConfig | None = None,
) -> list[str]:
    """Write results.csv, one SVG per metric, and metadata.json; return paths."""
    if not records:
        raise ValueError("no records to emit")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    csv_path = os.path.join(out_dir, "results.csv")
    write_records_csv(records, csv_path)
    paths.append(csv_path)

    metrics = sorted({r.metric for r in records})
    for metric in metrics:
        series: dict[str, list[tuple[float, float]]] = {}
        for rec in records:
            if rec.metric != metric or math.isnan(rec.sweep_value):
                continue
            series.setdefault(rec.policy_class, []).append((rec.sweep_value, rec.value))
        if not series:
            continue
        chart_path = os.path.join(out_dir, f"chart-{metric}.svg")
        with open(chart_path, "w") as fh:
            fh.write(render_line_chart(series, metric))
        paths.append(chart_path)

    meta: dict = {"records": len(records)}
    if config is not None:
        meta["config"] = asdict(config)
        meta["seed"] = config.seed
    paths.append(write_metadata(out_dir, meta))
    return paths
