"""Sweep plotting: turn the sweep CSVs into committed figures.

Every ``btbx-repro sweep ... --csv`` writes the same long-format rows (see
:mod:`repro.experiments.sweep`), so one reading serves every sweep.  Each
``(aggregate)`` row names its own x axis (``axis`` / ``axis_value``), its
facet (``preset``) and its series (``config``); this module renders one
line chart per (axis, preset, metric), one series per ``config``.  Per-tenant
rows are a ``--json`` analysis, not a headline figure.

The renderer is a small built-in one writing hand-rolled SVG.  It has no
dependencies and its output is *deterministic* (a pure function of the
rows), so figures can be committed and diffed like golden results, and the
output does not depend on what the host has installed.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.experiments.sweep import AGGREGATE, METRICS


class PlotSchemaError(ValueError):
    """The CSV is not a sweep's row output."""


#: Columns every sweep row carries that the charts are built from.
_ROW_COLUMNS = ("preset", "axis", "axis_value", "config", "tenant")


@dataclass
class LineChart:
    """One renderable chart: named series of (x, y) points."""

    title: str
    x_label: str
    y_label: str
    #: Series label -> ordered (x, y) points.
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)


def _rows_to_charts(rows: List[Dict[str, str]]) -> List[LineChart]:
    """Group ``(aggregate)`` rows into one chart per (axis, preset, metric).

    The title names the preset, prefixed by the axis when the CSV holds more
    than one axis (the quantum and tenant-count sweeps share a preset).
    """
    aggregates = [row for row in rows if row["tenant"] == AGGREGATE]
    several_axes = len({row["axis"] for row in aggregates}) > 1
    charts: Dict[Tuple[str, str, str], LineChart] = {}
    for row in aggregates:
        for metric in METRICS:
            value = row.get(metric, "")
            if value in ("", None):
                continue
            chart_key = (row["axis"], row["preset"], metric)
            chart = charts.get(chart_key)
            if chart is None:
                facet = f"{row['axis']} {row['preset']}" if several_axes else row["preset"]
                chart = charts[chart_key] = LineChart(
                    title=f"{facet}: {metric}",
                    x_label=row["axis"],
                    y_label=metric,
                )
            chart.series.setdefault(row["config"], []).append(
                (float(row["axis_value"]), float(value))
            )
    ordered = list(charts.values())
    for chart in ordered:
        for points in chart.series.values():
            points.sort(key=lambda point: point[0])
    return ordered


def _chart_slug(chart: LineChart) -> str:
    slug = chart.title.lower()
    for bad in (":", "/", " "):
        slug = slug.replace(bad, "_")
    while "__" in slug:
        slug = slug.replace("__", "_")
    return slug.strip("_")


# -- the built-in SVG renderer -------------------------------------------------

#: Categorical series colors (Okabe-Ito, colorblind-safe, stable order).
_COLORS = (
    "#0072B2",
    "#D55E00",
    "#009E73",
    "#CC79A7",
    "#E69F00",
    "#56B4E9",
    "#F0E442",
    "#000000",
)

_WIDTH, _HEIGHT = 720, 440
_MARGIN_LEFT, _MARGIN_RIGHT = 72, 200
_MARGIN_TOP, _MARGIN_BOTTOM = 48, 56


def _ticks(low: float, high: float, count: int = 5) -> List[float]:
    """Evenly spaced axis ticks (deterministic, no "nice number" rounding)."""
    if high == low:
        return [low]
    step = (high - low) / (count - 1)
    return [low + index * step for index in range(count)]


def _format_tick(value: float) -> str:
    if value == int(value) and abs(value) < 1e6:
        return str(int(value))
    return f"{value:.3g}"


def render_svg(chart: LineChart) -> str:
    """Render one chart as a standalone SVG document (deterministic)."""
    plot_width = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_height = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    all_points = [point for points in chart.series.values() for point in points]
    xs = [x for x, _ in all_points] or [0.0]
    ys = [y for _, y in all_points] or [0.0]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(min(ys), 0.0), max(ys)
    if x_high == x_low:
        x_high = x_low + 1.0
    if y_high == y_low:
        y_high = y_low + 1.0

    def sx(value: float) -> float:
        return _MARGIN_LEFT + (value - x_low) / (x_high - x_low) * plot_width

    def sy(value: float) -> float:
        return _MARGIN_TOP + plot_height - (value - y_low) / (y_high - y_low) * plot_height

    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="Helvetica, Arial, sans-serif">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_MARGIN_LEFT}" y="24" font-size="15" font-weight="bold">'
        f"{_escape(chart.title)}</text>",
    ]
    # Axes, gridlines, ticks.
    for tick in _ticks(y_low, y_high):
        y = sy(tick)
        parts.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{y:.2f}" x2="{_MARGIN_LEFT + plot_width}" '
            f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{y + 4:.2f}" font-size="11" '
            f'text-anchor="end">{_format_tick(tick)}</text>'
        )
    for tick in _ticks(x_low, x_high):
        x = sx(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_TOP + plot_height}" x2="{x:.2f}" '
            f'y2="{_MARGIN_TOP + plot_height + 5}" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_MARGIN_TOP + plot_height + 20}" font-size="11" '
            f'text-anchor="middle">{_format_tick(tick)}</text>'
        )
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" x2="{_MARGIN_LEFT}" '
        f'y2="{_MARGIN_TOP + plot_height}" stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP + plot_height}" '
        f'x2="{_MARGIN_LEFT + plot_width}" y2="{_MARGIN_TOP + plot_height}" '
        f'stroke="#333333" stroke-width="1"/>'
    )
    # Axis labels.
    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_width / 2:.2f}" y="{_HEIGHT - 12}" '
        f'font-size="12" text-anchor="middle">{_escape(chart.x_label)}</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_TOP + plot_height / 2:.2f}" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 18 '
        f'{_MARGIN_TOP + plot_height / 2:.2f})">{_escape(chart.y_label)}</text>'
    )
    # Series polylines + legend (insertion order = CSV order: deterministic).
    legend_y = _MARGIN_TOP + 6
    for position, (label, points) in enumerate(chart.series.items()):
        color = _COLORS[position % len(_COLORS)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for x, y in points:
            parts.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="{color}"/>'
            )
        legend_x = _MARGIN_LEFT + plot_width + 16
        parts.append(
            f'<line x1="{legend_x}" y1="{legend_y + 4}" x2="{legend_x + 22}" '
            f'y2="{legend_y + 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{legend_x + 28}" y="{legend_y + 8}" font-size="11">'
            f"{_escape(label)}</text>"
        )
        legend_y += 18
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


# -- entry point ---------------------------------------------------------------


def plot_csv(csv_path: str, out_dir: str | None = None) -> List[str]:
    """Render every chart a sweep CSV contains; returns the written paths.

    Figures are named ``<csv stem>_<chart slug>.svg`` and written next to
    the CSV unless ``out_dir`` is given.  The output is a pure function of
    the CSV rows, so regenerating a committed figure from an unchanged CSV is
    a no-op diff.
    """
    with open(csv_path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise PlotSchemaError(f"{csv_path} is empty (no CSV header)")
        missing = [column for column in _ROW_COLUMNS if column not in reader.fieldnames]
        if missing:
            raise PlotSchemaError(
                f"unrecognised sweep CSV: {csv_path} lacks the row columns {missing} "
                "every 'btbx-repro sweep ... --csv' output carries"
            )
        rows = list(reader)
    charts = _rows_to_charts(rows)

    directory = out_dir if out_dir is not None else (os.path.dirname(csv_path) or ".")
    os.makedirs(directory, exist_ok=True)
    stem = os.path.splitext(os.path.basename(csv_path))[0]

    written: List[str] = []
    for chart in charts:
        path = os.path.join(directory, f"{stem}_{_chart_slug(chart)}.svg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(render_svg(chart))
        written.append(path)
    return written
