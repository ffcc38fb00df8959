"""One sweep core: axis declarations expanded into long-format result rows.

Figure 11 reads a BTB organization's behaviour off one axis, the storage
budget.  The consolidation drivers (:mod:`scenario_study`,
:mod:`scenario_sweep`, :mod:`shared_footprint`, :mod:`cache_interference`,
:mod:`tenant_scale`) do the same along other axes.  Each of them only
*declares* its :class:`Sweep`:

* the base scenarios (presets, or a generated-scenario recipe);
* named :class:`Axis` objects, each a spec transform over a value list;
* the fixed knobs: BTB styles, BTB ASID modes, cache ASID modes, budget;
* optionally a cell-level ``derive`` function adding summary columns.

:func:`run_sweep` does the rest once for every sweep.  It expands the
(base x axis value x style x ASID mode x cache mode) grid, dropping repeated
values, and submits it in one ``engine.run_jobs`` pass.  It then emits
long-format rows: one ``(aggregate)`` row per cell plus one row per
scheduled tenant.  The axis name and value, the style, the modes and the
preset are columns next to the metric fields.  ``--json`` is the run
metadata plus ``rows``; ``--csv`` is the same rows (:func:`write_csv`).
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.config import ASIDMode, BTBStyle
from repro.core.metrics import ScenarioResult, SimulationResult
from repro.experiments.config import DEFAULT_BUDGET_KIB, ExperimentScale
from repro.experiments.engine import ExperimentEngine, ScenarioJob, get_active_engine
from repro.experiments.runner import style_label
from repro.scenarios.presets import get_scenario, scenario_names
from repro.scenarios.spec import ScenarioSpec

#: ``tenant`` value of the per-cell row; every other row is one tenant's.
AGGREGATE = "(aggregate)"

#: Metric columns of every row (aggregate and per-tenant).
METRICS: Tuple[str, ...] = ("btb_mpki", "l1i_mpki", "l2_mpki", "ipc")

#: All three context-switch policies (flush, tagged, partitioned), in the
#: order every driver's default lists them.
ASID_MODES: Tuple[ASIDMode, ...] = tuple(ASIDMode)


@dataclass(frozen=True)
class Axis:
    """A named sweep axis: cell ``value`` of base ``base`` runs ``variant(base, value)``.

    ``values`` is the value list, or a function of the base returning it
    (the tenant-count axis defaults to ``1..len(tenants)`` per preset).
    """

    name: str
    values: Sequence[object] | Callable[[object], Sequence[object]]
    variant: Callable[[object, object], ScenarioSpec]


@dataclass(frozen=True)
class Sweep:
    """Declaration of one sweep (see the module docstring)."""

    experiment: str
    #: ``preset`` column value -> base handed to every axis' ``variant``.
    bases: Mapping[str, object]
    axes: Sequence[Axis]
    styles: Sequence[BTBStyle]
    asid_modes: Sequence[ASIDMode]
    #: ``None`` is the legacy ASID-oblivious shared hierarchy.
    cache_modes: Sequence[Optional[ASIDMode]] = (None,)
    budget_kib: float = DEFAULT_BUDGET_KIB
    #: Columns whose labels, joined by ``/``, name a row's curve (``config``).
    series: Tuple[str, ...] = ("style", "asid_mode")
    #: Extra columns of the ``(aggregate)`` row, from the cell's job and result.
    derive: Callable[[ScenarioJob, ScenarioResult], Dict[str, object]] | None = None
    #: Extra run metadata written next to the rows.
    metadata: Mapping[str, object] = field(default_factory=dict)


def preset_bases(names: Sequence[str] | None = None) -> Dict[str, ScenarioSpec]:
    """Registered presets by name (``None``: every preset), duplicates dropped."""
    return {name: get_scenario(name) for name in (scenario_names() if names is None else names)}


def _cache_mode_label(mode: Optional[ASIDMode]) -> str:
    return "shared" if mode is None else mode.value


def _metrics(result: SimulationResult) -> Dict[str, float]:
    return {name: getattr(result, name) for name in METRICS}


def run_sweep(
    sweep: Sweep, scale: ExperimentScale, engine: ExperimentEngine | None = None
) -> Dict[str, object]:
    """Run ``sweep`` in one engine pass; returns its metadata plus ``rows``."""
    engine = engine or get_active_engine()
    # Repeated knob or axis values would add duplicate points to one curve.
    styles = list(dict.fromkeys(sweep.styles))
    asid_modes = list(dict.fromkeys(sweep.asid_modes))
    cache_modes = list(dict.fromkeys(sweep.cache_modes))

    cells: List[Dict[str, object]] = []
    jobs: List[ScenarioJob] = []
    for preset, base in sweep.bases.items():
        for axis in sweep.axes:
            values = axis.values(base) if callable(axis.values) else axis.values
            for value in dict.fromkeys(values):
                spec = axis.variant(base, value)
                for style, asid_mode, cache_mode in itertools.product(
                    styles, asid_modes, cache_modes
                ):
                    labels = {
                        "style": style_label(style),
                        "asid_mode": asid_mode.value,
                        "cache_mode": _cache_mode_label(cache_mode),
                    }
                    series = {**labels, "cache_mode": f"cache-{labels['cache_mode']}"}
                    cells.append(
                        {
                            "preset": preset,
                            "axis": axis.name,
                            "axis_value": value,
                            **labels,
                            "config": "/".join(series[column] for column in sweep.series),
                        }
                    )
                    jobs.append(
                        ScenarioJob(
                            scenario=spec.name,
                            instructions=scale.instructions,
                            warmup_instructions=scale.warmup_instructions,
                            style=style,
                            asid_mode=asid_mode,
                            fdip_enabled=True,
                            budget_kib=sweep.budget_kib,
                            cache_asid_mode=cache_mode,
                            spec=spec,
                        )
                    )

    rows: List[Dict[str, object]] = []
    for cell, job, outcome in zip(cells, jobs, engine.run_jobs(jobs)):
        scenario = outcome.scenario
        rows.append(
            {
                **cell,
                "tenant": AGGREGATE,
                **_metrics(scenario.aggregate),
                "context_switches": scenario.context_switches,
                "partition_sets": scenario.partition_sets,
                "secondary_partition_sets": scenario.secondary_partition_sets,
                "cache_partition_sets": scenario.cache_partition_sets,
                **(sweep.derive(job, scenario) if sweep.derive is not None else {}),
            }
        )
        rows.extend(
            {**cell, "tenant": tenant, **_metrics(result)}
            for tenant, result in scenario.per_tenant.items()
        )
    return {
        "experiment": sweep.experiment,
        "scale": scale.name,
        "budget_kib": sweep.budget_kib,
        "instructions": scale.instructions,
        "presets": list(sweep.bases),
        "styles": [style_label(style) for style in styles],
        "asid_modes": [mode.value for mode in asid_modes],
        "cache_modes": [_cache_mode_label(mode) for mode in cache_modes],
        **sweep.metadata,
        "rows": rows,
    }


def aggregate_curves(
    rows: Sequence[Mapping[str, object]],
) -> Dict[Tuple[str, str], Dict[str, List[Mapping[str, object]]]]:
    """``(aggregate)`` rows grouped by ``(axis, preset)`` then ``config``.

    Groups and curves keep the order of their first row; a curve's rows keep
    row order, which is axis order.
    """
    sections: Dict[Tuple[str, str], Dict[str, List[Mapping[str, object]]]] = {}
    for row in rows:
        if row["tenant"] == AGGREGATE:
            section = sections.setdefault((row["axis"], row["preset"]), {})
            section.setdefault(row["config"], []).append(row)
    return sections


# -- output -------------------------------------------------------------------


def write_csv(result: Mapping[str, object], path: str) -> None:
    """Write the result's rows to ``path`` as CSV.

    The header is every column in order of first appearance; a row lacking a
    column (a tenant row has no cell-level fields) leaves it empty, and
    map/list values are written as compact JSON.
    """
    rows = result["rows"]
    fields = list(dict.fromkeys(column for row in rows for column in row))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {
                    column: json.dumps(value, separators=(",", ":"))
                    if isinstance(value, (dict, list))
                    else value
                    for column, value in row.items()
                }
            )


def _format_value(value: object) -> str:
    if value is None:
        return "     n/a"
    if isinstance(value, int):
        return f"{value:8d}"
    return f"{value:8.2f}"


def format_report(result: Mapping[str, object], title: str, metrics: Sequence[str]) -> str:
    """Text rendering: per (axis, preset), one line per curve and metric.

    A metric no point of a curve carries (e.g. a Page-BTB counter of an
    organization without one) is left out of that curve.
    """
    lines = [
        f"{title} at {result['budget_kib']} KB, "
        f"{result['instructions']} instructions per cell",
        "  "
        + "; ".join(
            f"{key}: {', '.join(map(str, value)) if isinstance(value, list) else value}"
            for key, value in result.items()
            if key not in ("experiment", "scale", "budget_kib", "instructions", "rows")
        ),
    ]
    for (axis, preset), curves in aggregate_curves(result["rows"]).items():
        values = [row["axis_value"] for row in next(iter(curves.values()))]
        lines.append("")
        lines.append(f"  {preset} vs {axis}: {', '.join(f'{value:g}' for value in values)}")
        for config, points in curves.items():
            for metric in metrics:
                series = [point.get(metric) for point in points]
                if all(value is None for value in series):
                    continue
                rendered = " ".join(_format_value(value) for value in series)
                lines.append(f"    {config:<30} {metric:<18} {rendered}")
    return "\n".join(lines)
