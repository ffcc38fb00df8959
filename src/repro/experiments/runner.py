"""Shared machinery for the experiment drivers.

The drivers need the same building blocks:

* building the evaluation traces once (trace generation is seeded, so traces
  are identical across drivers using the same scale) through the bounded,
  process-safe :class:`~repro.traces.store.TraceStore`, and
* simulating (trace, style, budget, fdip) grid cells, which is delegated to
  the :class:`~repro.experiments.engine.ExperimentEngine` so grids fan out
  over worker processes and memoize into the on-disk result cache.

Both are provided here so each figure/table driver stays small and readable.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.common.config import BTBStyle
from repro.core.metrics import SimulationResult
from repro.experiments.config import ExperimentScale
from repro.experiments.engine import (
    ExperimentEngine,
    JobOutcome,
    clear_active_memo,
    get_active_engine,
    grid_jobs,
)
from repro.traces.store import default_store
from repro.traces.trace import Trace
from repro.workloads.suites import selected_workload_names

#: The three organizations compared throughout the evaluation.
EVALUATED_STYLES: tuple[BTBStyle, ...] = (
    BTBStyle.CONVENTIONAL,
    BTBStyle.PDEDE,
    BTBStyle.BTBX,
)


def style_label(style: BTBStyle) -> str:
    """Human label used in reports ("Conv-BTB", "PDede", "BTB-X")."""
    return {
        BTBStyle.CONVENTIONAL: "Conv-BTB",
        BTBStyle.PDEDE: "PDede",
        BTBStyle.BTBX: "BTB-X",
        BTBStyle.REDUCED: "R-BTB",
        BTBStyle.IDEAL: "Ideal",
    }[style]


def suite_limits(scale: ExperimentScale) -> Dict[str, int | None]:
    """Per-suite workload caps implied by ``scale``."""
    return {
        "ipc1_client": scale.client_workloads,
        "ipc1_server": scale.server_workloads,
        "cvp1_server": scale.cvp_workloads,
        "x86_server": scale.x86_workloads,
    }


def evaluation_traces(
    scale: ExperimentScale,
    suites: Sequence[str] = ("ipc1_client", "ipc1_server"),
) -> List[Trace]:
    """Build (and cache) the traces of the requested suites at ``scale``."""
    limits = suite_limits(scale)
    store = default_store()
    return [
        store.get(name, scale.instructions)
        for suite in suites
        for name in selected_workload_names(suite, limits.get(suite))
    ]


def clear_trace_cache() -> None:
    """Drop cached traces and the active engine's memo (bounds memory)."""
    default_store().clear()
    clear_active_memo()


def simulate_full_grid(
    traces: Sequence[Trace],
    styles: Sequence[BTBStyle],
    budgets_kib: Sequence[float],
    fdip_modes: Sequence[bool],
    scale: ExperimentScale,
    engine: ExperimentEngine | None = None,
) -> Dict[Tuple[float, bool], Dict[BTBStyle, Dict[str, JobOutcome]]]:
    """Run a whole (budget, fdip, style, trace) grid in one pooled pass.

    Returns ``outcomes[(budget, fdip)][style][workload]``.  Submitting the
    full grid at once (rather than per budget) is what lets a sweep saturate
    the worker pool.  ``traces`` must be canonical suite traces (as produced
    by :func:`evaluation_traces`): the engine caches by workload name.
    """
    engine = engine or get_active_engine()
    jobs = grid_jobs(
        traces,
        styles,
        budgets_kib,
        fdip_modes,
        instructions=scale.instructions,
        warmup_instructions=scale.warmup_instructions,
    )
    outcomes = engine.run_jobs(jobs, traces={trace.name: trace for trace in traces})
    nested: Dict[Tuple[float, bool], Dict[BTBStyle, Dict[str, JobOutcome]]] = {}
    cursor = iter(outcomes)
    for budget in budgets_kib:
        for fdip in fdip_modes:
            cell = nested.setdefault((budget, fdip), {})
            for style in styles:
                per_style = cell.setdefault(style, {})
                for trace in traces:
                    per_style[trace.name] = next(cursor)
    return nested


def simulate_grid(
    traces: Sequence[Trace],
    styles: Sequence[BTBStyle],
    budget_kib: float,
    fdip_enabled: bool,
    scale: ExperimentScale,
    engine: ExperimentEngine | None = None,
) -> Dict[BTBStyle, Dict[str, SimulationResult]]:
    """Simulate every (style, trace) pair; returns results[style][workload]."""
    nested = simulate_full_grid(
        traces, styles, (budget_kib,), (fdip_enabled,), scale, engine=engine
    )
    cell = nested[(budget_kib, fdip_enabled)]
    return {
        style: {name: outcome.result for name, outcome in cell[style].items()}
        for style in styles
    }


def is_server_workload(name: str) -> bool:
    """True for server-class workload names (used to split suite averages)."""
    return "server" in name or name in ("wordpress", "mediawiki", "drupal", "kafka", "finagle_http")
