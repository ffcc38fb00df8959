"""Ablation (extension beyond the paper): BTB-X way-sizing sensitivity.

Key Insight 2 of the paper is that a *single* offset width cannot be
storage-optimal because offsets are unevenly distributed.  This ablation
quantifies that claim with three BTB-X variants at the same storage budget:

* ``paper``      -- the paper's skewed widths (0, 4, 5, 7, 9, 11, 19, 25);
* ``uniform25``  -- eight identical 25-bit ways (single-size offsets);
* ``calibrated`` -- widths sized from the synthetic suite's own offset CDF
  using the paper's 12.5 %-per-way methodology.

Because a uniform-25-bit set costs more bits, the uniform variant is given
fewer sets for the same budget -- exactly the trade-off the paper argues
against.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.aggregate import arithmetic_mean
from repro.analysis.offset_analysis import combined_distribution
from repro.common.config import BTBStyle
from repro.btb.btbx import BTBX_WAY_OFFSET_BITS_ARM64
from repro.btb.storage import BTBStorageModel
from repro.experiments.config import DEFAULT_BUDGET_KIB, ExperimentScale, QUICK_SCALE
from repro.experiments.engine import ExperimentEngine, SimJob, get_active_engine
from repro.experiments.runner import evaluation_traces


def run(
    scale: ExperimentScale = QUICK_SCALE,
    budget_kib: float = DEFAULT_BUDGET_KIB,
    engine: ExperimentEngine | None = None,
) -> Dict[str, object]:
    """Compare way-sizing strategies at an equal storage budget."""
    engine = engine or get_active_engine()
    traces = evaluation_traces(scale, suites=("ipc1_server",))
    suite_cdf = combined_distribution(traces, name="server_suite")
    variants: Dict[str, List[int]] = {
        "paper": list(BTBX_WAY_OFFSET_BITS_ARM64),
        "uniform25": [25] * 8,
        "calibrated": suite_cdf.way_sizing(8),
    }
    # All three variants go out as one job list so they share the pool.
    jobs: List[SimJob] = []
    sized: Dict[str, tuple[List[int], int]] = {}
    for label, widths in variants.items():
        widths = sorted(widths)
        entries, _ = BTBStorageModel(way_offset_bits=widths).btbx_capacity_for_budget(budget_kib)
        sized[label] = (widths, entries)
        jobs.extend(
            SimJob(
                workload=trace.name,
                instructions=scale.instructions,
                warmup_instructions=scale.warmup_instructions,
                style=BTBStyle.BTBX,
                fdip_enabled=True,
                budget_kib=budget_kib,
                way_offset_bits=tuple(widths),
            )
            for trace in traces
        )
    outcomes = iter(engine.run_jobs(jobs, traces={t.name: t for t in traces}))
    rows: Dict[str, Dict[str, float]] = {}
    for label, (widths, entries) in sized.items():
        mpkis = [next(outcomes).result.btb_mpki for _ in traces]
        rows[label] = {
            "way_offset_bits": widths,
            "entries": entries,
            "avg_btb_mpki": arithmetic_mean(mpkis),
        }
    return {
        "experiment": "ablation_ways",
        "scale": scale.name,
        "budget_kib": budget_kib,
        "variants": rows,
    }


def format_report(result: Dict[str, object]) -> str:
    """Text rendering of the way-sizing ablation."""
    lines = [f"Ablation: BTB-X way sizing at {result['budget_kib']} KB", ""]
    for label, row in result["variants"].items():
        lines.append(
            f"  {label:<11} ways={row['way_offset_bits']} entries={row['entries']} "
            f"avg server MPKI={row['avg_btb_mpki']:.2f}"
        )
    return "\n".join(lines)
