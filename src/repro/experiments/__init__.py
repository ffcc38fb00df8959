"""Experiment drivers: one module per table/figure of the paper's evaluation.

Every driver exposes a ``run(scale)`` function returning a plain dictionary of
rows/summaries (so results are easy to log, test and serialize) and a
``format_report(result)`` helper producing the text table printed by the CLI
and the benchmarks.

========================  ====================================================
module                    reproduces
========================  ====================================================
``table1_exynos``         Table I   -- Samsung Exynos BTB storage trend
``fig04_offsets``         Figure 4  -- target offset distribution (IPC-1-like)
``table3_storage``        Table III -- BTB-X storage requirements
``table4_capacity``       Table IV  -- branch capacity per storage budget
``fig09_mpki``            Figure 9  -- BTB MPKI per workload at 14.5 KB
``fig10_performance``     Figure 10 -- speedup with/without FDIP at 14.5 KB
``table5_energy``         Table V   -- BTB energy, plus the latency analysis
``fig11_sweep``           Figure 11 -- performance vs storage budget sweep
``fig12_cvp``             Figure 12 -- offset distribution on CVP-1-like traces
``fig13_x86``             Figure 13 -- x86 vs Arm64 offset distribution + sizing
``ablation_ways``         (extension) BTB-X way-sizing ablation
``scenario_study``        (extension) multi-tenant consolidation scenarios
``scenario_sweep``        (extension) MPKI vs quantum / tenant-count sweeps
``shared_footprint``      (extension) duplication vs shared-code overlap
``cache_interference``    (extension) per-tenant L1-I/L2 MPKI vs cache ASID mode
``tenant_scale``          (extension) MPKI and partition fallback vs tenant count
========================  ====================================================

The five scenario drivers (``scenario_study`` and the four sweeps after it)
are declarations over one core, :mod:`repro.experiments.sweep`, which
expands their grids and emits the same long-format result rows for all of
them.

The amount of simulated work is controlled by :class:`ExperimentScale`
(``QUICK_SCALE`` for benchmarks/CI, ``FULL_SCALE`` for paper-style runs; the
``REPRO_SCALE`` environment variable selects between them).

Simulation grids execute through :class:`ExperimentEngine`
(:mod:`repro.experiments.engine`): drivers expand their grids into hashable
jobs (:class:`SimJob` for a single-trace cell, :class:`ScenarioJob` for a
scenario cell), and the engine fans them out over a worker pool and memoizes
each result in an on-disk cache keyed by the job's config hash.
"""

from repro.experiments.config import (
    DEFAULT_BUDGET_KIB,
    FULL_SCALE,
    QUICK_SCALE,
    SMOKE_SCALE,
    ExperimentScale,
    current_scale,
)
from repro.experiments.engine import (
    ExperimentEngine,
    JobOutcome,
    ResultCache,
    ScenarioJob,
    SimJob,
    get_active_engine,
    set_active_engine,
    use_engine,
)

__all__ = [
    "ExperimentScale",
    "QUICK_SCALE",
    "FULL_SCALE",
    "SMOKE_SCALE",
    "DEFAULT_BUDGET_KIB",
    "current_scale",
    "ExperimentEngine",
    "SimJob",
    "ScenarioJob",
    "JobOutcome",
    "ResultCache",
    "get_active_engine",
    "set_active_engine",
    "use_engine",
]
