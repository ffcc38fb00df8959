"""Tenant-count scaling study on generated consolidation scenarios.

Where :mod:`~repro.experiments.scenario_sweep` resizes the four-tenant
presets, this driver asks the consolidation question at server scale: what
happens to a BTB organization as tenant count grows 4 -> 1024 on one
machine?  Scenarios come from a seeded :class:`~repro.scenarios.generate.
ScenarioRecipe` -- every tenant count is the same recipe expanded at a
different size, so the workload population (and hence the trace set in
memory) is identical along the whole axis and the curves isolate tenant
count.

Per (tenant count x BTB ASID mode x cache ASID mode) cell the driver
reports aggregate MPKI/IPC, nearest-rank percentiles of per-tenant MPKI
(over the tenants actually scheduled at the cell's scale), and a
*partition-fallback* summary: which partition-candidate structures accepted
a per-tenant slice and which fell back to ASID-tagged sharing because they
have fewer sets than tenants (a 512-set BTB cannot give 1024 tenants a set
each).  The fallback occupancy -- fraction of candidates that fell back --
is the headline: it quantifies how much of the machine's capacity isolation
survives at each consolidation level.

Every cell is an ordinary cacheable :class:`~repro.experiments.engine.
ScenarioJob` with the generated spec pinned in the job, so pooled workers
never need a scenario registry and the whole grid memoizes like any other
experiment; the :mod:`~repro.experiments.sweep` core expands and submits it.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.config import ASIDMode, BTBStyle, ISAStyle
from repro.core.metrics import ScenarioResult
from repro.experiments import sweep
from repro.experiments.config import DEFAULT_BUDGET_KIB, ExperimentScale, QUICK_SCALE
from repro.experiments.engine import ExperimentEngine, ScenarioJob
from repro.experiments.scenario_sweep import TENANT_AXIS
from repro.scenarios.generate import ScenarioRecipe, generate_scenario
from repro.scenarios.spec import ScenarioSpec

#: Tenant counts swept by default; 1024 is the headline consolidation point.
DEFAULT_TENANT_COUNTS: Tuple[int, ...] = (4, 16, 64, 256, 1024)

#: Cache hierarchy modes: legacy shared hierarchy and set-partitioned.
SWEEP_CACHE_MODES: Tuple[Optional[ASIDMode], ...] = (None, ASIDMode.PARTITIONED)

#: Default recipe seed; one seed = one population = one comparable axis.
DEFAULT_SEED = 2023

#: Default scheduling quantum.  Small enough that hundreds of tenants get a
#: turn within a smoke-scale instruction budget.
DEFAULT_QUANTUM = 256

#: Structures that take a per-tenant slice under ``ASIDMode.PARTITIONED``,
#: per organization (the denominators of the fallback occupancy).
BTB_PARTITION_CANDIDATES: Dict[BTBStyle, Tuple[str, ...]] = {
    BTBStyle.CONVENTIONAL: ("main",),
    BTBStyle.BTBX: ("main", "companion"),
    BTBStyle.REDUCED: ("main", "page"),
    BTBStyle.PDEDE: ("main", "page", "region"),
    BTBStyle.IDEAL: (),
}

#: Cache levels that take a per-tenant slice under a partitioned hierarchy.
CACHE_PARTITION_CANDIDATES: Tuple[str, ...] = ("l1i", "l1d", "l2", "llc")

#: Per-tenant MPKI percentiles reported per cell.
PERCENTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p90", 0.90),
    ("p99", 0.99),
)


def recipe_for(
    tenants: int,
    seed: int = DEFAULT_SEED,
    isa: ISAStyle = ISAStyle.ARM64,
    quantum_instructions: int = DEFAULT_QUANTUM,
    shared_fraction: float = 0.0,
) -> ScenarioRecipe:
    """The sweep's recipe at one tenant count.

    Only ``tenants`` (and the derived name) varies along the axis; the seed
    and every statistical knob stay fixed, so each size draws the identical
    workload population and the axis compares like with like.
    """
    return ScenarioRecipe(
        name=f"gen_tenants_{seed}_t{tenants}",
        tenants=tenants,
        seed=seed,
        isa=isa,
        quantum_instructions=quantum_instructions,
        shared_fraction=shared_fraction,
    )


def _nearest_rank(sorted_values: List[float], fraction: float) -> Optional[float]:
    if not sorted_values:
        return None
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


def _fallback_summary(
    style: BTBStyle,
    asid_mode: ASIDMode,
    cache_mode: Optional[ASIDMode],
    scenario: ScenarioResult,
) -> Dict[str, object]:
    """Which partition candidates took a slice, which fell back to sharing."""
    candidates: List[str] = []
    partitioned: List[str] = []
    if asid_mode is ASIDMode.PARTITIONED:
        candidates += list(BTB_PARTITION_CANDIDATES[style])
        if scenario.partition_sets is not None:
            partitioned.append("main")
        partitioned += sorted(scenario.secondary_partition_sets or {})
    if cache_mode is ASIDMode.PARTITIONED:
        candidates += [f"cache.{level}" for level in CACHE_PARTITION_CANDIDATES]
        partitioned += [f"cache.{level}" for level in sorted(scenario.cache_partition_sets or {})]
    fallback = [name for name in candidates if name not in partitioned]
    return {
        "candidates": candidates,
        "partitioned": partitioned,
        "fallback": fallback,
        "fallback_occupancy": (len(fallback) / len(candidates)) if candidates else 0.0,
    }


def cell_summary(job: ScenarioJob, scenario: ScenarioResult) -> Dict[str, object]:
    """Per-tenant MPKI percentiles plus the partition-fallback summary.

    Percentiles are nearest-rank over the tenants actually scheduled at the
    cell's scale (``scheduled_tenants``); ``None`` when none was.
    """
    per_tenant = sorted(result.btb_mpki for result in scenario.per_tenant.values())
    return {
        "scheduled_tenants": len(per_tenant),
        **{f"mpki_{label}": _nearest_rank(per_tenant, fraction) for label, fraction in PERCENTILES},
        "mpki_max": per_tenant[-1] if per_tenant else None,
        **_fallback_summary(job.style, job.asid_mode, job.cache_asid_mode, scenario),
    }


def _generated_variant(recipe: Callable[[int], ScenarioRecipe], count: int) -> ScenarioSpec:
    return generate_scenario(recipe(count))


def run(
    scale: ExperimentScale = QUICK_SCALE,
    budget_kib: float = DEFAULT_BUDGET_KIB,
    tenant_counts: Sequence[int] = DEFAULT_TENANT_COUNTS,
    asid_modes: Sequence[ASIDMode] = sweep.ASID_MODES,
    cache_modes: Sequence[Optional[ASIDMode]] = SWEEP_CACHE_MODES,
    style: BTBStyle = BTBStyle.BTBX,
    seed: int = DEFAULT_SEED,
    isa: ISAStyle = ISAStyle.ARM64,
    quantum_instructions: int = DEFAULT_QUANTUM,
    shared_fraction: float = 0.0,
    engine: ExperimentEngine | None = None,
) -> Dict[str, object]:
    """Sweep tenant count x ASID mode x cache mode on generated scenarios.

    Returns the :func:`~repro.experiments.sweep.run_sweep` rows; a curve
    (``config``) is ``<asid_mode>/cache-<mode>``, and every ``(aggregate)``
    row carries the :func:`cell_summary` of its cell.
    """
    recipe = partial(
        recipe_for,
        seed=seed,
        isa=isa,
        quantum_instructions=quantum_instructions,
        shared_fraction=shared_fraction,
    )
    return sweep.run_sweep(
        sweep.Sweep(
            experiment="tenant_scale",
            bases={f"gen_tenants_{seed}": recipe},
            axes=(sweep.Axis(TENANT_AXIS, tenant_counts, _generated_variant),),
            styles=(style,),
            asid_modes=asid_modes,
            cache_modes=cache_modes,
            budget_kib=budget_kib,
            series=("asid_mode", "cache_mode"),
            derive=cell_summary,
            metadata={
                "seed": seed,
                "isa": isa.value,
                "quantum_instructions": quantum_instructions,
                "shared_fraction": float(shared_fraction),
            },
        ),
        scale,
        engine,
    )


def format_report(result: Dict[str, object]) -> str:
    """Aggregate and p99 per-tenant MPKI plus the fallback occupancy per curve."""
    return sweep.format_report(
        result, "Tenant scaling", ("btb_mpki", "mpki_p99", "fallback_occupancy")
    )
