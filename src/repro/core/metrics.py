"""Result container and derived metrics for one simulation run."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict

from repro.common.stats import Stats

#: Metadata of the fields a run measures per tenant.  The aggregate sums each
#: over the tenants in scheduling order, counts as integers.
_COUNT = {"measured": int}
_CYCLES = {"measured": float}


def _counter(bpu_stat: str | None = None, **kwargs: Any) -> Any:
    """A per-tenant event count kept by the tenant's account.

    ``bpu_stat`` names the BPU counter the count is drained from, as
    measured deltas at tenant boundaries; without one, the simulation loops
    count it and charge it to the account.
    """
    return field(metadata={**_COUNT, "counter": bpu_stat}, **kwargs)


@dataclass
class SimulationResult:
    """Outcome of simulating one trace on one machine configuration."""

    workload: str
    btb_style: str
    btb_storage_kib: float
    fdip_enabled: bool
    instructions: int = field(metadata=_COUNT)
    cycles: float = field(metadata=_CYCLES)
    base_cycles: float = field(metadata=_CYCLES)
    flush_cycles: float = field(metadata=_CYCLES)
    resteer_cycles: float = field(metadata=_CYCLES)
    icache_stall_cycles: float = field(metadata=_CYCLES)
    btb_extra_cycles: float = field(metadata=_CYCLES)
    btb_misses_taken: int = _counter("btb_miss_taken")
    decode_resteers: int = _counter()
    execute_flushes: int = _counter()
    direction_mispredictions: int = _counter("direction_mispredictions")
    target_mispredictions: int = _counter("target_mispredictions")
    taken_branches: int = _counter()
    branches: int = _counter()
    l1i_accesses: int = _counter()
    l1i_misses: int = _counter()
    l1i_misses_covered: int = _counter()
    #: Demand L2 traffic of the instruction stream: every L1-I demand miss
    #: probes the L2 (``l2_accesses``); ``l2_misses`` counts the ones the L2
    #: could not supply (filled from the LLC or memory).
    l2_accesses: int = _counter(default=0)
    l2_misses: int = _counter(default=0)
    stats: Stats = field(repr=False, default_factory=Stats)

    # -- derived metrics -----------------------------------------------------

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def btb_mpki(self) -> float:
        """BTB misses (taken branches only) per kilo-instruction (Figure 9)."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.btb_misses_taken / self.instructions

    @property
    def l1i_mpki(self) -> float:
        """L1-I demand misses per kilo-instruction."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.l1i_misses / self.instructions

    @property
    def l2_mpki(self) -> float:
        """Instruction-side L2 demand misses per kilo-instruction."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.l2_misses / self.instructions

    @property
    def flush_rate_pki(self) -> float:
        """Execute-stage flushes per kilo-instruction."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.execute_flushes / self.instructions

    @property
    def direction_mpki(self) -> float:
        """Direction mispredictions per kilo-instruction."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.direction_mispredictions / self.instructions

    def to_dict(self) -> Dict[str, float]:
        """Flatten the headline metrics for reporting."""
        return {
            "workload": self.workload,
            "btb_style": self.btb_style,
            "btb_storage_kib": self.btb_storage_kib,
            "fdip": self.fdip_enabled,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "ipc": self.ipc,
            "btb_mpki": self.btb_mpki,
            "l1i_mpki": self.l1i_mpki,
            "l2_mpki": self.l2_mpki,
            "flush_pki": self.flush_rate_pki,
            "direction_mpki": self.direction_mpki,
        }


#: Every field a run measures per tenant -> ``int`` (the aggregate casts its sum) or ``float``.
MEASURED_FIELDS = {f.name: f.metadata["measured"] for f in fields(SimulationResult) if f.metadata}
#: Every per-tenant event count -> the BPU counter it is drained from, or None.
COUNTERS = {f.name: f.metadata["counter"] for f in fields(SimulationResult) if "counter" in f.metadata}


@dataclass
class ScenarioResult:
    """Outcome of simulating a multi-tenant scenario.

    ``aggregate`` covers the whole interleaved stream; ``per_tenant`` breaks
    the same counters down by tenant so consolidation effects (who pays for
    the context switches?) are visible.  Tenant cycle counts attribute each
    penalty to the tenant whose instruction incurred it, so the per-tenant
    cycles sum exactly to the aggregate.
    """

    scenario: str
    asid_mode: str
    context_switches: int
    aggregate: SimulationResult
    per_tenant: Dict[str, SimulationResult] = field(default_factory=dict)
    #: Sets each tenant received under ``ASIDMode.PARTITIONED`` (tenant name ->
    #: set count, in scheduling order); ``None`` when capacity was shared.
    partition_sets: Dict[str, int] | None = None
    #: Per-tenant capacity of each partitioned *secondary* structure (PDede's
    #: Page-/Region-BTB, R-BTB's Page-BTB, BTB-X's companion): structure name
    #: -> tenant name -> sets/entries.  ``None`` when nothing secondary was
    #: partitioned (shared modes, or every structure fell back to sharing).
    secondary_partition_sets: Dict[str, Dict[str, int]] | None = None
    #: Duplication accounting per BTB structure: structure name ->
    #: ``{"distinct", "tag_distinct", "duplicated"}`` allocations (see
    #: :meth:`repro.btb.base.BTBBase.duplication_counts`).  The ``duplicated``
    #: gap is the storage ASID tagging spends on branches/pages that tenants
    #: share.
    duplication: Dict[str, Dict[str, int]] | None = None
    #: Context-switch policy of the cache hierarchy for this run: one of
    #: ``"flush"``/``"tagged"``/``"partitioned"``, or ``None`` for the legacy
    #: ASID-oblivious shared hierarchy.
    cache_mode: str | None = None
    #: Per-tenant set counts of every partitioned cache level (level name ->
    #: tenant name -> sets); ``None`` unless the hierarchy ran partitioned.
    cache_partition_sets: Dict[str, Dict[str, int]] | None = None
    #: The BTB's raw access counters over the whole run (reads/writes/searches
    #: per structure plus event counters), the input of the Table V energy
    #: model.
    btb_access_counts: Dict[str, float] | None = None
    #: Per-scenario Table V counterpart: the BTB energy model evaluated on
    #: this run's access counters -- ``{"design", "total_energy_uj",
    #: "lookup_latency_ns", "structures": {name: {...}}}``.  ``None`` when no
    #: energy model exists for the organization (ideal).
    energy: Dict[str, object] | None = None

    @property
    def tenant_names(self) -> list[str]:
        """Tenants in scheduling order."""
        return list(self.per_tenant)

    def to_dict(self) -> Dict[str, object]:
        """Flatten for reporting/serialization (headline metrics only).

        Every scenario-level field of this class must appear here: the JSON
        and CSV emitters (and the engine's cache payload) all feed off this
        dict, so an omitted field silently vanishes from every report.  A
        schema regression test (``test_to_dict_covers_every_field``) enforces
        the invariant.
        """
        return {
            "scenario": self.scenario,
            "asid_mode": self.asid_mode,
            "cache_mode": self.cache_mode,
            "context_switches": self.context_switches,
            "partition_sets": self.partition_sets,
            "secondary_partition_sets": self.secondary_partition_sets,
            "cache_partition_sets": self.cache_partition_sets,
            "duplication": self.duplication,
            "btb_access_counts": self.btb_access_counts,
            "energy": self.energy,
            "aggregate": self.aggregate.to_dict(),
            "per_tenant": {name: result.to_dict() for name, result in self.per_tenant.items()},
        }
