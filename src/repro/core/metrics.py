"""Result containers of a simulation run, and the interval model behind its cycles.

:class:`SimulationResult`'s field table is the whole of a run's accounting:
every measured field declares how a run produces it.

* ``charged`` -- the simulation loops count it in locals and charge it, by
  field name, to the account of the tenant whose instruction incurred it;
* ``derived`` -- packaging computes it from the tenant's other fields and the
  :class:`~repro.common.config.CoreConfig` (:func:`tenant_fields`).

Results are plain data: two runs agree exactly when their results are ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict

from repro.common.config import CoreConfig


def _measured(produced: str, kind: type = int):
    """A field a run measures per tenant.

    ``kind`` is ``int`` or ``float``: a charged count and the aggregate's sum
    start at ``kind()``.
    """
    return field(metadata={"measured": kind, "produced": produced})


@dataclass
class SimulationResult:
    """Outcome of simulating one trace on one machine configuration."""

    workload: str
    btb_style: str
    btb_storage_kib: float
    fdip_enabled: bool
    instructions: int = _measured("charged")
    cycles: float = _measured("derived", float)
    base_cycles: float = _measured("derived", float)
    flush_cycles: float = _measured("derived", float)
    resteer_cycles: float = _measured("derived", float)
    icache_stall_cycles: float = _measured("charged", float)
    btb_extra_cycles: float = _measured("charged", float)
    btb_misses_taken: int = _measured("charged")
    decode_resteers: int = _measured("charged")
    execute_flushes: int = _measured("charged")
    direction_mispredictions: int = _measured("charged")
    target_mispredictions: int = _measured("charged")
    taken_branches: int = _measured("charged")
    branches: int = _measured("charged")
    l1i_accesses: int = _measured("charged")
    l1i_misses: int = _measured("charged")
    l1i_misses_covered: int = _measured("charged")
    #: Demand L2 traffic of the instruction stream: every L1-I demand miss
    #: probes the L2 (``l2_accesses``); ``l2_misses`` counts the ones the L2
    #: could not supply (filled from the LLC or memory).
    l2_accesses: int = _measured("derived")
    l2_misses: int = _measured("charged")

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


#: Every field a run measures per tenant -> ``int`` or ``float``.
MEASURED_FIELDS = {f.name: f.metadata["measured"] for f in fields(SimulationResult) if f.metadata}
#: How each measured field is produced: ``"charged"`` or ``"derived"``.
PRODUCED = {f.name: f.metadata["produced"] for f in fields(SimulationResult) if f.metadata}


def tenant_fields(account: Dict[str, float], core: CoreConfig) -> Dict[str, float]:
    """Every measured field of one tenant: its account plus the derived fields.

    Cycles follow interval analysis (Eyerman et al., "A Mechanistic
    Performance Model for Superscalar Out-of-Order Processors", TOCS 2009).
    Full cycle-accurate simulation of an out-of-order core is neither feasible
    in pure Python at trace scale nor necessary for the paper's experiments,
    which are dominated by front-end events.  A core with fetch width ``W``
    retires ``N`` instructions in ``N / W`` cycles in the absence of
    disruptions, and each disruptive event adds a penalty on top:

    * an **execute-stage flush** (direction misprediction, wrong target, or a
      BTB miss that decode could not fix) costs the pipeline refill depth;
    * a **decode-stage resteer** (taken branch that missed in the BTB but
      whose target was recovered at decode, Section VI-A) costs the shorter
      fetch-to-decode depth;
    * an **uncovered L1-I miss** stalls fetch for the residual latency FDIP
      could not hide (charged as ``icache_stall_cycles``);
    * a **PDede different-page lookup** adds one bubble cycle per taken
      branch that needed the second BTB access cycle (Section VI-E, charged
      as ``btb_extra_cycles``).

    The defaults (17-cycle flush, 5-cycle resteer) approximate the
    Sunny-Cove-like pipeline of Table II.  Every L1-I demand miss probes the
    L2, so ``l2_accesses`` is ``l1i_misses``.
    """
    base = account["instructions"] / core.fetch_width
    flush = float(core.execute_flush_penalty * account["execute_flushes"])
    resteer = float(core.decode_resteer_penalty * account["decode_resteers"])
    cycles = base + flush + resteer + account["icache_stall_cycles"] + account["btb_extra_cycles"]
    return dict(
        account,
        cycles=cycles,
        base_cycles=base,
        flush_cycles=flush,
        resteer_cycles=resteer,
        l2_accesses=account["l1i_misses"],
    )


@dataclass
class ScenarioResult:
    """Outcome of simulating a multi-tenant scenario.

    ``aggregate`` covers the whole interleaved stream; ``per_tenant`` breaks
    the same counters down by tenant so consolidation effects (who pays for
    the context switches?) are visible.  Each penalty is charged to the tenant
    whose instruction incurred it, and every measured field of the aggregate,
    derived cycles included, is the sum of the tenants' in scheduling order.
    Like :class:`SimulationResult` this is plain data: the experiment engine
    serializes every field, and two runs agree exactly when their results are
    ``==``.
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
