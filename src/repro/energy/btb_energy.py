"""Per-design BTB energy and latency analysis (Table V / Section VI-E).

:class:`BTBEnergyModel` builds the SRAM arrays of each organization at a given
storage budget, reports per-access read/write energies and access latencies,
and combines them with access counts (either supplied directly or taken from a
simulated BTB's counters) into total energy, exactly as Table V does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.common.config import ISAStyle
from repro.btb.base import BTBBase
from repro.btb.btbx import BTBX
from repro.btb.conventional import FULL_TARGET_ENTRY_BITS, ConventionalBTB
from repro.btb.pdede import PAGE_ENTRY_BITS, REGION_ENTRY_BITS, PDedeBTB
from repro.btb.rbtb import ReducedBTB
from repro.btb.storage import PDEDE_REGION_ENTRIES, BTBStorageModel
from repro.energy.sram import SRAMArray


@dataclass(frozen=True)
class StructureEnergy:
    """Per-access numbers and totals for one SRAM structure of a design."""

    structure: str
    read_energy_pj: float
    write_energy_pj: float
    search_energy_pj: float
    access_latency_ns: float
    reads: float = 0.0
    writes: float = 0.0
    searches: float = 0.0

    @property
    def total_energy_uj(self) -> float:
        """Total dynamic energy in micro-joules."""
        total_pj = (
            self.reads * self.read_energy_pj
            + self.writes * self.write_energy_pj
            + self.searches * self.search_energy_pj
        )
        return total_pj / 1e6


@dataclass
class DesignEnergy:
    """Energy/latency report of one BTB organization."""

    design: str
    structures: Dict[str, StructureEnergy] = field(default_factory=dict)

    @property
    def total_energy_uj(self) -> float:
        """Total dynamic energy across all structures (the Table V totals)."""
        return sum(entry.total_energy_uj for entry in self.structures.values())

    @property
    def lookup_latency_ns(self) -> float:
        """End-to-end lookup latency (serial structures add up)."""
        main = self.structures.get("main")
        page = self.structures.get("page")
        latency = main.access_latency_ns if main else 0.0
        if page is not None and self.design in ("pdede", "rbtb"):
            # Main-BTB and Page-BTB are accessed serially (Section VI-E).
            latency += page.access_latency_ns
        return latency


@dataclass
class BTBEnergyReport:
    """Table V: one :class:`DesignEnergy` per organization."""

    budget_kib: float
    designs: Dict[str, DesignEnergy] = field(default_factory=dict)

    def design(self, name: str) -> DesignEnergy:
        """Return the report of one organization."""
        return self.designs[name]


class BTBEnergyModel:
    """Builds SRAM arrays per organization and evaluates energy/latency."""

    def __init__(self, budget_kib: float = 14.5, isa: ISAStyle = ISAStyle.ARM64) -> None:
        self.budget_kib = budget_kib
        self.isa = isa
        self.storage = BTBStorageModel(isa)

    # -- array construction ----------------------------------------------------

    def arrays_for_conventional(self) -> Dict[str, SRAMArray]:
        """Arrays of the conventional BTB at the configured budget."""
        entries = self.storage.conventional_capacity_for_budget(self.budget_kib)
        return {"main": SRAMArray("conv.main", entries, FULL_TARGET_ENTRY_BITS, associativity=8)}

    def arrays_for_btbx(self) -> Dict[str, SRAMArray]:
        """Arrays of BTB-X (main ways plus the BTB-XC companion)."""
        entries, companion = self.storage.btbx_capacity_for_budget(self.budget_kib)
        ways = len(self.storage.way_offset_bits)
        sets = max(entries // ways, 1)
        avg_entry_bits = self.storage.btbx_set_bits() / ways
        return {
            "main": SRAMArray("btbx.main", sets * ways, avg_entry_bits, associativity=ways),
            "companion": SRAMArray(
                "btbx.companion", companion, FULL_TARGET_ENTRY_BITS, associativity=1
            ),
        }

    def arrays_for_pdede(self) -> Dict[str, SRAMArray]:
        """Arrays of PDede: Main-, Page- and Region-BTB."""
        main_entries, page_entries, avg_bits, _, _ = self.storage.pdede_capacity_for_budget(
            self.budget_kib
        )
        return {
            "main": SRAMArray("pdede.main", main_entries, avg_bits, associativity=8),
            "page": SRAMArray("pdede.page", page_entries, PAGE_ENTRY_BITS, associativity=16),
            "region": SRAMArray(
                "pdede.region", PDEDE_REGION_ENTRIES, REGION_ENTRY_BITS,
                associativity=PDEDE_REGION_ENTRIES,
            ),
        }

    def arrays_for(self, design: str) -> Dict[str, SRAMArray]:
        """Arrays for a named design ("conventional", "pdede", "btbx")."""
        if design == "conventional":
            return self.arrays_for_conventional()
        if design == "btbx":
            return self.arrays_for_btbx()
        if design == "pdede":
            return self.arrays_for_pdede()
        raise ValueError(f"unknown design {design!r}")

    # -- evaluation ----------------------------------------------------------------

    def design_energy(
        self, design: str, access_counts: Mapping[str, float] | None = None
    ) -> DesignEnergy:
        """Per-access numbers (and totals when access counts are provided)."""
        counts = dict(access_counts or {})
        report = DesignEnergy(design=design)
        for structure, array in self.arrays_for(design).items():
            page_search_entries = 16 if design == "pdede" else None
            report.structures[structure] = StructureEnergy(
                structure=structure,
                read_energy_pj=array.read_energy_pj(),
                write_energy_pj=array.write_energy_pj(),
                search_energy_pj=array.search_energy_pj(page_search_entries),
                access_latency_ns=array.access_latency_ns(),
                reads=counts.get(f"reads.{structure}", 0.0),
                writes=counts.get(f"writes.{structure}", 0.0),
                searches=counts.get(f"searches.{structure}", 0.0),
            )
        return report

    def energy_from_btb(self, btb: BTBBase) -> DesignEnergy:
        """Evaluate a simulated BTB instance using its recorded access counts.

        :meth:`~repro.btb.base.BTBBase.energy_access_counts` is the BTB's
        one counter report (BTB-X's includes its companion's accesses), so
        this report and any counters exported alongside it always agree.
        """
        return self.design_energy(_design_name(btb), btb.energy_access_counts())

    def report(self, access_counts_per_design: Mapping[str, Mapping[str, float]] | None = None) -> BTBEnergyReport:
        """Full Table V style report for the three evaluated organizations."""
        counts = access_counts_per_design or {}
        report = BTBEnergyReport(budget_kib=self.budget_kib)
        for design in ("conventional", "pdede", "btbx"):
            report.designs[design] = self.design_energy(design, counts.get(design))
        return report


def _design_name(btb: BTBBase) -> str:
    if isinstance(btb, ConventionalBTB):
        return "conventional"
    if isinstance(btb, BTBX):
        return "btbx"
    if isinstance(btb, PDedeBTB):
        return "pdede"
    if isinstance(btb, ReducedBTB):
        return "pdede"  # closest geometry: main + page
    raise ValueError(f"no energy model for BTB type {type(btb).__name__}")
