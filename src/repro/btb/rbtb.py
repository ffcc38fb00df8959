"""Seznec's Reduced BTB (R-BTB): page-number deduplication via pointers.

The key observation (Section IV-A, Figure 5) is that all branch targets inside
a virtual page share the same page number, so storing full targets duplicates
page numbers.  R-BTB splits the BTB into:

* a **Main-BTB** whose entries store the 10-bit page offset of the target plus
  a small pointer into the Page-BTB, and
* a **Page-BTB** that stores each distinct 36-bit target page number once.

The Page-BTB is fully associative and searched on every allocation to find or
install the target's page number.  When a Page-BTB entry is evicted, the
Main-BTB entries that point at it become stale; this model invalidates them so
the front end never fabricates a wrong target (a conservative but functionally
safe interpretation of the hardware, which would mis-fetch instead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.common.bitutils import log2_ceil, mask
from repro.common.config import ISAStyle
from repro.common.errors import ConfigurationError
from repro.common.lru import LRUState
from repro.common.stats import Stats
from repro.isa.branch import BranchType
from repro.isa.instruction import Instruction
from repro.btb.base import BTBBase, BTBLookupResult

VALID_BITS = 1
TAG_BITS = 12
TYPE_BITS = 2
REPL_BITS = 3
PAGE_BITS = 12  # 4 KiB pages
PAGE_NUMBER_BITS = 36  # 48-bit VA - 12-bit page offset


@dataclass
class _MainEntry:
    valid: bool = False
    tag: int = 0
    branch_type: BranchType = BranchType.CONDITIONAL
    page_offset: int = 0  # page offset of the target (excluding alignment bits)
    page_pointer: int = 0


@dataclass
class _PageEntry:
    valid: bool = False
    page_number: int = 0
    # Owning address space under tagged/partitioned retention.  Exact-matched
    # but deliberately not charged in page_entry_bits(): geometries stay
    # identical across ASID modes (see the equivalent note in pdede.py).
    asid: int = 0


class ReducedBTB(BTBBase):
    """R-BTB: Main-BTB with page offsets + fully-associative Page-BTB."""

    name = "rbtb"

    def __init__(
        self,
        entries: int,
        page_entries: int = 128,
        associativity: int = 8,
        tag_bits: int = TAG_BITS,
        isa: ISAStyle = ISAStyle.ARM64,
        stats: Stats | None = None,
    ) -> None:
        super().__init__(stats)
        if entries <= 0 or entries % associativity != 0:
            raise ConfigurationError(
                f"R-BTB entries ({entries}) must be a positive multiple of associativity"
            )
        if page_entries <= 0:
            raise ConfigurationError("Page-BTB needs at least one entry")
        self.isa = isa
        self.alignment_bits = isa.alignment_bits
        self.tag_bits = tag_bits
        self.associativity = associativity
        self.num_sets = entries // associativity
        self.page_entries = page_entries
        self._sets: List[List[_MainEntry]] = [
            [_MainEntry() for _ in range(associativity)] for _ in range(self.num_sets)
        ]
        self._lru = [LRUState(associativity) for _ in range(self.num_sets)]
        self._pages = [_PageEntry() for _ in range(page_entries)]
        self._page_lru = LRUState(page_entries)

    # -- geometry ----------------------------------------------------------

    @property
    def page_pointer_bits(self) -> int:
        """Width of the Page-BTB pointer stored in each Main-BTB entry."""
        return log2_ceil(self.page_entries)

    @property
    def page_offset_bits(self) -> int:
        """Stored page-offset bits (12 minus the ISA alignment bits)."""
        return PAGE_BITS - self.alignment_bits

    def main_entry_bits(self) -> int:
        """Storage bits of one Main-BTB entry."""
        return (
            VALID_BITS + self.tag_bits + TYPE_BITS + REPL_BITS
            + self.page_offset_bits + self.page_pointer_bits
        )

    def page_entry_bits(self) -> int:
        """Storage bits of one Page-BTB entry (page number + valid)."""
        return PAGE_NUMBER_BITS + 1

    def storage_bits(self) -> int:
        """Total storage across Main-BTB and Page-BTB."""
        return (
            self.num_sets * self.associativity * self.main_entry_bits()
            + self.page_entries * self.page_entry_bits()
        )

    def capacity_entries(self) -> int:
        """Branch capacity (Main-BTB entries)."""
        return self.num_sets * self.associativity

    # -- page BTB helpers ---------------------------------------------------

    def configure_partitions(self, weights: Sequence[int] | None) -> None:
        """Partition the Main-BTB sets and the Page-BTB's entries per tenant.

        The fully-associative Page-BTB is sliced by entries, weight-
        proportionally; when it has fewer entries than tenants it falls back
        to sharing (still ASID-tagged), like BTB-X's companion.
        """
        super().configure_partitions(weights)
        if weights is None:
            self.asid_policy.clear("page")
            return
        self.asid_policy.configure("page", self.page_entries, weights, fallback_to_shared=True)

    def _page_slice(self) -> tuple[int, int]:
        return self.asid_policy.entry_slice("page", self.page_entries)

    def _find_page(self, page_number: int) -> int | None:
        base, count = self._page_slice()
        asid = self.active_asid
        for slot in range(base, base + count):
            entry = self._pages[slot]
            if entry.valid and entry.page_number == page_number and entry.asid == asid:
                return slot
        return None

    def _allocate_page(self, page_number: int) -> int:
        """Find or install ``page_number``; invalidates stale pointers on evict.

        The search, free-slot scan and victim selection are confined to the
        active tenant's slice under partitioned retention; the shared case
        scans the whole structure exactly as before.
        """
        self.record_search("page")
        self.record_allocation("page", page_number)
        slot = self._find_page(page_number)
        if slot is not None:
            self._page_lru.touch(slot)
            return slot
        base, count = self._page_slice()
        slot = next((i for i in range(base, base + count) if not self._pages[i].valid), None)
        if slot is None:
            slot = self._page_lru.victim(range(base, base + count))
            self._invalidate_pointers(slot)
            self.stats.inc("page_evictions")
        self._pages[slot].valid = True
        self._pages[slot].page_number = page_number
        self._pages[slot].asid = self.active_asid
        self._page_lru.touch(slot)
        self.record_write("page")
        return slot

    def _invalidate_pointers(self, page_slot: int) -> None:
        for index, entries in enumerate(self._sets):
            for way, entry in enumerate(entries):
                if entry.valid and entry.page_pointer == page_slot:
                    self._clear_way(index, way, entry)
                    self.stats.inc("pointer_invalidations")

    # -- operations --------------------------------------------------------

    def invalidate_all(self) -> None:
        """Clear the Main-BTB and the Page-BTB (context-switch flush)."""
        for entries in self._sets:
            for entry in entries:
                entry.valid = False
        for page in self._pages:
            page.valid = False
        self._clear_index()

    def lookup(self, pc: int) -> BTBLookupResult:
        """Probe the Main-BTB, then follow the page pointer (serial access)."""
        return self.lookup_prelocated(pc, self._locate(pc))

    def lookup_prelocated(self, pc: int, key: int, way: int | None = None) -> BTBLookupResult:
        """The lookup proper, with the lookup key (:meth:`_locate`) computed.

        ``way`` is a batch plan's preresolution (``-1`` certain miss, ``>= 0``
        the hit way); ``None`` reads the resident-tag index.
        """
        self.record_read("main")
        if way is None:
            way = self._resident.get(key, -1)
        if way < 0:
            self.stats.inc("misses")
            return BTBLookupResult.miss()
        index = key >> self.tag_bits
        entry = self._sets[index][way]
        self._lru[index].touch(way)
        page = self._pages[entry.page_pointer]
        if not page.valid:
            # Stale pointer (page evicted): treat as a BTB miss.
            self._clear_way(index, way, entry)
            self.stats.inc("misses")
            return BTBLookupResult.miss()
        self.record_read("page")
        target = (
            (page.page_number << PAGE_BITS)
            | (entry.page_offset << self.alignment_bits)
        )
        self.stats.inc("hits")
        return BTBLookupResult(
            hit=True,
            branch_type=entry.branch_type,
            target=target,
            target_from_ras=entry.branch_type.target_from_ras,
            latency_cycles=2,
            structure="main+page",
        )

    def update(self, instruction: Instruction) -> None:
        """Insert/refresh the branch; finds or allocates its target page."""
        if not instruction.is_branch:
            return
        self.record_allocation("main", instruction.pc)
        key = self._locate(instruction.pc)
        index = key >> self.tag_bits
        entries = self._sets[index]
        page_number = instruction.target >> PAGE_BITS
        page_offset = (instruction.target & mask(PAGE_BITS)) >> self.alignment_bits

        # Allocating the page may invalidate Main-BTB entries (this one
        # included), so the resident-tag index is read after it.
        page_slot = self._allocate_page(page_number)
        way = self._resident.get(key, -1)
        if way >= 0:
            entry = entries[way]
            entry.branch_type = instruction.branch_type
            entry.page_offset = page_offset
            entry.page_pointer = page_slot
            self._lru[index].touch(way)
            self.record_write("main")
            return
        victim = next((way for way, entry in enumerate(entries) if not entry.valid), None)
        if victim is None:
            victim = self._lru[index].victim()
            self.stats.inc("evictions")
        entry = entries[victim]
        self._fill_way(key, victim, entry)
        entry.branch_type = instruction.branch_type
        entry.page_offset = page_offset
        entry.page_pointer = page_slot
        self._lru[index].touch(victim)
        self.record_write("main")
        self.stats.inc("allocations")
