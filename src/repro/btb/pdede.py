"""PDede: the partitioned, deduplicated, delta BTB (state of the art).

PDede (Soundararajan et al., MICRO 2021) improves on R-BTB in two ways
(Section IV-B, Figures 6 and 7):

* the target's page number is split into a **region number** (the high 20
  bits, shared by groups of contiguous pages) stored once in a tiny
  **Region-BTB**, and a 16-bit **page number within the region** stored once
  in the **Page-BTB**; Main-BTB entries carry pointers to both;
* **same-page branches** (branch and target in the same page) need neither
  pointer -- their page/region numbers come from the branch PC itself.  Half
  of the ways of each Main-BTB set are reserved for these cheaper entries
  ("PDede-Multi Entry Size").

Consequences modelled here:

* different-page lookups are serial (Main-BTB then Page-/Region-BTB) and take
  two cycles when the branch is predicted taken (Section VI-E);
* allocations must search the Page-BTB (set-associative, at most 16 candidate
  locations per page) and the fully-associative 4-entry Region-BTB;
* evicting a Page-/Region-BTB entry strands the Main-BTB entries pointing at
  it; they are invalidated.
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
DELTA_BITS = 1
PAGE_BITS = 12           # 4 KiB pages
REGION_PAGE_BITS = 16    # page-number bits kept in the Page-BTB
REGION_NUMBER_BITS = 20  # 48 - 12 - 16
PAGE_ENTRY_REPL_BITS = 4
REGION_ENTRY_REPL_BITS = 2


@dataclass
class _MainEntry:
    valid: bool = False
    tag: int = 0
    branch_type: BranchType = BranchType.CONDITIONAL
    page_offset: int = 0
    same_page: bool = True
    page_pointer: int = 0
    region_pointer: int = 0


# NOTE on the ``asid`` fields below: page/region numbers are exact-matched
# content (they rebuild targets), so ASID disambiguation needs a real field
# rather than the main tag's hash *coloring*.  Its storage is deliberately
# not charged in page_entry_bits()/region_entry_bits(): budget-sized
# geometries stay identical across ASID modes (and match the paper's
# untagged Table IV accounting), at the cost of making tagged-mode
# PDede/R-BTB results an optimistic bound -- real hardware would spend a few
# bits per entry or a small ASID-remap table.  The same free-coloring
# convention already applies to every main structure's tags.
@dataclass
class _PageEntry:
    valid: bool = False
    page_number: int = 0  # the REGION_PAGE_BITS-wide page number within a region
    asid: int = 0         # owning address space under tagged/partitioned retention


@dataclass
class _RegionEntry:
    valid: bool = False
    region_number: int = 0
    asid: int = 0


class PDedeBTB(BTBBase):
    """PDede Multi-Entry-Size BTB: Main-BTB + Page-BTB + Region-BTB."""

    name = "pdede"

    def __init__(
        self,
        entries: int,
        page_entries: int = 512,
        region_entries: int = 4,
        associativity: int = 8,
        page_associativity: int = 16,
        same_page_way_fraction: float = 0.5,
        tag_bits: int = TAG_BITS,
        isa: ISAStyle = ISAStyle.ARM64,
        stats: Stats | None = None,
    ) -> None:
        super().__init__(stats)
        if entries <= 0 or entries % associativity != 0:
            raise ConfigurationError(
                f"PDede entries ({entries}) must be a positive multiple of associativity"
            )
        if page_entries <= 0 or region_entries <= 0:
            raise ConfigurationError("Page-BTB and Region-BTB need at least one entry each")
        if not 0.0 <= same_page_way_fraction <= 1.0:
            raise ConfigurationError("same-page way fraction must be within [0, 1]")
        self.isa = isa
        self.alignment_bits = isa.alignment_bits
        self.tag_bits = tag_bits
        self.associativity = associativity
        self.num_sets = entries // associativity
        self.page_entries = page_entries
        self.region_entries = region_entries
        self.page_associativity = min(page_associativity, page_entries)
        # Ways [0, same_page_ways) are reserved for same-page entries; the rest
        # may hold either kind (the paper reserves half for same-page).
        self.same_page_ways = int(round(associativity * same_page_way_fraction))
        self._sets: List[List[_MainEntry]] = [
            [_MainEntry() for _ in range(associativity)] for _ in range(self.num_sets)
        ]
        self._lru = [LRUState(associativity) for _ in range(self.num_sets)]
        self._pages = [_PageEntry() for _ in range(page_entries)]
        self._page_sets = max(page_entries // self.page_associativity, 1)
        self._page_lru = [LRUState(self.page_associativity) for _ in range(self._page_sets)]
        self._regions = [_RegionEntry() for _ in range(region_entries)]
        self._region_lru = LRUState(region_entries)

    # -- geometry ----------------------------------------------------------

    @property
    def page_pointer_bits(self) -> int:
        """Width of the Page-BTB pointer in a different-page Main-BTB entry."""
        return log2_ceil(self.page_entries)

    @property
    def region_pointer_bits(self) -> int:
        """Width of the Region-BTB pointer in a different-page Main-BTB entry."""
        return log2_ceil(self.region_entries)

    @property
    def page_offset_bits(self) -> int:
        """Stored page-offset bits (12 minus the ISA alignment bits)."""
        return PAGE_BITS - self.alignment_bits

    def same_page_entry_bits(self) -> int:
        """Storage bits of a same-page Main-BTB entry (Figure 7, 29 bits)."""
        return (
            VALID_BITS + self.tag_bits + TYPE_BITS + REPL_BITS
            + self.page_offset_bits + DELTA_BITS
        )

    def different_page_entry_bits(self) -> int:
        """Storage bits of a different-page Main-BTB entry (Figure 7)."""
        return (
            VALID_BITS + self.tag_bits + TYPE_BITS + REPL_BITS
            + self.page_offset_bits + self.page_pointer_bits + self.region_pointer_bits
        )

    def average_entry_bits(self) -> float:
        """Average Main-BTB entry size, as reported in Table IV."""
        return (self.same_page_entry_bits() + self.different_page_entry_bits()) / 2.0

    def page_entry_bits(self) -> int:
        """Storage bits of one Page-BTB entry (16-bit page number + repl)."""
        return REGION_PAGE_BITS + PAGE_ENTRY_REPL_BITS

    def region_entry_bits(self) -> int:
        """Storage bits of one Region-BTB entry (20-bit region + repl)."""
        return REGION_NUMBER_BITS + REGION_ENTRY_REPL_BITS

    def storage_bits(self) -> int:
        """Total storage across Main-, Page- and Region-BTB."""
        same = self.same_page_ways
        diff = self.associativity - same
        main_bits = self.num_sets * (
            same * self.same_page_entry_bits() + diff * self.different_page_entry_bits()
        )
        return (
            main_bits
            + self.page_entries * self.page_entry_bits()
            + self.region_entries * self.region_entry_bits()
        )

    def capacity_entries(self) -> int:
        """Branch capacity (Main-BTB entries)."""
        return self.num_sets * self.associativity

    # -- address split helpers ---------------------------------------------

    @staticmethod
    def _split_target(target: int) -> tuple[int, int, int]:
        """Split a target into (region number, in-region page number, page offset)."""
        page_offset = target & mask(PAGE_BITS)
        page_number = (target >> PAGE_BITS) & mask(REGION_PAGE_BITS)
        region_number = target >> (PAGE_BITS + REGION_PAGE_BITS)
        return region_number, page_number, page_offset

    # -- page / region BTB management ----------------------------------------

    def configure_partitions(self, weights: Sequence[int] | None) -> None:
        """Partition the Main-BTB sets *and* both deduplication structures.

        The Page-BTB is sliced by sets and the Region-BTB by entries, both
        weight-proportionally like the Main-BTB.  A structure with fewer
        sets/entries than tenants falls back to sharing (still ASID-tagged),
        mirroring BTB-X's companion fallback -- the four-entry Region-BTB
        does this whenever more than four tenants consolidate.
        """
        super().configure_partitions(weights)
        if weights is None:
            self.asid_policy.clear("page")
            self.asid_policy.clear("region")
            return
        self.asid_policy.configure("page", self._page_sets, weights, fallback_to_shared=True)
        self.asid_policy.configure(
            "region", self.region_entries, weights, fallback_to_shared=True
        )

    def _page_set_index(self, page_number: int, region_number: int) -> int:
        return self.asid_policy.modulo_index(
            "page", page_number ^ region_number, self._page_sets
        )

    def _region_slice(self) -> tuple[int, int]:
        return self.asid_policy.entry_slice("region", self.region_entries)

    def _find_page(self, page_number: int, set_index_: int) -> int | None:
        base = set_index_ * self.page_associativity
        asid = self.active_asid
        for way in range(self.page_associativity):
            entry = self._pages[base + way]
            if entry.valid and entry.page_number == page_number and entry.asid == asid:
                return base + way
        return None

    def _allocate_page(self, page_number: int, region_number: int) -> int:
        """Find or install a page number; restricted to one Page-BTB set.

        The duplication key is the *full* target page (region plus in-region
        page number): that is the content the Page-/Region-BTB pair jointly
        deduplicates, and recording it at reference time keeps the counters a
        pure function of the update stream (the 16-bit stored page number
        alone aliases across regions, which would make install-time counts
        depend on eviction order).
        """
        self.record_search("page")
        self.record_allocation("page", (region_number << REGION_PAGE_BITS) | page_number)
        set_index_ = self._page_set_index(page_number, region_number)
        slot = self._find_page(page_number, set_index_)
        if slot is not None:
            self._page_lru[set_index_].touch(slot - set_index_ * self.page_associativity)
            return slot
        base = set_index_ * self.page_associativity
        way = next(
            (w for w in range(self.page_associativity) if not self._pages[base + w].valid),
            None,
        )
        if way is None:
            way = self._page_lru[set_index_].victim()
            self._invalidate_page_pointers(base + way)
            self.stats.inc("page_evictions")
        slot = base + way
        self._pages[slot].valid = True
        self._pages[slot].page_number = page_number
        self._pages[slot].asid = self.active_asid
        self._page_lru[set_index_].touch(way)
        self.record_write("page")
        return slot

    def _allocate_region(self, region_number: int) -> int:
        """Find or install a region number in the tiny fully-associative Region-BTB.

        Under partitioned retention the search, free-slot scan and victim
        selection are all confined to the active tenant's entry slice; with no
        partitions the slice is the whole structure and the behaviour is
        identical to the historical shared scan.
        """
        self.record_allocation("region", region_number)
        base, count = self._region_slice()
        asid = self.active_asid
        for slot in range(base, base + count):
            entry = self._regions[slot]
            if entry.valid and entry.region_number == region_number and entry.asid == asid:
                self._region_lru.touch(slot)
                return slot
        slot = next(
            (i for i in range(base, base + count) if not self._regions[i].valid), None
        )
        if slot is None:
            slot = self._region_lru.victim(range(base, base + count))
            self._invalidate_region_pointers(slot)
            self.stats.inc("region_evictions")
        self._regions[slot].valid = True
        self._regions[slot].region_number = region_number
        self._regions[slot].asid = asid
        self._region_lru.touch(slot)
        self.record_write("region")
        return slot

    def _invalidate_page_pointers(self, page_slot: int) -> None:
        self._invalidate_pointers("page_pointer", page_slot)

    def _invalidate_region_pointers(self, region_slot: int) -> None:
        self._invalidate_pointers("region_pointer", region_slot)

    def _invalidate_pointers(self, field: str, slot: int) -> None:
        """Invalidate the different-page entries whose ``field`` points at ``slot``."""
        for index, entries in enumerate(self._sets):
            for way, entry in enumerate(entries):
                if entry.valid and not entry.same_page and getattr(entry, field) == slot:
                    self._clear_way(index, way, entry)
                    self.stats.inc("pointer_invalidations")

    # -- operations --------------------------------------------------------

    def invalidate_all(self) -> None:
        """Clear the Main-, Page- and Region-BTB (context-switch flush)."""
        for entries in self._sets:
            for entry in entries:
                entry.valid = False
        for page in self._pages:
            page.valid = False
        for region in self._regions:
            region.valid = False
        self._clear_index()

    def lookup(self, pc: int) -> BTBLookupResult:
        """Probe the Main-BTB; different-page hits follow both pointers serially."""
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
        if entry.same_page:
            # Page and region numbers are recovered from the branch PC.
            target = (
                ((pc >> PAGE_BITS) << PAGE_BITS)
                | (entry.page_offset << self.alignment_bits)
            )
            self.stats.inc("hits")
            self.stats.inc("hits.same_page")
            return BTBLookupResult(
                hit=True,
                branch_type=entry.branch_type,
                target=target,
                target_from_ras=entry.branch_type.target_from_ras,
                latency_cycles=1,
                structure="main",
            )
        page = self._pages[entry.page_pointer]
        region = self._regions[entry.region_pointer]
        if not page.valid or not region.valid:
            self._clear_way(index, way, entry)
            self.stats.inc("misses")
            return BTBLookupResult.miss()
        self.record_read("page")
        target = (
            (region.region_number << (PAGE_BITS + REGION_PAGE_BITS))
            | (page.page_number << PAGE_BITS)
            | (entry.page_offset << self.alignment_bits)
        )
        self.stats.inc("hits")
        self.stats.inc("hits.different_page")
        return BTBLookupResult(
            hit=True,
            branch_type=entry.branch_type,
            target=target,
            target_from_ras=entry.branch_type.target_from_ras,
            latency_cycles=2,
            structure="main+page",
        )

    def _eligible_ways(self, same_page: bool) -> List[int]:
        """Ways an entry of the given kind may occupy.

        Same-page entries may live anywhere; different-page entries may only
        use the non-reserved (wider) ways.
        """
        if same_page:
            return list(range(self.associativity))
        return list(range(self.same_page_ways, self.associativity))

    def update(self, instruction: Instruction) -> None:
        """Insert/refresh the branch; may allocate Page-/Region-BTB entries."""
        if not instruction.is_branch:
            return
        self.record_allocation("main", instruction.pc)
        key = self._locate(instruction.pc)
        index = key >> self.tag_bits
        entries = self._sets[index]
        region_number, page_number, page_offset_full = self._split_target(instruction.target)
        page_offset = page_offset_full >> self.alignment_bits
        # Returns take their target from the RAS, so they never need page or
        # region pointers and behave like same-page entries.
        same_page = instruction.branch_type.target_from_ras or (
            (instruction.pc >> PAGE_BITS) == (instruction.target >> PAGE_BITS)
        )

        page_pointer = 0
        region_pointer = 0
        if not same_page:
            region_pointer = self._allocate_region(region_number)
            page_pointer = self._allocate_page(page_number, region_number)

        # Allocating the page/region may invalidate Main-BTB entries (this
        # one included), so the resident-tag index is read after it.
        way = self._resident.get(key, -1)
        if way >= 0:
            entry = entries[way]
            if not same_page and way < self.same_page_ways:
                # A previously same-page branch (or alias) now needs pointer
                # fields that this reserved way cannot hold: re-allocate.
                self._clear_way(index, way, entry)
                self.stats.inc("reallocations")
            else:
                entry.branch_type = instruction.branch_type
                entry.page_offset = page_offset
                entry.same_page = same_page
                entry.page_pointer = page_pointer
                entry.region_pointer = region_pointer
                self._lru[index].touch(way)
                self.record_write("main")
                return

        eligible = self._eligible_ways(same_page)
        if not eligible:
            # Degenerate configuration (every way reserved for same-page
            # entries): a different-page branch simply cannot be tracked.
            self.stats.inc("unallocatable")
            return
        victim = next((way for way in eligible if not entries[way].valid), None)
        if victim is None:
            victim = self._lru[index].victim(eligible)
            self.stats.inc("evictions")
        entry = entries[victim]
        self._fill_way(key, victim, entry)
        entry.branch_type = instruction.branch_type
        entry.page_offset = page_offset
        entry.same_page = same_page
        entry.page_pointer = page_pointer
        entry.region_pointer = region_pointer
        self._lru[index].touch(victim)
        self.record_write("main")
        self.stats.inc("allocations")
