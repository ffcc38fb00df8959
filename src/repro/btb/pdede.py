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
from repro.isa.branch import BranchType
from repro.isa.instruction import Instruction
from repro.btb.base import MAIN_WAYS, TAG_BITS, BTBLookupResult, PointerTable, SetAssociativeBTB

VALID_BITS = 1
TYPE_BITS = 2
REPL_BITS = 3
DELTA_BITS = 1
PAGE_BITS = 12           # 4 KiB pages
REGION_PAGE_BITS = 16    # page-number bits kept in the Page-BTB
REGION_NUMBER_BITS = 20  # 48 - 12 - 16
PAGE_ENTRY_REPL_BITS = 4
REGION_ENTRY_REPL_BITS = 2

#: Storage bits of one Page-BTB entry (16-bit page number + repl) and one
#: Region-BTB entry (20-bit region number + repl).  The owning ASID is not
#: charged (see the note on ``PointerTable`` slots).
PAGE_ENTRY_BITS = REGION_PAGE_BITS + PAGE_ENTRY_REPL_BITS
REGION_ENTRY_BITS = REGION_NUMBER_BITS + REGION_ENTRY_REPL_BITS


def pdede_same_page_entry_bits(isa: ISAStyle) -> int:
    """Storage bits of a same-page Main-BTB entry (Figure 7, 29 bits)."""
    return VALID_BITS + TAG_BITS + TYPE_BITS + REPL_BITS + (PAGE_BITS - isa.alignment_bits) + DELTA_BITS


def pdede_different_page_entry_bits(isa: ISAStyle, page_entries: int, region_entries: int) -> int:
    """Storage bits of a different-page Main-BTB entry (Figure 7)."""
    return (
        VALID_BITS + TAG_BITS + TYPE_BITS + REPL_BITS + (PAGE_BITS - isa.alignment_bits)
        + log2_ceil(page_entries) + log2_ceil(region_entries)
    )


@dataclass(slots=True)
class _MainEntry:
    valid: bool = False
    tag: int = 0
    branch_type: BranchType = BranchType.CONDITIONAL
    page_offset: int = 0
    same_page: bool = True
    # Pointer-table slots of a different-page entry; -1 in a same-page entry,
    # which rebuilds its page and region numbers from the branch PC.
    page_pointer: int = -1
    region_pointer: int = -1


class PDedeBTB(SetAssociativeBTB):
    """PDede Multi-Entry-Size BTB: ``MAIN_WAYS``-way Main-BTB + Page-BTB + Region-BTB."""

    name = "pdede"
    _entry_type = _MainEntry

    def __init__(
        self,
        entries: int,
        page_entries: int = 512,
        region_entries: int = 4,
        page_associativity: int = 16,
        isa: ISAStyle = ISAStyle.ARM64,
    ) -> None:
        super().__init__(entries, isa=isa)
        if page_entries <= 0 or region_entries <= 0:
            raise ConfigurationError("Page-BTB and Region-BTB need at least one entry each")
        self.page_entries = page_entries
        self.region_entries = region_entries
        self.page_associativity = min(page_associativity, page_entries)
        # Ways [0, same_page_ways) are reserved for same-page entries; the rest
        # may hold either kind (the paper reserves half for same-page).
        self.same_page_ways = MAIN_WAYS // 2
        self._any_way = list(range(MAIN_WAYS))
        self._pointer_ways = list(range(self.same_page_ways, MAIN_WAYS))
        self._pages = PointerTable("page", page_entries)
        self._page_sets = max(page_entries // self.page_associativity, 1)
        self._regions = PointerTable("region", region_entries)

    # -- geometry ----------------------------------------------------------

    def same_page_entry_bits(self) -> int:
        """Storage bits of a same-page Main-BTB entry (Figure 7, 29 bits)."""
        return pdede_same_page_entry_bits(self.isa)

    def different_page_entry_bits(self) -> int:
        """Storage bits of a different-page Main-BTB entry (Figure 7)."""
        return pdede_different_page_entry_bits(self.isa, self.page_entries, self.region_entries)

    def average_entry_bits(self) -> float:
        """Average Main-BTB entry size, as reported in Table IV."""
        return (self.same_page_entry_bits() + self.different_page_entry_bits()) / 2.0

    def page_entry_bits(self) -> int:
        """Storage bits of one Page-BTB entry (16-bit page number + repl)."""
        return PAGE_ENTRY_BITS

    def region_entry_bits(self) -> int:
        """Storage bits of one Region-BTB entry (20-bit region + repl)."""
        return REGION_ENTRY_BITS

    def storage_bits(self) -> int:
        """Total storage across Main-, Page- and Region-BTB."""
        same = self.same_page_ways
        diff = MAIN_WAYS - same
        main_bits = self.num_sets * (
            same * self.same_page_entry_bits() + diff * self.different_page_entry_bits()
        )
        return (
            main_bits
            + self.page_entries * self.page_entry_bits()
            + self.region_entries * self.region_entry_bits()
        )

    # -- operations --------------------------------------------------------

    def configure_partitions(self, weights: Sequence[int] | None) -> None:
        """Partition the Main-BTB sets *and* both deduplication structures.

        The Page-BTB is sliced by sets and the Region-BTB by entries, both
        weight-proportionally like the Main-BTB.  A structure with fewer
        sets/entries than tenants falls back to sharing (still ASID-tagged),
        mirroring BTB-X's companion fallback -- the four-entry Region-BTB
        does this whenever more than four tenants consolidate.
        """
        super().configure_partitions(weights)
        self.asid_policy.configure("page", self._page_sets, weights)
        self.asid_policy.configure("region", self.region_entries, weights)

    def invalidate_all(self) -> None:
        """Clear the Main-, Page- and Region-BTB (context-switch flush)."""
        super().invalidate_all()
        self._pages.invalidate()
        self._regions.invalidate()

    def _hit(self, pc: int, index: int, way: int) -> BTBLookupResult:
        """Same-page hits rebuild the target from the PC; others follow both pointers."""
        entry = self._sets[index][way]
        counters = self.counters
        branch_type = entry.branch_type
        if entry.same_page:
            # Page and region numbers are recovered from the branch PC.
            target = ((pc >> PAGE_BITS) << PAGE_BITS) | (entry.page_offset << self.alignment_bits)
            counters["hits"] = counters.get("hits", 0) + 1
            counters["hits.same_page"] = counters.get("hits.same_page", 0) + 1
            return BTBLookupResult(True, branch_type, target, branch_type.target_from_ras)
        page = self._pages.slots[entry.page_pointer]
        region = self._regions.slots[entry.region_pointer]
        counters["reads.page"] = counters.get("reads.page", 0) + 1
        target = (
            (region.value << (PAGE_BITS + REGION_PAGE_BITS))
            | (page.value << PAGE_BITS)
            | (entry.page_offset << self.alignment_bits)
        )
        counters["hits"] = counters.get("hits", 0) + 1
        counters["hits.different_page"] = counters.get("hits.different_page", 0) + 1
        return BTBLookupResult(True, branch_type, target, branch_type.target_from_ras, 2)

    def _eligible_ways(self, same_page: bool) -> List[int]:
        """Ways an entry of the given kind may occupy.

        Same-page entries may live anywhere; different-page entries may only
        use the non-reserved (wider) ways.
        """
        return self._any_way if same_page else self._pointer_ways

    def _install_pointers(self, target: int) -> tuple[int, int]:
        """Find or install ``target``'s region and page; returns both slots.

        The Region-BTB is fully associative; the Page-BTB is searched in one
        set of at most ``page_associativity`` candidates.  Both searches,
        free-slot scans and victim selections stay within the active tenant's
        slice under partitioned retention.  The page's duplication key is the
        *full* target page (region plus in-region page number): that is the
        content the two tables jointly deduplicate, and recording it at
        reference time keeps the counters a pure function of the update
        stream (the 16-bit stored page number alone aliases across regions,
        which would make install-time counts depend on eviction order).
        """
        region_number = target >> (PAGE_BITS + REGION_PAGE_BITS)
        page_number = (target >> PAGE_BITS) & mask(REGION_PAGE_BITS)
        policy = self.asid_policy
        self.record_allocation("region", region_number)
        first, count = policy.active_slice("region", self.region_entries)
        region_slot = self._regions.find_or_install(self, region_number, first, count)
        counters = self.counters
        counters["searches.page"] = counters.get("searches.page", 0) + 1
        self.record_allocation("page", (region_number << REGION_PAGE_BITS) | page_number)
        base, count = policy.active_slice("page", self._page_sets)
        page_set = base + (page_number ^ region_number) % count
        page_slot = self._pages.find_or_install(
            self, page_number, page_set * self.page_associativity, self.page_associativity
        )
        return page_slot, region_slot

    def update(self, instruction: Instruction) -> None:
        """Insert/refresh the branch; may allocate Page-/Region-BTB entries."""
        if not instruction.is_branch:
            return
        self.record_allocation("main", instruction.pc)
        key = self._locate(instruction.pc)
        page_offset = (instruction.target & mask(PAGE_BITS)) >> self.alignment_bits
        # Returns take their target from the RAS, so they never need page or
        # region pointers and behave like same-page entries.
        same_page = instruction.branch_type.target_from_ras or (
            (instruction.pc >> PAGE_BITS) == (instruction.target >> PAGE_BITS)
        )
        page_pointer = region_pointer = -1
        if not same_page:
            page_pointer, region_pointer = self._install_pointers(instruction.target)

        # Installing the page/region may invalidate Main-BTB entries (this
        # one included), so the resident-tag index is read after it.  A
        # same-page branch (or alias) that now needs pointer fields cannot
        # stay in a reserved way: it is reallocated.
        eligible = self._eligible_ways(same_page)
        entry = self._resident_entry(key, eligible)
        if entry is None:
            _, entry = self._allocate(key, eligible)
        else:
            counters = self.counters
            counters["writes.main"] = counters.get("writes.main", 0) + 1
        entry.branch_type = instruction.branch_type
        entry.page_offset = page_offset
        entry.same_page = same_page
        entry.page_pointer = page_pointer
        entry.region_pointer = region_pointer
