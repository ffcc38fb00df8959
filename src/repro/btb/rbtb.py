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
from typing import Sequence

from repro.common.bitutils import log2_ceil, mask
from repro.common.config import ISAStyle
from repro.common.errors import ConfigurationError
from repro.isa.branch import BranchType
from repro.isa.instruction import Instruction
from repro.btb.base import TAG_BITS, BTBLookupResult, PointerTable, SetAssociativeBTB

VALID_BITS = 1
TYPE_BITS = 2
REPL_BITS = 3
PAGE_BITS = 12  # 4 KiB pages
PAGE_NUMBER_BITS = 36  # 48-bit VA - 12-bit page offset

#: Storage bits of one Page-BTB entry: page number plus valid bit.  The
#: owning ASID is not charged (see the note on ``PointerTable`` slots).
PAGE_ENTRY_BITS = PAGE_NUMBER_BITS + VALID_BITS


def rbtb_main_entry_bits(isa: ISAStyle, page_entries: int) -> int:
    """Storage bits of one Main-BTB entry: metadata, page offset, Page-BTB pointer."""
    return (
        VALID_BITS + TAG_BITS + TYPE_BITS + REPL_BITS
        + (PAGE_BITS - isa.alignment_bits) + log2_ceil(page_entries)
    )


@dataclass(slots=True)
class _MainEntry:
    valid: bool = False
    tag: int = 0
    branch_type: BranchType = BranchType.CONDITIONAL
    page_offset: int = 0  # page offset of the target (excluding alignment bits)
    page_pointer: int = 0


class ReducedBTB(SetAssociativeBTB):
    """R-BTB: ``MAIN_WAYS``-way Main-BTB with page offsets + fully-associative Page-BTB."""

    name = "rbtb"
    _entry_type = _MainEntry

    def __init__(
        self,
        entries: int,
        page_entries: int = 128,
        isa: ISAStyle = ISAStyle.ARM64,
    ) -> None:
        super().__init__(entries, isa=isa)
        if page_entries <= 0:
            raise ConfigurationError("Page-BTB needs at least one entry")
        self.page_entries = page_entries
        self._pages = PointerTable("page", page_entries)

    # -- geometry ----------------------------------------------------------

    def main_entry_bits(self) -> int:
        """Storage bits of one Main-BTB entry."""
        return rbtb_main_entry_bits(self.isa, self.page_entries)

    def page_entry_bits(self) -> int:
        """Storage bits of one Page-BTB entry (page number + valid)."""
        return PAGE_ENTRY_BITS

    def storage_bits(self) -> int:
        """Total storage across Main-BTB and Page-BTB."""
        return (
            self.capacity_entries() * self.main_entry_bits()
            + self.page_entries * self.page_entry_bits()
        )

    # -- operations --------------------------------------------------------

    def configure_partitions(self, weights: Sequence[int] | None) -> None:
        """Partition the Main-BTB sets and the Page-BTB's entries per tenant.

        The fully-associative Page-BTB is sliced by entries, weight-
        proportionally; when it has fewer entries than tenants it falls back
        to sharing (still ASID-tagged), like BTB-X's companion.
        """
        super().configure_partitions(weights)
        self.asid_policy.configure("page", self.page_entries, weights)

    def invalidate_all(self) -> None:
        """Clear the Main-BTB and the Page-BTB (context-switch flush)."""
        super().invalidate_all()
        self._pages.invalidate()

    def _hit(self, pc: int, index: int, way: int) -> BTBLookupResult:
        """Follow the page pointer (serial access)."""
        entry = self._sets[index][way]
        page = self._pages.slots[entry.page_pointer]
        counters = self.counters
        counters["reads.page"] = counters.get("reads.page", 0) + 1
        target = (page.value << PAGE_BITS) | (entry.page_offset << self.alignment_bits)
        counters["hits"] = counters.get("hits", 0) + 1
        branch_type = entry.branch_type
        return BTBLookupResult(True, branch_type, target, branch_type.target_from_ras, 2)

    def update(self, instruction: Instruction) -> None:
        """Insert/refresh the branch; finds or allocates its target page.

        The Page-BTB is searched on every allocation; the search, free-slot
        scan and victim selection are confined to the active tenant's slice
        under partitioned retention.
        """
        if not instruction.is_branch:
            return
        self.record_allocation("main", instruction.pc)
        key = self._locate(instruction.pc)
        page_number = instruction.target >> PAGE_BITS
        page_offset = (instruction.target & mask(PAGE_BITS)) >> self.alignment_bits

        counters = self.counters
        counters["searches.page"] = counters.get("searches.page", 0) + 1
        self.record_allocation("page", page_number)
        first, count = self.asid_policy.active_slice("page", self.page_entries)
        # Installing the page may invalidate Main-BTB entries (this one
        # included), so the resident-tag index is read after it.
        page_slot = self._pages.find_or_install(self, page_number, first, count)
        entry = self._resident_entry(key)
        if entry is None:
            _, entry = self._allocate(key)
        else:
            counters = self.counters
            counters["writes.main"] = counters.get("writes.main", 0) + 1
        entry.branch_type = instruction.branch_type
        entry.page_offset = page_offset
        entry.page_pointer = page_slot
