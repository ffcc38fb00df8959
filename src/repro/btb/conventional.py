"""The conventional BTB of Figure 1: full targets, set-associative, LRU.

Each entry stores a valid bit, a 12-bit partial tag, a 2-bit branch type, a
46-bit target (48-bit virtual addresses minus the two Arm64 alignment bits)
and 3 replacement-policy bits -- 64 bits per entry in total, on x86 too (the
paper charges the Arm64 entry on both ISAs).  This is the baseline (Conv-BTB)
of every comparison in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.branch import BranchType
from repro.isa.instruction import Instruction
from repro.btb.base import TAG_BITS, BTBLookupResult, SetAssociativeBTB

#: Field widths of a conventional BTB entry (Figure 1).
VALID_BITS = 1
TYPE_BITS = 2
REPL_BITS = 3
TARGET_BITS = 46

#: Storage bits of one full-target entry: 64.  Conv-BTB, BTB-XC, the storage
#: model and the energy model all charge it, on both ISAs, as Table IV and
#: Section VI-G's x86 capacity ratio do.
FULL_TARGET_ENTRY_BITS = VALID_BITS + TAG_BITS + TYPE_BITS + REPL_BITS + TARGET_BITS


@dataclass(slots=True)
class _Entry:
    valid: bool = False
    tag: int = 0
    branch_type: BranchType = BranchType.CONDITIONAL
    target: int = 0


class FullTargetBTB(SetAssociativeBTB):
    """A set-associative array whose entries store full target addresses.

    Conv-BTB is one; BTB-X's direct-mapped companion BTB-XC is another.
    """

    _entry_type = _Entry

    def _hit(self, pc: int, index: int, way: int) -> BTBLookupResult:
        entry = self._sets[index][way]
        counters = self.counters
        counters["hits"] = counters.get("hits", 0) + 1
        branch_type = entry.branch_type
        return BTBLookupResult(True, branch_type, entry.target, branch_type.target_from_ras)


class ConventionalBTB(FullTargetBTB):
    """Set-associative BTB storing full target addresses."""

    name = "conventional"

    def entry_bits(self) -> int:
        """Storage bits of a single entry (64)."""
        return FULL_TARGET_ENTRY_BITS

    def storage_bits(self) -> int:
        """Total storage of the BTB."""
        return self.capacity_entries() * FULL_TARGET_ENTRY_BITS

    def update(self, instruction: Instruction) -> None:
        """Insert or refresh the committed taken branch ``instruction``."""
        if not instruction.is_branch:
            return
        self.record_allocation("main", instruction.pc)
        key = self._locate(instruction.pc)
        entry = self._resident_entry(key)
        if entry is None:
            _, entry = self._allocate(key)
        elif entry.target != instruction.target or entry.branch_type != instruction.branch_type:
            counters = self.counters
            counters["writes.main"] = counters.get("writes.main", 0) + 1
        entry.branch_type = instruction.branch_type
        entry.target = instruction.target
