"""The conventional BTB of Figure 1: full targets, set-associative, LRU.

Each entry stores a valid bit, a 12-bit partial tag, a 2-bit branch type, a
46-bit target (48-bit virtual addresses minus the two Arm64 alignment bits)
and 3 replacement-policy bits -- 64 bits per entry in total.  This is the
baseline (Conv-BTB) of every comparison in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.common.config import ISAStyle
from repro.common.errors import ConfigurationError
from repro.common.lru import LRUState
from repro.common.stats import Stats
from repro.isa.branch import BranchType
from repro.isa.instruction import Instruction
from repro.btb.base import BTBBase, BTBLookupResult

#: Field widths of a conventional BTB entry (Figure 1).
VALID_BITS = 1
TAG_BITS = 12
TYPE_BITS = 2
REPL_BITS = 3


@dataclass(slots=True)
class _Entry:
    valid: bool = False
    tag: int = 0
    branch_type: BranchType = BranchType.CONDITIONAL
    target: int = 0


class ConventionalBTB(BTBBase):
    """Set-associative BTB storing full target addresses."""

    name = "conventional"

    def __init__(
        self,
        entries: int,
        associativity: int = 8,
        tag_bits: int = TAG_BITS,
        isa: ISAStyle = ISAStyle.ARM64,
        virtual_address_bits: int = 48,
        stats: Stats | None = None,
    ) -> None:
        super().__init__(stats)
        if entries <= 0:
            raise ConfigurationError("conventional BTB needs at least one entry")
        if associativity <= 0 or entries % associativity != 0:
            raise ConfigurationError(
                f"entries ({entries}) must be a positive multiple of associativity ({associativity})"
            )
        self.isa = isa
        self.alignment_bits = isa.alignment_bits
        self.tag_bits = tag_bits
        self.associativity = associativity
        self.num_sets = entries // associativity
        self.virtual_address_bits = virtual_address_bits
        # Sets materialize lazily on first install (see
        # SetAssociativeCache.__init__ for the bit-exactness argument).
        self._sets: List[List[_Entry] | None] = [None] * self.num_sets
        self._lru: List[LRUState | None] = [None] * self.num_sets

    # -- geometry ----------------------------------------------------------

    @property
    def target_bits(self) -> int:
        """Bits needed to store a full target for the configured ISA."""
        return self.virtual_address_bits - self.alignment_bits

    def entry_bits(self) -> int:
        """Storage bits of a single entry (64 for the paper's parameters)."""
        return VALID_BITS + self.tag_bits + TYPE_BITS + REPL_BITS + self.target_bits

    def storage_bits(self) -> int:
        """Total storage of the BTB."""
        return self.capacity_entries() * self.entry_bits()

    def capacity_entries(self) -> int:
        """Number of branch entries."""
        return self.num_sets * self.associativity

    # -- operations --------------------------------------------------------

    def lookup(self, pc: int) -> BTBLookupResult:
        """Probe all ways of the indexed set in parallel."""
        return self.lookup_prelocated(pc, self._locate(pc))

    def lookup_prelocated(self, pc: int, key: int, way: int | None = None) -> BTBLookupResult:
        """The lookup proper, with the lookup key (:meth:`_locate`) computed.

        ``way`` is a batch plan's preresolution (``-1`` certain miss, ``>= 0``
        the hit way); ``None`` reads the resident-tag index.  Both give the
        same result, counters and LRU movement.
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
        self.stats.inc("hits")
        return BTBLookupResult(
            hit=True,
            branch_type=entry.branch_type,
            target=entry.target,
            target_from_ras=entry.branch_type.target_from_ras,
            structure="main",
        )

    def _materialize(self, index: int) -> List[_Entry]:
        """Allocate the ways (and LRU state) of set ``index`` on first install."""
        entries = [_Entry() for _ in range(self.associativity)]
        self._sets[index] = entries
        self._lru[index] = LRUState(self.associativity)
        return entries

    def update(self, instruction: Instruction) -> None:
        """Insert or refresh the committed taken branch ``instruction``."""
        if not instruction.is_branch:
            return
        self.record_allocation("main", instruction.pc)
        key = self._locate(instruction.pc)
        index = key >> self.tag_bits
        way = self._resident.get(key, -1)
        if way >= 0:
            entry = self._sets[index][way]
            if entry.target != instruction.target or entry.branch_type != instruction.branch_type:
                self.record_write("main")
            entry.target = instruction.target
            entry.branch_type = instruction.branch_type
            self._lru[index].touch(way)
            return
        entries = self._sets[index]
        if entries is None:
            entries = self._materialize(index)
        # Allocate: prefer an invalid way, otherwise evict the LRU way.
        victim = next(
            (way for way, entry in enumerate(entries) if not entry.valid),
            None,
        )
        if victim is None:
            victim = self._lru[index].victim()
            self.stats.inc("evictions")
        entry = entries[victim]
        self._fill_way(key, victim, entry)
        entry.branch_type = instruction.branch_type
        entry.target = instruction.target
        self._lru[index].touch(victim)
        self.record_write("main")
        self.stats.inc("allocations")

    def invalidate_all(self) -> None:
        """Clear every entry (used by tests and warmup control)."""
        self._sets = [None] * self.num_sets
        self._lru = [None] * self.num_sets
        self._clear_index()
