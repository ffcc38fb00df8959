"""BTB-X: the paper's storage-effective BTB organization (Section V).

BTB-X is an 8-way set-associative BTB whose ways store *target offsets* of
different maximum widths instead of full target addresses.  The per-way widths
are sized from the offset distribution of Figure 4 so that each way covers
roughly 12.5 % of dynamic branches:

* Arm64: 0, 4, 5, 7, 9, 11, 19 and 25 bits,
* x86:   0, 5, 6, 7, 9, 12, 20 and 27 bits (Section VI-G).

Way 0 has no offset storage at all: it holds return instructions, whose target
comes from the return address stack.  Branches whose offsets exceed the widest
way are handled by **BTB-XC**, a small direct-mapped companion BTB that stores
full targets and has 64x fewer entries than BTB-X.

Replacement is a *constrained LRU*: on allocation, only the ways whose offset
field can hold the incoming branch's offset compete, and the least recently
used of those is evicted; recency updates are otherwise identical to plain
LRU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.common.config import ISAStyle
from repro.common.errors import ConfigurationError
from repro.common.lru import LRUState
from repro.common.stats import Stats
from repro.isa.branch import BranchType
from repro.isa.instruction import Instruction
from repro.btb.base import BTBBase, BTBLookupResult
from repro.btb.offsets import stored_offset_bits

#: Per-way offset widths for Arm64 (Figure 8) and x86 (Section VI-G).
BTBX_WAY_OFFSET_BITS_ARM64: Tuple[int, ...] = (0, 4, 5, 7, 9, 11, 19, 25)
BTBX_WAY_OFFSET_BITS_X86: Tuple[int, ...] = (0, 5, 6, 7, 9, 12, 20, 27)

#: Metadata bits per BTB-X entry: valid(1) + tag(12) + type(2) + rep_policy(3).
VALID_BITS = 1
TAG_BITS = 12
TYPE_BITS = 2
REPL_BITS = 3
METADATA_BITS = VALID_BITS + TAG_BITS + TYPE_BITS + REPL_BITS

#: A BTB-XC entry stores a full target, like a conventional entry: 64 bits.
BTBXC_ENTRY_BITS = 64


def default_way_offsets(isa: ISAStyle) -> Tuple[int, ...]:
    """The paper's per-way offset widths for the given ISA."""
    if isa is ISAStyle.ARM64:
        return BTBX_WAY_OFFSET_BITS_ARM64
    return BTBX_WAY_OFFSET_BITS_X86


@dataclass(slots=True)
class _Entry:
    valid: bool = False
    tag: int = 0
    branch_type: BranchType = BranchType.CONDITIONAL
    offset_payload: int = 0
    offset_width: int = 0  # stored-bit width actually used (<= way width)


@dataclass(slots=True)
class _CompanionEntry:
    valid: bool = False
    tag: int = 0
    branch_type: BranchType = BranchType.CONDITIONAL
    target: int = 0


class BTBXC(BTBBase):
    """The small direct-mapped companion BTB holding full targets.

    It captures the <1 % of branches whose offsets do not fit even the widest
    BTB-X way; the paper sizes it at 1/64th of the BTB-X entry count (one
    eighth of the number of BTB-X sets).
    """

    name = "btbxc"

    def __init__(
        self,
        entries: int,
        tag_bits: int = TAG_BITS,
        isa: ISAStyle = ISAStyle.ARM64,
        stats: Stats | None = None,
    ) -> None:
        super().__init__(stats)
        if entries <= 0:
            raise ConfigurationError("BTB-XC needs at least one entry")
        self.isa = isa
        self.alignment_bits = isa.alignment_bits
        self.tag_bits = tag_bits
        self.num_entries = entries
        # Direct-mapped: every entry is its own one-way set (partitioning
        # granularity, and the shape of the batched residency shadow).
        self.num_sets = entries
        self.associativity = 1
        self._entries = [_CompanionEntry() for _ in range(entries)]

    def lookup(self, pc: int) -> BTBLookupResult:
        """Direct-mapped probe; accessed in parallel with BTB-X."""
        return self.lookup_prelocated(pc, self._locate(pc))

    def lookup_prelocated(self, pc: int, key: int, way: int | None = None) -> BTBLookupResult:
        """The probe proper, with the lookup key (:meth:`_locate`) computed.

        ``way`` is a batch plan's preresolution (``-1`` miss, ``0`` hit);
        ``None`` reads the resident-tag index.
        """
        self.record_read("companion")
        if way is None:
            way = self._resident.get(key, -1)
        if way == 0:
            entry = self._entries[key >> self.tag_bits]
            self.stats.inc("hits")
            return BTBLookupResult(
                hit=True,
                branch_type=entry.branch_type,
                target=entry.target,
                target_from_ras=entry.branch_type.target_from_ras,
                structure="companion",
            )
        self.stats.inc("misses")
        return BTBLookupResult.miss()

    def update(self, instruction: Instruction) -> None:
        """Insert/refresh; direct-mapped, so the indexed entry is overwritten."""
        self.record_allocation("companion", instruction.pc)
        key = self._locate(instruction.pc)
        entry = self._entries[key >> self.tag_bits]
        if entry.valid and key not in self._resident:
            self.stats.inc("evictions")
        self._fill_way(key, 0, entry)
        entry.branch_type = instruction.branch_type
        entry.target = instruction.target
        self.record_write("companion")

    def storage_bits(self) -> int:
        """Total storage of the companion."""
        return self.num_entries * BTBXC_ENTRY_BITS

    def capacity_entries(self) -> int:
        """Number of companion entries."""
        return self.num_entries

    def invalidate_all(self) -> None:
        """Clear every companion entry."""
        for entry in self._entries:
            entry.valid = False
        self._clear_index()

    def _resident_ways(self):
        """``(slot, 0, tag)`` of every valid entry, scanned from the entries."""
        for index, entry in enumerate(self._entries):
            if entry.valid:
                yield index, 0, entry.tag

    def note_skipped_miss_lookups(self, count: int) -> None:
        """Bulk-account ``count`` proven-miss probes the engine skipped."""
        self.reads["companion"] = self.reads.get("companion", 0) + count
        self.stats.inc("misses", count)


class BTBX(BTBBase):
    """BTB-X proper: skewed-width offset ways plus the BTB-XC companion."""

    name = "btbx"

    def __init__(
        self,
        entries: int,
        way_offset_bits: Sequence[int] | None = None,
        companion_divisor: int = 64,
        tag_bits: int = TAG_BITS,
        isa: ISAStyle = ISAStyle.ARM64,
        stats: Stats | None = None,
    ) -> None:
        super().__init__(stats)
        widths = tuple(way_offset_bits) if way_offset_bits is not None else default_way_offsets(isa)
        if not widths:
            raise ConfigurationError("BTB-X needs at least one way")
        if sorted(widths) != list(widths):
            raise ConfigurationError("BTB-X way offset widths must be non-decreasing")
        associativity = len(widths)
        if entries <= 0 or entries % associativity != 0:
            raise ConfigurationError(
                f"BTB-X entries ({entries}) must be a positive multiple of the way count ({associativity})"
            )
        self.isa = isa
        self.alignment_bits = isa.alignment_bits
        self.tag_bits = tag_bits
        self.way_offset_bits = widths
        self.associativity = associativity
        self.num_sets = entries // associativity
        # Sets materialize lazily on first install (see
        # SetAssociativeCache.__init__ for the bit-exactness argument): a
        # probe of an unmaterialized set is a miss with nothing to scan.
        self._sets: List[List[_Entry] | None] = [None] * self.num_sets
        self._lru: List[LRUState | None] = [None] * self.num_sets
        # Per-way hit/allocation counters (kept as plain lists for speed; they
        # are exposed through way_hit_counts()/way_allocation_counts()).
        self._way_hits = [0] * associativity
        self._way_allocations = [0] * associativity
        if companion_divisor and companion_divisor > 0:
            companion_entries = max(entries // companion_divisor, 1)
            self.companion: BTBXC | None = BTBXC(
                companion_entries, tag_bits=tag_bits, isa=isa, stats=self._stats_registry
            )
        else:
            self.companion = None

    # -- geometry ----------------------------------------------------------

    @property
    def max_offset_bits(self) -> int:
        """Width of the widest offset way."""
        return self.way_offset_bits[-1]

    def set_bits(self) -> int:
        """Storage bits of one set: 8 entries' metadata plus all offset fields.

        With the paper's Arm64 widths this is 8*18 + 80 = 224 bits (Table III).
        """
        return self.associativity * METADATA_BITS + sum(self.way_offset_bits)

    def storage_bits(self) -> int:
        """Total storage, including the BTB-XC companion when present."""
        total = self.num_sets * self.set_bits()
        if self.companion is not None:
            total += self.companion.storage_bits()
        return total

    def capacity_entries(self) -> int:
        """Branch capacity: BTB-X entries plus companion entries."""
        companion = self.companion.capacity_entries() if self.companion is not None else 0
        return self.num_sets * self.associativity + companion

    # -- operations --------------------------------------------------------

    def set_active_asid(self, asid: int) -> None:
        """Propagate the ASID to the companion so both structures agree."""
        super().set_active_asid(asid)
        if self.companion is not None:
            self.companion.set_active_asid(asid)

    def configure_partitions(self, weights: Sequence[int] | None) -> None:
        """Partition BTB-X sets per tenant; the companion follows when it can.

        BTB-XC holds the <1 % widest-offset branches and can be as small as a
        single entry, so when it has fewer entries than tenants it stays
        shared (its entries are still ASID-colored, so sharing is false-hit
        free -- the only cross-tenant effect is eviction pressure on that
        sliver of capacity).
        """
        super().configure_partitions(weights)
        if self.companion is not None:
            self.companion.configure_partitions(weights)

    def secondary_partition_counts(self) -> dict[str, list[int]]:
        """Per-tenant companion slices, when the companion is partitioned."""
        if self.companion is None:
            return {}
        counts = self.companion.partition_set_counts()
        return {} if counts is None else {"companion": counts}

    def duplication_counts(self) -> dict[str, dict[str, int]]:
        """Main-BTB duplication plus the companion's, under one report."""
        counts = super().duplication_counts()
        if self.companion is not None:
            counts.update(self.companion.duplication_counts())
        return counts

    def energy_access_counts(self) -> dict[str, float]:
        """Main counters plus the companion's read/write/search traffic.

        Only the access-counter keys are merged: the companion's *event*
        counters (hits/misses) are already folded into the main BTB's stats
        by :meth:`lookup`, so summing those as well would double-count.
        """
        counts = super().energy_access_counts()
        if self.companion is not None:
            for key, value in self.companion.access_counts().items():
                if key.startswith(("reads.", "writes.", "searches.")):
                    counts[key] = counts.get(key, 0.0) + float(value)
        return counts

    def reset_stats(self) -> None:
        """Zero the main counters *and* the companion's.

        The companion is a separate :class:`BTBBase` with its own counter
        dicts and stats prefix; without this override a warmup/measurement
        boundary would reset the main BTB only, leaving warmup traffic in
        the companion's counters (and so in the exported energy numbers).
        The per-way hit and allocation counters restart with them.
        """
        super().reset_stats()
        self._way_hits = [0] * self.associativity
        self._way_allocations = [0] * self.associativity
        if self.companion is not None:
            self.companion.reset_stats()

    def _recover_target(self, pc: int, entry: _Entry) -> int:
        """Concatenate the branch PC's high bits with the stored offset.

        The number of PC bits replaced is the entry's recorded offset width
        plus the ISA alignment bits; because that width covers every bit in
        which PC and target differ, the concatenation reproduces the full
        target exactly and needs no adder (Section V-B).
        """
        align = self.alignment_bits
        width = entry.offset_width + align
        return ((pc >> width) << width) | (entry.offset_payload << align)

    def lookup(self, pc: int) -> BTBLookupResult:
        """Probe all ways (and BTB-XC) in parallel with the PC."""
        return self.lookup_prelocated(pc, self._locate(pc))

    def lookup_prelocated(
        self,
        pc: int,
        key: int,
        way: int | None = None,
        companion_plan=None,
        position: int = -1,
    ) -> BTBLookupResult:
        """The probe proper, with the main array's lookup key computed.

        ``way`` is a batch plan's preresolution of the main ways (``-1``
        certain main miss, ``>= 0`` the hit way; ``None`` reads the
        resident-tag index).  On a main miss the companion is probed through
        ``companion_plan`` (the batched backend's plan of BTB-XC, at the same
        chunk ``position``) or, without one, located lazily -- the scalar
        path computes the companion's location only when the main ways miss.
        """
        self.record_read("main")
        if way is None:
            way = self._resident.get(key, -1)
        if way >= 0:
            index = key >> self.tag_bits
            entry = self._sets[index][way]
            self._lru[index].touch(way)
            self.stats.inc("hits")
            self._way_hits[way] += 1
            if entry.branch_type.target_from_ras:
                return BTBLookupResult(
                    hit=True,
                    branch_type=entry.branch_type,
                    target=None,
                    target_from_ras=True,
                    structure=f"way{way}",
                )
            return BTBLookupResult(
                hit=True,
                branch_type=entry.branch_type,
                target=self._recover_target(pc, entry),
                structure=f"way{way}",
            )
        if self.companion is not None:
            if companion_plan is None:
                companion_result = self.companion.lookup(pc)
            else:
                companion_result = companion_plan.lookup(position, pc)
            if companion_result.hit:
                self.stats.inc("hits")
                self.stats.inc("hits.companion")
                return companion_result
        self.stats.inc("misses")
        return BTBLookupResult.miss()

    def _eligible_ways(self, required_bits: int) -> List[int]:
        """Ways whose offset field can hold ``required_bits`` stored bits."""
        return [way for way, width in enumerate(self.way_offset_bits) if width >= required_bits]

    def update(self, instruction: Instruction) -> None:
        """Allocate or refresh the entry for a committed taken branch.

        The branch's required stored-offset width determines the set of ways it
        may occupy; returns (0 bits) fit everywhere, and branches wider than the
        widest way go to BTB-XC instead.
        """
        if not instruction.is_branch:
            return
        required = stored_offset_bits(
            instruction.pc, instruction.target, isa=self.isa, branch_type=instruction.branch_type
        )
        if required > self.max_offset_bits:
            self.stats.inc("overflow_to_companion")
            if self.companion is not None:
                self.companion.update(instruction)
            return

        self.record_allocation("main", instruction.pc)
        key = self._locate(instruction.pc)
        index = key >> self.tag_bits
        entries = self._sets[index]
        if entries is None:
            entries = self._materialize(index)
        payload = self._offset_payload(instruction, required)

        # Refresh an existing entry if the branch is already present and its
        # (possibly new, for indirect branches) offset still fits that way.
        way = self._resident.get(key, -1)
        if way >= 0:
            entry = entries[way]
            if self.way_offset_bits[way] >= required:
                changed = (
                    entry.offset_payload != payload
                    or entry.branch_type != instruction.branch_type
                    or entry.offset_width != required
                )
                entry.branch_type = instruction.branch_type
                entry.offset_payload = payload
                entry.offset_width = required
                self._lru[index].touch(way)
                if changed:
                    self.record_write("main")
                return
            # The target moved out of this way's reach (indirect branch):
            # drop the stale entry and re-allocate below.
            self._clear_way(index, way, entry)
            self.stats.inc("reallocations")

        eligible = self._eligible_ways(required)
        victim = next((way for way in eligible if not entries[way].valid), None)
        if victim is None:
            victim = self._lru[index].victim(eligible)
            self.stats.inc("evictions")
        entry = entries[victim]
        self._fill_way(key, victim, entry)
        entry.branch_type = instruction.branch_type
        entry.offset_payload = payload
        entry.offset_width = required
        self._lru[index].touch(victim)
        self.record_write("main")
        self.stats.inc("allocations")
        self._way_allocations[victim] += 1

    def _materialize(self, index: int) -> List[_Entry]:
        """Allocate the ways (and LRU state) of set ``index`` on first install."""
        entries = [_Entry() for _ in range(self.associativity)]
        self._sets[index] = entries
        self._lru[index] = LRUState(self.associativity)
        return entries

    def _offset_payload(self, instruction: Instruction, required_bits: int) -> int:
        """The stored offset payload: low target bits above the alignment bits."""
        if required_bits == 0:
            return 0
        return (instruction.target >> self.alignment_bits) & ((1 << required_bits) - 1)

    def way_hit_counts(self) -> List[int]:
        """Per-way hit counts accumulated so far."""
        return list(self._way_hits)

    def way_allocation_counts(self) -> List[int]:
        """Per-way allocation counts accumulated so far."""
        return list(self._way_allocations)

    def invalidate_all(self) -> None:
        """Clear every entry, including the companion (tests/warmup control)."""
        self._sets = [None] * self.num_sets
        self._lru = [None] * self.num_sets
        self._clear_index()
        if self.companion is not None:
            self.companion.invalidate_all()

    # -- batched backend ---------------------------------------------------

    def batch_plan(self, pcs, taken_branch_pcs):
        """The shared set-associative plan, with the companion planned too.

        A PC is a guaranteed miss only when it provably misses both
        structures: the companion's own plan blocks its resident keys and the
        chunk's taken-branch keys (overflow branches install there, the rest
        in the main ways -- blocking both merely shrinks the fast set, never
        breaks exactness).  A main miss probes the companion through its
        plan, live, so companion mutations mid-chunk need no static analysis.
        """
        plan = super().batch_plan(pcs, taken_branch_pcs)
        if self.companion is not None:
            plan.secondary = self.companion.batch_plan(pcs, taken_branch_pcs)
            plan.guaranteed_miss &= plan.secondary.guaranteed_miss
        return plan

    def note_skipped_miss_lookups(self, count: int) -> None:
        """Bulk-account ``count`` proven-miss lookups (main and companion)."""
        super().note_skipped_miss_lookups(count)
        if self.companion is not None:
            self.companion.note_skipped_miss_lookups(count)
