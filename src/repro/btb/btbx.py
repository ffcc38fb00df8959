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
from typing import Sequence, Tuple

from repro.common.config import ISAStyle
from repro.common.errors import ConfigurationError
from repro.isa.branch import BranchType
from repro.isa.instruction import Instruction
from repro.traces.trace import Trace
from repro.btb.base import _MISS_RESULT, TAG_BITS, BTBLookupResult, SetAssociativeBTB
from repro.btb.conventional import FULL_TARGET_ENTRY_BITS, FullTargetBTB
from repro.btb.offsets import stored_offset_bits

#: Per-way offset widths for Arm64 (Figure 8) and x86 (Section VI-G).
BTBX_WAY_OFFSET_BITS_ARM64: Tuple[int, ...] = (0, 4, 5, 7, 9, 11, 19, 25)
BTBX_WAY_OFFSET_BITS_X86: Tuple[int, ...] = (0, 5, 6, 7, 9, 12, 20, 27)

#: Metadata bits per BTB-X entry: valid(1) + tag(12) + type(2) + rep_policy(3).
VALID_BITS = 1
TYPE_BITS = 2
REPL_BITS = 3
METADATA_BITS = VALID_BITS + TAG_BITS + TYPE_BITS + REPL_BITS

#: The partial-tag bits of a lookup key.
_TAG_MASK = (1 << TAG_BITS) - 1

#: BTB-XC has 64x fewer entries than BTB-X (at least one).
COMPANION_DIVISOR = 64


def companion_entries_for(btbx_entries: int) -> int:
    """BTB-XC entries beside a BTB-X of ``btbx_entries`` entries."""
    return max(btbx_entries // COMPANION_DIVISOR, 1)


def default_way_offsets(isa: ISAStyle) -> Tuple[int, ...]:
    """The paper's per-way offset widths for the given ISA."""
    if isa is ISAStyle.ARM64:
        return BTBX_WAY_OFFSET_BITS_ARM64
    return BTBX_WAY_OFFSET_BITS_X86


def btbx_set_bits(way_offset_bits: Sequence[int]) -> int:
    """Storage bits of one set: every entry's metadata plus all offset fields.

    With the paper's Arm64 widths this is 8*18 + 80 = 224 bits (Table III).
    """
    return len(way_offset_bits) * METADATA_BITS + sum(way_offset_bits)


@dataclass(slots=True)
class _Entry:
    valid: bool = False
    tag: int = 0
    branch_type: BranchType = BranchType.CONDITIONAL
    offset_payload: int = 0
    offset_width: int = 0  # stored-bit width actually used (<= way width)


class BTBXC(FullTargetBTB):
    """The small direct-mapped companion BTB holding full targets.

    It captures the <1 % of branches whose offsets do not fit even the widest
    BTB-X way; the paper sizes it at 1/64th of the BTB-X entry count (one
    eighth of the number of BTB-X sets).  Direct-mapped: every entry is its
    own one-way set (the partitioning granularity, and the shape of the
    batched residency shadow).

    Its probes count nothing: BTB-X reads it once per main miss, so BTB-X
    derives its reads (:meth:`BTBX.energy_access_counts`) and counts its
    hits as its own (``hits.companion``).  Its counters hold its evictions
    and writes.
    """

    name = "btbxc"

    def __init__(self, entries: int, isa: ISAStyle = ISAStyle.ARM64) -> None:
        super().__init__(entries, associativity=1, isa=isa)

    def update(self, instruction: Instruction) -> None:
        """Insert/refresh; direct-mapped, so the indexed entry is overwritten."""
        self.record_allocation("companion", instruction.pc)
        key = self._locate(instruction.pc)
        index = key >> self.tag_bits
        entry = (self._sets[index] or self._materialize(index))[0]
        counters = self.counters
        if entry.valid and key not in self._resident:
            counters["evictions"] = counters.get("evictions", 0) + 1
        self._fill_way(key, 0, entry)
        entry.branch_type = instruction.branch_type
        entry.target = instruction.target
        counters["writes.companion"] = counters.get("writes.companion", 0) + 1

    def lookup(self, pc: int) -> BTBLookupResult:
        """Probe the companion (uncounted)."""
        return self.lookup_prelocated(pc, self._locate(pc))

    def lookup_prelocated(self, pc: int, key: int, way: int | None = None) -> BTBLookupResult:
        """:meth:`lookup` with the key already computed (uncounted)."""
        if way is None:
            way = self._resident.get(key, -1)
        if way < 0:
            return _MISS_RESULT
        index = key >> TAG_BITS
        self._lru[index].touch(way)
        return self._hit(pc, index, way)

    def _hit(self, pc: int, index: int, way: int) -> BTBLookupResult:
        entry = self._sets[index][way]
        branch_type = entry.branch_type
        return BTBLookupResult(True, branch_type, entry.target, branch_type.target_from_ras)

    def storage_bits(self) -> int:
        """Total storage of the companion: one full-target entry per entry."""
        return self.capacity_entries() * FULL_TARGET_ENTRY_BITS


class BTBX(SetAssociativeBTB):
    """BTB-X proper: skewed-width offset ways plus the BTB-XC companion.

    ``companion_entries`` defaults to :func:`companion_entries_for`
    ``entries`` and must be positive: every BTB-X has its BTB-XC.
    """

    name = "btbx"
    _entry_type = _Entry

    def __init__(
        self,
        entries: int,
        way_offset_bits: Sequence[int] | None = None,
        companion_entries: int | None = None,
        isa: ISAStyle = ISAStyle.ARM64,
    ) -> None:
        widths = tuple(way_offset_bits) if way_offset_bits is not None else default_way_offsets(isa)
        if not widths:
            raise ConfigurationError("BTB-X needs at least one way")
        if sorted(widths) != list(widths):
            raise ConfigurationError("BTB-X way offset widths must be non-decreasing")
        super().__init__(entries, len(widths), isa)
        self.way_offset_bits = widths
        #: Constrained-LRU candidates: the ways whose offset field holds
        #: ``required`` stored bits, indexed by ``required``.
        self._eligible = [
            [way for way, width in enumerate(widths) if width >= required]
            for required in range(widths[-1] + 1)
        ]
        if companion_entries is None:
            companion_entries = companion_entries_for(entries)
        if companion_entries <= 0:
            raise ConfigurationError("BTB-X needs a BTB-XC of at least one entry")
        self.companion: BTBXC = BTBXC(companion_entries, isa=isa)

    # -- geometry ----------------------------------------------------------

    @property
    def max_offset_bits(self) -> int:
        """Width of the widest offset way."""
        return self.way_offset_bits[-1]

    def set_bits(self) -> int:
        """Storage bits of one set (224 with the paper's Arm64 widths)."""
        return btbx_set_bits(self.way_offset_bits)

    def storage_bits(self) -> int:
        """Total storage, including the BTB-XC companion."""
        return self.num_sets * self.set_bits() + self.companion.storage_bits()

    def capacity_entries(self) -> int:
        """Branch capacity: BTB-X entries plus companion entries."""
        return super().capacity_entries() + self.companion.capacity_entries()

    # -- operations --------------------------------------------------------

    def set_active_asid(self, asid: int) -> None:
        """Propagate the ASID to the companion so both structures agree."""
        super().set_active_asid(asid)
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
        self.companion.configure_partitions(weights)

    def secondary_partition_counts(self) -> dict[str, list[int]]:
        """Per-tenant companion slices, when the companion is partitioned."""
        counts = self.companion.partition_set_counts()
        return {} if counts is None else {"companion": counts}

    def duplication_counts(self) -> dict[str, dict[str, int]]:
        """Main-BTB duplication plus the companion's, under one report."""
        counts = super().duplication_counts()
        counts.update(self.companion.duplication_counts())
        return counts

    def energy_access_counts(self) -> dict[str, float]:
        """Main counters plus the companion's reads and writes.

        The companion is read once per main miss, so its reads are derived
        like ``misses``: main reads minus main-array hits (``hits`` less
        ``hits.companion``), reported from the first main miss after the
        last :meth:`reset_stats`.  Its writes are merged from its own
        counters.  A companion hit already counts as one of BTB-X's ``hits``
        (and ``hits.companion``), and BTB-X's derived ``misses`` are the
        probes that missed both structures, so the companion's own hits and
        misses are not merged.
        """
        counts = super().energy_access_counts()
        counters = self.counters
        companion_reads = (
            counters.get("reads.main", 0) - counters.get("hits", 0)
            + counters.get("hits.companion", 0)
        )
        if companion_reads:
            counts["reads.companion"] = float(companion_reads)
            counts["reads.total"] += companion_reads
        for key, value in self.companion.energy_access_counts().items():
            if key.startswith("writes."):
                counts[key] = counts.get(key, 0.0) + value
        return counts

    def reset_stats(self) -> None:
        """Restart the main counters *and* the companion's.

        The companion is a separate :class:`BTBBase` with its own counter
        store; without this override a warmup/measurement boundary would
        reset the main BTB only, leaving warmup traffic in the companion's
        counters (and so in the exported energy numbers).
        """
        super().reset_stats()
        self.companion.reset_stats()

    def probe_aliases(self, trace: Trace) -> frozenset[int]:
        """The main array's aliases plus BTB-XC's: a main miss probes BTB-XC too."""
        return super().probe_aliases(trace) | self.companion.probe_aliases(trace)

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
        """The main probe, then BTB-XC's on a main miss, in one call.

        The main key is computed inline as in
        :meth:`SetAssociativeBTB.lookup`.  BTB-XC's key is derived from it:
        both structures share the tag width, the alignment and the ASID
        color, so only the set index is recomputed, within the companion's
        own partition slice.  A miss in both returns the shared
        :data:`_MISS_RESULT`; a companion hit counts as one of BTB-X's hits.
        """
        counters = self.counters
        counters["reads.main"] = counters.get("reads.main", 0) + 1
        high = pc >> self.alignment_bits
        tag = high ^ (high >> 48)
        tag ^= tag >> 24
        tag ^= tag >> 12
        tag = (tag & 0xFFF) ^ self._tag_color
        key = ((self._slice_base + high % self._slice_count) << TAG_BITS) | tag
        way = self._resident.get(key, -1)
        if way >= 0:
            index = key >> TAG_BITS
            self._lru[index].touch(way)
            return self._hit(pc, index, way)
        companion = self.companion
        key = ((companion._slice_base + high % companion._slice_count) << TAG_BITS) | tag
        way = companion._resident.get(key, -1)
        if way < 0:
            return _MISS_RESULT
        index = key >> TAG_BITS
        companion._lru[index].touch(way)
        result = companion._hit(pc, index, way)
        counters["hits"] = counters.get("hits", 0) + 1
        counters["hits.companion"] = counters.get("hits.companion", 0) + 1
        return result

    def lookup_prelocated(
        self,
        pc: int,
        key: int,
        way: int | None = None,
        companion_plan=None,
        position: int = -1,
    ) -> BTBLookupResult:
        """:meth:`lookup` with the main key (:meth:`_locate`) already computed.

        ``way`` is a batch plan's preresolution of the main ways (see
        :meth:`SetAssociativeBTB.lookup_prelocated`).  On a main miss the
        companion is probed through ``companion_plan`` (the batched
        backend's plan of BTB-XC, at the same chunk ``position``) or, without
        one, at the key :meth:`lookup` derives from ``key``.
        """
        if way is None:
            way = self._resident.get(key, -1)
        if way >= 0:
            return super().lookup_prelocated(pc, key, way)
        companion = self.companion
        counters = self.counters
        counters["reads.main"] = counters.get("reads.main", 0) + 1
        if companion_plan is None:
            high = pc >> self.alignment_bits
            companion_key = (
                (companion._slice_base + high % companion._slice_count) << TAG_BITS
            ) | (key & _TAG_MASK)
            companion_result = companion.lookup_prelocated(pc, companion_key)
        else:
            companion_result = companion_plan.lookup(position, pc)
        if companion_result.hit:
            counters["hits"] = counters.get("hits", 0) + 1
            counters["hits.companion"] = counters.get("hits.companion", 0) + 1
        return companion_result

    def _hit(self, pc: int, index: int, way: int) -> BTBLookupResult:
        entry = self._sets[index][way]
        counters = self.counters
        counters["hits"] = counters.get("hits", 0) + 1
        branch_type = entry.branch_type
        if branch_type.target_from_ras:
            return BTBLookupResult(True, branch_type, None, True)
        return BTBLookupResult(True, branch_type, self._recover_target(pc, entry))

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
            counters = self.counters
            counters["overflow_to_companion"] = counters.get("overflow_to_companion", 0) + 1
            self.companion.update(instruction)
            return

        self.record_allocation("main", instruction.pc)
        key = self._locate(instruction.pc)
        payload = self._offset_payload(instruction, required)
        # A resident entry is refreshed in place while its (possibly new, for
        # indirect branches) offset still fits its way, else reallocated.
        eligible = self._eligible[required]
        entry = self._resident_entry(key, eligible)
        if entry is None:
            _, entry = self._allocate(key, eligible)
        elif (
            entry.offset_payload != payload
            or entry.branch_type != instruction.branch_type
            or entry.offset_width != required
        ):
            counters = self.counters
            counters["writes.main"] = counters.get("writes.main", 0) + 1
        entry.branch_type = instruction.branch_type
        entry.offset_payload = payload
        entry.offset_width = required

    def _offset_payload(self, instruction: Instruction, required_bits: int) -> int:
        """The stored offset payload: low target bits above the alignment bits."""
        if required_bits == 0:
            return 0
        return (instruction.target >> self.alignment_bits) & ((1 << required_bits) - 1)

    def invalidate_all(self) -> None:
        """Clear every entry, including the companion (tests/warmup control)."""
        super().invalidate_all()
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
        plan.secondary = self.companion.batch_plan(pcs, taken_branch_pcs)
        plan.guaranteed_miss &= plan.secondary.guaranteed_miss
        return plan
