"""A single set-associative cache level with LRU replacement.

The model is functional (hit/miss state plus access counters) with the hit
latency the interval timing model charges.  Every access is a read: the
front-end experiments fetch instructions and never write.

Like the BTB organizations, every cache level adopts a
:class:`repro.common.asid.AddressSpacePolicy` and indexes like them: a block
lives at set ``base + block % count`` of the active tenant's slice and
matches on ``block ^ color``, both cached at every ASID switch and partition
change.  Lines can thus be tagged with the active address space (PIPT-style
sharing without cross-tenant false hits) and the sets partitioned
weight-proportionally among tenants.  With ASID 0 active and no partitions
configured -- the single-tenant and legacy cases -- the slice is every set
and the color is 0, so the cache behaves bit-identically to the historical
untagged model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.common.asid import AddressSpacePolicy
from repro.common.config import CacheConfig
from repro.common.lru import LRUState
from repro.common.stats import Stats


class CacheAccessResult(NamedTuple):
    """Outcome of an access to one cache level."""

    hit: bool
    evicted_block: Optional[int] = None


#: Shared results for the two common outcomes; access() is called once per
#: probe of every level, so the allocations are worth dodging (the record
#: is immutable, making the sharing invisible).
_HIT_RESULT = CacheAccessResult(hit=True)
_MISS_RESULT = CacheAccessResult(hit=False)


@dataclass(slots=True)
class _Line:
    valid: bool = False
    tag: int = 0
    #: Raw (uncolored) block address, kept so evictions can report the victim
    #: without inverting the ASID color or the partition remap.
    block: int = 0


class SetAssociativeCache:
    """One cache level: geometry from :class:`CacheConfig`, LRU replacement.

    The stored/compared tag is the ASID-colored *full* block number rather
    than the block's high bits: in the shared case the two are equivalent
    (the index bits are redundant with the set), while under partitioned set
    indexing the full block number is what keeps two blocks that share a
    slice-relative index distinguishable.  The color constants sit far above
    any realistic address, so distinct address spaces can never false-hit on
    each other's lines.
    """

    def __init__(self, config: CacheConfig, stats: Stats | None = None) -> None:
        self.config = config
        registry = stats if stats is not None else Stats()
        self.stats = registry.group(f"cache.{config.name.lower()}")
        # The registry's live counters and this level's keys in it, bumped in
        # place: an access runs for every block the front end fetches.
        self._counters = self.stats.live
        self._accesses, self._hits, self._misses, self._evictions, self._fills = map(
            self.stats.key, ("accesses.read", "hits.read", "misses.read", "evictions", "fills")
        )
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        self.line_size = config.line_size
        self._offset_bits = config.line_size.bit_length() - 1
        # Sets materialize lazily on first fill: large outer levels leave most
        # sets untouched in short runs, and a probe of an unmaterialized set
        # is a miss with no lines to scan and no LRU to touch.  Re-invalidation
        # simply drops sets back to None -- bit-identical to clearing valid
        # bits, because fills repopulate every LRU stamp before any eviction
        # decision can depend on one.
        self._sets: List[List[_Line] | None] = [None] * self.num_sets
        self._lru: List[LRUState | None] = [None] * self.num_sets
        # Resident-line directory: colored tag -> way.  A colored tag is the
        # full block number (XORed with a color far above the address bits),
        # so it pins a unique set under any fixed policy configuration --
        # tag -> way is therefore a complete, unambiguous index of residency,
        # and probes become one dict lookup instead of a way scan.  Kept
        # write-through by fill/eviction/invalidation.
        self._where: Dict[int, int] = {}
        #: ASID mechanics (tag coloring + set partitioning) for this level.
        self.asid_policy = AddressSpacePolicy()
        #: The active tenant's ``(base, count)`` slice of the sets (all of
        #: them when shared) and the active ASID's color constant;
        #: :meth:`_select_locations` refreshes all three.
        self._slice_base = 0
        self._slice_count = self.num_sets
        self._color = 0

    # -- address helpers ----------------------------------------------------

    def _index_tag(self, addr: int) -> tuple[int, int]:
        block = addr >> self._offset_bits
        return self._slice_base + block % self._slice_count, block ^ self._color

    # -- address-space handling ---------------------------------------------

    def set_active_asid(self, asid: int) -> None:
        """Switch the address space new lines are tagged with (retention modes)."""
        self.asid_policy.activate(asid)
        self._select_locations()

    def configure_partitions(self, weights: Sequence[int] | None) -> None:
        """Split this level's sets among tenants (``None`` to share).

        Weight-proportional contiguous set slices, exactly like the BTB
        organizations; a level with fewer sets than tenants falls back to
        (still tagged) sharing.  The level is invalidated whenever the
        partition map may have changed: lines installed under a different
        map would be unreachable or reachable from the wrong slice.
        """
        changed = self.asid_policy.configure("sets", self.num_sets, weights)
        self._select_locations()
        if changed:
            self.invalidate_all()

    def _select_locations(self) -> None:
        """Cache the active ASID's set slice and color constant."""
        policy = self.asid_policy
        self._slice_base, self._slice_count = policy.active_slice("sets", self.num_sets)
        self._color = policy.color_constant()

    def partition_set_counts(self) -> List[int] | None:
        """Sets per tenant partition (``None`` when the level is shared)."""
        return self.asid_policy.domain_counts("sets")

    # -- state queries ------------------------------------------------------

    def _materialize(self, index: int) -> List[_Line]:
        """Allocate set ``index`` (empty) and its LRU state on first fill.

        Lines are appended by :meth:`fill` as ways are first used: a line is
        only ever invalid before its first fill and lines are never
        individually invalidated (:meth:`invalidate_all` drops whole sets),
        so the valid ways are always exactly the list prefix -- "first
        invalid way" victim selection is simply the list's length.
        """
        lines: List[_Line] = []
        self._sets[index] = lines
        self._lru[index] = LRUState(self.associativity)
        return lines

    def contains(self, addr: int) -> bool:
        """True when the block holding ``addr`` is resident (no LRU update)."""
        return ((addr >> self._offset_bits) ^ self._color) in self._where

    @property
    def hit_latency(self) -> int:
        """Hit latency of this level in cycles."""
        return self.config.hit_latency

    # -- operations -----------------------------------------------------------

    def access(self, addr: int) -> CacheAccessResult:
        """Read the block containing ``addr``; on a miss the line is *not* filled.

        The caller (the hierarchy) decides whether and when to fill.
        """
        counters = self._counters
        counters[self._accesses] += 1
        block = addr >> self._offset_bits
        way = self._where.get(block ^ self._color)
        if way is not None:
            self._lru[self._slice_base + block % self._slice_count].touch(way)
            counters[self._hits] += 1
            return _HIT_RESULT
        counters[self._misses] += 1
        return _MISS_RESULT

    def fill(self, addr: int) -> Optional[int]:
        """Install the block containing ``addr``; returns the evicted block, if any."""
        index, tag = self._index_tag(addr)
        lines = self._sets[index]
        if lines is None:
            lines = self._materialize(index)
        present = self._where.get(tag)
        if present is not None:
            # Already present: refresh recency.
            self._lru[index].touch(present)
            return None
        evicted: Optional[int] = None
        if len(lines) < self.associativity:
            victim_way = len(lines)
            lines.append(_Line())
        else:
            victim_way = self._lru[index].victim()
            victim = lines[victim_way]
            evicted = victim.block << self._offset_bits
            del self._where[victim.tag]
            self._counters[self._evictions] += 1
        line = lines[victim_way]
        self._where[tag] = victim_way
        line.valid = True
        line.tag = tag
        line.block = addr >> self._offset_bits
        self._lru[index].touch(victim_way)
        self._counters[self._fills] += 1
        return evicted

    def invalidate_all(self) -> None:
        """Drop every line (context-switch flush, between experiments)."""
        for index, lines in enumerate(self._sets):
            if lines is not None:
                self._sets[index] = None
                self._lru[index] = None
        self._where.clear()

    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(
            1
            for lines in self._sets
            if lines is not None
            for line in lines
            if line.valid
        )
