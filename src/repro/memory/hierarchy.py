"""The instruction-side memory hierarchy: L1-I -> L2 -> LLC -> memory.

The instruction side is one operation, the demand fetch:

* :meth:`MemoryHierarchy.fetch` -- one demand instruction fetch.  Returns the
  latency in cycles (the L1-I hit latency is considered pipelined and costs
  nothing extra; misses cost the latency of the level that supplies the block)
  and fills all levels on the way back (inclusive fill).  An L1-I hit is
  settled inline: a directory probe, an LRU touch and three counters.
* :meth:`MemoryHierarchy.fetch_batch` -- the same fetches for a whole
  scheduling chunk, in order.  L1-I hits are settled in bulk (the same
  probe, their counters added once per batch); misses take
  :meth:`~MemoryHierarchy.fetch`.

FDIP issues no prefetches into the hierarchy: it charges each L1-I miss the
residual latency its run-ahead could not hide
(:meth:`repro.frontend.fdip.FDIPPrefetcher.cover_demand_miss`).

The L1-D is constructed but never accessed: the paper's experiments only
exercise the instruction side.  It still takes part in context switches and
partitioning, so its per-tenant set counts appear in
:meth:`MemoryHierarchy.partition_report`.

Context switches: the hierarchy is a tenant-aware citizen like the BTBs.
:attr:`MachineConfig.cache_asid_mode` selects what happens when a different
address space is scheduled in --

* ``None`` (the default) -- the legacy shared, untagged hierarchy: switches
  are invisible to the caches, so tenants false-share lines whenever their
  virtual addresses collide.  Every pre-existing result is produced in this
  mode;
* ``ASIDMode.FLUSH`` -- every level is invalidated on a switch (hardware
  without ASID-tagged caches, e.g. VIVT designs);
* ``ASIDMode.TAGGED`` -- lines are tagged with the owning address space
  (PIPT-style sharing): capacity is shared, switches cost nothing, and
  cross-tenant false hits are impossible;
* ``ASIDMode.PARTITIONED`` -- tagged, plus every level's sets are split
  weight-proportionally among the tenants (see
  :meth:`MemoryHierarchy.configure_partitions`), so tenants cannot evict each
  other's lines.

All four behaviours are driven by the same
:class:`repro.common.asid.AddressSpacePolicy` the BTB organizations use.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence

from repro.common.asid import retains_across_switch
from repro.common.config import ASIDMode, MachineConfig
from repro.common.stats import Stats
from repro.memory.cache import SetAssociativeCache


class FetchResult(NamedTuple):
    """Outcome of a demand fetch."""

    latency: int
    level: str
    l1i_hit: bool


#: Shared results for the zero-latency outcomes; fetch() runs once per cache
#: block of the instruction stream and hits dominate, so the per-call
#: allocation is worth dodging (the record is immutable, making the sharing
#: invisible).  Misses share one result per supplier level, built per
#: hierarchy from its latencies.
_L1I_HIT = FetchResult(latency=0, level="L1I", l1i_hit=True)


class MemoryHierarchy:
    """L1-I/L1-D + unified L2 + LLC + fixed-latency memory."""

    def __init__(self, config: MachineConfig, stats: Stats | None = None) -> None:
        self.config = config
        self._stats_registry = stats if stats is not None else Stats()
        self.stats = self._stats_registry.group("memory")
        # The registry's live counters and the fetch's keys in it, bumped in
        # place: a fetch runs for every block the front end fetches.
        self._counters = self.stats.live
        self._accesses, self._l1i_misses = map(self.stats.key, ("ifetch.accesses", "ifetch.l1i_misses"))
        self._fill_keys = {
            level: self.stats.key(f"ifetch.fills.{level.lower()}") for level in ("L2", "LLC", "DRAM")
        }
        self.l1i = SetAssociativeCache(config.l1i, self._stats_registry)
        self.l1d = SetAssociativeCache(config.l1d, self._stats_registry)
        self.l2 = SetAssociativeCache(config.l2, self._stats_registry)
        self.llc = SetAssociativeCache(config.llc, self._stats_registry)
        self.memory_latency = config.memory_latency
        #: Context-switch policy of the caches; ``None`` is the legacy
        #: ASID-oblivious hierarchy (see the module docstring).
        self.asid_mode = config.cache_asid_mode
        self._active_asid = 0
        self._miss_results = {
            level: FetchResult(latency=latency, level=level, l1i_hit=False)
            for level, latency in (
                ("L2", self.l2.hit_latency),
                ("LLC", self.llc.hit_latency),
                ("DRAM", self.memory_latency),
            )
        }

    def _levels(self) -> tuple[SetAssociativeCache, ...]:
        return (self.l1i, self.l1d, self.l2, self.llc)

    # -- context switches ------------------------------------------------------

    @property
    def active_asid(self) -> int:
        """Address space the hierarchy currently attributes lines to."""
        return self._active_asid

    def context_switch(self, asid: int) -> None:
        """Schedule address space ``asid`` in, applying the cache ASID mode.

        A no-op when ``asid`` is already active or the hierarchy runs in
        legacy (``None``) mode.  ``FLUSH`` invalidates every level; the
        retention modes only re-color: partitioned indexing keys off the same
        active-ASID switch, exactly like the BTBs.
        """
        if self.asid_mode is None or asid == self._active_asid:
            self._active_asid = asid
            return
        self.stats.inc("context_switches")
        if retains_across_switch(self.asid_mode):
            for cache in self._levels():
                cache.set_active_asid(asid)
        else:
            self.invalidate_all()
        self._active_asid = asid

    def configure_partitions(self, weights: Sequence[int] | None) -> None:
        """Split every level's sets among tenants (``None`` to share).

        Mirrors :meth:`repro.btb.base.BTBBase.configure_partitions`: slices
        are weight-proportional and levels with fewer sets than tenants fall
        back to tagged sharing.  Only meaningful under
        ``ASIDMode.PARTITIONED``; callers apply it before the run starts.
        """
        for cache in self._levels():
            cache.configure_partitions(weights)

    def partition_report(self) -> Dict[str, List[int]]:
        """Per-tenant set counts of every partitioned level (may be empty)."""
        report: Dict[str, List[int]] = {}
        for name, cache in (
            ("l1i", self.l1i),
            ("l1d", self.l1d),
            ("l2", self.l2),
            ("llc", self.llc),
        ):
            counts = cache.partition_set_counts()
            if counts is not None:
                report[name] = counts
        return report

    # -- instruction side -----------------------------------------------------

    def _miss_result(self, addr: int) -> FetchResult:
        """The (shared) result of a block missing in the L1-I, by supplier."""
        if self.l2.access(addr).hit:
            return self._miss_results["L2"]
        if self.llc.access(addr).hit:
            self.l2.fill(addr)
            return self._miss_results["LLC"]
        # Miss everywhere: fetch from memory and fill the whole hierarchy.
        self.llc.fill(addr)
        self.l2.fill(addr)
        return self._miss_results["DRAM"]

    def fetch(self, addr: int) -> FetchResult:
        """Demand instruction fetch of the block containing ``addr``.

        The L1-I access is inlined: the probe of :meth:`fetch_batch` and the
        counters :meth:`SetAssociativeCache.access` bumps, in its order.
        """
        counters = self._counters
        counters[self._accesses] += 1
        l1i = self.l1i
        counters[l1i._accesses] += 1
        block = addr >> l1i._offset_bits
        way = l1i._where.get(block ^ l1i._color)
        if way is not None:
            l1i._lru[l1i._slice_base + block % l1i._slice_count].touch(way)
            counters[l1i._hits] += 1
            return _L1I_HIT
        counters[l1i._misses] += 1
        counters[self._l1i_misses] += 1
        result = self._miss_result(addr)
        l1i.fill(addr)
        counters[self._fill_keys[result.level]] += 1
        return result

    def fetch_batch(self, addresses: Sequence[int]) -> List[FetchResult]:
        """Demand-fetch ``addresses`` in order, returning one result each.

        The batched backend pre-executes every new-block fetch of a scheduling
        chunk through here.  Within a chunk only demand fetches mutate the
        hierarchy, so running them front-to-back before the per-instruction
        walk observes exactly the state the scalar loop would have.

        An L1-I hit is settled here, bit-exact against :meth:`fetch`: the
        probe reads the L1-I's resident-line directory with the set index and
        colored tag from the level's cached slice and color -- constant
        within a chunk, so they are read once -- and touches the way's LRU
        state; the three hit counters are added once for the batch (nothing
        reads them in between).  A miss takes :meth:`fetch`, whose fills the
        later probes observe.
        """
        l1i = self.l1i
        where = l1i._where
        lru = l1i._lru
        shift = l1i._offset_bits
        base, count, color = l1i._slice_base, l1i._slice_count, l1i._color
        fetch = self.fetch
        results: List[FetchResult] = []
        append = results.append
        hits = 0
        for addr in addresses:
            block = addr >> shift
            way = where.get(block ^ color)
            if way is None:
                append(fetch(addr))
            else:
                lru[base + block % count].touch(way)
                append(_L1I_HIT)
                hits += 1
        if hits:
            counters = self._counters
            counters[self._accesses] += hits
            counters[l1i._accesses] += hits
            counters[l1i._hits] += hits
        return results

    # -- maintenance -------------------------------------------------------------

    def invalidate_all(self) -> None:
        """Drop every cached block in every level."""
        for cache in self._levels():
            cache.invalidate_all()

    def line_size(self) -> int:
        """Instruction cache line size in bytes."""
        return self.l1i.line_size


#: Re-exported for callers that key off the mode enum alongside the hierarchy.
__all__ = ["FetchResult", "MemoryHierarchy", "ASIDMode"]
