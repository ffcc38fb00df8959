"""The instruction-side memory hierarchy: L1-I -> L2 -> LLC -> memory.

Two operations are exposed:

* :meth:`MemoryHierarchy.fetch` -- a demand instruction fetch.  Returns the
  latency in cycles (the L1-I hit latency is considered pipelined and costs
  nothing extra; misses cost the latency of the level that supplies the block)
  and fills all levels on the way back (inclusive fill).
* :meth:`MemoryHierarchy.prefetch` -- an FDIP prefetch for a block.  It probes
  the L1-I without disturbing demand-path statistics and, on a miss, fills the
  block into the L1-I (and below), returning the latency after which the block
  becomes usable.

The L1-D is constructed for completeness (data accesses can be replayed
through :meth:`MemoryHierarchy.data_access`) but the paper's experiments only
exercise the instruction side.

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
    """Outcome of a demand fetch or prefetch."""

    latency: int
    level: str
    l1i_hit: bool


#: Shared results for the zero-latency outcomes; fetch() runs once per cache
#: block of the instruction stream and hits dominate, so the per-call
#: allocation is worth dodging (the record is immutable, making the sharing
#: invisible).  Misses share one result per supplier level, built per
#: hierarchy from its latencies.
_L1I_HIT = FetchResult(latency=0, level="L1I", l1i_hit=True)
_L1D_HIT = FetchResult(latency=0, level="L1D", l1i_hit=False)
_PREFETCH_REDUNDANT = FetchResult(latency=0, level="L1I", l1i_hit=True)
_PREFETCH_DROPPED = FetchResult(latency=0, level="dropped", l1i_hit=False)

#: Per-supplier fill counter names, precomputed so the miss paths don't build
#: f-strings per fill.
_IFETCH_FILL_KEYS = {"L2": "ifetch.fills.l2", "LLC": "ifetch.fills.llc", "DRAM": "ifetch.fills.dram"}
_PREFETCH_FILL_KEYS = {
    "L2": "prefetch.fills.l2",
    "LLC": "prefetch.fills.llc",
    "DRAM": "prefetch.fills.dram",
}


class MemoryHierarchy:
    """L1-I/L1-D + unified L2 + LLC + fixed-latency memory."""

    def __init__(self, config: MachineConfig, stats: Stats | None = None) -> None:
        self.config = config
        self._stats_registry = stats if stats is not None else Stats()
        self.stats = self._stats_registry.group("memory")
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

    def _miss_result(self, addr: int, is_prefetch: bool) -> FetchResult:
        """The (shared) result of a block missing in the L1-I, by supplier."""
        if self.l2.access(addr, is_prefetch=is_prefetch).hit:
            return self._miss_results["L2"]
        if self.llc.access(addr, is_prefetch=is_prefetch).hit:
            self.l2.fill(addr, prefetched=is_prefetch)
            return self._miss_results["LLC"]
        # Miss everywhere: fetch from memory and fill the whole hierarchy.
        self.llc.fill(addr, prefetched=is_prefetch)
        self.l2.fill(addr, prefetched=is_prefetch)
        return self._miss_results["DRAM"]

    def fetch(self, addr: int) -> FetchResult:
        """Demand instruction fetch of the block containing ``addr``."""
        self.stats.inc("ifetch.accesses")
        if self.l1i.access(addr).hit:
            return _L1I_HIT
        self.stats.inc("ifetch.l1i_misses")
        result = self._miss_result(addr, is_prefetch=False)
        self.l1i.fill(addr)
        self.stats.inc(_IFETCH_FILL_KEYS[result.level])
        return result

    def fetch_batch(self, addresses: Sequence[int]) -> List[FetchResult]:
        """Demand-fetch ``addresses`` in order, returning one result each.

        The batched backend pre-executes every new-block fetch of a scheduling
        chunk through here.  Within a chunk only demand fetches mutate the
        hierarchy, so running them front-to-back before the per-instruction
        walk observes exactly the state the scalar loop would have.
        """
        fetch = self.fetch
        return [fetch(addr) for addr in addresses]

    def prefetch(self, addr: int) -> FetchResult:
        """FDIP prefetch of the block containing ``addr`` into the L1-I."""
        self.stats.inc("prefetch.issued")
        if self.l1i.contains(addr):
            self.stats.inc("prefetch.redundant")
            return _PREFETCH_REDUNDANT
        if not self.l1i.note_outstanding(addr):
            # All MSHRs busy: the prefetch is dropped.
            self.stats.inc("prefetch.dropped")
            return _PREFETCH_DROPPED
        result = self._miss_result(addr, is_prefetch=True)
        self.l1i.fill(addr, prefetched=True)
        self.stats.inc(_PREFETCH_FILL_KEYS[result.level])
        return result

    # -- data side (provided for completeness) ---------------------------------

    def data_access(self, addr: int, is_write: bool = False) -> FetchResult:
        """Demand data access through L1-D -> L2 -> LLC -> memory."""
        self.stats.inc("dfetch.accesses")
        if self.l1d.access(addr, is_write=is_write).hit:
            return _L1D_HIT
        result = self._miss_result(addr, is_prefetch=False)
        self.l1d.fill(addr, dirty=is_write)
        return result

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
