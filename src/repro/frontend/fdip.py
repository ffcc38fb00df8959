"""Fetch-directed instruction prefetcher (FDIP).

The prefetch engine scans the FTQ and issues L1-I prefetches for the cache
blocks the fetch engine will need (Figure 2).  How much of an L1-I miss the
prefetch hides depends on the BPU's run-ahead distance when the block entered
the FTQ: with a full 128-entry FTQ and a 6-wide fetch engine the prefetch has
roughly 21 cycles of lead time, enough to hide an L2 hit entirely and most of
an LLC hit.

Modelling note (documented in DESIGN.md): rather than simulating the prefetch
queue cycle-by-cycle, the model charges each demand L1-I miss the *residual*
latency that the prefetch could not hide, where the lead time is the FTQ
occupancy (in instructions) divided by the fetch width.  A fetch-stream break
(BTB miss on a taken branch, direction misprediction, wrong target) flushes
the FTQ, so the instructions immediately after a resteer see little or no
prefetch coverage -- exactly the FDIP degradation the paper attributes to BTB
misses.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.common.config import MachineConfig
from repro.common.stats import Stats
from repro.frontend.ftq import FetchTargetQueue
from repro.memory.hierarchy import MemoryHierarchy


class PrefetchCoverage(NamedTuple):
    """How an L1-I demand miss interacts with FDIP."""

    #: Cycles of miss latency the demand fetch still has to wait for.
    residual_latency: int
    #: Cycles hidden by the prefetch (0 when FDIP is disabled or cold).
    hidden_latency: int
    #: Classification used for statistics: "full", "partial", "none".
    coverage: str


class FDIPPrefetcher:
    """Prefetch engine coupled to the FTQ and the memory hierarchy."""

    def __init__(
        self,
        config: MachineConfig,
        ftq: FetchTargetQueue,
        hierarchy: MemoryHierarchy,
        stats: Stats | None = None,
    ) -> None:
        registry = stats if stats is not None else Stats()
        self.stats = registry.group("fdip")
        self.config = config
        self.ftq = ftq
        self.hierarchy = hierarchy
        self.enabled = config.fdip.enabled
        self._fetch_width = max(config.core.fetch_width, 1)
        self._last_prefetched_block: int | None = None
        # The observe paths run once per predicted address (the simulator's
        # innermost loop); the line mask and the L1-I are immutable for the
        # hierarchy's lifetime, so both are hoisted out of them here.
        self._line_mask = ~(hierarchy.line_size() - 1)
        self._l1i = hierarchy.l1i
        # The FTQ's deque is stable for its lifetime (flush clears in place),
        # so the block-run path can append through it directly -- the spill
        # count ftq.extend reports is unused here and maxlen already trims.
        self._ftq_entries = ftq._entries

    # -- BPU side ---------------------------------------------------------------

    def observe_predicted_address(self, address: int) -> None:
        """Called for every address the BPU inserts into the FTQ.

        Issues an L1-I prefetch the first time a new cache block enters the
        queue (the prefetch engine deduplicates consecutive requests for the
        same block, as the real engine would).
        """
        self.ftq.push(address)
        if not self.enabled:
            return
        block = address & self._line_mask
        if block == self._last_prefetched_block:
            return
        self._last_prefetched_block = block
        if not self._l1i.contains(block):
            self.stats.inc("prefetches_issued")

    def observe_predicted_block_run(self, addresses) -> None:
        """Observe a run of predicted addresses that share one cache block.

        Bit-equivalent to calling :meth:`observe_predicted_address` for each
        address when all of them fall in the same block: every address enters
        the FTQ, and the block-dedup/prefetch check can fire at most once (on
        the first address).  The batched backend uses this for runs of
        sequential non-branch instructions, which never leave their block.
        """
        self._ftq_entries.extend(addresses)
        if not self.enabled or not addresses:
            return
        block = addresses[0] & self._line_mask
        if block == self._last_prefetched_block:
            return
        self._last_prefetched_block = block
        if not self._l1i.contains(block):
            self.stats.inc("prefetches_issued")

    def on_stream_break(self) -> None:
        """A resteer/flush empties the FTQ and restarts the run-ahead."""
        self.ftq.flush()
        self._last_prefetched_block = None

    # -- fetch side ----------------------------------------------------------------

    @property
    def lead_cycles(self) -> int:
        """Cycles of run-ahead currently available to hide a miss."""
        if not self.enabled:
            return 0
        return self.ftq.occupancy // self._fetch_width

    def cover_demand_miss(self, miss_latency: int) -> PrefetchCoverage:
        """Compute the residual stall of an L1-I demand miss under FDIP."""
        if not self.enabled or miss_latency <= 0:
            if miss_latency > 0:
                self.stats.inc("misses_uncovered")
            return PrefetchCoverage(
                residual_latency=max(miss_latency, 0), hidden_latency=0, coverage="none"
            )
        hidden = min(self.lead_cycles, miss_latency)
        residual = miss_latency - hidden
        if hidden == 0:
            self.stats.inc("misses_uncovered")
            coverage = "none"
        elif residual == 0:
            self.stats.inc("misses_fully_covered")
            coverage = "full"
        else:
            self.stats.inc("misses_partially_covered")
            coverage = "partial"
        self.stats.add("hidden_cycles", hidden)
        return PrefetchCoverage(residual_latency=residual, hidden_latency=hidden, coverage=coverage)
