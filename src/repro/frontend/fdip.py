"""Fetch-directed instruction prefetcher (FDIP).

The prefetch engine scans the FTQ and issues L1-I prefetches for the cache
blocks the fetch engine will need (Figure 2).  How much of an L1-I miss the
prefetch hides depends on the BPU's run-ahead distance when the block entered
the FTQ: with a full 128-entry FTQ and a 6-wide fetch engine the prefetch has
roughly 21 cycles of lead time, enough to hide an L2 hit entirely and most of
an LLC hit.

Modelling note: the model issues no prefetches and simulates no prefetch
queue.  It models FDIP's *coverage* from FTQ occupancy alone: each demand
L1-I miss is charged the *residual* latency that the prefetch could not
hide, where the lead time is the FTQ occupancy (in instructions) divided by
the fetch width.  A fetch-stream break (BTB miss on a taken branch,
direction misprediction, wrong target) flushes the FTQ, so the instructions
immediately after a resteer see little or no prefetch coverage -- exactly
the FDIP degradation the paper attributes to BTB misses.
"""

from __future__ import annotations

from repro.common.config import MachineConfig
from repro.frontend.ftq import FetchTargetQueue


class FDIPPrefetcher:
    """Prefetch coverage of L1-I demand misses, read off the FTQ's occupancy."""

    def __init__(self, config: MachineConfig, ftq: FetchTargetQueue) -> None:
        self.ftq = ftq
        self.enabled = config.fdip.enabled
        self._fetch_width = max(config.core.fetch_width, 1)

    @property
    def lead_cycles(self) -> int:
        """Cycles of run-ahead currently available to hide a miss."""
        if not self.enabled:
            return 0
        return self.ftq.occupancy // self._fetch_width

    def cover_demand_miss(self, miss_latency: int) -> int:
        """The residual stall of an L1-I demand miss under FDIP.

        The prefetch hides up to :attr:`lead_cycles` of the miss.  The loops
        count a miss as covered when nothing is left of it:
        ``residual == 0 < miss_latency``.
        """
        if not self.enabled or miss_latency <= 0:
            return max(miss_latency, 0)
        return max(miss_latency - self.lead_cycles, 0)
