"""Fetch target queue (FTQ).

The FTQ decouples the branch prediction unit from the fetch engine (Figure 2).
The BPU pushes predicted instruction addresses at its own pace; the fetch
engine consumes them.  Its occupancy therefore measures how far ahead of fetch
the BPU is running, which is exactly the lead time available to FDIP for
hiding L1-I miss latency.  A pipeline flush or resteer empties the queue: the
BPU must start over on the corrected path.

Occupancy is the only FTQ state the model reads, so the queue is a saturating
counter: it stores no addresses.  A push into a full queue stands for the
fetch engine consuming the oldest entry, keeping occupancy at capacity.
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError


class FetchTargetQueue:
    """Occupancy of a bounded FIFO of predicted fetch addresses."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity <= 0:
            raise ConfigurationError("FTQ capacity must be positive")
        self.capacity = capacity
        #: Number of addresses currently queued (the BPU's run-ahead distance).
        self.occupancy = 0

    def push(self, count: int = 1) -> None:
        """Enqueue ``count`` predicted addresses, saturating at capacity."""
        occupancy = self.occupancy + count
        self.occupancy = occupancy if occupancy < self.capacity else self.capacity

    def flush(self) -> int:
        """Drop every queued address (pipeline flush / resteer); returns count."""
        dropped = self.occupancy
        self.occupancy = 0
        return dropped
