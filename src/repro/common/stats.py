"""Lightweight statistics registry used by every simulated structure.

Hardware simulators accumulate large numbers of named event counters (hits,
misses, flushes, prefetches issued, ...).  :class:`Stats` provides a small,
dependency-free registry with:

* integer counters (``inc``) and floating accumulators (``add``), read back
  with ``get`` or all at once with ``counters``,
* prefixed views via :class:`StatGroup` (``stats.group("memory")``), one per
  simulated structure.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Mapping


class StatGroup:
    """A named view into a :class:`Stats` registry.

    All counter names used through the group are prefixed with the group name,
    so independent structures (e.g. two cache levels) can use identical local
    counter names without collisions.
    """

    def __init__(self, stats: "Stats", prefix: str) -> None:
        self._stats = stats
        self._prefix = prefix
        #: The registry's live counter dict.  Hot paths bump it in place under
        #: keys resolved once with :meth:`key`, which books exactly what
        #: :meth:`inc` would.
        self.live = stats._counters
        self._key_cache: Dict[str, str] = {}

    def key(self, name: str) -> str:
        """The registry key of the group's counter ``name``."""
        key = self._key_cache.get(name)
        if key is None:
            key = self._key_cache[name] = f"{self._prefix}.{name}"
        return key

    def inc(self, name: str, amount: int = 1) -> None:
        """Increment the integer counter ``name`` by ``amount``."""
        self.live[self.key(name)] += amount

    def add(self, name: str, amount: float) -> None:
        """Add ``amount`` to the floating accumulator ``name``."""
        self.live[self.key(name)] += amount

    def get(self, name: str) -> float:
        """Read the counter ``name`` (0 when never written)."""
        return self._stats.get(self.key(name))


class Stats:
    """Flat registry of named counters and accumulators."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = defaultdict(float)

    # -- writing ---------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount`` (default 1)."""
        self._counters[name] += amount

    def add(self, name: str, amount: float) -> None:
        """Add a floating ``amount`` to counter ``name``."""
        self._counters[name] += amount

    # -- reading ---------------------------------------------------------

    def get(self, name: str) -> float:
        """Read counter ``name``; missing counters read as 0."""
        return self._counters.get(name, 0.0)

    def counters(self) -> Mapping[str, float]:
        """Read-only view of all counters."""
        return dict(self._counters)

    def group(self, prefix: str) -> StatGroup:
        """Return a prefixed view used by one simulated structure."""
        return StatGroup(self, prefix)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{k}={v:g}" for k, v in sorted(self._counters.items())[:8])
        suffix = ", ..." if len(self._counters) > 8 else ""
        return f"Stats({body}{suffix})"

