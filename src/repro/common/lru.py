"""Reusable replacement-policy state for set-associative structures.

:class:`LRUState` is true least-recently-used ordering, used by the caches
and all BTB organizations.  BTB-X uses the *constrained* variant
(:meth:`LRUState.victim` with an ``eligible`` subset) described in Section V:
only the ways whose offset field can hold the incoming branch's offset
compete for replacement, but recency updates are shared across the whole set.

An instance manages a single set; callers keep one instance per set.
"""

from __future__ import annotations

from typing import Sequence


class LRUState:
    """True-LRU recency tracking for one set of ``num_ways`` ways."""

    def __init__(self, num_ways: int) -> None:
        if num_ways <= 0:
            raise ValueError("a set needs at least one way")
        self._num_ways = num_ways
        # _stamps[i] is a monotonically increasing access timestamp; smaller
        # means less recently used.  Start all ways equally old.
        self._stamps = [0] * num_ways
        self._clock = 0

    @property
    def num_ways(self) -> int:
        """Number of ways tracked by this state."""
        return self._num_ways

    def touch(self, way: int) -> None:
        """Mark ``way`` as most recently used.

        The hottest call in every set-associative structure, so the bounds
        check rides on the list store itself: a too-large way still faults
        with ``IndexError``, and internal callers only ever produce ways from
        scans or :meth:`victim` (never negative).
        """
        self._clock += 1
        self._stamps[way] = self._clock

    def victim(self, eligible: Sequence[int] | None = None) -> int:
        """Return the least recently used way among ``eligible`` ways.

        ``eligible`` defaults to all ways.  This implements BTB-X's modified
        LRU: "compare the LRU counters of only the entries that can accommodate
        the target offset and replace the one that is least recently used among
        them" (Section V-B).
        """
        ways = range(self._num_ways) if eligible is None else eligible
        candidates = list(ways)
        if not candidates:
            raise ValueError("victim selection requires at least one eligible way")
        for way in candidates:
            self._check_way(way)
        return min(candidates, key=lambda way: self._stamps[way])

    def recency_order(self) -> list[int]:
        """Return way indices ordered from least to most recently used."""
        return sorted(range(self._num_ways), key=lambda way: self._stamps[way])

    def _check_way(self, way: int) -> None:
        if not 0 <= way < self._num_ways:
            raise IndexError(f"way {way} out of range [0, {self._num_ways})")
