"""Unit and property tests for the replacement-policy state."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.common.lru import LRUState


class TestLRU:
    def test_requires_positive_ways(self):
        with pytest.raises(ValueError):
            LRUState(0)

    def test_victim_is_least_recently_used(self):
        lru = LRUState(4)
        for way in (0, 1, 2, 3, 0, 1):
            lru.touch(way)
        assert lru.victim() == 2

    def test_untouched_ways_are_victims_first(self):
        lru = LRUState(4)
        lru.touch(1)
        assert lru.victim() in (0, 2, 3)

    def test_constrained_victim(self):
        lru = LRUState(8)
        for way in range(8):
            lru.touch(way)
        lru.touch(6)
        # Only ways 6 and 7 are eligible: 7 is older.
        assert lru.victim([6, 7]) == 7

    def test_constrained_victim_requires_candidates(self):
        with pytest.raises(ValueError):
            LRUState(4).victim([])

    def test_out_of_range_way_rejected(self):
        lru = LRUState(2)
        with pytest.raises(IndexError):
            lru.touch(2)
        with pytest.raises(IndexError):
            lru.victim([5])

    def test_recency_order(self):
        lru = LRUState(3)
        lru.touch(2)
        lru.touch(0)
        order = lru.recency_order()
        assert order[-1] == 0
        assert order[-2] == 2

    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=60))
    def test_victim_never_most_recent(self, touches):
        lru = LRUState(8)
        for way in touches:
            lru.touch(way)
        assert lru.victim() != touches[-1] or len(set(touches)) == 1

    @given(
        st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=60),
        st.sets(st.integers(min_value=0, max_value=7), min_size=1, max_size=8),
    )
    def test_constrained_victim_is_eligible(self, touches, eligible):
        lru = LRUState(8)
        for way in touches:
            lru.touch(way)
        assert lru.victim(sorted(eligible)) in eligible

