"""Unit tests for the statistics registry."""

from __future__ import annotations

from repro.common.stats import Stats


class TestCounters:
    def test_missing_counter_reads_zero(self):
        assert Stats().get("nothing") == 0.0

    def test_inc_and_add(self):
        stats = Stats()
        stats.inc("hits")
        stats.inc("hits", 4)
        stats.add("latency", 2.5)
        assert stats.get("hits") == 5
        assert stats.get("latency") == 2.5

    def test_counters_is_a_snapshot(self):
        stats = Stats()
        stats.inc("a", 2)
        snapshot = stats.counters()
        stats.inc("a")
        assert snapshot == {"a": 2}
        assert stats.counters() == {"a": 3}


class TestGroups:
    def test_group_prefixes_names(self):
        stats = Stats()
        group = stats.group("btb")
        group.inc("hits")
        group.add("cycles", 1.5)
        assert stats.get("btb.hits") == 1
        assert group.get("hits") == 1
        assert stats.counters() == {"btb.hits": 1, "btb.cycles": 1.5}

    def test_groups_share_one_registry(self):
        stats = Stats()
        stats.group("l1i").inc("misses", 2)
        stats.group("l2").inc("misses", 3)
        assert stats.get("l1i.misses") == 2
        assert stats.get("l2.misses") == 3
