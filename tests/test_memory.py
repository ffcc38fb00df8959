"""Tests for the cache model and the memory hierarchy."""

from __future__ import annotations

import random

import pytest

from repro.common.config import ASIDMode, CacheConfig, MachineConfig
from repro.common.errors import ConfigurationError
from repro.memory.cache import SetAssociativeCache
from repro.memory.hierarchy import MemoryHierarchy


def _small_cache(size=4096, assoc=4, line=64) -> SetAssociativeCache:
    return SetAssociativeCache(CacheConfig("T", size, assoc, line_size=line, hit_latency=3))


class TestCache:
    def test_miss_then_hit_after_fill(self):
        cache = _small_cache()
        addr = 0x1234
        assert not cache.access(addr).hit
        cache.fill(addr)
        assert cache.access(addr).hit
        assert cache.contains(addr)

    def test_block_granularity(self):
        cache = _small_cache()
        cache.fill(0x1000)
        assert cache.access(0x103F).hit  # same 64-byte block
        assert not cache.access(0x1040).hit

    def test_lru_eviction(self):
        cache = _small_cache(size=4 * 64, assoc=4)  # a single set
        blocks = [i * 64 for i in range(5)]
        for block in blocks:
            cache.access(block)
            cache.fill(block)
        assert not cache.contains(blocks[0])
        assert cache.contains(blocks[4])

    def test_eviction_returns_victim_address(self):
        cache = _small_cache(size=4 * 64, assoc=4)
        for i in range(4):
            cache.fill(i * 64 * cache.num_sets)
        evicted = cache.fill(4 * 64 * cache.num_sets)
        assert evicted is not None

    def test_fill_same_block_twice_no_eviction(self):
        cache = _small_cache()
        cache.fill(0x2000)
        assert cache.fill(0x2000) is None
        assert cache.occupancy() == 1

    def test_invalidate_all(self):
        cache = _small_cache()
        cache.fill(0x4000)
        cache.invalidate_all()
        assert not cache.contains(0x4000)
        assert cache.occupancy() == 0


class TestCacheASIDPolicy:
    """ASID tagging and set partitioning on a single level."""

    def test_tagged_lines_do_not_cross_address_spaces(self):
        cache = _small_cache()
        cache.fill(0x1000)
        assert cache.access(0x1000).hit
        cache.set_active_asid(1)
        assert not cache.access(0x1000).hit
        assert not cache.contains(0x1000)
        cache.fill(0x1000)
        assert cache.access(0x1000).hit
        cache.set_active_asid(0)
        assert cache.access(0x1000).hit  # ASID 0's line survived untouched

    def test_asid_zero_is_the_identity_color(self):
        """With ASID 0 active the tagged cache is bit-identical to the
        untagged one: same hits, same evictions, same victims."""
        plain = _small_cache(size=4 * 64, assoc=4)
        tagged = _small_cache(size=4 * 64, assoc=4)
        tagged.set_active_asid(0)
        addresses = [i * 64 for i in (0, 1, 2, 3, 4, 1, 0, 5)]
        for addr in addresses:
            left = plain.access(addr).hit
            right = tagged.access(addr).hit
            assert left == right
            if not left:
                assert plain.fill(addr) == tagged.fill(addr)

    def test_partitioned_sets_isolate_tenants(self):
        cache = _small_cache(size=8 * 64, assoc=1)  # 8 direct-mapped sets
        cache.configure_partitions((1, 1))
        assert cache.partition_set_counts() == [4, 4]
        # Tenant 0 fills its slice full of blocks; tenant 1's fills must not
        # evict any of them (disjoint set ranges).
        for i in range(4):
            cache.fill(i * 64)
        cache.set_active_asid(1)
        for i in range(8):
            cache.fill((100 + i) * 64)
        cache.set_active_asid(0)
        for i in range(4):
            assert cache.contains(i * 64), f"tenant 0 lost block {i} to tenant 1"

    def test_partition_reconfiguration_invalidates(self):
        cache = _small_cache()
        cache.fill(0x2000)
        cache.configure_partitions((1, 1))
        assert not cache.contains(0x2000)
        cache.fill(0x2000)
        cache.configure_partitions(None)
        assert not cache.contains(0x2000)

    def test_too_small_cache_falls_back_to_sharing(self):
        cache = _small_cache(size=2 * 64, assoc=1)  # 2 sets
        cache.configure_partitions((1, 1, 1))
        assert cache.partition_set_counts() is None  # shared (still tagged)

    @pytest.mark.parametrize("sets", (2, 8))
    def test_too_small_cache_still_validates_weights(self, sets):
        """A zero weight is rejected whether or not the level can partition."""
        cache = _small_cache(size=sets * 64, assoc=1)
        with pytest.raises(ConfigurationError, match="partition weight #1"):
            cache.configure_partitions((1, 0, 1))
        assert cache.partition_set_counts() is None

    def test_a_shared_map_that_stays_shared_keeps_the_lines(self):
        """Only a map that may have changed invalidates the level.

        A 2-set level configured for three tenants stays shared, so its
        lines stay valid; partitioning it for two tenants, and back, drops
        them.
        """
        cache = _small_cache(size=2 * 64, assoc=1)
        cache.fill(0x40)
        cache.configure_partitions((1, 1, 1))
        cache.configure_partitions(None)
        assert cache.contains(0x40)
        cache.configure_partitions((1, 1))
        assert not cache.contains(0x40)
        cache.fill(0x40)
        cache.configure_partitions((1, 1, 1))
        assert not cache.contains(0x40)

    def test_eviction_reports_raw_victim_address_under_tagging(self):
        cache = _small_cache(size=1 * 64, assoc=1)
        cache.set_active_asid(3)
        cache.fill(0x40)
        evicted = cache.fill(0x40 + 64 * cache.num_sets)
        assert evicted == 0x40  # the raw block address, not the colored tag


class TestHierarchyASIDModes:
    """Context-switch behaviour of the whole hierarchy."""

    @staticmethod
    def _hierarchy(mode: ASIDMode | None) -> MemoryHierarchy:
        return MemoryHierarchy(MachineConfig(cache_asid_mode=mode))

    def test_legacy_mode_ignores_switches(self):
        hierarchy = self._hierarchy(None)
        hierarchy.fetch(0x400000)
        hierarchy.context_switch(1)
        assert hierarchy.fetch(0x400000).l1i_hit  # false sharing, as before

    def test_flush_mode_invalidates_every_level(self):
        hierarchy = self._hierarchy(ASIDMode.FLUSH)
        hierarchy.fetch(0x400000)
        hierarchy.context_switch(1)
        assert not hierarchy.l1i.contains(0x400000)
        assert not hierarchy.l2.contains(0x400000)
        assert not hierarchy.llc.contains(0x400000)
        result = hierarchy.fetch(0x400000)
        assert result.level == "DRAM"

    def test_tagged_mode_keeps_lines_per_address_space(self):
        hierarchy = self._hierarchy(ASIDMode.TAGGED)
        hierarchy.fetch(0x400000)
        hierarchy.context_switch(1)
        # Tenant 1 misses on the same VA (no false sharing)...
        assert not hierarchy.fetch(0x400000).l1i_hit
        hierarchy.context_switch(0)
        # ...while tenant 0's line survived the switches.
        assert hierarchy.fetch(0x400000).l1i_hit

    def test_repeated_switch_to_same_asid_is_a_noop(self):
        hierarchy = self._hierarchy(ASIDMode.FLUSH)
        hierarchy.context_switch(2)
        hierarchy.fetch(0x500000)
        hierarchy.context_switch(2)
        assert hierarchy.fetch(0x500000).l1i_hit
        assert hierarchy.stats.get("context_switches") == 1

    @pytest.mark.parametrize("mode", [None, ASIDMode.TAGGED, ASIDMode.PARTITIONED])
    def test_fetch_batch_matches_sequential_fetches(self, mode):
        """Bulk-settled L1-I hits leave the results, counters and LRU order of ``fetch``.

        ASID 1 is active, so the tagged and partitioned cells probe with a
        colored tag and (partitioned) a slice-relative set index.
        """

        def hierarchy():
            built = self._hierarchy(mode)
            if mode is ASIDMode.PARTITIONED:
                built.configure_partitions((3, 1))
            built.context_switch(1)
            return built

        rng = random.Random(7)
        addresses = [0x400000 + rng.randrange(768) * 64 + rng.randrange(64) for _ in range(3000)]
        scalar, batched = hierarchy(), hierarchy()
        expected = [scalar.fetch(addr) for addr in addresses]
        fetched = []
        fetch = batched.fetch
        batched.fetch = lambda addr: fetched.append(addr) or fetch(addr)
        assert batched.fetch_batch(addresses) == expected
        # Only the misses take the scalar fetch path.
        assert len(fetched) == sum(not result.l1i_hit for result in expected)
        assert batched._stats_registry.counters() == scalar._stats_registry.counters()
        assert [lru and lru.recency_order() for lru in batched.l1i._lru] == [
            lru and lru.recency_order() for lru in scalar.l1i._lru
        ]
        assert any(result.l1i_hit for result in expected)
        assert scalar.l1i.stats.get("evictions") > 0

    def test_partition_report_covers_every_level(self):
        hierarchy = self._hierarchy(ASIDMode.PARTITIONED)
        hierarchy.configure_partitions((3, 1))
        report = hierarchy.partition_report()
        assert set(report) == {"l1i", "l1d", "l2", "llc"}
        for level, counts in report.items():
            assert len(counts) == 2
            assert counts[0] > counts[1], (level, counts)  # weight-proportional
        assert self._hierarchy(ASIDMode.TAGGED).partition_report() == {}


class TestHierarchy:
    def test_first_fetch_misses_to_dram(self):
        hierarchy = MemoryHierarchy(MachineConfig())
        result = hierarchy.fetch(0x400000)
        assert not result.l1i_hit
        assert result.level == "DRAM"
        assert result.latency == hierarchy.memory_latency

    def test_refetch_hits_l1i(self):
        hierarchy = MemoryHierarchy(MachineConfig())
        hierarchy.fetch(0x400000)
        result = hierarchy.fetch(0x400000)
        assert result.l1i_hit
        assert result.latency == 0

    def test_l1i_eviction_falls_back_to_l2(self):
        hierarchy = MemoryHierarchy(MachineConfig())
        target = 0x400000
        hierarchy.fetch(target)
        # Touch enough distinct blocks mapping to the same L1-I set to evict it.
        sets = hierarchy.l1i.num_sets
        for i in range(1, hierarchy.l1i.associativity + 2):
            hierarchy.fetch(target + i * sets * 64)
        result = hierarchy.fetch(target)
        assert not result.l1i_hit
        assert result.level == "L2"
        assert result.latency == hierarchy.l2.hit_latency

    def test_invalidate_all(self):
        hierarchy = MemoryHierarchy(MachineConfig())
        hierarchy.fetch(0x900000)
        hierarchy.invalidate_all()
        assert not hierarchy.l1i.contains(0x900000)
        assert not hierarchy.l2.contains(0x900000)

    def test_line_size(self):
        assert MemoryHierarchy(MachineConfig()).line_size() == 64
