"""Tests for the PDede and Reduced-BTB (Seznec) organizations."""

from __future__ import annotations

import random

import pytest

from repro.common.errors import ConfigurationError
from repro.isa.branch import BranchType
from repro.isa.instruction import Instruction
from repro.btb.base import PointerTable
from repro.btb.pdede import PDedeBTB
from repro.btb.rbtb import ReducedBTB


def _branch(pc, target, branch_type=BranchType.CONDITIONAL):
    return Instruction.branch(pc, branch_type, True, target)


class TestPDedeGeometry:
    def test_entry_bits_match_figure7(self):
        btb = PDedeBTB(entries=3184, page_entries=512)
        assert btb.same_page_entry_bits() == 29
        # different-page: 29 - delta(1) + page pointer(9) + region pointer(2) = 39
        assert btb.different_page_entry_bits() == 39
        assert btb.average_entry_bits() == 34.0

    def test_page_and_region_entry_bits(self):
        btb = PDedeBTB(entries=64, page_entries=32)
        assert btb.page_entry_bits() == 20
        assert btb.region_entry_bits() == 22

    def test_same_page_way_reservation(self):
        btb = PDedeBTB(entries=64, page_entries=16)
        assert btb.same_page_ways == 4
        assert btb._eligible_ways(True) == list(range(8))
        assert btb._eligible_ways(False) == [4, 5, 6, 7]

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            PDedeBTB(entries=63)
        with pytest.raises(ConfigurationError):
            PDedeBTB(entries=64, page_entries=0)


class TestPDedeBehaviour:
    def test_same_page_branch_single_cycle(self):
        btb = PDedeBTB(entries=64, page_entries=16)
        branch = _branch(0x401000, 0x401200)
        btb.update(branch)
        result = btb.lookup(branch.pc)
        assert result.hit
        assert result.target == branch.target
        assert result.latency_cycles == 1

    def test_different_page_branch_two_cycles(self):
        btb = PDedeBTB(entries=64, page_entries=16)
        branch = _branch(0x401000, 0x480000, BranchType.CALL)
        btb.update(branch)
        result = btb.lookup(branch.pc)
        assert result.hit
        assert result.target == branch.target
        assert result.latency_cycles == 2

    def test_returns_do_not_allocate_pages(self):
        btb = PDedeBTB(entries=64, page_entries=16)
        btb.update(_branch(0x401000, 0x7F0000000000, BranchType.RETURN))
        counts = btb.energy_access_counts()
        assert counts.get("writes.page", 0) == 0
        assert btb.lookup(0x401000).hit

    def test_page_deduplication(self):
        btb = PDedeBTB(entries=64, page_entries=16)
        # Two branches targeting the same page share one Page-BTB entry.
        btb.update(_branch(0x401000, 0x480010, BranchType.CALL))
        btb.update(_branch(0x402000, 0x480020, BranchType.CALL))
        assert btb.energy_access_counts()["writes.page"] == 1

    def test_page_eviction_invalidates_pointers(self):
        btb = PDedeBTB(entries=64, page_entries=2, page_associativity=2)
        targets = [0x480000, 0x980000, 0x1480000]
        branches = [_branch(0x401000 + i * 0x100, t, BranchType.CALL) for i, t in enumerate(targets)]
        for branch in branches:
            btb.update(branch)
        # At most two distinct pages fit; at least one earlier branch must now miss
        # (its page entry was evicted and the main entry invalidated).
        hits = [btb.lookup(b.pc).hit for b in branches]
        assert hits[-1]
        assert not all(hits)

    def test_stale_same_page_entry_reallocated_when_target_moves(self):
        btb = PDedeBTB(entries=8, page_entries=16)
        near = _branch(0x401000, 0x401100, BranchType.INDIRECT)
        btb.update(near)
        far = _branch(0x401000, 0x980000, BranchType.INDIRECT)
        btb.update(far)
        # The same-page entry sat in a reserved way; the far target needs
        # pointers, so it moves to a pointer way.
        result = btb.lookup(0x401000)
        assert result.hit and result.target == far.target
        assert btb.energy_access_counts()["reallocations"] == 1

    def test_capacity_and_storage(self):
        btb = PDedeBTB(entries=3184, page_entries=512)
        assert btb.capacity_entries() == 3184
        assert 13.0 < btb.storage_kib() < 15.0


class TestReducedBTB:
    def test_hit_recovers_target_with_two_cycle_latency(self):
        btb = ReducedBTB(entries=64, page_entries=16)
        branch = _branch(0x401000, 0x480040, BranchType.CALL)
        btb.update(branch)
        result = btb.lookup(branch.pc)
        assert result.hit
        assert result.target == branch.target
        assert result.latency_cycles == 2

    def test_page_number_deduplicated(self):
        btb = ReducedBTB(entries=64, page_entries=16)
        btb.update(_branch(0x401000, 0x480010))
        btb.update(_branch(0x402000, 0x480020))
        assert btb.energy_access_counts()["writes.page"] == 1

    def test_page_eviction_invalidates_main_entries(self):
        btb = ReducedBTB(entries=64, page_entries=2)
        branches = [
            _branch(0x401000 + i * 0x100, 0x480000 + i * 0x10000, BranchType.CALL)
            for i in range(3)
        ]
        for branch in branches:
            btb.update(branch)
        assert not all(btb.lookup(b.pc).hit for b in branches)

    def test_storage_accounts_for_both_partitions(self):
        btb = ReducedBTB(entries=64, page_entries=16)
        expected = 64 * btb.main_entry_bits() + 16 * btb.page_entry_bits()
        assert btb.storage_bits() == expected

    def test_main_entry_smaller_than_conventional(self):
        btb = ReducedBTB(entries=64, page_entries=128)
        assert btb.main_entry_bits() < 64


class _ScanCheckedTable(PointerTable):
    """A pointer table whose every search is checked against a scan of its range.

    The scan is the table's definition: the first slot of the range, in slot
    order, holding the pair.  A found pair must come back unchanged and
    unwritten; a missing one must be installed inside the range.
    """

    __slots__ = ()

    def find_or_install(self, btb, value, first, count):
        asid = btb.asid_policy.active_asid
        found = next(
            (slot for slot in range(first, first + count)
             if self.slots[slot].valid and (self.slots[slot].value, self.slots[slot].asid) == (value, asid)),
            None,
        )
        writes_key = f"writes.{self.name}"
        writes = btb.counters.get(writes_key, 0)
        slot = super().find_or_install(btb, value, first, count)
        if found is None:
            assert first <= slot < first + count
            assert btb.counters[writes_key] == writes + 1
        else:
            assert slot == found
            assert btb.counters.get(writes_key, 0) == writes
        return slot


def _scanned_index(table):
    """The index a scan of every valid slot gives: ascending slots per pair."""
    index = {}
    for slot, entry in enumerate(table.slots):
        if entry.valid:
            index.setdefault((entry.value, entry.asid), []).append(slot)
    return index


def _pdede():
    btb = PDedeBTB(entries=64, page_entries=32, region_entries=4, page_associativity=8)
    btb._pages = _ScanCheckedTable("page", 32)
    btb._regions = _ScanCheckedTable("region", 4)
    return btb


def _rbtb():
    btb = ReducedBTB(entries=64, page_entries=16)
    btb._pages = _ScanCheckedTable("page", 16)
    return btb


class TestPointerTableIndex:
    """The slot index finds exactly what a scan of the slot range finds."""

    @pytest.mark.parametrize("make", (_rbtb, _pdede), ids=("rbtb", "pdede"))
    @pytest.mark.parametrize("partitions", (None, (1, 3), (2, 1, 1)), ids=("shared", "p13", "p211"))
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_searches_match_a_scan(self, make, partitions, seed):
        rng = random.Random(seed)
        btb = make()
        btb.configure_partitions(partitions)
        # A few page numbers in several regions: pages recur (hits), the
        # tables overflow (evictions), and PDede sees one page number in
        # more than one page set.
        targets = [
            (region << 28) | (page << 12) | (offset << 2)
            for region in range(6) for page in range(5) for offset in (0, 9)
        ]
        pcs = [0x7000_0000 + 64 * n for n in range(48)]
        tables = [table for table in (btb._pages, getattr(btb, "_regions", None)) if table]
        in_two_sets = False
        for _ in range(600):
            roll = rng.random()
            if roll < 0.8:
                btb.update(_branch(rng.choice(pcs), rng.choice(targets)))
            elif roll < 0.9:
                btb.lookup(rng.choice(pcs))
            elif roll < 0.97:
                btb.set_active_asid(rng.randrange(4))
            elif roll < 0.99:
                btb.configure_partitions(rng.choice((None, (1, 3), (2, 1, 1))))
            else:
                btb.invalidate_all()
            for table in tables:
                assert table._index == _scanned_index(table)
            if make is _pdede:
                in_two_sets |= any(
                    len({slot // btb.page_associativity for slot in slots}) > 1
                    for slots in btb._pages._index.values()
                )
        assert in_two_sets or make is _rbtb
        assert btb.counters.get("page_evictions", 0) > 0

    def test_a_re_slice_keeps_finding_pairs_outside_their_install_range(self):
        """Three tenants leave a two-set Main-BTB shared, so re-slicing the
        Page-BTB flushes nothing: a page installed from a tenant's slice is
        still found by a search of the whole table, as a scan finds it."""
        btb = ReducedBTB(entries=16, page_entries=4)
        btb._pages = _ScanCheckedTable("page", 4)
        btb.configure_partitions((1, 1, 1))
        btb.set_active_asid(1)
        btb.update(_branch(0x7000_0000, 0x9000_0000))
        btb.configure_partitions(None)
        writes = btb.counters["writes.page"]
        btb.update(_branch(0x7000_0040, 0x9000_0040))
        assert btb.counters["writes.page"] == writes
