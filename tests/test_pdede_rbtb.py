"""Tests for the PDede and Reduced-BTB (Seznec) organizations."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.isa.branch import BranchType
from repro.isa.instruction import Instruction
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
