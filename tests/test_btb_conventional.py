"""Tests for the conventional BTB and the ideal BTB."""

from __future__ import annotations

import pytest

from repro.common.config import ISAStyle
from repro.common.errors import ConfigurationError
from repro.isa.branch import BranchType
from repro.isa.instruction import Instruction
from repro.btb.conventional import ConventionalBTB
from repro.btb.ideal import IdealBTB


def _branch(pc, target, branch_type=BranchType.CONDITIONAL):
    return Instruction.branch(pc, branch_type, True, target)


class TestGeometry:
    def test_entry_bits_match_figure1(self):
        btb = ConventionalBTB(entries=1024)
        # valid(1) + tag(12) + type(2) + rep(3) + target(46) = 64 bits.
        assert btb.entry_bits() == 64
        assert btb.storage_bits() == 1024 * 64

    def test_x86_entry_is_charged_the_paper_figure(self):
        # Table IV and Section VI-G charge the 64-bit entry on x86 too.
        btb = ConventionalBTB(entries=1024, isa=ISAStyle.X86)
        assert btb.entry_bits() == 64
        assert btb.storage_bits() == 1024 * 64

    def test_non_multiple_entries_rejected(self):
        with pytest.raises(ConfigurationError):
            ConventionalBTB(entries=100, associativity=8)

    def test_non_power_of_two_sets_allowed(self):
        # A 1856-entry BTB (the paper's 14.5 KB point) has 232 sets.
        btb = ConventionalBTB(entries=1856, associativity=8)
        assert btb.num_sets == 232


class TestLookupAndUpdate:
    def test_miss_then_hit_after_update(self):
        btb = ConventionalBTB(entries=64)
        branch = _branch(0x401000, 0x401080)
        assert not btb.lookup(branch.pc).hit
        btb.update(branch)
        result = btb.lookup(branch.pc)
        assert result.hit
        assert result.target == branch.target
        assert result.branch_type is BranchType.CONDITIONAL

    def test_update_refreshes_target(self):
        btb = ConventionalBTB(entries=64)
        btb.update(_branch(0x401000, 0x401080, BranchType.INDIRECT))
        btb.update(_branch(0x401000, 0x409000, BranchType.INDIRECT))
        assert btb.lookup(0x401000).target == 0x409000

    def test_return_hits_report_ras_target(self):
        btb = ConventionalBTB(entries=64)
        btb.update(_branch(0x401000, 0x500000, BranchType.RETURN))
        assert btb.lookup(0x401000).target_from_ras

    def test_lru_eviction_within_set(self):
        btb = ConventionalBTB(entries=8, associativity=8)  # a single set
        branches = [_branch(0x400000 + i * 0x1000, 0x600000 + i * 4) for i in range(9)]
        for branch in branches:
            btb.update(branch)
        # The first-inserted (least recently used) branch was evicted.
        assert not btb.lookup(branches[0].pc).hit
        assert btb.lookup(branches[8].pc).hit

    def test_rehit_protects_from_eviction(self):
        btb = ConventionalBTB(entries=8, associativity=8)
        branches = [_branch(0x400000 + i * 0x1000, 0x600000) for i in range(8)]
        for branch in branches:
            btb.update(branch)
        btb.lookup(branches[0].pc)  # touch branch 0 so it becomes MRU
        btb.update(_branch(0x100000, 0x200000))
        assert btb.lookup(branches[0].pc).hit

    def test_non_branch_update_ignored(self):
        btb = ConventionalBTB(entries=64)
        btb.update(Instruction.non_branch(0x401000))
        assert btb.energy_access_counts().get("writes.total", 0) == 0

    def test_capacity_entries(self):
        assert ConventionalBTB(entries=512).capacity_entries() == 512

    def test_invalidate_all(self):
        btb = ConventionalBTB(entries=64)
        branch = _branch(0x401000, 0x401080)
        btb.update(branch)
        btb.invalidate_all()
        assert not btb.lookup(branch.pc).hit

    def test_access_counters(self):
        btb = ConventionalBTB(entries=64)
        branch = _branch(0x401000, 0x401080)
        btb.update(branch)
        btb.lookup(branch.pc)
        counts = btb.energy_access_counts()
        assert counts["reads.total"] == 1
        assert counts["writes.total"] == 1
        btb.reset_stats()
        assert btb.energy_access_counts()["reads.total"] == 0


class TestIdealBTB:
    def test_never_evicts(self):
        btb = IdealBTB()
        branches = [_branch(0x400000 + i * 4, 0x600000 + i * 4) for i in range(10_000)]
        for branch in branches:
            btb.update(branch)
        assert all(btb.lookup(b.pc).hit for b in branches)
        assert btb.capacity_entries() == 10_000

    def test_miss_before_first_update(self):
        assert not IdealBTB().lookup(0x401000).hit
