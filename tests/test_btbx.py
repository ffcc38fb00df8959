"""Tests for BTB-X and its BTB-XC companion (the paper's core contribution)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import ISAStyle
from repro.common.errors import ConfigurationError
from repro.isa.branch import BranchType
from repro.isa.instruction import Instruction
from repro.btb.btbx import (
    BTBX,
    BTBXC,
    BTBX_WAY_OFFSET_BITS_ARM64,
    BTBX_WAY_OFFSET_BITS_X86,
    METADATA_BITS,
)
from repro.btb.offsets import stored_offset_bits


def _branch(pc, target, branch_type=BranchType.CONDITIONAL):
    return Instruction.branch(pc, branch_type, True, target)


class TestGeometry:
    def test_paper_way_widths(self):
        assert BTBX_WAY_OFFSET_BITS_ARM64 == (0, 4, 5, 7, 9, 11, 19, 25)
        assert BTBX_WAY_OFFSET_BITS_X86 == (0, 5, 6, 7, 9, 12, 20, 27)

    def test_set_bits_match_table3(self):
        btb = BTBX(entries=256)
        # 8 entries x 18 metadata bits + 80 offset bits = 224 bits per set.
        assert METADATA_BITS == 18
        assert btb.set_bits() == 224

    def test_x86_set_bits(self):
        assert BTBX(entries=256, isa=ISAStyle.X86).set_bits() == 230

    def test_storage_matches_table3_row(self):
        btb = BTBX(entries=4096)
        assert btb.storage_kib() == pytest.approx(14.5)
        assert btb.capacity_entries() == 4096 + 64

    def test_companion_is_required(self):
        with pytest.raises(ConfigurationError, match="BTB-XC"):
            BTBX(entries=256, companion_entries=0)
        assert BTBX(entries=256).capacity_entries() == 256 + 4

    def test_way_widths_must_be_sorted(self):
        with pytest.raises(ConfigurationError):
            BTBX(entries=64, way_offset_bits=(4, 0, 25, 5, 7, 9, 11, 19))

    def test_entries_must_be_multiple_of_ways(self):
        with pytest.raises(ConfigurationError):
            BTBX(entries=100)


class TestAllocationPolicy:
    def test_short_offset_branch_hit_and_target_recovery(self):
        btb = BTBX(entries=64)
        branch = _branch(0x401000, 0x401038)
        btb.update(branch)
        result = btb.lookup(branch.pc)
        assert result.hit
        assert result.target == branch.target

    def test_long_offset_goes_to_wide_way(self):
        btb = BTBX(entries=64)
        branch = _branch(0x401000, 0x401000 + (1 << 20))  # needs ~19-21 stored bits
        required = stored_offset_bits(branch.pc, branch.target)
        assert required > 11
        btb.update(branch)
        result = btb.lookup(branch.pc)
        assert result.hit
        assert result.target == branch.target

    def test_return_fits_way_zero_and_uses_ras(self):
        btb = BTBX(entries=64)
        ret = _branch(0x401000, 0x7F0000000000, BranchType.RETURN)
        btb.update(ret)
        result = btb.lookup(ret.pc)
        assert result.hit
        assert result.target_from_ras
        assert result.target is None

    def test_offset_wider_than_largest_way_overflows_to_companion(self):
        btb = BTBX(entries=64, companion_entries=8)
        far_call = _branch(0x401000, 0x7F00_0000_1000, BranchType.CALL)
        assert stored_offset_bits(far_call.pc, far_call.target) > 25
        btb.update(far_call)
        result = btb.lookup(far_call.pc)
        assert result.hit
        assert btb.energy_access_counts()["hits.companion"] == 1
        assert result.target == far_call.target

    def test_constrained_lru_only_evicts_eligible_ways(self):
        btb = BTBX(entries=8)  # a single set
        # Fill every way with returns (eligible everywhere).
        returns = [_branch(0x400000 + i * 0x1000, 0x500000, BranchType.RETURN) for i in range(8)]
        for ret in returns:
            btb.update(ret)
        # A long-offset branch may only evict from the widest ways.
        long_branch = _branch(0x480000, 0x480000 + (1 << 26))
        required = stored_offset_bits(long_branch.pc, long_branch.target)
        eligible = [w for w, width in enumerate(btb.way_offset_bits) if width >= required]
        btb.update(long_branch)
        assert btb.lookup(long_branch.pc).hit
        # Exactly one return was displaced and it sat in an eligible way.
        missing = [r for r in returns if not btb.lookup(r.pc).hit]
        assert len(missing) == 1
        assert eligible  # sanity: the branch was storable at all

    def test_indirect_branch_target_growth_reallocates(self):
        btb = BTBX(entries=64)
        near = _branch(0x401000, 0x401100, BranchType.INDIRECT)
        far = _branch(0x401000, 0x401000 + (1 << 22), BranchType.INDIRECT)
        btb.update(near)
        btb.update(far)
        result = btb.lookup(0x401000)
        assert result.hit
        assert result.target == far.target

    def test_main_hit_counters(self):
        btb = BTBX(entries=64)
        branch = _branch(0x401000, 0x401010)
        btb.update(branch)
        btb.lookup(branch.pc)
        counts = btb.energy_access_counts()
        assert counts["hits"] == counts["allocations"] == 1
        assert "hits.companion" not in counts

    def test_reset_stats_restarts_the_hit_counters(self):
        """After the warmup boundary the hit counters cover measured traffic only."""
        btb = BTBX(entries=64, companion_entries=8)
        near = _branch(0x401000, 0x401010)
        far_call = _branch(0x402000, 0x7F00_0000_1000, BranchType.CALL)
        for branch in (near, far_call):
            btb.update(branch)
            btb.lookup(branch.pc)
        counts = btb.energy_access_counts()
        assert counts["hits"] == 2 and counts["hits.companion"] == 1

        btb.reset_stats()
        counts = btb.energy_access_counts()
        assert counts["hits"] == counts["hits.companion"] == counts["allocations"] == 0.0
        for _ in range(3):
            btb.lookup(near.pc)
            btb.lookup(far_call.pc)
        counts = btb.energy_access_counts()
        assert counts["hits"] == 6 and counts["hits.companion"] == 3


class TestCompanion:
    def test_direct_mapped_conflict(self):
        companion = BTBXC(entries=4)
        a = _branch(0x400000, 0x500000, BranchType.CALL)
        b = _branch(0x400000 + 4 * 4, 0x600000, BranchType.CALL)  # same index, different tag
        companion.update(a)
        companion.update(b)
        assert companion.lookup(b.pc).hit
        assert not companion.lookup(a.pc).hit

    def test_storage(self):
        assert BTBXC(entries=64).storage_bits() == 64 * 64


class TestTargetRecoveryProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        pc=st.integers(min_value=0, max_value=(1 << 47) - 4),
        delta=st.integers(min_value=-(1 << 24), max_value=1 << 24),
    )
    def test_recovered_target_always_exact(self, pc, delta):
        """Any branch whose offset fits a way must be recovered bit-exactly."""
        pc &= ~0x3
        target = max(0, min((pc + delta) & ~0x3, (1 << 48) - 4))
        branch = _branch(pc, target, BranchType.UNCONDITIONAL)
        btb = BTBX(entries=8)
        btb.update(branch)
        result = btb.lookup(pc)
        if stored_offset_bits(pc, target) <= btb.max_offset_bits:
            assert result.hit
            assert result.target == target
