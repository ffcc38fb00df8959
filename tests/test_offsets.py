"""Unit and property tests for the target-offset arithmetic (Section III)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.analysis.offset_analysis import offset_distribution
from repro.common.config import ISAStyle
from repro.isa.branch import BranchType
from repro.isa.instruction import Instruction
from repro.btb.offsets import (
    instruction_stored_offset_bits,
    offset_bits,
    recover_target,
    stored_offset_bits,
    target_offset,
)
from repro.traces.trace import Trace

addresses = st.integers(min_value=0, max_value=(1 << 48) - 1)


class TestOffsetBits:
    def test_paper_figure3_example(self):
        # Branch PC 0b101101000, target 0b101111000: MSB differing at position 5.
        pc, target = 0b101101000, 0b101111000
        assert offset_bits(pc, target) == 5
        assert target_offset(pc, target) == 0b11000
        # Arm64 stores the offset without the 2 alignment bits: '110'.
        assert stored_offset_bits(pc, target, ISAStyle.ARM64) == 3

    def test_identical_pc_and_target(self):
        assert offset_bits(0x1000, 0x1000) == 0
        assert stored_offset_bits(0x1000, 0x1000) == 0

    def test_x86_keeps_alignment_bits(self):
        pc, target = 0b101101000, 0b101111000
        assert stored_offset_bits(pc, target, ISAStyle.X86) == 5

    def test_returns_store_zero_bits(self):
        assert stored_offset_bits(0x401000, 0x7F0000000000, branch_type=BranchType.RETURN) == 0

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            offset_bits(-1, 0)


class TestRecovery:
    def test_recover_concatenation(self):
        pc, target = 0x0000_7F12_3450_1000, 0x0000_7F12_3450_1F40
        n = offset_bits(pc, target)
        assert recover_target(pc, target_offset(pc, target), n) == target

    def test_recover_rejects_oversized_offset(self):
        with pytest.raises(ValueError):
            recover_target(0x1000, 0b111, 2)

    def test_recover_rejects_negative_width(self):
        with pytest.raises(ValueError):
            recover_target(0x1000, 0, -1)

    @given(addresses, addresses)
    def test_recovery_roundtrip(self, pc, target):
        """Key correctness property of Section III: concatenation recovers targets."""
        n = offset_bits(pc, target)
        assert recover_target(pc, target_offset(pc, target), n) == target

    @given(addresses, addresses, st.integers(min_value=0, max_value=48))
    def test_recovery_with_wider_field(self, pc, target, extra):
        """Storing the offset in a wider way (BTB-X) still recovers the target."""
        n = offset_bits(pc, target)
        width = min(n + extra, 48)
        assert recover_target(pc, target & ((1 << width) - 1), width) == target

    @given(addresses, addresses)
    def test_offset_bits_symmetric(self, pc, target):
        assert offset_bits(pc, target) == offset_bits(target, pc)


class TestInstructionHelpers:
    def test_instruction_stored_offset_bits(self):
        call = Instruction.branch(0x401000, BranchType.CALL, True, 0x7F0000001000)
        ret = Instruction.branch(0x401100, BranchType.RETURN, True, 0x401004)
        assert instruction_stored_offset_bits(call) > 25
        assert instruction_stored_offset_bits(ret) == 0

    def test_offset_distribution_counts_every_branch(self, handmade_branches):
        distribution = offset_distribution(Trace("handmade", handmade_branches))
        assert distribution.total_branches == len(handmade_branches)
        # The return contributes a zero-bit entry.
        assert distribution.histogram.get(0, 0) >= 1
