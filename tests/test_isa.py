"""Unit tests for branch classification and the instruction record."""

from __future__ import annotations

import pytest

from repro.isa.branch import BranchType
from repro.isa.instruction import Instruction


class TestBranchType:
    def test_non_branch(self):
        assert not BranchType.NOT_BRANCH.is_branch

    def test_always_taken_classes(self):
        for bt in (BranchType.UNCONDITIONAL, BranchType.CALL, BranchType.RETURN,
                   BranchType.INDIRECT, BranchType.INDIRECT_CALL):
            assert bt.is_always_taken
        assert not BranchType.CONDITIONAL.is_always_taken

    def test_ras_interaction(self):
        assert BranchType.RETURN.target_from_ras
        assert BranchType.CALL.is_call
        assert BranchType.INDIRECT_CALL.is_call
        assert not BranchType.CONDITIONAL.is_call

    @pytest.mark.parametrize("bt", list(BranchType), ids=lambda bt: bt.name)
    def test_flags_equal_their_definitions(self, bt):
        """Each flag is a plain attribute equal to the property it replaced."""
        always_taken = {BranchType.UNCONDITIONAL, BranchType.CALL, BranchType.RETURN,
                        BranchType.INDIRECT, BranchType.INDIRECT_CALL}
        assert bt.is_branch is (bt is not BranchType.NOT_BRANCH)
        assert bt.is_conditional is (bt is BranchType.CONDITIONAL)
        assert bt.is_always_taken is (bt in always_taken)
        assert bt.is_call is (bt in (BranchType.CALL, BranchType.INDIRECT_CALL))
        assert bt.target_from_ras is (bt is BranchType.RETURN)
        assert "is_branch" in vars(bt)

    def test_two_bit_encoding(self):
        encodings = {bt.encoding() for bt in BranchType if bt.is_branch}
        assert encodings == {0, 1, 2, 3}

    def test_non_branch_has_no_encoding(self):
        with pytest.raises(ValueError):
            BranchType.NOT_BRANCH.encoding()


class TestInstruction:
    def test_non_branch_constructor(self):
        inst = Instruction.non_branch(0x1000)
        assert not inst.is_branch
        assert inst.next_pc == 0x1004

    def test_branch_constructor_and_next_pc(self):
        taken = Instruction.branch(0x1000, BranchType.CONDITIONAL, True, 0x2000)
        not_taken = Instruction.branch(0x1000, BranchType.CONDITIONAL, False, 0x2000)
        assert taken.next_pc == 0x2000
        assert not_taken.next_pc == 0x1004

    def test_always_taken_must_be_taken(self):
        with pytest.raises(ValueError):
            Instruction.branch(0x1000, BranchType.UNCONDITIONAL, False, 0x2000)

    def test_non_branch_cannot_be_taken(self):
        with pytest.raises(ValueError):
            Instruction(pc=0x1000, taken=True)

    def test_negative_pc_rejected(self):
        with pytest.raises(ValueError):
            Instruction(pc=-4)

    def test_cache_block(self):
        inst = Instruction.non_branch(0x1234)
        assert inst.cache_block(64) == 0x1200

    def test_fall_through_respects_size(self):
        inst = Instruction(pc=0x1000, size=3)
        assert inst.fall_through == 0x1003
