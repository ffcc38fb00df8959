"""Branch classification used by the BTB ``type`` field and the front end.

The conventional BTB entry (Figure 1) spends two bits on the branch type;
accordingly the model distinguishes the four classes the front end treats
differently:

* conditional direct branches -- need a direction prediction; target from BTB;
* unconditional direct branches (jumps) -- always taken; target from BTB;
  resolvable at decode when they miss in the BTB (Section VI-A);
* calls -- always taken; push the return address onto the RAS;
* returns -- always taken; target comes from the RAS, so BTB-X way 0 stores no
  offset bits for them (Section V-A).

Indirect branches (excluding returns) are modelled as unconditional branches
whose target cannot be recovered at decode; they are tracked separately so a
BTB miss on one costs the full execute-stage flush.
"""

from __future__ import annotations

import enum


class BranchType(enum.Enum):
    """Branch classes distinguished by the front end."""

    NOT_BRANCH = "not_branch"
    CONDITIONAL = "conditional"
    UNCONDITIONAL = "unconditional"
    CALL = "call"
    RETURN = "return"
    INDIRECT = "indirect"
    INDIRECT_CALL = "indirect_call"

    @property
    def is_branch(self) -> bool:
        """True for every class except plain (non-branch) instructions."""
        return self is not BranchType.NOT_BRANCH

    @property
    def is_conditional(self) -> bool:
        """True only for conditional direct branches."""
        return self is BranchType.CONDITIONAL

    @property
    def is_always_taken(self) -> bool:
        """True for branch classes that unconditionally redirect fetch."""
        return self in _ALWAYS_TAKEN

    @property
    def is_call(self) -> bool:
        """True for direct and indirect calls (they push onto the RAS)."""
        return self in (BranchType.CALL, BranchType.INDIRECT_CALL)

    @property
    def target_from_ras(self) -> bool:
        """True when the predicted target comes from the return address stack."""
        return self is BranchType.RETURN

    def encoding(self) -> int:
        """Two-bit encoding stored in a BTB entry's ``type`` field.

        The hardware only needs to distinguish conditional / unconditional /
        call / return; indirect branches share the unconditional or call
        encodings.
        """
        if self is BranchType.CONDITIONAL:
            return 0
        if self in (BranchType.UNCONDITIONAL, BranchType.INDIRECT):
            return 1
        if self in (BranchType.CALL, BranchType.INDIRECT_CALL):
            return 2
        if self is BranchType.RETURN:
            return 3
        raise ValueError("non-branch instructions have no BTB type encoding")


_ALWAYS_TAKEN = frozenset(
    {
        BranchType.UNCONDITIONAL,
        BranchType.CALL,
        BranchType.RETURN,
        BranchType.INDIRECT,
        BranchType.INDIRECT_CALL,
    }
)
