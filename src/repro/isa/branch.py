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

    def __init__(self, value: str) -> None:
        # Plain per-member attributes, not properties: the front end reads
        # them on every branch, and an attribute read is about ten times
        # cheaper than a property call.
        #: True for every class except plain (non-branch) instructions.
        self.is_branch = value != "not_branch"
        #: True only for conditional direct branches.
        self.is_conditional = value == "conditional"
        #: True for branch classes that unconditionally redirect fetch.
        self.is_always_taken = value not in ("not_branch", "conditional")
        #: True for direct and indirect calls (they push onto the RAS).
        self.is_call = value in ("call", "indirect_call")
        #: True when the predicted target comes from the return address stack.
        self.target_from_ras = value == "return"

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

