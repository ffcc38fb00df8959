"""Branch target offset arithmetic (Section III of the paper).

The paper defines the *target offset* of a branch as the ``n`` least
significant bits of the target address, where ``n`` is the position of the
most significant bit that differs between the branch PC and the target.  This
is **not** the arithmetic delta ``target - pc``: defining the offset this way
means the full target can be recovered by concatenating the high-order bits of
the branch PC with the offset (no adder needed).

On Arm64, instructions are 4-byte aligned so the two least significant bits of
both PC and target are always zero and are never stored; on x86 they must be
kept.  Return instructions read their target from the return address stack and
store no offset at all (0 bits).
"""

from __future__ import annotations

from repro.common.config import ISAStyle
from repro.common.bitutils import mask
from repro.isa.branch import BranchType
from repro.isa.instruction import Instruction


def offset_bits(pc: int, target: int) -> int:
    """Number of low-order target bits that differ from the branch PC.

    This is the ``n`` of Section III: the position of the most significant
    differing bit.  Identical PC and target (a branch to itself) need 0 bits.

    >>> offset_bits(0b101101000, 0b101111000)
    5
    """
    if pc < 0 or target < 0:
        raise ValueError("addresses must be non-negative")
    return (pc ^ target).bit_length()


def stored_offset_bits(
    pc: int,
    target: int,
    isa: ISAStyle = ISAStyle.ARM64,
    branch_type: BranchType | None = None,
) -> int:
    """Number of bits the BTB must *store* for this branch's target offset.

    Alignment bits that are always zero for the ISA are not stored (2 on
    Arm64, 0 on x86), and return instructions store no offset because their
    target comes from the RAS (the paper's analysis assigns them 0 bits).
    """
    if branch_type is not None and branch_type.target_from_ras:
        return 0
    raw = offset_bits(pc, target)
    return max(raw - isa.alignment_bits, 0)


def target_offset(pc: int, target: int) -> int:
    """The offset payload: the low ``offset_bits(pc, target)`` bits of the target.

    >>> bin(target_offset(0b101101000, 0b101111000))
    '0b11000'
    """
    n = offset_bits(pc, target)
    return target & mask(n)


def recover_target(pc: int, offset: int, n: int) -> int:
    """Recover the full target by concatenating the PC's high bits with ``offset``.

    ``n`` is the offset width in bits (the value returned by
    :func:`offset_bits` when the offset was extracted).  This mirrors the
    hardware recovery path: shift the PC right by ``n``, shift back left and OR
    in the stored offset -- pure concatenation, no adder.
    """
    if n < 0:
        raise ValueError("offset width cannot be negative")
    if offset < 0 or offset > mask(n):
        raise ValueError(f"offset {offset:#x} does not fit in {n} bits")
    return ((pc >> n) << n) | offset


def instruction_stored_offset_bits(inst: Instruction, isa: ISAStyle = ISAStyle.ARM64) -> int:
    """Stored offset bits for a retired instruction record."""
    return stored_offset_bits(inst.pc, inst.target, isa=isa, branch_type=inst.branch_type)

