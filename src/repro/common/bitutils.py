"""Bit-manipulation helpers shared across the BTB models and analyses.

These functions operate on arbitrary-precision Python integers, treating them
as fixed-width bit vectors where relevant.  They are deliberately small and
free of dependencies so they can be unit- and property-tested exhaustively.
"""

from __future__ import annotations


def mask(num_bits: int) -> int:
    """Return an integer with the ``num_bits`` least significant bits set.

    >>> mask(0)
    0
    >>> mask(3)
    7
    """
    if num_bits < 0:
        raise ValueError(f"mask width must be non-negative, got {num_bits}")
    return (1 << num_bits) - 1


def is_power_of_two(value: int) -> bool:
    """Return ``True`` when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def log2_ceil(value: int) -> int:
    """Return the number of bits needed to index ``value`` distinct items."""
    if value <= 0:
        raise ValueError(f"log2_ceil requires a positive value, got {value}")
    return (value - 1).bit_length() if value > 1 else 0


def fold_xor(value: int, width: int) -> int:
    """XOR-fold ``value`` down to ``width`` bits.

    Partial BTB tags are generated by hashing the full tag; XOR-folding is the
    standard, cheap hash used by hardware tag compressors.  Folding rather than
    truncating keeps aliasing low while remaining trivially invertible for
    tests on small values.
    """
    if width <= 0:
        raise ValueError(f"fold width must be positive, got {width}")
    folded = 0
    remaining = value
    low = (1 << width) - 1
    while remaining:
        folded ^= remaining & low
        remaining >>= width
    return folded


def kib_to_bits(kib: float) -> int:
    """Convert a kibibyte budget to an integer bit budget (rounded down)."""
    return int(kib * 1024 * 8)
