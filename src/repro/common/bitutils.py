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


def extract_bits(value: int, low: int, high: int) -> int:
    """Extract bits ``low`` (inclusive) through ``high`` (exclusive) from ``value``.

    Bit 0 is the least significant bit.

    >>> extract_bits(0b101100, 2, 4)
    3
    """
    if low < 0 or high < low:
        raise ValueError(f"invalid bit range [{low}, {high})")
    return (value >> low) & mask(high - low)


def bit_length(value: int) -> int:
    """Return the number of bits required to represent ``value``.

    Unlike :meth:`int.bit_length`, negative values are rejected because the
    simulated structures only ever deal with unsigned quantities.
    """
    if value < 0:
        raise ValueError(f"bit_length is defined for non-negative values, got {value}")
    return value.bit_length()


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


def same_page(addr_a: int, addr_b: int, page_bits: int = 12) -> bool:
    """Return ``True`` when two addresses share a virtual page.

    ``page_bits`` defaults to 12 (4 KiB pages), the page size assumed by the
    paper's PDede and R-BTB descriptions.
    """
    return (addr_a >> page_bits) == (addr_b >> page_bits)


def page_number(addr: int, page_bits: int = 12) -> int:
    """Return the virtual page number of ``addr``."""
    return addr >> page_bits


def page_offset(addr: int, page_bits: int = 12) -> int:
    """Return the page offset of ``addr``."""
    return addr & mask(page_bits)


def region_number(addr: int, page_bits: int = 12, region_page_bits: int = 16) -> int:
    """Return the region number of ``addr``.

    A *region* in PDede is a group of contiguous pages; with 48-bit virtual
    addresses, 4 KiB pages and 16-bit page-number field inside a region, the
    region number is the top ``48 - page_bits - region_page_bits`` = 20 bits.
    """
    return addr >> (page_bits + region_page_bits)
