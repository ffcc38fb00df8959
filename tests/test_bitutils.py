"""Unit and property tests for repro.common.bitutils."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.common import bitutils


class TestMaskAndExtract:
    def test_mask_zero(self):
        assert bitutils.mask(0) == 0

    def test_mask_small(self):
        assert bitutils.mask(3) == 0b111

    def test_mask_negative_rejected(self):
        with pytest.raises(ValueError):
            bitutils.mask(-1)

    def test_extract_bits(self):
        assert bitutils.extract_bits(0b101100, 2, 4) == 0b11

    def test_extract_bits_invalid_range(self):
        with pytest.raises(ValueError):
            bitutils.extract_bits(0b1, 4, 2)

    @given(st.integers(min_value=0, max_value=2**48 - 1), st.integers(min_value=0, max_value=48))
    def test_mask_extract_roundtrip(self, value, width):
        assert bitutils.extract_bits(value, 0, width) == value & bitutils.mask(width)


class TestPowersOfTwo:
    def test_is_power_of_two(self):
        assert bitutils.is_power_of_two(1)
        assert bitutils.is_power_of_two(4096)
        assert not bitutils.is_power_of_two(0)
        assert not bitutils.is_power_of_two(12)

    def test_log2_ceil(self):
        assert bitutils.log2_ceil(1) == 0
        assert bitutils.log2_ceil(2) == 1
        assert bitutils.log2_ceil(3) == 2
        assert bitutils.log2_ceil(512) == 9

    @given(st.integers(min_value=1, max_value=10**9))
    def test_log2_ceil_bounds(self, value):
        bits = bitutils.log2_ceil(value)
        assert (1 << bits) >= value
        if value > 1:
            assert (1 << (bits - 1)) < value


class TestFoldXor:
    def test_fold_small_value_unchanged(self):
        assert bitutils.fold_xor(0x5, 12) == 0x5

    def test_fold_known_value(self):
        assert bitutils.fold_xor(0xABC123, 12) == (0xABC ^ 0x123)

    def test_fold_requires_positive_width(self):
        with pytest.raises(ValueError):
            bitutils.fold_xor(0x1, 0)

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=20))
    def test_fold_fits_width(self, value, width):
        assert 0 <= bitutils.fold_xor(value, width) < (1 << width)


class TestConversionsAndPages:
    def test_kib_to_bits(self):
        assert bitutils.kib_to_bits(14.5) == 14.5 * 1024 * 8

    def test_same_page(self):
        assert bitutils.same_page(0x401000, 0x401FFC)
        assert not bitutils.same_page(0x401000, 0x402000)

    def test_page_number_and_offset(self):
        assert bitutils.page_number(0x12345678) == 0x12345
        assert bitutils.page_offset(0x12345678) == 0x678

    def test_region_number(self):
        # 48-bit address; region = bits above page(12) + page-number-in-region(16).
        addr = 0x7F00_1234_5678
        assert bitutils.region_number(addr) == addr >> 28
