"""Unit and property tests for repro.common.bitutils."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.common import bitutils


class TestMask:
    def test_mask_zero(self):
        assert bitutils.mask(0) == 0

    def test_mask_small(self):
        assert bitutils.mask(3) == 0b111

    def test_mask_negative_rejected(self):
        with pytest.raises(ValueError):
            bitutils.mask(-1)

    @given(st.integers(min_value=0, max_value=128))
    def test_mask_sets_exactly_the_low_bits(self, width):
        value = bitutils.mask(width)
        assert bin(value).count("1") == width
        assert value >> width == 0


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


class TestConversions:
    def test_kib_to_bits(self):
        assert bitutils.kib_to_bits(14.5) == 14.5 * 1024 * 8

    def test_kib_to_bits_rounds_down(self):
        assert bitutils.kib_to_bits(0.90625) == 7424
        assert bitutils.kib_to_bits(1 / 8192 - 1e-9) == 0
        assert bitutils.kib_to_bits(0.0107) == 87
