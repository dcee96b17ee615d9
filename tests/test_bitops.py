"""Unit and property tests for repro.common.bitops."""

import pytest
from hypothesis import given, strategies as st

from repro.common.bitops import (
    bits_required,
    fold_xor,
    is_power_of_two,
    log2_exact,
    mask,
    parity,
    rotate_left,
)


class TestMask:
    def test_small_values(self):
        assert mask(0) == 0
        assert mask(1) == 1
        assert mask(8) == 0xFF
        assert mask(64) == (1 << 64) - 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mask(-1)


class TestBitsRequired:
    def test_known_values(self):
        assert bits_required(1) == 0
        assert bits_required(2) == 1
        assert bits_required(3) == 2
        # Paper pointer widths: 18-bit FPTR for <=256K data entries,
        # 19-bit RPTR for <=512K tag entries.
        assert bits_required(262144) == 18
        assert bits_required(196608) == 18
        assert bits_required(491520) == 19

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            bits_required(0)

    @given(st.integers(min_value=1, max_value=1 << 40))
    def test_width_is_sufficient_and_tight(self, value):
        width = bits_required(value)
        assert (1 << width) >= value
        if width:
            assert (1 << (width - 1)) < value


class TestPowersOfTwo:
    def test_is_power_of_two(self):
        assert is_power_of_two(1)
        assert is_power_of_two(4096)
        assert not is_power_of_two(0)
        assert not is_power_of_two(12)
        assert not is_power_of_two(-8)

    def test_log2_exact(self):
        assert log2_exact(1) == 0
        assert log2_exact(16384) == 14

    def test_log2_exact_rejects_non_powers(self):
        with pytest.raises(ValueError):
            log2_exact(12)


class TestRotations:
    def test_known_rotations(self):
        assert rotate_left(0b0001, 1, 4) == 0b0010
        assert rotate_left(0b1000, 1, 4) == 0b0001

    @given(st.integers(min_value=0, max_value=(1 << 16) - 1), st.integers(min_value=0, max_value=64))
    def test_rotate_roundtrip(self, value, amount):
        back = 16 - amount % 16
        assert rotate_left(rotate_left(value, amount, 16), back, 16) == value

    @given(st.integers(min_value=0, max_value=(1 << 16) - 1))
    def test_full_rotation_is_identity(self, value):
        assert rotate_left(value, 16, 16) == value


class TestFoldXor:
    def test_zero_folds_to_zero(self):
        assert fold_xor(0, 8) == 0

    def test_alternating_cancels(self):
        assert fold_xor(0xFF00FF00FF00FF00, 16) == 0

    def test_rejects_non_positive_width(self):
        with pytest.raises(ValueError):
            fold_xor(1, 0)

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1), st.integers(min_value=1, max_value=32))
    def test_result_in_range(self, value, width):
        assert 0 <= fold_xor(value, width) < (1 << width)

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_parity_preserved(self, value):
        """XOR-folding preserves the total parity of the input."""
        assert parity(fold_xor(value, 8)) == parity(value)


class TestParityExtract:
    def test_parity(self):
        assert parity(0) == 0
        assert parity(0b1011) == 1
        assert parity(0b1001) == 0
