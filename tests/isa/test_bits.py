"""Unit and property tests for the bit-manipulation helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa import bits
from repro.isa.constants import XMASK

u64 = st.integers(min_value=0, max_value=XMASK)
any_int = st.integers(min_value=-(1 << 80), max_value=1 << 80)


class TestTruncation:
    def test_to_u64_identity_for_in_range(self):
        assert bits.to_u64(42) == 42
        assert bits.to_u64(XMASK) == XMASK

    def test_to_u64_wraps(self):
        assert bits.to_u64(1 << 64) == 0
        assert bits.to_u64(-1) == XMASK

    @given(any_int)
    def test_to_u64_always_in_range(self, value):
        assert 0 <= bits.to_u64(value) <= XMASK


class TestSignedness:
    def test_to_signed_positive(self):
        assert bits.to_signed(5) == 5

    def test_to_signed_negative(self):
        assert bits.to_signed(XMASK) == -1
        assert bits.to_signed(1 << 63) == -(1 << 63)

    def test_to_signed_width(self):
        assert bits.to_signed(0xFF, width=8) == -1
        assert bits.to_signed(0x7F, width=8) == 127

    @given(u64)
    def test_sign_roundtrip(self, value):
        assert bits.to_u64(bits.to_signed(value)) == value

    def test_sign_extend(self):
        assert bits.sign_extend(0x80, 8) == XMASK & ~0x7F
        assert bits.sign_extend(0x7F, 8) == 0x7F


class TestFields:
    def test_bit(self):
        assert bits.bit(0b100, 2) == 1
        assert bits.bit(0b100, 1) == 0

    def test_bits_range(self):
        assert bits.bits(0xABCD, 15, 12) == 0xA
        assert bits.bits(0xABCD, 3, 0) == 0xD

    def test_bits_invalid_range(self):
        with pytest.raises(ValueError):
            bits.bits(0, 0, 1)

    def test_set_field_shifted_mask(self):
        from repro.isa.constants import MSTATUS_MPP

        assert bits.set_field(0, MSTATUS_MPP, 3) == MSTATUS_MPP

    def test_get_field(self):
        from repro.isa.constants import MSTATUS_MPP

        assert bits.get_field(MSTATUS_MPP, MSTATUS_MPP) == 3

    @given(u64, st.integers(min_value=0, max_value=3))
    def test_set_then_get_field(self, value, field):
        from repro.isa.constants import MSTATUS_MPP

        updated = bits.set_field(value, MSTATUS_MPP, field)
        assert bits.get_field(updated, MSTATUS_MPP) == field
        # Other bits untouched.
        assert updated & ~MSTATUS_MPP == value & ~MSTATUS_MPP


class TestNapot:
    def test_encode_decode_roundtrip(self):
        encoded = bits.napot_encode(0x8000_0000, 0x10_0000)
        base, size = bits.napot_range(encoded)
        assert (base, size) == (0x8000_0000, 0x10_0000)

    def test_smallest_region(self):
        encoded = bits.napot_encode(0x1000, 8)
        assert bits.napot_range(encoded) == (0x1000, 8)

    def test_encode_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            bits.napot_encode(0, 24)

    def test_encode_rejects_too_small(self):
        with pytest.raises(ValueError):
            bits.napot_encode(0, 4)

    def test_encode_rejects_misaligned_base(self):
        with pytest.raises(ValueError):
            bits.napot_encode(0x1004, 0x1000)

    @given(
        st.integers(min_value=3, max_value=40),
        st.integers(min_value=0, max_value=1 << 20),
    )
    def test_napot_roundtrip_property(self, log_size, block):
        size = 1 << log_size
        base = block * size
        encoded = bits.napot_encode(base, size)
        assert bits.napot_range(encoded) == (base, size)

    def test_all_ones_covers_huge_range(self):
        base, size = bits.napot_range((1 << 54) - 1)
        assert base == 0
        assert size == 1 << 57
