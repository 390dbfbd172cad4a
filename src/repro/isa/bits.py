"""Bit-manipulation helpers shared across the ISA, spec, and emulator.

All machine values are Python integers constrained to 64 bits.  These
helpers centralize truncation, sign extension, and field extraction so the
rest of the code base never hand-rolls shifting arithmetic.
"""

from __future__ import annotations

from repro.isa.constants import XLEN, XMASK


def to_u64(value: int) -> int:
    """Truncate an integer to an unsigned 64-bit value."""
    return value & XMASK


def to_signed(value: int, width: int = XLEN) -> int:
    """Interpret the low ``width`` bits of ``value`` as a two's-complement int."""
    value &= (1 << width) - 1
    if value & (1 << (width - 1)):
        return value - (1 << width)
    return value


def sign_extend(value: int, width: int) -> int:
    """Sign-extend the low ``width`` bits of ``value`` to 64 bits."""
    return to_u64(to_signed(value, width))


def bit(value: int, position: int) -> int:
    """Extract a single bit as 0 or 1."""
    return (value >> position) & 1


def bits(value: int, high: int, low: int) -> int:
    """Extract the inclusive bit range [high:low]."""
    if high < low:
        raise ValueError(f"invalid bit range [{high}:{low}]")
    return (value >> low) & ((1 << (high - low + 1)) - 1)


def set_field(value: int, mask: int, field: int) -> int:
    """Return ``value`` with the (possibly shifted) ``mask`` field set to ``field``.

    ``mask`` must be a contiguous run of ones; ``field`` is the unshifted
    field value (e.g. ``set_field(mstatus, MSTATUS_MPP, 3)``).
    """
    shift = (mask & -mask).bit_length() - 1
    return to_u64((value & ~mask) | ((field << shift) & mask))


def get_field(value: int, mask: int) -> int:
    """Extract the (possibly shifted) ``mask`` field from ``value``."""
    shift = (mask & -mask).bit_length() - 1
    return (value & mask) >> shift


def napot_range(pmpaddr: int) -> tuple[int, int]:
    """Decode a NAPOT ``pmpaddr`` value into a (base, size) byte range.

    The encoding places the size in the position of the lowest zero bit:
    ``yyyy...y01..1`` covers ``2^(k+3)`` bytes where ``k`` is the number of
    trailing ones.
    """
    trailing_ones = 0
    probe = pmpaddr
    while probe & 1:
        trailing_ones += 1
        probe >>= 1
    size = 1 << (trailing_ones + 3)
    base = (pmpaddr & ~((1 << trailing_ones) - 1)) << 2
    return base, size


def napot_encode(base: int, size: int) -> int:
    """Encode a naturally aligned power-of-two region as a NAPOT pmpaddr value.

    Raises ``ValueError`` if the region is not naturally aligned or the size
    is not a power of two of at least 8 bytes.
    """
    if size < 8 or size & (size - 1):
        raise ValueError(f"NAPOT size must be a power of two >= 8, got {size}")
    if base % size:
        raise ValueError(f"NAPOT base {base:#x} not aligned to size {size:#x}")
    return (base >> 2) | ((size >> 3) - 1)
