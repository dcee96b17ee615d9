"""Small bit-manipulation helpers used across the library.

These are deliberately tiny, pure functions: the cipher, the index
randomizers, and the storage model all need the same handful of mask /
fold / parity primitives, and keeping them here avoids re-implementing
them subtly differently in each subsystem.
"""

from __future__ import annotations


def mask(width: int) -> int:
    """Return an integer with the low ``width`` bits set.

    >>> mask(4)
    15
    >>> mask(0)
    0
    """
    if width < 0:
        raise ValueError(f"bit width must be non-negative, got {width}")
    return (1 << width) - 1


def bits_required(value: int) -> int:
    """Number of bits needed to represent ``value`` distinct values.

    This is the pointer width needed to index a structure with ``value``
    entries (e.g. Maya's 18-bit FPTR for a 480K-entry tag store would be
    ``bits_required(491520) == 19``; the paper rounds FPTR down to 18
    because it indexes the 192K+96K *valid* entries - we keep the exact
    arithmetic in :mod:`repro.power.storage`).

    >>> bits_required(1)
    0
    >>> bits_required(2)
    1
    >>> bits_required(262144)
    18
    """
    if value <= 0:
        raise ValueError(f"need a positive entry count, got {value}")
    return (value - 1).bit_length()


def is_power_of_two(value: int) -> bool:
    """True when ``value`` is a positive power of two.

    >>> is_power_of_two(16)
    True
    >>> is_power_of_two(12)
    False
    """
    return value > 0 and (value & (value - 1)) == 0


def log2_exact(value: int) -> int:
    """Return ``log2(value)`` for an exact power of two, else raise.

    >>> log2_exact(1024)
    10
    """
    if not is_power_of_two(value):
        raise ValueError(f"{value} is not a power of two")
    return value.bit_length() - 1


def rotate_left(value: int, amount: int, width: int) -> int:
    """Rotate ``value`` left by ``amount`` within ``width`` bits.

    >>> rotate_left(0b0001, 1, 4)
    2
    >>> rotate_left(0b1000, 1, 4)
    1
    """
    amount %= width
    value &= mask(width)
    return ((value << amount) | (value >> (width - amount))) & mask(width)


def fold_xor(value: int, out_width: int) -> int:
    """XOR-fold an arbitrarily wide integer down to ``out_width`` bits.

    Folding preserves entropy from every input bit, which is what the
    randomized index functions need when narrowing a 64-bit cipher
    output to a set-index width.

    >>> fold_xor(0xFF00FF00FF00FF00, 16)
    0
    >>> fold_xor(0x1, 4)
    1
    """
    if out_width <= 0:
        raise ValueError(f"output width must be positive, got {out_width}")
    folded = 0
    m = mask(out_width)
    while value:
        folded ^= value & m
        value >>= out_width
    return folded


def parity(value: int) -> int:
    """Return the XOR of all bits of ``value`` (0 or 1).

    >>> parity(0b1011)
    1
    >>> parity(0b1001)
    0
    """
    return bin(value).count("1") & 1
