"""Victim models for the attack harnesses (Section IV-D, Fig. 8).

The paper mounts its occupancy attack with cacheFX against OpenSSL's
T-table AES and a square-and-multiply modular exponentiation.  We model
each victim as a deterministic *memory-access profile*: the sequence of
LLC lines one cryptographic operation touches, as a function of the
secret key.  That is exactly the surface a cache attacker can observe,
so the substitution preserves the experiment (DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..common.rng import make_rng

#: A 1 KB T-table spans 16 cache lines of 64 B.
TTABLE_LINES = 16


@dataclass(frozen=True)
class AESKey:
    """A 16-byte AES key (only its access-profile effect is modelled)."""

    key_bytes: Sequence[int]

    def __post_init__(self) -> None:
        if len(self.key_bytes) != 16 or any(not 0 <= b < 256 for b in self.key_bytes):
            raise ValueError("an AES key is 16 bytes")


class AESVictim:
    """T-table AES access model.

    One encryption performs 10 rounds x 16 byte-indexed lookups spread
    over four 1 KB T-tables; the *cache line* of each lookup is the
    high nibble of the (state XOR round-key) byte.  Keys with different
    byte patterns therefore touch different line subsets with different
    frequencies - the reuse-profile difference the occupancy attacker
    tries to detect.
    """

    #: Line-address base of each T-table in the victim's address space.
    TABLE_BASES = (0x1000, 0x1010, 0x1020, 0x1030)

    def __init__(self, key: AESKey, seed: Optional[int] = None):
        self.key = key
        self._rng = make_rng(seed)

    def encryption_accesses(self) -> List[int]:
        """Line addresses touched by one encryption of a random block.

        The key shapes the *spread* of each byte position's lookups
        over its T-table (``8 + key_byte >> 5`` of the 16 lines): keys
        with large high bits touch more distinct lines per encryption.
        This realizes the paper's setup of "two different keys, each
        having different reuse profiles at the LLC".
        """
        # ``randrange(256)`` per byte, drawn with the ``getrandbits(9)``
        # rejection loop it runs, without the library's frames.
        getrandbits = self._rng.getrandbits
        state = []
        for _ in range(16):
            r = getrandbits(9)
            while r >= 256:
                r = getrandbits(9)
            state.append(r)
        accesses: List[int] = []
        key_bytes = self.key.key_bytes
        for round_no in range(10):
            for byte_idx in range(16):
                key_byte = key_bytes[byte_idx]
                mixed = state[byte_idx] ^ key_byte
                spread = 8 + (key_byte >> 5)
                table = self.TABLE_BASES[byte_idx % 4]
                accesses.append(table + (mixed >> 4) % spread)
                # Cheap, deterministic state evolution standing in for
                # MixColumns/SubBytes diffusion.
                state[byte_idx] = (mixed * 167 + round_no * 13 + byte_idx) % 256
        return accesses


@dataclass(frozen=True)
class RSAKey:
    """A modular-exponentiation exponent, given as its bit string."""

    bits: Sequence[int]

    def __post_init__(self) -> None:
        if not self.bits or any(b not in (0, 1) for b in self.bits):
            raise ValueError("exponent bits must be a non-empty 0/1 sequence")

    @property
    def hamming_weight(self) -> int:
        return sum(self.bits)


class ModExpVictim:
    """Square-and-multiply modular exponentiation access model.

    Every exponent bit performs a *square* (touching the squaring
    working set); a set bit additionally performs a *multiply*
    (touching the multiplier working set).  The number of LLC lines
    touched per exponentiation is therefore key-dependent - a textbook
    occupancy channel (94 encryptions suffice against a fully
    associative cache in the paper's Fig. 8, vs 10590 for AES, because
    the signal is so much stronger).
    """

    SQUARE_BASE = 0x2000
    SQUARE_LINES = 24
    MULTIPLY_BASE = 0x2100
    MULTIPLY_LINES = 24

    def __init__(self, key: RSAKey, seed: Optional[int] = None):
        self.key = key
        self._rng = make_rng(seed)

    def encryption_accesses(self) -> List[int]:
        """Line addresses touched by one full exponentiation.

        Multiplications use a per-position working-set slice (as a
        windowed implementation's precomputed table would), so the
        exponent's Hamming weight sets the distinct-line footprint -
        the occupancy signal.
        """
        accesses: List[int] = []
        for position, bit in enumerate(self.key.bits):
            for i in range(self.SQUARE_LINES):
                accesses.append(self.SQUARE_BASE + i)
            if bit:
                base = self.MULTIPLY_BASE + (position % self.MULTIPLY_LINES)
                accesses.append(base)
                accesses.append(base + self.MULTIPLY_LINES)
        return accesses


class WebsiteVictim:
    """Website-load memory-activity model (Shusterman et al. [32]).

    The paper motivates occupancy attacks with website fingerprinting:
    a page load produces a characteristic *time series* of cache
    occupancy as resources are parsed and rendered.  A "website" here
    is a sequence of phases, each touching a working set of a given
    size for a given duration; the phase profile is the fingerprint.

    ``phase_accesses(t)`` returns the line addresses touched during
    sampling window ``t``, so an attacker can interleave occupancy
    probes with the load, exactly like the JavaScript attacker of [32].
    """

    BASE = 0x3000_0000

    def __init__(self, phases: Sequence[tuple], seed: Optional[int] = None):
        """``phases``: (footprint_lines, windows) pairs, in load order."""
        if not phases:
            raise ValueError("a website needs at least one phase")
        self.phases = tuple(phases)
        self._rng = make_rng(seed)

    @property
    def total_windows(self) -> int:
        return sum(windows for _, windows in self.phases)

    def phase_accesses(self, window: int) -> List[int]:
        """Addresses touched in sampling window ``window``."""
        offset = 0
        base = self.BASE
        for footprint, windows in self.phases:
            if window < offset + windows:
                return [base + self._rng.randrange(footprint) for _ in range(footprint // 2)]
            offset += windows
            base += footprint
        return []


def website_catalog(seed: Optional[int] = None):
    """A tiny catalog of distinguishable synthetic 'websites'."""
    return {
        "news": WebsiteVictim(((400, 3), (1200, 4), (300, 3)), seed=seed),
        "video": WebsiteVictim(((200, 2), (2000, 6), (2000, 2)), seed=seed),
        "docs": WebsiteVictim(((800, 5), (400, 5)), seed=seed),
    }


def aes_key_pair(seed: Optional[int] = None):
    """Two AES keys with deliberately different line-reuse profiles.

    Key A concentrates its lookups on few lines (high reuse); key B
    spreads them (low reuse) - the paper's "different reuse profiles at
    the LLC so that an attacker can exploit the Maya cache".
    """
    rng = make_rng(seed)
    key_a = AESKey(tuple(rng.randrange(16) for _ in range(16)))  # high nibbles 0
    key_b = AESKey(tuple(rng.randrange(256) | 0xF0 for _ in range(16)))
    return key_a, key_b


def modexp_key_pair(bits: int = 64, seed: Optional[int] = None):
    """Two exponents with clearly different Hamming weights."""
    rng = make_rng(seed)
    sparse = tuple(1 if rng.random() < 0.25 else 0 for _ in range(bits))
    dense = tuple(1 if rng.random() < 0.75 else 0 for _ in range(bits))
    return RSAKey(sparse), RSAKey(dense)
