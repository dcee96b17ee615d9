"""The PRINCE block cipher (Borghoff et al., ASIACRYPT 2012).

PRINCE is the low-latency 64-bit block cipher the paper uses as the
randomizing function for Maya's skewed tag store (Section III-C): it
encrypts the physical line address under a per-boot 128-bit key, and
the set index for each skew is derived from the ciphertext.  Previous
randomized designs (Scatter-Cache, Mirage) use the same cipher.

This is a complete, test-vector-validated implementation:

* 12-round ``PRINCE_core`` with the alpha-reflection structure,
* FX whitening with ``k0`` / ``k0'``,
* decryption both directly and via the alpha-reflection property
  (``D_{k0||k0'||k1} = E_{k0'||k0||k1 ^ alpha}``), which the tests
  cross-check.

State convention: the 64-bit state is an integer whose most significant
nibble is nibble 0, matching the hex strings in the PRINCE paper, so
the published test vectors can be compared directly.

The round functions are evaluated through **fused position tables**
(the classic T-table construction): for each of the 8 byte positions a
256-entry table maps the input byte to its 64-bit XOR contribution to
the whole round output, folding S-box, M' diffusion, and ShiftRows into
one lookup.  A full round is then 8 lookups + 8 XORs instead of the
~48 per-nibble loop iterations of the layer-by-layer interpreter, which
makes ``algorithm="prince"`` simulations viable instead of a documented
10x-slower fallback.  The tables are *key independent* (built once at
import); all key material stays in the per-instance round-key schedule.
The original per-nibble interpreter is retained verbatim in
:mod:`repro.reference.prince` as the differential oracle, and the layer
primitives below are what both the table builder and the oracle share.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List

import numpy as np

from ..common.bitops import mask

_MASK64 = mask(64)

#: PRINCE S-box and its inverse (nibble substitution).
SBOX = (0xB, 0xF, 0x3, 0x2, 0xA, 0xC, 0x9, 0x1, 0x6, 0x7, 0x8, 0x0, 0xE, 0x5, 0xD, 0x4)
SBOX_INV = tuple(SBOX.index(x) for x in range(16))

#: Round constants RC0..RC11; RC_i ^ RC_{11-i} == ALPHA for all i.
ROUND_CONSTANTS = (
    0x0000000000000000,
    0x13198A2E03707344,
    0xA4093822299F31D0,
    0x082EFA98EC4E6C89,
    0x452821E638D01377,
    0xBE5466CF34E90C6C,
    0x7EF84F78FD955CB1,
    0x85840851F1AC43AA,
    0xC882D32F25323C54,
    0x64A51195E0E3610D,
    0xD3B5A399CA0C2399,
    0xC0AC29B7C97C50DD,
)

ALPHA = 0xC0AC29B7C97C50DD

# The four 4x4 GF(2) building blocks of the M' layer (paper Section 3.3).
_M_BLOCKS = (
    ((0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),  # m0
    ((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),  # m1
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1)),  # m2
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0)),  # m3
)

# Block layout of the two 16x16 matrices M^hat_0 and M^hat_1.
_MHAT0_LAYOUT = ((0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2))
_MHAT1_LAYOUT = ((1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2), (0, 1, 2, 3))

# ShiftRows nibble permutation: output nibble i takes input nibble SR[i]
# (nibble 0 is the most significant nibble).
_SR = (0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11)
_SR_INV = tuple(_SR.index(i) for i in range(16))


def _build_mhat_rows(layout) -> List[int]:
    """Expand a 4x4 block layout into 16 row bitmasks.

    Row ``i``'s mask has bit ``(15 - j)`` set when matrix element
    ``(i, j)`` is 1, so a row-times-vector product is ``parity(mask &
    chunk)`` with the chunk stored MSB-first in a plain integer.
    """
    rows = []
    for block_row in range(4):
        for bit_row in range(4):
            row_mask = 0
            for block_col in range(4):
                block = _M_BLOCKS[layout[block_row][block_col]]
                for bit_col in range(4):
                    if block[bit_row][bit_col]:
                        col = block_col * 4 + bit_col
                        row_mask |= 1 << (15 - col)
            rows.append(row_mask)
    return rows


_MHAT0_ROWS = _build_mhat_rows(_MHAT0_LAYOUT)
_MHAT1_ROWS = _build_mhat_rows(_MHAT1_LAYOUT)


def _build_mhat_table(rows: List[int]) -> List[int]:
    """Precompute the full 16-bit input -> 16-bit output lookup table.

    The map is linear over GF(2), so the table is built by doubling
    over the 16 single-bit images: each pass appends the current table
    XORed with the next bit's image, from the input's least significant
    bit (``single[15]``) up to its most significant (``single[0]``).
    """
    single = []
    for in_bit in range(16):
        vec = 1 << (15 - in_bit)
        out = 0
        for out_bit, row_mask in enumerate(rows):
            if bin(row_mask & vec).count("1") & 1:
                out |= 1 << (15 - out_bit)
        single.append(out)
    table = [0]
    for bit in range(15, -1, -1):
        image = single[bit]
        table += [t ^ image for t in table]
    return table


_MHAT0_TABLE = _build_mhat_table(_MHAT0_ROWS)
_MHAT1_TABLE = _build_mhat_table(_MHAT1_ROWS)


def _s_layer(state: int, box=SBOX) -> int:
    out = 0
    for shift in range(0, 64, 4):
        out |= box[(state >> shift) & 0xF] << shift
    return out


def _m_prime_layer(state: int) -> int:
    """Apply the involutory M' matrix (chunks use M^hat_0,1,1,0)."""
    c0 = _MHAT0_TABLE[(state >> 48) & 0xFFFF]
    c1 = _MHAT1_TABLE[(state >> 32) & 0xFFFF]
    c2 = _MHAT1_TABLE[(state >> 16) & 0xFFFF]
    c3 = _MHAT0_TABLE[state & 0xFFFF]
    return (c0 << 48) | (c1 << 32) | (c2 << 16) | c3


def _shift_rows(state: int, permutation=_SR) -> int:
    out = 0
    for i in range(16):
        nibble = (state >> (4 * (15 - permutation[i]))) & 0xF
        out |= nibble << (4 * (15 - i))
    return out


def _m_layer(state: int) -> int:
    """M = SR o M'."""
    return _shift_rows(_m_prime_layer(state))


def _m_layer_inv(state: int) -> int:
    """M^-1 = M' o SR^-1 (M' is an involution)."""
    return _m_prime_layer(_shift_rows(state, _SR_INV))


# -- fused position tables -------------------------------------------------
#
# One table set per round direction.  ``T[pos][b]`` is the 64-bit XOR
# contribution of input byte ``b`` at byte position ``pos`` (bits
# ``8*pos .. 8*pos+7``) to the whole round output.  The decomposition is
# exact: the S layer acts nibble-wise, so ``S(x)`` is the XOR of its
# per-byte images (each confined to its own byte lanes), and the M' / SR
# layers are linear over XOR — ``Linear(S(x)) = XOR_pos
# T[pos][byte_pos(x)]``.  All tables are key independent.

_SBOX_BYTE = tuple((SBOX[b >> 4] << 4) | SBOX[b & 0xF] for b in range(256))
_SBOX_INV_BYTE = tuple((SBOX_INV[b >> 4] << 4) | SBOX_INV[b & 0xF] for b in range(256))


def _build_position_tables(sbox_byte, linear) -> tuple:
    """``T[pos][b] = linear(sbox_byte[b] << 8*pos)`` for all 8 positions."""
    return tuple(
        [linear(sbox_byte[b] << (8 * pos)) for b in range(256)] for pos in range(8)
    )


#: Forward round: SR(M'(S(x))).
_T_FWD = _build_position_tables(_SBOX_BYTE, lambda x: _shift_rows(_m_prime_layer(x)))
#: First middle pass: M'(S(x)) (the S o M' half of the involution).
_T_MID = _build_position_tables(_SBOX_BYTE, _m_prime_layer)
#: Inverse round in deferred-S form: M'(SR^-1(S^-1(z))).
_T_INV = _build_position_tables(
    _SBOX_INV_BYTE, lambda x: _m_prime_layer(_shift_rows(x, _SR_INV))
)
#: Final layer: the plain byte-wise inverse S-box.
_T_SINV = _build_position_tables(_SBOX_INV_BYTE, lambda x: x)


def _fuse_schedule(round_keys) -> tuple:
    """Transform a ``RC ^ k1`` schedule for the fused kernel.

    The kernel evaluates the back-half rounds in *deferred-S* form: it
    tracks ``z_i``, the state before each round's trailing ``S^-1``, so
    the recurrence ``x_i = S^-1(L(x_{i-1} ^ rk_i))`` (with ``L = M' o
    SR^-1``) becomes ``z_i = L(S^-1(z_{i-1})) ^ L(rk_i)`` — one fused
    table pass plus a key XOR.  That moves the round keys 6..10 through
    the linear layer, so the schedule stores ``L(rk_i)`` for them.
    """
    fused = list(round_keys)
    for i in range(6, 11):
        fused[i] = _m_prime_layer(_shift_rows(fused[i], _SR_INV))
    return tuple(fused)


def _fused_block(x: int, ks, F=_T_FWD, M=_T_MID, I=_T_INV, S=_T_SINV) -> int:
    """One 64-bit block through the 12 fused rounds (schedule ``ks``).

    8 table lookups + 8 XORs per round in place of the interpreter's
    ~48 per-nibble loop iterations; 12 table passes per block total.
    """
    F0, F1, F2, F3, F4, F5, F6, F7 = F
    x ^= ks[0]
    for i in range(1, 6):
        x = (
            F0[x & 255] ^ F1[(x >> 8) & 255] ^ F2[(x >> 16) & 255]
            ^ F3[(x >> 24) & 255] ^ F4[(x >> 32) & 255] ^ F5[(x >> 40) & 255]
            ^ F6[(x >> 48) & 255] ^ F7[x >> 56] ^ ks[i]
        )
    M0, M1, M2, M3, M4, M5, M6, M7 = M
    x = (
        M0[x & 255] ^ M1[(x >> 8) & 255] ^ M2[(x >> 16) & 255]
        ^ M3[(x >> 24) & 255] ^ M4[(x >> 32) & 255] ^ M5[(x >> 40) & 255]
        ^ M6[(x >> 48) & 255] ^ M7[x >> 56]
    )
    I0, I1, I2, I3, I4, I5, I6, I7 = I
    for i in range(6, 11):
        x = (
            I0[x & 255] ^ I1[(x >> 8) & 255] ^ I2[(x >> 16) & 255]
            ^ I3[(x >> 24) & 255] ^ I4[(x >> 32) & 255] ^ I5[(x >> 40) & 255]
            ^ I6[(x >> 48) & 255] ^ I7[x >> 56] ^ ks[i]
        )
    S0, S1, S2, S3, S4, S5, S6, S7 = S
    return (
        S0[x & 255] ^ S1[(x >> 8) & 255] ^ S2[(x >> 16) & 255]
        ^ S3[(x >> 24) & 255] ^ S4[(x >> 32) & 255] ^ S5[(x >> 40) & 255]
        ^ S6[(x >> 48) & 255] ^ S7[x >> 56] ^ ks[11]
    )


def _fused_many(blocks, ks) -> "array":
    """Batch :func:`_fused_block`: ``array('Q')`` in, ``array('Q')`` out,
    one call per block.  The small-batch side of :func:`_fused_many_auto`."""
    return array("Q", [_fused_block(x, ks) for x in blocks])


# -- numpy batch kernel ----------------------------------------------------
#
# The fused tables vectorize directly: one round is 8 uint64 gathers +
# 8 XORs over the whole batch, so a 12-round encryption of N blocks is
# ~96 array ops regardless of N.  The arithmetic is identical to
# :func:`_fused_many` (integer table lookups and XORs - no rounding
# anywhere), so the two paths are bit-exact by construction; the batch
# threshold only decides which is faster.

#: Below this many blocks the per-call numpy overhead (dtype checks,
#: temporary allocation: ~290 us at any size up to 128 blocks) beats
#: the gather savings.  Looping :func:`_fused_block` costs ~8.7 us a
#: block, so the two cross at ~32 blocks: 280 us looped vs 289 us in
#: numpy at 32, 431 vs 301 us at 48 (Python 3.11, 2-vCPU Xeon VM).
NUMPY_BATCH_THRESHOLD = 32

#: The four fused table banks as ``(8, 256)`` uint64 ndarrays.
_NP_TABLES = tuple(
    np.array(bank, dtype=np.uint64) for bank in (_T_FWD, _T_MID, _T_INV, _T_SINV)
)
_NP_BYTE = np.uint64(255)
_NP_SHIFTS = tuple(np.uint64(8 * pos) for pos in range(1, 8))


def _table_pass(T, x):
    r = T[0][x & _NP_BYTE]
    for pos, sh in enumerate(_NP_SHIFTS, start=1):
        r ^= T[pos][(x >> sh) & _NP_BYTE]
    return r


def _fused_many_numpy(blocks, ks) -> "array":
    """Batch fused kernel on numpy: bit-exact with :func:`_fused_many`."""
    F, M, I, S = _NP_TABLES
    if isinstance(blocks, np.ndarray):
        x = blocks.astype(np.uint64, copy=True)
    elif isinstance(blocks, array) and blocks.typecode == "Q":
        # array('Q') exposes the buffer protocol: read without boxing.
        x = np.frombuffer(blocks, dtype=np.uint64).copy()
    else:
        x = np.array(blocks, dtype=np.uint64)
    keys = np.array(ks, dtype=np.uint64)
    x ^= keys[0]
    for i in range(1, 6):
        x = _table_pass(F, x) ^ keys[i]
    x = _table_pass(M, x)
    for i in range(6, 11):
        x = _table_pass(I, x) ^ keys[i]
    x = _table_pass(S, x) ^ keys[11]
    return array("Q", x.tobytes())


def _fused_many_auto(blocks, ks) -> "array":
    """Dispatch between the numpy and pure-Python batch kernels."""
    if len(blocks) >= NUMPY_BATCH_THRESHOLD:
        return _fused_many_numpy(blocks, ks)
    return _fused_many(blocks, ks)


def _core(state: int, k1: int) -> int:
    """The 12-round PRINCE_core keyed by ``k1`` (fused kernel)."""
    return _fused_block(state, _fuse_schedule(tuple(rc ^ k1 for rc in ROUND_CONSTANTS)))


def _whitening_key(k0: int) -> int:
    """k0' = (k0 >>> 1) ^ (k0 >> 63)."""
    return (((k0 >> 1) | ((k0 & 1) << 63)) ^ (k0 >> 63)) & _MASK64


class Prince:
    """PRINCE cipher instance bound to a 128-bit key.

    >>> cipher = Prince(0)
    >>> hex(cipher.encrypt(0))
    '0x818665aa0d02dfda'
    >>> cipher.decrypt(cipher.encrypt(0x0123456789ABCDEF))
    81985529216486895
    """

    def __init__(self, key: int):
        if not 0 <= key < (1 << 128):
            raise ValueError("PRINCE key must be a 128-bit integer")
        self._k0 = (key >> 64) & _MASK64
        self._k1 = key & _MASK64
        self._k0_prime = _whitening_key(self._k0)
        # Precomputed schedules with the FX whitening folded into the
        # outer round keys, so encrypt/decrypt are a single schedule walk.
        enc = [rc ^ self._k1 for rc in ROUND_CONSTANTS]
        enc[0] ^= self._k0
        enc[11] ^= self._k0_prime
        self._enc_schedule = tuple(enc)
        dec = [rc ^ self._k1 ^ ALPHA for rc in ROUND_CONSTANTS]
        dec[0] ^= self._k0_prime
        dec[11] ^= self._k0
        self._dec_schedule = tuple(dec)
        self._enc_fused = _fuse_schedule(self._enc_schedule)
        self._dec_fused = _fuse_schedule(self._dec_schedule)

    @property
    def key(self) -> int:
        """The 128-bit key (k0 || k1)."""
        return (self._k0 << 64) | self._k1

    def encrypt(self, plaintext: int) -> int:
        """Encrypt one 64-bit block."""
        return _fused_block(plaintext & _MASK64, self._enc_fused)

    def decrypt(self, ciphertext: int) -> int:
        """Decrypt one 64-bit block (alpha-reflection property)."""
        return _fused_block(ciphertext & _MASK64, self._dec_fused)

    def encrypt_many(self, blocks: Iterable[int]) -> array:
        """Encrypt a batch of 64-bit blocks; returns ``array('Q')``.

        Accepts any iterable with ``len()`` whose elements are already
        64-bit (``array('Q')`` is the intended input — no masking is
        applied on the hot path).  Batches of
        :data:`NUMPY_BATCH_THRESHOLD` blocks or more go through the
        numpy gather kernel (bit-exact, same tables); smaller batches
        use the pure-Python loop.
        """
        return _fused_many_auto(blocks, self._enc_fused)

    def decrypt_many(self, blocks: Iterable[int]) -> array:
        """Decrypt a batch of 64-bit blocks; returns ``array('Q')``."""
        return _fused_many_auto(blocks, self._dec_fused)


def encrypt(plaintext: int, key: int) -> int:
    """One-shot encryption convenience wrapper."""
    return Prince(key).encrypt(plaintext)


def decrypt(ciphertext: int, key: int) -> int:
    """One-shot decryption convenience wrapper."""
    return Prince(key).decrypt(ciphertext)


#: Published test vectors: (plaintext, k0, k1, ciphertext).
TEST_VECTORS = (
    (0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x818665AA0D02DFDA),
    (0xFFFFFFFFFFFFFFFF, 0x0000000000000000, 0x0000000000000000, 0x604AE6CA03C20ADA),
    (0x0000000000000000, 0xFFFFFFFFFFFFFFFF, 0x0000000000000000, 0x9FB51935FC3DF524),
    (0x0000000000000000, 0x0000000000000000, 0xFFFFFFFFFFFFFFFF, 0x78A54CBE737BB7EF),
    (0x0123456789ABCDEF, 0x0000000000000000, 0xFEDCBA9876543210, 0xAE25AD3CA8FA9CCF),
)
