"""Randomized set-index functions built on PRINCE.

Every randomized LLC in this library (CEASER, CEASER-S, Scatter-Cache,
Mirage, Maya) derives its set indices here.  The mapping follows the
designs' published structure:

* **CEASER** encrypts the line address under a single key and uses the
  low ciphertext bits as the set index (the whole encrypted address is
  used as the stored tag).
* **Skewed designs** (CEASER-S, Scatter-Cache, Mirage, Maya) need one
  *independent* index per skew and, for Scatter-Cache/Maya, the index
  must also depend on the security-domain ID (SDID) so that different
  domains see unrelated mappings of the same address.  We derive skew
  ``s``'s index by encrypting ``line_addr`` under a key tweaked by the
  pair ``(skew, sdid)`` and XOR-folding the 64-bit ciphertext down to
  the set-index width.

An LRU mapping cache holds the most recent ``(line address, SDID) ->
per-skew set indices`` results: simulators look up the same hot
addresses millions of times and the cipher is the hot path, so a hit
skips the cipher entirely.  The cache is invalidated on
:meth:`IndexRandomizer.rekey` (a key/epoch change remaps everything),
which models CEASER-style remapping and Maya's boot-time/SAE-triggered
key refresh, and exposes hit/miss/invalidation counters so experiments
can report its effectiveness (see ``CacheStats.randomizer_hits``).

The memo and the precomputed side table are ``dict[int, int]``: the key
is ``(line_addr << SDID_SHIFT) | sdid``, the packed key of every LLC's
location map, and the value holds skew ``s``'s index in bits
``32*s .. 32*s + 31`` (any ``array('I')`` column value packs exactly),
so an entry is two ints rather than two tuples of ints.  The public
lookups still return tuples.
"""

from __future__ import annotations

import hashlib
from array import array
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..common.addr import SDID_SHIFT, sdid_error
from ..common.bitops import fold_xor, log2_exact
from ..common.errors import ConfigurationError
from ..common.rng import derive_seed, make_rng
from .prince import Prince

#: Default capacity of the LRU mapping cache (entries).
DEFAULT_MEMO_CAPACITY = 1 << 20

#: Default capacity of the precomputed (bulk_map / load_packed) side
#: table.  Sized to hold the per-core translated traces of a full
#: 8-core run_mix with plenty of headroom; FIFO-evicted beyond that so
#: huge traces cannot grow it without bound.
DEFAULT_PRECOMPUTED_CAPACITY = 1 << 21

_M64 = (1 << 64) - 1

#: Width of each skew's lane in a packed mapping value.
_LANE = 32
_LANE_MASK = (1 << _LANE) - 1

#: splitmix64 multiplier constants (Steele et al.).
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(x: int) -> int:
    """The splitmix64 finalizer: one 64-bit avalanche mix of ``x``.

    Shared by every splitmix code path (per-skew index derivation, the
    CEASER full-address permutation, and batch translation) — it was
    previously pasted inline four times.  Callers XOR the per-skew key
    in *before* mixing.
    """
    x = ((x ^ (x >> 30)) * _MIX1) & _M64
    x = ((x ^ (x >> 27)) * _MIX2) & _M64
    return x ^ (x >> 31)


def _fold_indices(words, index_bits: int):
    """:func:`~repro.common.bitops.fold_xor` over a ``uint64`` ndarray.

    XORs every ``index_bits``-wide chunk of each word together, as
    ``x ^ (x >> b) ^ (x >> 2b) ...`` masked to ``b`` bits; returns a
    fresh ``uint32`` ndarray.
    """
    folded = words.copy()
    for shift in range(index_bits, 64, index_bits):
        folded ^= words >> np.uint64(shift)
    return (folded & np.uint64((1 << index_bits) - 1)).astype(np.uint32)


def _splitmix_many(x):
    """:func:`splitmix64` over a ``uint64`` ndarray (wrapping multiplies
    are the ``& _M64`` of the scalar mixer); returns a fresh array."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
    return x


def splitmix_indices(line_addrs, keys: Sequence[int], index_bits: int, sdid: int = 0):
    """Per-skew set indices for a batch of line addresses (splitmix64).

    The batch kernel behind :meth:`IndexRandomizer.translate` and
    :meth:`IndexRandomizer.premap`.
    Vectorized mirror of ``IndexRandomizer._raw_indices``, the scalar
    oracle the tests cross-check it against element-wise: for every
    key, XOR the tweaked address with the key, run the splitmix64
    finalizer, and XOR-fold the 64-bit word down to ``index_bits``.
    Returns one ``np.uint32`` array per key, element-aligned with
    ``line_addrs``.

    ``line_addrs`` may be any buffer - including the non-writeable
    views ``columns_numpy()`` hands out over mmap-backed cache columns;
    the kernel never writes its inputs, every derived array is fresh.
    """
    addrs = np.ascontiguousarray(line_addrs, dtype=np.uint64)
    tweaked = addrs ^ np.uint64((sdid << 56) & _M64)
    return [
        _fold_indices(_splitmix_many(tweaked ^ np.uint64(key & _M64)), index_bits)
        for key in keys
    ]


def _pack_lanes(columns) -> list:
    """Per-element packed mapping values of aligned per-skew columns."""
    packed = np.asarray(columns[0], dtype=np.uint64)
    if len(columns) > 1:
        packed = packed | np.asarray(columns[1], dtype=np.uint64) << np.uint64(_LANE)
    values = packed.tolist()
    # A third lane starts at bit 64, past uint64: pack it in Python.
    for s in range(2, len(columns)):
        shift = _LANE * s
        lane = np.asarray(columns[s], dtype=np.uint64).tolist()
        values = [v | x << shift for v, x in zip(values, lane)]
    return values


class MappingCacheInfo(NamedTuple):
    """Snapshot of the LRU mapping cache's counters."""

    hits: int
    misses: int
    invalidations: int
    size: int
    capacity: int
    #: Entries precomputed by :meth:`IndexRandomizer.bulk_map` /
    #: :meth:`IndexRandomizer.load_packed` (the side table consulted on
    #: memo misses; see their docstrings).
    precomputed: int = 0
    #: FIFO evictions from the precomputed side table (it is bounded by
    #: ``precomputed_capacity``; nonzero means a trace outgrew it).
    precomputed_evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class IndexRandomizer:
    """Per-skew randomized address-to-set mapping.

    Parameters
    ----------
    skews:
        Number of independent index functions (1 for CEASER-style).
    sets_per_skew:
        Power-of-two number of sets each function maps into.
    seed:
        Deterministic seed for key generation; ``None`` uses the
        library default.
    algorithm:
        ``"prince"`` (default, the paper's cipher) or ``"splitmix"``,
        a fast keyed mixer that is *not* cryptographically strong but
        produces the same uniform index distribution.  The security
        analyses use PRINCE; the performance sweeps may use splitmix
        because only index uniformity matters there (documented in
        DESIGN.md) - the Python cipher would otherwise dominate
        simulation time.
    memo_capacity:
        Maximum entries in the LRU mapping cache; the least recently
        used mapping is evicted when the cache is full.
    precomputed_capacity:
        Maximum entries in the precomputed side table filled by
        :meth:`bulk_map` / :meth:`load_packed`; the oldest entry is
        evicted (FIFO) when it is full, so unbounded traces cannot leak
        memory across trials.
    """

    def __init__(
        self,
        skews: int,
        sets_per_skew: int,
        seed: Optional[int] = None,
        algorithm: str = "prince",
        memo_capacity: int = DEFAULT_MEMO_CAPACITY,
        precomputed_capacity: int = DEFAULT_PRECOMPUTED_CAPACITY,
    ):
        if skews < 1:
            raise ConfigurationError(f"need at least one skew, got {skews}")
        if algorithm not in ("prince", "splitmix"):
            raise ConfigurationError(f"unknown randomizer algorithm {algorithm!r}")
        if memo_capacity < 1:
            raise ConfigurationError(f"memo capacity must be positive, got {memo_capacity}")
        if precomputed_capacity < 1:
            raise ConfigurationError(
                f"precomputed capacity must be positive, got {precomputed_capacity}"
            )
        self._skews = skews
        self._index_bits = log2_exact(sets_per_skew)
        self._sets_per_skew = sets_per_skew
        self._algorithm = algorithm
        self._seed_rng = make_rng(derive_seed(seed, 0xC1F))
        self._epoch = 0
        self._ciphers: List[Prince] = []
        self._mix_keys: List[int] = []
        # LRU mapping cache: packed (line_addr, sdid) key -> packed
        # per-skew indices.  Plain dict in insertion order; a hit
        # reinserts its key (O(1) move-to-back), so the front is always
        # the LRU entry.
        self._memo: Dict[int, int] = {}
        self._memo_capacity = memo_capacity
        # Precomputed mappings from bulk_map()/load_packed(); consulted
        # on memo misses only, so hit/miss/eviction accounting is
        # untouched.  Bounded: FIFO-evicted past precomputed_capacity.
        self._precomputed: Dict[int, int] = {}
        self._precomputed_capacity = precomputed_capacity
        self.precomputed_evictions = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_invalidations = 0
        self.rekey()

    @property
    def skews(self) -> int:
        return self._skews

    @property
    def sets_per_skew(self) -> int:
        return self._sets_per_skew

    @property
    def memo_capacity(self) -> int:
        """Capacity of the LRU mapping cache (entries)."""
        return self._memo_capacity

    @property
    def precomputed_capacity(self) -> int:
        """Capacity of the precomputed side table (entries)."""
        return self._precomputed_capacity

    @property
    def algorithm(self) -> str:
        """The index-derivation algorithm (``"prince"`` or ``"splitmix"``)."""
        return self._algorithm

    @property
    def index_bits(self) -> int:
        """Width of each per-skew set index in bits."""
        return self._index_bits

    @property
    def epoch(self) -> int:
        """Number of rekeys performed (0 after construction is 1st key)."""
        return self._epoch

    def rekey(self) -> None:
        """Draw fresh 128-bit keys for every skew and drop the memo.

        Models the key refresh performed at boot and, per Section IV,
        after any detected SAE; also used by CEASER's periodic remap.
        """
        if self._algorithm == "prince":
            self._ciphers = [Prince(self._seed_rng.getrandbits(128)) for _ in range(self._skews)]
        else:
            self._mix_keys = [self._seed_rng.getrandbits(64) for _ in range(self._skews)]
        self._memo.clear()
        self._precomputed.clear()  # old keys -> every precomputed mapping is stale
        if self._epoch:  # the constructor's initial keying drops nothing
            self.cache_invalidations += 1
        self._epoch += 1

    def _raw_indices(self, line_addr: int, sdid: int) -> tuple:
        tweaked = line_addr ^ (sdid << 56)
        if self._algorithm == "prince":
            return tuple(
                fold_xor(self._ciphers[s].encrypt(tweaked), self._index_bits)
                for s in range(self._skews)
            )
        bits = self._index_bits
        m = (1 << bits) - 1
        if bits & (bits - 1) == 0 and len(self._mix_keys) == 2:
            # Hot specialization: two skews, power-of-two index width.
            # The XOR-fold of 64/bits equal chunks equals folding the
            # word in halves down to the chunk width (each halving XORs
            # chunk i with chunk i + span/bits), so the while-loop fold
            # below collapses to log2(64/bits) shift-XORs with an
            # identical result.
            k0, k1 = self._mix_keys
            x = splitmix64((tweaked ^ k0) & _M64)
            span = 32
            while span >= bits:
                x ^= x >> span
                span >>= 1
            f0 = x & m
            x = splitmix64((tweaked ^ k1) & _M64)
            span = 32
            while span >= bits:
                x ^= x >> span
                span >>= 1
            return (f0, x & m)
        out = []
        for key in self._mix_keys:
            x = splitmix64((tweaked ^ key) & _M64)
            # fold_xor inlined (hot path): XOR-fold 64 bits to the index width.
            f = 0
            while x:
                f ^= x & m
                x >>= bits
            out.append(f)
        return tuple(out)

    def _raw_packed(self, line_addr: int, sdid: int) -> int:
        """:meth:`_raw_indices` packed into 32-bit lanes."""
        packed = 0
        for s, index in enumerate(self._raw_indices(line_addr, sdid)):
            packed |= index << (_LANE * s)
        return packed

    def _unpack(self, packed: int) -> tuple:
        """The per-skew indices of a packed mapping value."""
        if self._skews == 2:
            return (packed & _LANE_MASK, packed >> _LANE)
        return tuple((packed >> (_LANE * s)) & _LANE_MASK for s in range(self._skews))

    def _lookup_packed(self, line_addr: int, sdid: int) -> int:
        """LRU cache lookup; computes and inserts on a miss.

        Returns the packed per-skew indices.  A miss first consults the
        :meth:`bulk_map` side table before paying for the cipher;
        either way it *counts* as a miss and inserts into the memo, so
        the memo's hit/miss/eviction behaviour is bit-identical with or
        without pre-warming.  The generated Maya and Mirage steps
        inline this (``repro.common.codegen._memo_lookup``).
        """
        memo = self._memo
        key = (line_addr << SDID_SHIFT) | sdid
        packed = memo.pop(key, None)
        if packed is None:
            self.cache_misses += 1
            packed = self._precomputed.get(key)
            if packed is None:
                packed = self._raw_packed(line_addr, sdid)
            if len(memo) >= self._memo_capacity:
                del memo[next(iter(memo))]  # evict the LRU entry
        else:
            self.cache_hits += 1
        memo[key] = packed  # (re)insert at the MRU position
        return packed

    def _lookup(self, line_addr: int, sdid: int) -> tuple:
        """:meth:`_lookup_packed`, unpacked to per-skew indices."""
        return self._unpack(self._lookup_packed(line_addr, sdid))

    def _install_precomputed(self, key: int, value: int) -> None:
        """Insert into the bounded side table, FIFO-evicting past capacity."""
        pre = self._precomputed
        if key not in pre and len(pre) >= self._precomputed_capacity:
            del pre[next(iter(pre))]
            self.precomputed_evictions += 1
        pre[key] = value

    def _keys(self, line_addrs, sdid: int) -> list:
        """Packed ``(line_addr, sdid)`` keys of a batch, as Python ints.

        One numpy pass, unless an address is ``>= 2**48``: its uint64
        shift would wrap, so that batch is keyed in Python.
        """
        if sdid >> SDID_SHIFT:
            raise sdid_error(sdid)
        try:
            addrs = np.asarray(line_addrs, dtype=np.uint64)
        except TypeError:  # a set or an iterator: no sequence to view
            addrs = np.fromiter(line_addrs, dtype=np.uint64)
        if len(addrs) and int(addrs.max()) >> (64 - SDID_SHIFT):
            return [(addr << SDID_SHIFT) | sdid for addr in addrs.tolist()]
        return ((addrs << np.uint64(SDID_SHIFT)) | np.uint64(sdid)).tolist()

    def translate(self, line_addrs, sdid: int = 0) -> List[array]:
        """Batch-translate addresses to per-skew packed index columns.

        One serial numpy pass over ``line_addrs``: under ``"prince"``
        each skew's cipher encrypts the whole batch
        (``Prince.encrypt_many``) and the ciphertexts are XOR-folded to
        the index width in one vectorized pass; under ``"splitmix"``
        :func:`splitmix_indices` does both.  Returns one ``array('I')``
        of set indices per skew, ``columns[s][i] ==
        compute_indices(line_addrs[i], sdid)[s]``.  Nothing is cached
        here — feed the columns to :meth:`load_packed` (or persist them
        in the translated-trace cache) to make them visible to lookups.
        """
        addrs = np.asarray(line_addrs, dtype=np.uint64)
        if self._algorithm == "prince":
            blocks = array("Q", (addrs ^ np.uint64((sdid << 56) & _M64)).tobytes())
            columns = [
                _fold_indices(
                    np.frombuffer(cipher.encrypt_many(blocks), dtype=np.uint64),
                    self._index_bits,
                )
                for cipher in self._ciphers
            ]
        else:
            columns = splitmix_indices(addrs, self._mix_keys, self._index_bits, sdid)
        return [array("I", col.tobytes()) for col in columns]

    def load_packed(self, line_addrs, columns: Sequence, sdid: int = 0) -> int:
        """Install pre-translated index columns into the side table.

        ``columns`` is what :meth:`translate` returned for these
        ``line_addrs`` (possibly loaded back from the on-disk
        translated-trace cache).  Entries land in the same bounded side
        table as :meth:`bulk_map` output, consulted by the miss path
        only, so memo accounting stays bit-identical.  When the table
        has room for the whole batch nothing can be evicted, so it is
        installed with one ``dict.update``; otherwise entry by entry,
        FIFO-evicting past ``precomputed_capacity``.  The int keys and
        packed values are built in numpy (:meth:`_keys`,
        :func:`_pack_lanes`).  Returns the number of entries installed.
        """
        if len(columns) != self._skews:
            raise ConfigurationError(
                f"expected {self._skews} index columns, got {len(columns)}"
            )
        keys = self._keys(line_addrs, sdid)
        values = _pack_lanes(columns)
        pre = self._precomputed
        if len(pre) + len(keys) <= self._precomputed_capacity:
            pre.update(zip(keys, values))
            return len(keys)
        install = self._install_precomputed
        for key, value in zip(keys, values):
            install(key, value)
        return len(keys)

    def bulk_map(self, line_addrs, sdid: int = 0) -> int:
        """Pre-warm the mapping cache: encrypt every address in one pass.

        :meth:`premap`'s PRINCE path: a caller that knows the
        ``(line address, SDID)`` pairs it will touch up front (the
        op-stream replay, an attacker's fresh batch) runs the cipher
        work through the batch kernel (:meth:`translate`) *before* its
        loop.  Results land in a
        side table consulted by the miss path
        rather than in the LRU memo itself - that keeps the memo's
        hit/miss/eviction accounting bit-identical to an unwarmed run
        while still skipping the per-miss cipher cost.  The side table
        is dropped on :meth:`rekey` like every other mapping and is
        FIFO-bounded by ``precomputed_capacity``.

        Returns the number of newly computed entries.
        """
        pre = self._precomputed
        memo = self._memo
        novel = array("Q")
        seen = set()
        for key in self._keys(line_addrs, sdid):
            if key in pre or key in memo or key in seen:
                continue
            seen.add(key)
            novel.append(key >> SDID_SHIFT)
        if not novel:
            return 0
        return self.load_packed(novel, self.translate(novel, sdid), sdid)

    def premap(self, line_addrs, sdid: int = 0) -> int:
        """Load the side table with the mappings of ``line_addrs`` for ``sdid``.

        One batch pass ahead of the lookups that will miss on them:
        under ``"splitmix"`` :func:`splitmix_indices` installed with
        :meth:`load_packed`, under ``"prince"`` :meth:`bulk_map` (the
        cipher batch kernel, skipping mappings already known).  Like
        both, it leaves the memo and its counters alone.  Returns the
        number of entries installed.
        """
        if self._algorithm == "splitmix":
            columns = splitmix_indices(line_addrs, self._mix_keys, self._index_bits, sdid)
            return self.load_packed(line_addrs, columns, sdid)
        return self.bulk_map(line_addrs, sdid)

    def clear_precomputed(self) -> int:
        """Drop the precomputed side table; returns how many entries it held.

        The LRU memo and its counters are untouched — this only releases
        the bulk_map/load_packed memory between runs.
        """
        count = len(self._precomputed)
        self._precomputed.clear()
        return count

    def key_fingerprint(self) -> str:
        """Digest identifying the current mapping function.

        Covers the algorithm, skew count, index width, and the actual
        key material of the current epoch, so it changes on every
        :meth:`rekey` — the translated-trace cache uses it as part of
        its content key, which makes stale pretranslations (old keys)
        unreachable rather than merely invalid.
        """
        h = hashlib.sha256()
        h.update(
            f"{self._algorithm}:{self._skews}:{self._index_bits}".encode()
        )
        keys = (
            [c.key for c in self._ciphers]
            if self._algorithm == "prince"
            else self._mix_keys
        )
        for key in keys:
            h.update(key.to_bytes(16, "little"))
        return h.hexdigest()

    def set_index(self, line_addr: int, skew: int = 0, sdid: int = 0) -> int:
        """Set index of ``line_addr`` in ``skew`` for security domain ``sdid``."""
        return self.all_indices(line_addr, sdid)[skew]

    def all_indices(self, line_addr: int, sdid: int = 0) -> Tuple[int, ...]:
        """Set indices of ``line_addr`` in every skew (one cipher pass each)."""
        if sdid >> SDID_SHIFT:
            raise sdid_error(sdid)
        return self._lookup(line_addr, sdid)

    def compute_indices(self, line_addr: int, sdid: int = 0) -> Tuple[int, ...]:
        """Indices recomputed from the cipher, bypassing the mapping cache.

        The differential tests cross-check the cached path against this.
        """
        return self._raw_indices(line_addr, sdid)

    def cache_info(self) -> MappingCacheInfo:
        """Counters of the LRU mapping cache."""
        return MappingCacheInfo(
            hits=self.cache_hits,
            misses=self.cache_misses,
            invalidations=self.cache_invalidations,
            size=len(self._memo),
            capacity=self._memo_capacity,
            precomputed=len(self._precomputed),
            precomputed_evictions=self.precomputed_evictions,
        )

    def encrypt_address(self, line_addr: int, skew: int = 0) -> int:
        """Full 64-bit encrypted address (CEASER stores this as the tag).

        Uses the cipher under ``"prince"``; under ``"splitmix"`` it is
        the 64-bit mixer output (a bijection, so the CEASER model's
        one-to-one mapping argument still holds).
        """
        if self._algorithm == "prince":
            return self._ciphers[skew].encrypt(line_addr)
        return splitmix64((line_addr ^ self._mix_keys[skew]) & _M64)

    def encrypt_addresses(self, line_addrs, skew: int = 0) -> list:
        """:meth:`encrypt_address` of every line of ``line_addrs``, in order.

        Under ``"splitmix"`` one numpy pass through the mixer
        :func:`splitmix_indices` runs; under ``"prince"`` one cipher
        call per line, as :meth:`encrypt_address` makes.
        """
        if self._algorithm == "prince":
            encrypt = self._ciphers[skew].encrypt
            return [encrypt(line) for line in line_addrs]
        addrs = np.asarray(line_addrs, dtype=np.uint64)
        return _splitmix_many(addrs ^ np.uint64(self._mix_keys[skew] & _M64)).tolist()
