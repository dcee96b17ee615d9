"""CEASER: encrypted-address set-associative LLC with periodic remap.

CEASER (Qureshi, MICRO'18) keeps a conventional set-associative array
but indexes it with the PRINCE-encrypted line address, and re-keys the
cipher every *remap period* so an attacker cannot accumulate an
eviction set under one mapping.  The original hardware remaps lines
gradually (a moving pointer relocates a few sets per fill); this model
uses an epoch remap - after ``remap_period`` fills the key is refreshed
and the cache flushed - which is conservative for performance (more
misses after remap) and equivalent for the eviction-set security
experiments, which only care about how many fills share one mapping.

The hot path is :meth:`CeaserCache.access_fast` (``ACC_*`` flag
protocol): it encrypts the address, runs the inner packed array's step
and mirrors that array's ``victim_*`` fields before counting the fill
toward the next remap.  :meth:`CeaserCache.access` wraps it and reports
the cipher's lookup latency.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..cache.line import ACC_EVICTED, ACC_HIT, AccessResult, EvictedLine, access_result
from ..cache.set_assoc import SetAssociativeCache
from ..common.config import PAPER_BASELINE, CacheGeometry
from ..common.rng import derive_seed
from ..crypto.randomizer import IndexRandomizer
from .interface import LLCache


class CeaserCache(LLCache):
    """CEASER LLC model.

    ``remap_period`` is expressed in LLC fills; the paper's CEASER uses
    a remap rate of 1% (a line moves every 100 fills per set), and
    later analysis [34] shows eviction-rate-based attacks require
    remapping about every 14-39 evictions for the skewed variants.
    """

    extra_lookup_latency = 3  # PRINCE latency, no pointer indirection

    def __init__(
        self,
        geometry: Optional[CacheGeometry] = None,
        remap_period: int = 100_000,
        seed: Optional[int] = None,
        hash_algorithm: str = "prince",
        policy: str = "lru",
    ):
        self.geometry = geometry or PAPER_BASELINE
        self.remap_period = remap_period
        self._randomizer = IndexRandomizer(
            1, self.geometry.sets, seed=derive_seed(seed, 11), algorithm=hash_algorithm
        )
        self._cache = SetAssociativeCache(
            self.geometry, policy=policy, seed=derive_seed(seed, 12), name="CEASER"
        )
        self.stats = self._cache.stats
        # Maps a line address into the encrypted index space.  The
        # encryption is one-to-one, so storing the encrypted address in
        # a conventional array is behaviourally identical to storing the
        # plaintext tag at the encrypted index.  Bound once: rekey()
        # swaps the keys inside the randomizer.
        self._encrypt = self._randomizer.encrypt_address
        self._fills_since_remap = 0
        self.remaps = 0
        # Victim fields of the access_fast protocol (valid until the
        # next access after a result with ACC_EVICTED set).
        self.victim_addr = 0
        self.victim_core = -1
        self.victim_sdid = 0
        self.victim_reused = False

    @property
    def index_randomizer(self):
        """The :class:`~repro.crypto.randomizer.IndexRandomizer` in use."""
        return self._randomizer

    def access_fast(
        self,
        line_addr: int,
        is_write: bool = False,
        core_id: int = 0,
        is_writeback: bool = False,
        sdid: int = 0,
    ) -> int:
        """One access with no allocation; returns ``ACC_*`` flags.

        The inner array's step is looked up per call, so a specialized
        step installed on it (:mod:`repro.engine.specialize`) is used.
        The published victim address is the encrypted one the array
        stores.
        """
        cache = self._cache
        flags = cache.access_fast(self._encrypt(line_addr), is_write, core_id, is_writeback, sdid)
        if flags & ACC_HIT:
            return flags
        if flags & ACC_EVICTED:
            # Mirrored before a remap's flush overwrites the array's.
            self.victim_addr = cache.victim_addr
            self.victim_core = cache.victim_core
            self.victim_sdid = cache.victim_sdid
            self.victim_reused = cache.victim_reused
        self._fills_since_remap += 1
        if self._fills_since_remap >= self.remap_period:
            self.remap()
        return flags

    def access(
        self,
        line_addr: int,
        is_write: bool = False,
        core_id: int = 0,
        is_writeback: bool = False,
        sdid: int = 0,
    ) -> AccessResult:
        flags = self.access_fast(line_addr, is_write, core_id, is_writeback, sdid)
        return access_result(self, flags, self.extra_lookup_latency)

    def remap(self) -> None:
        """Refresh the key (and flush, in this epoch-remap model)."""
        self._cache.flush_all()
        self._randomizer.rekey()
        self._fills_since_remap = 0
        self.remaps += 1

    def rekey(self) -> None:
        """Uniform probe-surface alias for :meth:`remap`."""
        self.remap()

    def invalidate(self, line_addr: int, sdid: int = 0) -> Optional[EvictedLine]:
        return self._cache.invalidate(self._encrypt(line_addr))

    def flush_all(self) -> int:
        return self._cache.flush_all()

    def contains(self, line_addr: int, sdid: int = 0) -> bool:
        return self._cache.contains(self._encrypt(line_addr))

    @property
    def occupancy(self) -> int:
        return self._cache.occupancy

    def occupancy_by_core(self) -> Dict[int, int]:
        return self._cache.occupancy_by_core()

    def set_index(self, line_addr: int) -> int:
        """The (secret) set an address currently maps to - for analysis."""
        return self._cache._set_of(self._encrypt(line_addr))
