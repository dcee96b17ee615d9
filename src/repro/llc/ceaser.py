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

The per-access protocol lives in :mod:`repro.llc.ceaser_step`: the
step encrypts the address, runs the inner packed array's step and
mirrors that array's ``victim_*`` fields before counting the fill
toward the next remap, which is the shared key refresh
(:meth:`~repro.llc.interface.LLCache.rekey`).
:meth:`CeaserCache.access_fast` binds it and the array's on first use
(``ACC_*`` flag protocol); :meth:`~repro.llc.interface.LLCache.access`
wraps it and reports the cipher's lookup latency.  The design's
:meth:`~CeaserCache.hash_sdid` is ``None``: the step encrypts inline and
never reads the randomizer's side table, so nothing premaps or
pretranslates for it.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..cache.line import EvictedLine, first_access
from ..cache.set_assoc import SetAssociativeCache
from ..common.config import PAPER_BASELINE, CacheGeometry
from ..common.rng import derive_seed
from ..crypto.randomizer import IndexRandomizer
from .ceaser_step import ceaser_step
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
        self.index_randomizer = IndexRandomizer(
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
        self._encrypt = self.index_randomizer.encrypt_address

    def hash_sdid(self, sdid: int) -> None:
        """``None``: the step encrypts inline, so no SDID keys a side table."""
        return None

    #: One access with no allocation; returns ``ACC_*`` flags.  Binds
    #: the generated steps on first use.  The published victim address
    #: is the encrypted one the array stores.
    access_fast = first_access

    def fresh_steps(self):
        """The inner array's fresh step, then CEASER's own
        (:func:`~repro.llc.ceaser_step.ceaser_step`), which calls it."""
        return self._cache.fresh_steps() + [(self, ceaser_step(self))]

    def invalidate(self, line_addr: int, sdid: int = 0) -> Optional[EvictedLine]:
        return self._cache.invalidate(self._encrypt(line_addr))

    def flush_all(self) -> int:
        return self._cache.flush_all()

    def contains(self, line_addr: int, sdid: int = 0) -> bool:
        return self._cache.contains(self._encrypt(line_addr))

    def missing(self, lines, sdid: int = 0) -> list:
        """One batch encryption of ``lines`` (a numpy pass under
        ``"splitmix"``), then one location-map probe per line."""
        lines = list(lines)
        where = self._cache._where
        tags = self.index_randomizer.encrypt_addresses(lines)
        return [line for line, tag in zip(lines, tags) if tag not in where]

    @property
    def occupancy(self) -> int:
        return self._cache.occupancy

    def occupancy_by_core(self) -> Dict[int, int]:
        return self._cache.occupancy_by_core()

    def set_index(self, line_addr: int) -> int:
        """The (secret) set an address currently maps to - for analysis."""
        return self._cache._set_of(self._encrypt(line_addr))
