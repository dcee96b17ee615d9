"""The non-secure baseline LLC: 16-way set-associative, SRRIP (Table V)."""

from __future__ import annotations

from typing import Dict, Optional

from ..cache.line import EvictedLine, first_access
from ..cache.set_assoc import SetAssociativeCache
from ..common.config import PAPER_BASELINE, CacheGeometry
from .interface import LLCache


class BaselineLLC(LLCache):
    """Conventional set-indexed LLC; the paper's comparison baseline.

    Vulnerable by construction: the address-to-set mapping is public,
    so an attacker can build eviction sets directly from addresses.
    """

    extra_lookup_latency = 0

    def __init__(
        self,
        geometry: Optional[CacheGeometry] = None,
        policy: str = "srrip",
        seed: Optional[int] = None,
    ):
        self.geometry = geometry or PAPER_BASELINE
        self._cache = SetAssociativeCache(self.geometry, policy=policy, seed=seed, name="LLC")
        self.stats = self._cache.stats

    #: The inner array's step, bound on the array and on this design at
    #: first use, so a call runs it with no delegation frame; the
    #: victim_* fields of the protocol are mirrored by the properties
    #: below.
    access_fast = first_access

    def fresh_steps(self):
        """The inner array's one fresh step, bound on it and on the design."""
        [(array, step)] = self._cache.fresh_steps()
        return [(array, step), (self, step)]

    @property
    def victim_addr(self) -> int:
        return self._cache.victim_addr

    @property
    def victim_core(self) -> int:
        return self._cache.victim_core

    @property
    def victim_sdid(self) -> int:
        return self._cache.victim_sdid

    @property
    def victim_reused(self) -> bool:
        return self._cache.victim_reused

    def invalidate(self, line_addr: int, sdid: int = 0) -> Optional[EvictedLine]:
        return self._cache.invalidate(line_addr)

    def flush_all(self) -> int:
        return self._cache.flush_all()

    def contains(self, line_addr: int, sdid: int = 0) -> bool:
        return self._cache.contains(line_addr)

    def missing(self, lines, sdid: int = 0) -> list:
        where = self._cache._where
        return [line for line in lines if line not in where]

    @property
    def occupancy(self) -> int:
        return self._cache.occupancy

    def occupancy_by_core(self) -> Dict[int, int]:
        return self._cache.occupancy_by_core()

    def set_index(self, line_addr: int) -> int:
        """Public mapping (this is what makes the baseline attackable)."""
        return self._cache._set_of(line_addr)

    def resident_unreused(self) -> int:
        """Still-resident never-reused lines (Fig. 1 accounting)."""
        return self._cache.resident_unreused()
