"""Object-model reference of the set-associative cache.

This is the pre-SoA implementation of
:class:`repro.cache.set_assoc.SetAssociativeCache`, kept verbatim as
the behavioural oracle for the packed engine: one ``CacheLine``
dataclass per way, policies operating on line lists.  The differential
test layer drives both engines with identical streams and requires
bit-identical statistics and results (see docs/architecture.md,
"Simulation engine").  Slow by design - never use it in experiments.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..common.addr import set_index_from_address
from ..common.config import CacheGeometry
from ..common.errors import SimulationError
from ..cache.line import AccessResult, CacheLine, CoherenceState, EvictedLine
from ..cache.replacement import ReplacementPolicy, make_policy
from ..cache.stats import CacheStats


class SetAssociativeCache:
    """Set-associative cache with pluggable replacement.

    Parameters
    ----------
    geometry:
        Sets / ways / line size.
    policy:
        Replacement policy name (see :func:`repro.cache.make_policy`)
        or a ready :class:`ReplacementPolicy` instance.
    name:
        Label used in reports ("L1D", "LLC", ...).
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        policy: str = "lru",
        seed: Optional[int] = None,
        name: str = "cache",
    ):
        self.geometry = geometry
        self.name = name
        self._policy: ReplacementPolicy = (
            policy if isinstance(policy, ReplacementPolicy) else make_policy(policy, seed=seed)
        )
        self._sets = [[CacheLine() for _ in range(geometry.ways)] for _ in range(geometry.sets)]
        #: line_addr -> (set index, way) for O(1) lookup.
        self._where: Dict[int, int] = {}
        self.stats = CacheStats()
        self._fill_epoch = 0

    # -- lookup ---------------------------------------------------------

    def _set_of(self, line_addr: int) -> int:
        return set_index_from_address(line_addr, self.geometry.sets)

    def contains(self, line_addr: int) -> bool:
        """Non-mutating presence probe (attack harness helper)."""
        return line_addr in self._where

    def _find_way(self, set_idx: int, line_addr: int) -> Optional[int]:
        """O(1) location via the address map (models the associative probe)."""
        packed = self._where.get(line_addr)
        if packed is None:
            return None
        return packed - set_idx * self.geometry.ways

    # -- main access path -------------------------------------------------

    def access(
        self,
        line_addr: int,
        is_write: bool = False,
        core_id: int = 0,
        is_writeback: bool = False,
        sdid: int = 0,
    ) -> AccessResult:
        """Perform one access; fills on miss (allocate-on-miss).

        Writeback accesses (``is_writeback=True``) model dirty evictions
        arriving from an upper level: a hit marks the line dirty, a miss
        allocates a dirty line (non-inclusive LLC behaviour).
        """
        set_idx = self._set_of(line_addr)
        way = self._find_way(set_idx, line_addr)
        hit = way is not None
        self.stats.record_access(hit, is_writeback, core_id)

        if hit:
            line = self._sets[set_idx][way]
            if not is_writeback:
                # A writeback is the line's own dirty data returning, not
                # a reuse; only demand hits count for dead-block stats.
                line.reused = True
            if is_write or is_writeback:
                line.state = line.state.on_write()
            self._policy.on_hit(self._sets[set_idx], way)
            return AccessResult(hit=True)

        evicted = self._fill(set_idx, line_addr, is_write or is_writeback, core_id, sdid)
        return AccessResult(hit=False, evicted=evicted)

    def _fill(
        self, set_idx: int, line_addr: int, dirty: bool, core_id: int, sdid: int
    ) -> Optional[EvictedLine]:
        cache_set = self._sets[set_idx]
        way = self._policy.find_invalid(cache_set)
        evicted: Optional[EvictedLine] = None
        if way is None:
            way = self._policy.victim(cache_set)
            evicted = self._evict(set_idx, way, filler_core=core_id)
        line = cache_set[way]
        line.line_addr = line_addr
        line.state = CoherenceState.MODIFIED if dirty else CoherenceState.EXCLUSIVE
        line.core_id = core_id
        line.sdid = sdid
        line.reused = False
        self._fill_epoch += 1
        line.fill_epoch = self._fill_epoch
        self._where[line_addr] = set_idx * self.geometry.ways + way
        self._policy.on_fill(cache_set, way)
        self.stats.fills += 1
        self.stats.data_fills += 1
        return evicted

    def _evict(self, set_idx: int, way: int, filler_core: int) -> EvictedLine:
        line = self._sets[set_idx][way]
        if not line.valid:
            raise SimulationError("evicting an invalid line")
        evicted = EvictedLine(
            line_addr=line.line_addr,
            dirty=line.dirty,
            core_id=line.core_id,
            sdid=line.sdid,
            was_reused=line.reused,
        )
        self.stats.record_eviction(
            dirty=line.dirty,
            was_reused=line.reused,
            cross_core=line.core_id >= 0 and filler_core >= 0 and line.core_id != filler_core,
        )
        self._where.pop(line.line_addr, None)
        line.invalidate()
        return evicted

    # -- maintenance operations -------------------------------------------

    def invalidate(self, line_addr: int) -> Optional[EvictedLine]:
        """Flush one line (clflush); returns writeback info if dirty."""
        packed = self._where.get(line_addr)
        if packed is None:
            return None
        set_idx, way = divmod(packed, self.geometry.ways)
        return self._evict(set_idx, way, filler_core=-1)

    def flush_all(self) -> int:
        """Invalidate the whole cache; returns the number of lines dropped."""
        count = 0
        for set_idx, cache_set in enumerate(self._sets):
            for way, line in enumerate(cache_set):
                if line.valid:
                    self._evict(set_idx, way, filler_core=-1)
                    count += 1
        return count

    # -- introspection ------------------------------------------------------

    @property
    def occupancy(self) -> int:
        """Number of valid lines resident."""
        return len(self._where)

    def occupancy_by_core(self) -> Dict[int, int]:
        """Valid-line counts keyed by owning core (occupancy attacks)."""
        counts: Dict[int, int] = {}
        for cache_set in self._sets:
            for line in cache_set:
                if line.valid:
                    counts[line.core_id] = counts.get(line.core_id, 0) + 1
        return counts

    def set_occupancy(self, set_idx: int) -> int:
        """Valid lines in one set (eviction-set attack probes)."""
        return sum(1 for line in self._sets[set_idx] if line.valid)

    def resident_lines(self):
        """Iterate over (set index, way, line) for valid lines."""
        for set_idx, cache_set in enumerate(self._sets):
            for way, line in enumerate(cache_set):
                if line.valid:
                    yield set_idx, way, line

    def resident_unreused(self) -> int:
        """Valid lines never (demand-)reused since fill - still-resident
        dead blocks, for Fig. 1's inserted-blocks accounting."""
        return sum(1 for _, _, line in self.resident_lines() if not line.reused)
