"""Object-model reference of the fully-associative cache (pre-SoA, kept verbatim).

Behavioural oracle for ``repro.llc.fully_assoc.FullyAssociativeCache``:
identical RNG draw order and bit-identical statistics are contractual
(differential test layer).  Slow by design - never use it in
experiments.

Original module docstring follows.

A true fully-associative cache with random replacement.

The reference point the secure designs approximate: any line can live
anywhere, the victim is uniformly random, so an eviction leaks nothing
about addresses.  Impractical to build at LLC sizes (the paper's
motivation); here it serves as the security yardstick for the
occupancy-attack comparison (Fig. 8) and as a teaching example.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..cache.line import AccessResult, CacheLine, CoherenceState, EvictedLine
from ..cache.stats import CacheStats
from ..common.errors import SimulationError
from ..common.rng import make_rng
from ..llc.interface import LLCache


class FullyAssociativeCache(LLCache):
    """Fully-associative, random-replacement cache of ``capacity_lines``."""

    extra_lookup_latency = 0

    def __init__(self, capacity_lines: int, seed: Optional[int] = None):
        if capacity_lines <= 0:
            raise SimulationError("capacity must be positive")
        self.capacity_lines = capacity_lines
        self._rng = make_rng(seed)
        self._lines: List[CacheLine] = []
        #: (line_addr, sdid) -> position in _lines.
        self._where: Dict[tuple, int] = {}
        self.stats = CacheStats()

    def access(
        self,
        line_addr: int,
        is_write: bool = False,
        core_id: int = 0,
        is_writeback: bool = False,
        sdid: int = 0,
    ) -> AccessResult:
        key = (line_addr, sdid)
        pos = self._where.get(key)
        hit = pos is not None
        self.stats.record_access(hit, is_writeback)
        if hit:
            line = self._lines[pos]
            if not is_writeback:
                line.reused = True
            if is_write or is_writeback:
                line.state = line.state.on_write()
            return AccessResult(hit=True)

        evicted = None
        if len(self._lines) >= self.capacity_lines:
            evicted = self._evict_random(filler_core=core_id)
        line = CacheLine(
            line_addr=line_addr,
            state=CoherenceState.MODIFIED if (is_write or is_writeback) else CoherenceState.EXCLUSIVE,
            core_id=core_id,
            sdid=sdid,
        )
        self._where[key] = len(self._lines)
        self._lines.append(line)
        return AccessResult(hit=False, evicted=evicted)

    def _evict_random(self, filler_core: int) -> EvictedLine:
        pos = self._rng.randrange(len(self._lines))
        return self._remove_at(pos, filler_core)

    def _remove_at(self, pos: int, filler_core: int) -> EvictedLine:
        line = self._lines[pos]
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
        last = self._lines.pop()
        del self._where[(line.line_addr, line.sdid)]
        if pos < len(self._lines):
            self._lines[pos] = last
            self._where[(last.line_addr, last.sdid)] = pos
        return evicted

    def invalidate(self, line_addr: int, sdid: int = 0) -> Optional[EvictedLine]:
        pos = self._where.get((line_addr, sdid))
        if pos is None:
            return None
        return self._remove_at(pos, filler_core=-1)

    def flush_all(self) -> int:
        count = len(self._lines)
        while self._lines:
            self._remove_at(len(self._lines) - 1, filler_core=-1)
        return count

    def contains(self, line_addr: int, sdid: int = 0) -> bool:
        return (line_addr, sdid) in self._where

    @property
    def occupancy(self) -> int:
        return len(self._lines)

    def occupancy_by_core(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for line in self._lines:
            counts[line.core_id] = counts.get(line.core_id, 0) + 1
        return counts
