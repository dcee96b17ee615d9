"""A true fully-associative cache with random replacement.

The reference point the secure designs approximate: any line can live
anywhere, the victim is uniformly random, so an eviction leaks nothing
about addresses.  Impractical to build at LLC sizes (the paper's
motivation); here it serves as the security yardstick for the
occupancy-attack comparison (Fig. 8) and as a teaching example.

Resident lines are packed columns (address, SDID, core, dirty and
reused bits) over slots ``0 .. occupancy - 1``; an eviction moves the
last slot into the hole (swap-remove).  The hot path is
:meth:`FullyAssociativeCache.access_fast` (``ACC_*`` flag protocol,
victim published via the ``victim_*`` fields).  Behaviour - RNG draw
order and every statistics counter included - is bit-identical to the
object-model reference in ``repro.reference.fully_assoc``.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..cache.line import (
    ACC_EVICTED,
    ACC_EVICTED_DIRTY,
    ACC_HIT,
    AccessResult,
    EvictedLine,
    access_result,
    victim_line,
)
from ..cache.stats import CacheStats
from ..common.errors import SimulationError
from ..common.rng import make_rng
from .interface import LLCache


class FullyAssociativeCache(LLCache):
    """Fully-associative, random-replacement cache of ``capacity_lines``."""

    extra_lookup_latency = 0

    def __init__(self, capacity_lines: int, seed: Optional[int] = None):
        if capacity_lines <= 0:
            raise SimulationError("capacity must be positive")
        self.capacity_lines = capacity_lines
        self._rng = make_rng(seed)
        self._size = 0
        self._addr = [0] * capacity_lines
        self._sdid = [0] * capacity_lines
        self._core = [-1] * capacity_lines
        self._dirty = bytearray(capacity_lines)
        self._reused = bytearray(capacity_lines)
        #: packed (line_addr << 16 | sdid) -> slot.
        self._where: Dict[int, int] = {}
        self.stats = CacheStats()
        # Victim fields of the access_fast protocol (valid until the
        # next access after a result with ACC_EVICTED set).
        self.victim_addr = 0
        self.victim_core = -1
        self.victim_sdid = 0
        self.victim_reused = False

    def access_fast(
        self,
        line_addr: int,
        is_write: bool = False,
        core_id: int = 0,
        is_writeback: bool = False,
        sdid: int = 0,
    ) -> int:
        """One access with no allocation; returns ``ACC_*`` flags."""
        key = (line_addr << 16) | sdid
        pos = self._where.get(key)
        st = self.stats
        st.accesses += 1
        if pos is not None:
            st.hits += 1
            if is_writeback:
                st.writebacks_received += 1
                self._dirty[pos] = 1
            else:
                st.demand_accesses += 1
                st.demand_hits += 1
                self._reused[pos] = 1
                if is_write:
                    self._dirty[pos] = 1
            return ACC_HIT
        st.misses += 1
        if is_writeback:
            st.writebacks_received += 1
        else:
            st.demand_accesses += 1
            pcm = st.per_core_misses
            pcm[core_id] = pcm.get(core_id, 0) + 1

        flags = 0
        if self._size >= self.capacity_lines:
            flags = self._remove_at(self._rng.randrange(self._size), filler_core=core_id)
        pos = self._size
        self._addr[pos] = line_addr
        self._sdid[pos] = sdid
        self._core[pos] = core_id
        self._dirty[pos] = 1 if is_write or is_writeback else 0
        self._reused[pos] = 0
        self._where[key] = pos
        self._size = pos + 1
        st.fills += 1
        st.data_fills += 1
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

    def _remove_at(self, pos: int, filler_core: int) -> int:
        addr = self._addr[pos]
        sd = self._sdid[pos]
        core = self._core[pos]
        dirty = self._dirty[pos]
        reused = self._reused[pos]
        self.victim_addr = addr
        self.victim_core = core
        self.victim_sdid = sd
        self.victim_reused = bool(reused)
        st = self.stats
        st.evictions += 1
        if dirty:
            st.dirty_evictions += 1
        if not reused:
            st.dead_evictions += 1
        if core >= 0 and filler_core >= 0 and core != filler_core:
            st.interference_evictions += 1
        last = self._size - 1
        self._size = last
        del self._where[(addr << 16) | sd]
        if pos < last:
            # Swap-remove: the last slot fills the hole.
            moved_addr = self._addr[last]
            moved_sdid = self._sdid[last]
            self._addr[pos] = moved_addr
            self._sdid[pos] = moved_sdid
            self._core[pos] = self._core[last]
            self._dirty[pos] = self._dirty[last]
            self._reused[pos] = self._reused[last]
            self._where[(moved_addr << 16) | moved_sdid] = pos
        return ACC_EVICTED | ACC_EVICTED_DIRTY if dirty else ACC_EVICTED

    def invalidate(self, line_addr: int, sdid: int = 0) -> Optional[EvictedLine]:
        pos = self._where.get((line_addr << 16) | sdid)
        if pos is None:
            return None
        return victim_line(self, self._remove_at(pos, filler_core=-1))

    def flush_all(self) -> int:
        count = self._size
        while self._size:
            self._remove_at(self._size - 1, filler_core=-1)
        return count

    def contains(self, line_addr: int, sdid: int = 0) -> bool:
        return ((line_addr << 16) | sdid) in self._where

    @property
    def occupancy(self) -> int:
        return self._size

    def occupancy_by_core(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for core in self._core[: self._size]:
            counts[core] = counts.get(core, 0) + 1
        return counts
