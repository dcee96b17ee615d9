"""A conventional set-associative cache (packed struct-of-arrays).

This single class serves as the private L1/L2 levels, the non-secure
baseline LLC (16-way SRRIP, Table V), and the building block inside
the partitioned secure designs.  It is a *functional* model - hits,
misses, fills, evictions, and writebacks are exact; timing is accounted
by the hierarchy layer.

Storage layout: instead of a ``CacheLine`` dataclass per way, the cache
keeps one flat column per field (coherence state, line address, owning
core, SDID, reused bit, replacement state, fill epoch), indexed by
``set * ways + way``.  The hot path is :meth:`access_fast`, which
returns an ``ACC_*`` flag int and publishes any victim through the
``victim_*`` instance fields - no per-access allocation.  The public
:meth:`access` wraps it in the historical :class:`AccessResult` API.
Behaviour is bit-identical to the object-model reference in
``repro.reference.set_assoc`` (enforced by the differential tests).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..common.config import CacheGeometry
from ..common.errors import SimulationError
from .line import (
    ACC_EVICTED,
    ACC_EVICTED_DIRTY,
    ACC_HIT,
    AccessResult,
    CacheLine,
    CoherenceState,
    EvictedLine,
    access_result,
    victim_line,
)
from .replacement import PackedLRUPolicy, ReplacementPolicy, make_packed_policy
from .stats import CacheStats

#: Coherence-state byte values used in the packed state column.  The
#: encoding is ``CoherenceState(value)``; 0 is INVALID and values >= 3
#: (OWNED, MODIFIED) are dirty, so validity and dirtiness are integer
#: compares instead of enum property calls.
_INVALID = CoherenceState.INVALID.value
_EXCLUSIVE = CoherenceState.EXCLUSIVE.value
_MODIFIED = CoherenceState.MODIFIED.value
_DIRTY_MIN = CoherenceState.OWNED.value


class SetAssociativeCache:
    """Set-associative cache with pluggable (packed) replacement.

    Parameters
    ----------
    geometry:
        Sets / ways / line size.
    policy:
        Replacement policy name (see
        :func:`repro.cache.replacement.make_packed_policy`).  Object
        :class:`ReplacementPolicy` instances are not accepted - they
        operate on ``CacheLine`` lists, which the packed engine does not
        keep; use ``repro.reference.set_assoc`` for that interface.
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
        if isinstance(policy, ReplacementPolicy):
            raise TypeError(
                "object-model ReplacementPolicy instances drive CacheLine lists; "
                "the packed engine takes a policy *name* "
                "(use repro.reference.set_assoc.SetAssociativeCache for the object interface)"
            )
        self._policy = policy if not isinstance(policy, str) else make_packed_policy(policy, seed=seed)
        # Policy hooks bound once (hot path: one per access / fill).
        self._policy_on_hit = self._policy.on_hit
        self._policy_on_fill = self._policy.on_fill
        self._policy_victim = self._policy.victim
        # LRU (every private L1/L2) is special-cased inline in the hot
        # paths; the policy object's clock stays authoritative.
        self._lru = type(self._policy) is PackedLRUPolicy
        self._ways = geometry.ways
        self._set_mask = geometry.sets - 1
        total = geometry.sets * geometry.ways
        self._total_lines = total
        self._state = bytearray(total)
        # Integer columns are plain lists: stores keep a reference to
        # the caller's int (CEASER's full 64-bit encrypted tags
        # included) and reads skip the array-type box/unbox, which the
        # LRU victim scan pays min()-times per fill.
        self._addr = [0] * total
        self._core = [-1] * total
        self._sdid = [0] * total
        self._reused = bytearray(total)
        self._repl = [0] * total
        self._epoch = [0] * total
        #: line_addr -> flat index (set * ways + way) for O(1) lookup.
        self._where: Dict[int, int] = {}
        self._where_get = self._where.get  # bound once; never rebound
        self.stats = CacheStats()
        self._fill_epoch = 0
        # Victim fields of the access_fast protocol (valid until the
        # next access after a result with ACC_EVICTED set).
        self.victim_addr = 0
        self.victim_core = -1
        self.victim_sdid = 0
        self.victim_reused = False

    # -- lookup ---------------------------------------------------------

    def _set_of(self, line_addr: int) -> int:
        return line_addr & self._set_mask

    def contains(self, line_addr: int) -> bool:
        """Non-mutating presence probe (attack harness helper)."""
        return line_addr in self._where

    def _find_way(self, set_idx: int, line_addr: int) -> Optional[int]:
        """O(1) location via the address map (models the associative probe)."""
        packed = self._where.get(line_addr)
        if packed is None:
            return None
        return packed - set_idx * self._ways

    # -- main access path -------------------------------------------------

    def access_fast(
        self,
        line_addr: int,
        is_write: bool = False,
        core_id: int = 0,
        is_writeback: bool = False,
        sdid: int = 0,
    ) -> int:
        """One access with no allocation; returns ``ACC_*`` flags.

        Writeback accesses (``is_writeback=True``) model dirty evictions
        arriving from an upper level: a hit marks the line dirty, a miss
        allocates a dirty line (non-inclusive LLC behaviour).
        """
        idx = self._where_get(line_addr, -1)
        st = self.stats
        st.accesses += 1
        if idx >= 0:
            st.hits += 1
            if is_writeback:
                st.writebacks_received += 1
                # A writeback is the line's own dirty data returning, not
                # a reuse; only demand hits count for dead-block stats.
                self._state[idx] = _MODIFIED
            else:
                st.demand_accesses += 1
                st.demand_hits += 1
                self._reused[idx] = 1
                if is_write:
                    self._state[idx] = _MODIFIED
            if self._lru:
                policy = self._policy
                policy._clock += 1
                self._repl[idx] = policy._clock
            else:
                self._policy_on_hit(self._repl, idx)
            return ACC_HIT
        st.misses += 1
        if is_writeback:
            st.writebacks_received += 1
        else:
            st.demand_accesses += 1
            pcm = st.per_core_misses
            pcm[core_id] = pcm.get(core_id, 0) + 1
        # _fill_fast inlined (hot path; behaviour identical).
        ways = self._ways
        base = (line_addr & self._set_mask) * ways
        state = self._state
        repl = self._repl
        where = self._where
        if len(where) == self._total_lines:
            idx = -1  # every line valid: the invalid-way scan cannot hit
        else:
            idx = state.find(_INVALID, base, base + ways)
        flags = 0
        if idx < 0:
            if self._lru:
                window = repl[base : base + ways]
                idx = base + window.index(min(window))
            else:
                idx = self._policy_victim(repl, base, ways)
            # _evict_fast inlined (hot path; behaviour identical).
            vstate = state[idx]
            vdirty = vstate >= _DIRTY_MIN
            addr = self._addr[idx]
            vcore = self._core[idx]
            reused = self._reused[idx]
            self.victim_addr = addr
            self.victim_core = vcore
            self.victim_sdid = self._sdid[idx]
            self.victim_reused = bool(reused)
            st.evictions += 1
            if vdirty:
                st.dirty_evictions += 1
                flags = ACC_EVICTED | ACC_EVICTED_DIRTY
            else:
                flags = ACC_EVICTED
            if not reused:
                st.dead_evictions += 1
            if vcore >= 0 and vcore != core_id:
                st.interference_evictions += 1
            del where[addr]
        state[idx] = _MODIFIED if is_write or is_writeback else _EXCLUSIVE
        self._addr[idx] = line_addr
        self._core[idx] = core_id
        self._sdid[idx] = sdid
        self._reused[idx] = 0
        self._fill_epoch += 1
        self._epoch[idx] = self._fill_epoch
        where[line_addr] = idx
        if self._lru:
            policy = self._policy
            policy._clock += 1
            repl[idx] = policy._clock
        else:
            self._policy_on_fill(repl, base, ways, idx)
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
        """Perform one access; fills on miss (allocate-on-miss).

        Boundary wrapper over :meth:`access_fast` returning the
        historical :class:`AccessResult` dataclass.
        """
        flags = self.access_fast(line_addr, is_write, core_id, is_writeback, sdid)
        return access_result(self, flags)

    def _evict_fast(self, idx: int, filler_core: int) -> int:
        state = self._state[idx]
        if not state:
            raise SimulationError("evicting an invalid line")
        dirty = state >= _DIRTY_MIN
        addr = self._addr[idx]
        core = self._core[idx]
        reused = self._reused[idx]
        self.victim_addr = addr
        self.victim_core = core
        self.victim_sdid = self._sdid[idx]
        self.victim_reused = bool(reused)
        st = self.stats
        st.evictions += 1
        if dirty:
            st.dirty_evictions += 1
        if not reused:
            st.dead_evictions += 1
        if core >= 0 and core != filler_core:
            st.interference_evictions += 1
        self._where.pop(addr, None)
        # Only the state column is cleared: every reader gates on it (or
        # on ``_where``), and a refill overwrites the other columns, so
        # resetting them here would be wasted stores on the hot path.
        self._state[idx] = _INVALID
        return ACC_EVICTED | ACC_EVICTED_DIRTY if dirty else ACC_EVICTED

    # -- maintenance operations -------------------------------------------

    def invalidate(self, line_addr: int) -> Optional[EvictedLine]:
        """Flush one line (clflush); returns writeback info if dirty."""
        idx = self._where.get(line_addr, -1)
        if idx < 0:
            return None
        return victim_line(self, self._evict_fast(idx, filler_core=-1))

    def flush_all(self) -> int:
        """Invalidate the whole cache; returns the number of lines dropped."""
        count = 0
        state = self._state
        for idx in range(len(state)):
            if state[idx]:
                self._evict_fast(idx, filler_core=-1)
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
        core = self._core
        for idx in self._where.values():
            counts[core[idx]] = counts.get(core[idx], 0) + 1
        return counts

    def set_occupancy(self, set_idx: int) -> int:
        """Valid lines in one set (eviction-set attack probes)."""
        base = set_idx * self._ways
        state = self._state
        return sum(1 for i in range(base, base + self._ways) if state[i])

    def line_snapshot(self, idx: int) -> CacheLine:
        """A :class:`CacheLine` copy of the flat slot ``idx`` (not live)."""
        return CacheLine(
            line_addr=self._addr[idx],
            state=CoherenceState(self._state[idx]),
            core_id=self._core[idx],
            sdid=self._sdid[idx],
            reused=bool(self._reused[idx]),
            fill_epoch=self._epoch[idx],
            repl_state=self._repl[idx],
        )

    def resident_lines(self):
        """Iterate over (set index, way, line snapshot) for valid lines.

        The yielded :class:`CacheLine` objects are copies of the packed
        columns; mutating them does not write back into the cache.
        """
        ways = self._ways
        state = self._state
        for idx in range(len(state)):
            if state[idx]:
                yield idx // ways, idx % ways, self.line_snapshot(idx)

    def resident_unreused(self) -> int:
        """Valid lines never (demand-)reused since fill - still-resident
        dead blocks, for Fig. 1's inserted-blocks accounting."""
        state = self._state
        reused = self._reused
        return sum(1 for i in range(len(state)) if state[i] and not reused[i])
