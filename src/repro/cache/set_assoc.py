"""A conventional set-associative cache (packed struct-of-arrays).

This single class serves as the private L1/L2 levels, the non-secure
baseline LLC (16-way SRRIP, Table V), and the building block inside
the partitioned secure designs.  It is a *functional* model - hits,
misses, fills, evictions, and writebacks are exact; timing is accounted
by the hierarchy layer.

Storage layout: instead of a ``CacheLine`` dataclass per way, the cache
keeps one flat column per field (coherence state, line address, owning
core, SDID, reused bit, replacement state, fill epoch), indexed by
``set * ways + way``.  The per-access protocol lives in
:mod:`repro.cache.set_assoc_step`, which renders it per configuration
and replacement policy over these columns.  :meth:`access_fast` binds
that step on first use; it returns an ``ACC_*`` flag int and publishes
any victim through the ``victim_*`` instance fields - no per-access
allocation.  The public :meth:`access` wraps it in the historical
:class:`AccessResult` API.  This module keeps invalidation, flush and
introspection.  Behaviour is bit-identical to the object-model
reference in ``repro.reference.set_assoc`` (enforced by the
differential tests).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..common.config import CacheGeometry
from ..common.errors import SimulationError
from .line import (
    AccessResult,
    CacheLine,
    CoherenceState,
    EvictedLine,
    access_result,
    drop_victim,
    first_access,
    victim_line,
)
from .replacement import make_packed_policy
from .set_assoc_step import set_assoc_step
from .stats import CacheStats

#: Coherence-state byte values used in the packed state column.  The
#: encoding is ``CoherenceState(value)``; 0 is INVALID and values >= 3
#: (OWNED, MODIFIED) are dirty, so validity and dirtiness are integer
#: compares instead of enum property calls.
_INVALID = CoherenceState.INVALID.value
_DIRTY_MIN = CoherenceState.OWNED.value


class SetAssociativeCache:
    """Set-associative cache with a packed replacement policy.

    Parameters
    ----------
    geometry:
        Sets / ways / line size.
    policy:
        Replacement policy *name*: ``lru``, ``random``, ``srrip`` or
        ``brrip`` (see
        :func:`repro.cache.replacement.make_packed_policy`); the step
        renders one arm per name.  Policy objects are not accepted;
        ``repro.reference.set_assoc`` takes those.
    name:
        Label used in reports ("L1D", "LLC", ...).
    """

    # Victim fields of the access_fast protocol (valid until the next
    # access after a result with ACC_EVICTED set).
    victim_addr = 0
    victim_core = -1
    victim_sdid = 0
    victim_reused = False

    #: Binds the generated step on first use (:func:`~repro.cache.line.first_access`).
    access_fast = first_access

    def __init__(
        self,
        geometry: CacheGeometry,
        policy: str = "lru",
        seed: Optional[int] = None,
        name: str = "cache",
    ):
        self.geometry = geometry
        self.name = name
        if not isinstance(policy, str):
            raise TypeError(
                f"policy must be a replacement policy name, not {type(policy).__name__} "
                "(use repro.reference.set_assoc.SetAssociativeCache for policy objects)"
            )
        # The packed policy holds the state the step reads (LRU clock,
        # RNG, RRPV bound, BRRIP probability); unknown names raise.
        self._policy = make_packed_policy(policy, seed=seed)
        self._policy_kind = policy.lower()
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
        self.stats = CacheStats()
        self._fill_epoch = 0

    # -- lookup ---------------------------------------------------------

    def _set_of(self, line_addr: int) -> int:
        return line_addr & self._set_mask

    def contains(self, line_addr: int) -> bool:
        """Non-mutating presence probe (attack harness helper)."""
        return line_addr in self._where

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

        Boundary wrapper over :meth:`access_fast` returning the
        historical :class:`AccessResult` dataclass.  Writeback accesses
        (``is_writeback=True``) model dirty evictions arriving from an
        upper level: a hit marks the line dirty, a miss allocates a
        dirty line (non-inclusive LLC behaviour).
        """
        flags = self.access_fast(line_addr, is_write, core_id, is_writeback, sdid)
        return access_result(self, flags)

    def fresh_steps(self):
        """This array's one fresh generated step, as ``(owner, step)``."""
        return [(self, set_assoc_step(self))]

    def _evict_fast(self, idx: int) -> int:
        state = self._state[idx]
        if not state:
            raise SimulationError("evicting an invalid line")
        addr = self._addr[idx]
        flags = drop_victim(
            self, addr, self._core[idx], self._sdid[idx], state >= _DIRTY_MIN, self._reused[idx]
        )
        self._where.pop(addr, None)
        # Only the state column is cleared: every reader gates on it (or
        # on ``_where``), and a refill overwrites the other columns, so
        # resetting them here would be wasted stores on the hot path.
        self._state[idx] = _INVALID
        return flags

    # -- maintenance operations -------------------------------------------

    def invalidate(self, line_addr: int) -> Optional[EvictedLine]:
        """Flush one line (clflush); returns writeback info if dirty."""
        idx = self._where.get(line_addr, -1)
        if idx < 0:
            return None
        return victim_line(self, self._evict_fast(idx))

    def flush_all(self) -> int:
        """Invalidate the whole cache; returns the number of lines dropped."""
        count = 0
        state = self._state
        for idx in range(len(state)):
            if state[idx]:
                self._evict_fast(idx)
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
