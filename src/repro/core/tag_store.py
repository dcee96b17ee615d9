"""Maya's skewed-associative, decoupled tag store (packed SoA).

The tag store is the heart of the design (Section III).  It is split
into two skews, each with an independent PRINCE-based hash.  Every tag
entry carries:

* the line tag (40 bits at full scale) and the SDID of the domain that
  installed it,
* MOESI coherence state,
* the **priority bit**: priority-0 entries are tag-only (no data-store
  entry, invalid FPTR); priority-1 entries own a data block via FPTR,
* a forward pointer (FPTR) into the data store.

The store also maintains the two global indices the eviction policies
need in O(1): the pool of priority-0 entries (victims of *global random
tag eviction*) and per-set invalid-way counts (for *load-aware skew
selection*).

Storage layout: the entries live in parallel packed columns (state /
line address / SDID / core / FPTR arrays plus dirty / reused byte
columns) indexed by the flat tag index, not in a ``List[TagEntry]``.
:meth:`SkewedTagStore.entry` returns a write-through
:class:`TagEntryView` over the columns so introspection code and tests
keep the historical object API; the Maya engine reads the columns
directly.  Behaviour - including RNG draw order - is identical to the
object-model reference in ``repro.reference.tag_store``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..common.config import MayaConfig
from ..common.errors import SimulationError
from ..common.rng import derive_seed, make_rng
from ..crypto.randomizer import DEFAULT_MEMO_CAPACITY, IndexRandomizer

#: FPTR value meaning "no data entry" (priority-0 / invalid tags).
NO_DATA = -1

#: Width of the SDID lane in the packed (line, SDID) location key;
#: MayaConfig validates ``sdid_bits <= 16`` so the lane never overflows.
_SDID_SHIFT = 16


class TagState(enum.Enum):
    """The three tag-entry states of Fig. 3."""

    INVALID = 0
    PRIORITY_0 = 1
    PRIORITY_1 = 2


#: Byte value -> enum member, for the packed state column.
_TAG_STATES = (TagState.INVALID, TagState.PRIORITY_0, TagState.PRIORITY_1)
_INVALID = 0
_P0 = 1
_P1 = 2


@dataclass
class TagEntry:
    """One tag-store entry, as a plain value object.

    The packed store returns these as *snapshots* (e.g. from
    :meth:`SkewedTagStore.invalidate`); live per-slot access goes
    through :class:`TagEntryView`.  ``dirty`` only has meaning for
    priority-1 entries (a tag-only entry has no data to be dirty).
    ``reused`` supports the dead-block accounting of Fig. 1.
    """

    state: TagState = TagState.INVALID
    line_addr: int = 0
    sdid: int = 0
    core_id: int = -1
    dirty: bool = False
    reused: bool = False
    fptr: int = NO_DATA

    @property
    def valid(self) -> bool:
        return self.state is not TagState.INVALID

    def invalidate(self) -> None:
        self.state = TagState.INVALID
        self.line_addr = 0
        self.sdid = 0
        self.core_id = -1
        self.dirty = False
        self.reused = False
        self.fptr = NO_DATA


class TagEntryView:
    """Write-through view of one packed tag slot.

    Reads and writes go straight to the store's columns, so the view
    behaves like the historical ``TagEntry`` object for introspection
    (``entry.state is TagState.PRIORITY_1`` etc.).  Structural fields
    (state, FPTR, address) are read-only here: changing them requires
    the store's bookkeeping (pools, counters), so only the mutators on
    :class:`SkewedTagStore` may do that.
    """

    __slots__ = ("_store", "_idx")

    def __init__(self, store: "SkewedTagStore", idx: int):
        self._store = store
        self._idx = idx

    @property
    def state(self) -> TagState:
        return _TAG_STATES[self._store._state[self._idx]]

    @property
    def line_addr(self) -> int:
        return self._store._addr[self._idx]

    @property
    def sdid(self) -> int:
        return self._store._sdid[self._idx]

    @property
    def core_id(self) -> int:
        return self._store._core[self._idx]

    @core_id.setter
    def core_id(self, value: int) -> None:
        self._store._core[self._idx] = value

    @property
    def dirty(self) -> bool:
        return bool(self._store._dirty[self._idx])

    @dirty.setter
    def dirty(self, value: bool) -> None:
        self._store._dirty[self._idx] = 1 if value else 0

    @property
    def reused(self) -> bool:
        return bool(self._store._reused[self._idx])

    @reused.setter
    def reused(self, value: bool) -> None:
        self._store._reused[self._idx] = 1 if value else 0

    @property
    def fptr(self) -> int:
        return self._store._fptr[self._idx]

    @property
    def valid(self) -> bool:
        return self._store._state[self._idx] != _INVALID

    def snapshot(self) -> TagEntry:
        """A detached :class:`TagEntry` copy of the slot's contents."""
        return TagEntry(
            state=self.state,
            line_addr=self.line_addr,
            sdid=self.sdid,
            core_id=self.core_id,
            dirty=self.dirty,
            reused=self.reused,
            fptr=self.fptr,
        )


class SkewedTagStore:
    """The two-skew tag array plus the global bookkeeping indices.

    Entries are addressed by a flat *tag index*
    ``skew * sets * ways + set * ways + way`` so the data store's
    reverse pointers (RPTRs) are plain integers.
    """

    def __init__(self, config: MayaConfig, randomizer: Optional[IndexRandomizer] = None):
        self.config = config
        self._ways = config.ways_per_skew
        self._sets = config.sets_per_skew
        self._skews = config.skews
        self.randomizer = randomizer or IndexRandomizer(
            config.skews,
            config.sets_per_skew,
            seed=derive_seed(config.rng_seed, 1),
            algorithm=config.hash_algorithm,
            memo_capacity=(
                config.memo_capacity if config.memo_capacity is not None else DEFAULT_MEMO_CAPACITY
            ),
        )
        self._rng = make_rng(derive_seed(config.rng_seed, 2))
        # random.randrange(n) is a thin argument-checking wrapper over
        # _randbelow(n); calling the latter directly draws the identical
        # value from the identical stream, minus the wrapper cost.
        self._randbelow = self._rng._randbelow
        # Memoized per-skew index lookup, bound once (the randomizer's
        # rekey clears its memo in place, so the binding stays valid).
        self._indices_of = self.randomizer._lookup
        total = config.tag_entries
        self._state = bytearray(total)
        # Integer columns are plain lists: stores keep a reference to
        # the caller's int and reads skip the array-type box/unbox on
        # the install/evict hot path.
        self._addr = [0] * total
        self._sdid = [0] * total
        self._core = [-1] * total
        self._dirty = bytearray(total)
        self._reused = bytearray(total)
        self._fptr = [NO_DATA] * total
        #: Valid entries per (skew, set), for load-aware skew selection.
        #: Flat list indexed ``skew * sets + set_idx`` (== tag_idx // ways),
        #: so the per-access update is a single divide.
        self._valid_count: List[int] = [0] * (self._skews * self._sets)
        # Priority-0 pool with O(1) random removal: list + position map.
        # The position map is a dense list indexed by tag slot (slots are
        # small contiguous ints), so add/remove are plain list stores
        # instead of dict hashing.  Entries of removed slots go stale
        # rather than being deleted; membership is tracked by ``_state``.
        self._p0_pool: List[int] = []
        self._p0_pos: List[int] = [-1] * total
        self.priority1_count = 0
        #: packed (line_addr, sdid) key -> tag index, for O(1) lookups.
        #: The hardware does a 2-set associative probe; this map is a
        #: pure simulation speedup, cross-checked by check_invariants().
        self._where: dict = {}

    # -- index arithmetic --------------------------------------------------

    def tag_index(self, skew: int, set_idx: int, way: int) -> int:
        return (skew * self._sets + set_idx) * self._ways + way

    def locate(self, tag_idx: int) -> Tuple[int, int, int]:
        """Inverse of :meth:`tag_index`: (skew, set, way)."""
        set_way, way = divmod(tag_idx, self._ways)
        skew, set_idx = divmod(set_way, self._sets)
        return skew, set_idx, way

    def entry(self, tag_idx: int) -> TagEntryView:
        return TagEntryView(self, tag_idx)

    # -- priority-0 pool -----------------------------------------------------

    @property
    def priority0_count(self) -> int:
        return len(self._p0_pool)

    def _p0_add(self, tag_idx: int) -> None:
        self._p0_pos[tag_idx] = len(self._p0_pool)
        self._p0_pool.append(tag_idx)

    def _p0_remove(self, tag_idx: int) -> None:
        pos = self._p0_pos[tag_idx]
        last = self._p0_pool.pop()
        if last != tag_idx:
            self._p0_pool[pos] = last
            self._p0_pos[last] = pos

    def random_priority0(self, exclude: Optional[int] = None) -> Optional[int]:
        """A uniformly random priority-0 tag index, optionally excluding one.

        Exactly one RNG draw when the pool is non-trivial: a draw that
        lands on ``exclude`` takes the next pool slot (cyclically)
        instead of re-drawing.  A rejection loop would make the *number*
        of draws data-dependent, so identical seeds could diverge after
        a rare collision; the index shift keeps the draw count fixed
        while staying uniform over the other entries.
        """
        pool = self._p0_pool
        n = len(pool)
        if not n:
            return None
        if exclude is not None and n == 1 and pool[0] == exclude:
            return None
        i = self._randbelow(n)
        candidate = pool[i]
        if candidate == exclude:
            candidate = pool[(i + 1) % n]
        return candidate

    # -- lookup ---------------------------------------------------------------

    def lookup(self, line_addr: int, sdid: int = 0) -> Optional[int]:
        """Find the tag entry for (line, SDID); ``None`` on tag miss.

        Models the hardware's two-set associative probe (the SDID is
        part of the match so different domains never share an entry);
        implemented as an O(1) map lookup for simulation speed.
        """
        return self._where.get((line_addr << _SDID_SHIFT) | sdid)

    def lookup_associative(self, line_addr: int, sdid: int = 0) -> Optional[int]:
        """The literal two-set probe; used to validate :meth:`lookup`."""
        indices = self.randomizer.all_indices(line_addr, sdid)
        state = self._state
        addr = self._addr
        sdids = self._sdid
        for skew in range(self._skews):
            base = self.tag_index(skew, indices[skew], 0)
            for way in range(self._ways):
                idx = base + way
                if state[idx] and addr[idx] == line_addr and sdids[idx] == sdid:
                    return idx
        return None

    # -- insertion ---------------------------------------------------------------

    def pick_skew_load_aware(self, line_addr: int, sdid: int = 0) -> Tuple[int, int]:
        """Load-aware skew selection: the mapped set with more invalid ways.

        Returns ``(skew, set_idx)``.  Ties break uniformly at random, as
        in Mirage.
        """
        # Randomizer memo lookup, inlined from IndexRandomizer._lookup
        # (this is the hottest call on the install path; same LRU
        # discipline and counter updates).
        rand = self.randomizer
        memo = rand._memo
        key = (line_addr, sdid)
        indices = memo.pop(key, None)
        if indices is None:
            rand.cache_misses += 1
            # Consult the bulk_map/load_packed side table before the
            # cipher, mirroring IndexRandomizer._lookup's miss path.
            indices = rand._precomputed.get(key)
            if indices is None:
                indices = rand._raw_indices(line_addr, sdid)
            if len(memo) >= rand._memo_capacity:
                del memo[next(iter(memo))]
        else:
            rand.cache_hits += 1
        memo[key] = indices
        vc = self._valid_count
        if self._skews == 2:
            i0 = indices[0]
            i1 = indices[1]
            l0 = vc[i0]
            l1 = vc[self._sets + i1]
            if l0 < l1:
                return 0, i0
            if l1 < l0:
                return 1, i1
            skew = self._randbelow(2)
            return (1, i1) if skew else (0, i0)
        loads = [vc[s * self._sets + indices[s]] for s in range(self._skews)]
        best = min(loads)
        candidates = [s for s, load in enumerate(loads) if load == best]
        skew = candidates[self._rng.randrange(len(candidates))] if len(candidates) > 1 else candidates[0]
        return skew, indices[skew]

    def pick_skew_random(self, line_addr: int, sdid: int = 0) -> Tuple[int, int]:
        """Random skew selection (the insecure alternative; ablation)."""
        indices = self._indices_of(line_addr, sdid)
        skew = self._rng.randrange(self._skews)
        return skew, indices[skew]

    def find_invalid_way(self, skew: int, set_idx: int) -> Optional[int]:
        base = (skew * self._sets + set_idx) * self._ways
        idx = self._state.find(_INVALID, base, base + self._ways)
        return None if idx < 0 else idx

    def install(
        self,
        tag_idx: int,
        line_addr: int,
        sdid: int,
        core_id: int,
        priority1: bool,
        dirty: bool = False,
        fptr: int = NO_DATA,
    ) -> None:
        """Fill an invalid entry as priority-0 or priority-1."""
        if self._state[tag_idx]:
            raise SimulationError("installing over a valid tag entry")
        self._addr[tag_idx] = line_addr
        self._sdid[tag_idx] = sdid
        self._core[tag_idx] = core_id
        self._dirty[tag_idx] = 1 if dirty else 0
        self._reused[tag_idx] = 0
        if priority1:
            self._state[tag_idx] = _P1
            self._fptr[tag_idx] = fptr
            self.priority1_count += 1
        else:
            self._state[tag_idx] = _P0
            self._fptr[tag_idx] = NO_DATA
            self._p0_add(tag_idx)
        self._valid_count[tag_idx // self._ways] += 1
        self._where[(line_addr << _SDID_SHIFT) | sdid] = tag_idx

    def promote(self, tag_idx: int, fptr: int, dirty: bool) -> None:
        """Priority-0 -> priority-1 on a reuse hit (Fig. 3)."""
        if self._state[tag_idx] != _P0:
            raise SimulationError("can only promote a priority-0 entry")
        self._state[tag_idx] = _P1
        self._fptr[tag_idx] = fptr
        self._dirty[tag_idx] = 1 if dirty else 0
        self._p0_remove(tag_idx)
        self.priority1_count += 1

    def demote(self, tag_idx: int) -> None:
        """Priority-1 -> priority-0 on global random data eviction."""
        if self._state[tag_idx] != _P1:
            raise SimulationError("can only demote a priority-1 entry")
        self._state[tag_idx] = _P0
        self._fptr[tag_idx] = NO_DATA
        self._dirty[tag_idx] = 0
        self._p0_add(tag_idx)
        self.priority1_count -= 1

    def invalidate(self, tag_idx: int) -> TagEntry:
        """Drop a tag entry entirely; returns a copy of the old contents."""
        state = self._state[tag_idx]
        if not state:
            raise SimulationError("invalidating an already-invalid tag")
        line_addr = self._addr[tag_idx]
        sdid = self._sdid[tag_idx]
        old = TagEntry(
            state=_TAG_STATES[state],
            line_addr=line_addr,
            sdid=sdid,
            core_id=self._core[tag_idx],
            dirty=bool(self._dirty[tag_idx]),
            reused=bool(self._reused[tag_idx]),
            fptr=self._fptr[tag_idx],
        )
        if state == _P0:
            self._p0_remove(tag_idx)
        else:
            self.priority1_count -= 1
        self._valid_count[tag_idx // self._ways] -= 1
        del self._where[(line_addr << _SDID_SHIFT) | sdid]
        self._state[tag_idx] = _INVALID
        self._addr[tag_idx] = 0
        self._sdid[tag_idx] = 0
        self._core[tag_idx] = -1
        self._dirty[tag_idx] = 0
        self._reused[tag_idx] = 0
        self._fptr[tag_idx] = NO_DATA
        return old

    def invalidate_fast(self, tag_idx: int) -> None:
        """:meth:`invalidate` without materializing the old contents.

        The Maya engine reads whatever victim fields it needs from the
        columns *before* calling this, so the snapshot would be wasted
        allocation on the hot path.
        """
        state = self._state[tag_idx]
        if not state:
            raise SimulationError("invalidating an already-invalid tag")
        if state == _P0:
            self._p0_remove(tag_idx)
        else:
            self.priority1_count -= 1
        self._valid_count[tag_idx // self._ways] -= 1
        del self._where[(self._addr[tag_idx] << _SDID_SHIFT) | self._sdid[tag_idx]]
        # Only the state column is cleared: every reader gates on it (or
        # on ``_where``), and install() overwrites the other columns.
        self._state[tag_idx] = _INVALID

    # -- introspection / invariants ------------------------------------------

    def set_valid_count(self, skew: int, set_idx: int) -> int:
        return self._valid_count[skew * self._sets + set_idx]

    def iter_valid(self):
        """Yield (tag index, entry view) for every valid entry."""
        state = self._state
        for idx in range(len(state)):
            if state[idx]:
                yield idx, TagEntryView(self, idx)

    def check_invariants(self) -> None:
        """Verify the structural invariants; raises on violation.

        Exercised heavily by the test suite (and cheap enough to call
        in integration tests after every few thousand accesses).
        """
        p0 = p1 = 0
        per_set = [0] * (self._skews * self._sets)
        state = self._state
        fptr = self._fptr
        live = {}
        for idx in range(len(state)):
            s = state[idx]
            if not s:
                continue
            per_set[idx // self._ways] += 1
            if s == _P0:
                p0 += 1
                if fptr[idx] != NO_DATA:
                    raise SimulationError("priority-0 entry with a forward pointer")
                pos = self._p0_pos[idx]
                if pos < 0 or pos >= len(self._p0_pool) or self._p0_pool[pos] != idx:
                    raise SimulationError("priority-0 entry missing from the pool")
            else:
                p1 += 1
                if fptr[idx] == NO_DATA:
                    raise SimulationError("priority-1 entry without a forward pointer")
            live[(self._addr[idx] << _SDID_SHIFT) | self._sdid[idx]] = idx
        if p0 != len(self._p0_pool):
            raise SimulationError(f"p0 pool size {len(self._p0_pool)} != live count {p0}")
        if p1 != self.priority1_count:
            raise SimulationError(f"p1 counter {self.priority1_count} != live count {p1}")
        if per_set != self._valid_count:
            raise SimulationError("per-set valid counters out of sync")
        if live != self._where:
            raise SimulationError("location map out of sync with the tag array")
