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
line address / SDID / core / FPTR lists plus dirty / reused byte
columns) indexed by the flat tag index, not in a list of entry objects.
:meth:`SkewedTagStore.entry` returns a write-through
:class:`TagEntryView` over the columns so introspection code and tests
keep the historical object API.  The generated Maya step
(:mod:`repro.core.maya_step`) installs, promotes, demotes and evicts
in place on the columns and the pool; this class keeps the lookups,
invalidation and the invariant check.  The object-model reference in
``repro.reference.tag_store`` keeps the method-per-operation API
(install, promote, skew selection, ...) that the step transcribes.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

from ..common.addr import SDID_SHIFT
from ..common.config import MayaConfig
from ..common.errors import SimulationError
from ..common.rng import derive_seed, make_rng
from ..crypto.randomizer import DEFAULT_MEMO_CAPACITY, IndexRandomizer

#: FPTR value meaning "no data entry" (priority-0 / invalid tags).
NO_DATA = -1


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


class TagEntryView:
    """Write-through view of one packed tag slot.

    Reads and writes go straight to the store's columns, so the view
    behaves like the historical tag-entry object for introspection
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
        #: The priority-0 tie-break and global tag eviction draws of the
        #: generated step (:mod:`repro.core.maya_step`).
        self._rng = make_rng(derive_seed(config.rng_seed, 2))
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

    def _p0_remove(self, tag_idx: int) -> None:
        pos = self._p0_pos[tag_idx]
        last = self._p0_pool.pop()
        if last != tag_idx:
            self._p0_pool[pos] = last
            self._p0_pos[last] = pos

    # -- lookup ---------------------------------------------------------------

    def lookup(self, line_addr: int, sdid: int = 0) -> Optional[int]:
        """Find the tag entry for (line, SDID); ``None`` on tag miss.

        Models the hardware's two-set associative probe (the SDID is
        part of the match so different domains never share an entry);
        implemented as an O(1) map lookup for simulation speed.
        """
        return self._where.get((line_addr << SDID_SHIFT) | sdid)

    # -- removal ----------------------------------------------------------------

    def invalidate_fast(self, tag_idx: int) -> None:
        """Drop a tag entry entirely, at either priority.

        :meth:`MayaCache._drop_tag` reads whatever victim fields it
        needs from the columns *before* calling this, so nothing is
        returned.
        """
        state = self._state[tag_idx]
        if not state:
            raise SimulationError("invalidating an already-invalid tag")
        if state == _P0:
            self._p0_remove(tag_idx)
        else:
            self.priority1_count -= 1
        self._valid_count[tag_idx // self._ways] -= 1
        del self._where[(self._addr[tag_idx] << SDID_SHIFT) | self._sdid[tag_idx]]
        # Only the state column is cleared: every reader gates on it (or
        # on ``_where``), and every install overwrites the other columns.
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
            live[(self._addr[idx] << SDID_SHIFT) | self._sdid[idx]] = idx
        if p0 != len(self._p0_pool):
            raise SimulationError(f"p0 pool size {len(self._p0_pool)} != live count {p0}")
        if p1 != self.priority1_count:
            raise SimulationError(f"p1 counter {self.priority1_count} != live count {p1}")
        if per_set != self._valid_count:
            raise SimulationError("per-set valid counters out of sync")
        if live != self._where:
            raise SimulationError("location map out of sync with the tag array")
