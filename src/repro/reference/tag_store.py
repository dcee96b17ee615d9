"""Object-model reference of Maya's skewed, decoupled tag store.

This is the pre-SoA implementation (one ``TagEntry`` dataclass per
slot), kept verbatim - apart from the deterministic
:meth:`SkewedTagStore.random_priority0` fix, which both engines share -
as the behavioural oracle for the packed tag store.  RNG draw order is
contractually identical to ``repro.core.tag_store``.

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


class TagState(enum.Enum):
    """The three tag-entry states of Fig. 3."""

    INVALID = 0
    PRIORITY_0 = 1
    PRIORITY_1 = 2


@dataclass
class TagEntry:
    """One tag-store entry.

    ``dirty`` only has meaning for priority-1 entries (a tag-only entry
    has no data to be dirty).  ``reused`` supports the dead-block
    accounting of Fig. 1.
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
        total = config.tag_entries
        self._entries: List[TagEntry] = [TagEntry() for _ in range(total)]
        #: Valid entries per (skew, set), for load-aware skew selection.
        self._valid_count: List[List[int]] = [[0] * self._sets for _ in range(self._skews)]
        # Priority-0 pool with O(1) random removal: list + position map.
        self._p0_pool: List[int] = []
        self._p0_pos: dict = {}
        self.priority1_count = 0
        #: (line_addr, sdid) -> tag index, for O(1) lookups.  The
        #: hardware does a 2-set associative probe; this map is a pure
        #: simulation speedup and is cross-checked by check_invariants().
        self._where: dict = {}

    # -- index arithmetic --------------------------------------------------

    def tag_index(self, skew: int, set_idx: int, way: int) -> int:
        return (skew * self._sets + set_idx) * self._ways + way

    def locate(self, tag_idx: int) -> Tuple[int, int, int]:
        """Inverse of :meth:`tag_index`: (skew, set, way)."""
        set_way, way = divmod(tag_idx, self._ways)
        skew, set_idx = divmod(set_way, self._sets)
        return skew, set_idx, way

    def entry(self, tag_idx: int) -> TagEntry:
        return self._entries[tag_idx]

    # -- priority-0 pool -----------------------------------------------------

    @property
    def priority0_count(self) -> int:
        return len(self._p0_pool)

    def _p0_add(self, tag_idx: int) -> None:
        self._p0_pos[tag_idx] = len(self._p0_pool)
        self._p0_pool.append(tag_idx)

    def _p0_remove(self, tag_idx: int) -> None:
        pos = self._p0_pos.pop(tag_idx)
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
        i = self._rng.randrange(n)
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
        return self._where.get((line_addr, sdid))

    def lookup_associative(self, line_addr: int, sdid: int = 0) -> Optional[int]:
        """The literal two-set probe; used to validate :meth:`lookup`."""
        indices = self.randomizer.all_indices(line_addr, sdid)
        for skew in range(self._skews):
            base = self.tag_index(skew, indices[skew], 0)
            for way in range(self._ways):
                entry = self._entries[base + way]
                if entry.valid and entry.line_addr == line_addr and entry.sdid == sdid:
                    return base + way
        return None

    # -- insertion ---------------------------------------------------------------

    def pick_skew_load_aware(self, line_addr: int, sdid: int = 0) -> Tuple[int, int]:
        """Load-aware skew selection: the mapped set with more invalid ways.

        Returns ``(skew, set_idx)``.  Ties break uniformly at random, as
        in Mirage.
        """
        indices = self.randomizer.all_indices(line_addr, sdid)
        loads = [self._valid_count[s][indices[s]] for s in range(self._skews)]
        best = min(loads)
        candidates = [s for s, load in enumerate(loads) if load == best]
        skew = candidates[self._rng.randrange(len(candidates))] if len(candidates) > 1 else candidates[0]
        return skew, indices[skew]

    def pick_skew_random(self, line_addr: int, sdid: int = 0) -> Tuple[int, int]:
        """Random skew selection (the insecure alternative; ablation)."""
        indices = self.randomizer.all_indices(line_addr, sdid)
        skew = self._rng.randrange(self._skews)
        return skew, indices[skew]

    def find_invalid_way(self, skew: int, set_idx: int) -> Optional[int]:
        base = self.tag_index(skew, set_idx, 0)
        for way in range(self._ways):
            if not self._entries[base + way].valid:
                return base + way
        return None

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
        entry = self._entries[tag_idx]
        if entry.valid:
            raise SimulationError("installing over a valid tag entry")
        entry.line_addr = line_addr
        entry.sdid = sdid
        entry.core_id = core_id
        entry.dirty = dirty
        entry.reused = False
        if priority1:
            entry.state = TagState.PRIORITY_1
            entry.fptr = fptr
            self.priority1_count += 1
        else:
            entry.state = TagState.PRIORITY_0
            entry.fptr = NO_DATA
            self._p0_add(tag_idx)
        skew, set_idx, _ = self.locate(tag_idx)
        self._valid_count[skew][set_idx] += 1
        self._where[(line_addr, sdid)] = tag_idx

    def promote(self, tag_idx: int, fptr: int, dirty: bool) -> None:
        """Priority-0 -> priority-1 on a reuse hit (Fig. 3)."""
        entry = self._entries[tag_idx]
        if entry.state is not TagState.PRIORITY_0:
            raise SimulationError("can only promote a priority-0 entry")
        entry.state = TagState.PRIORITY_1
        entry.fptr = fptr
        entry.dirty = dirty
        self._p0_remove(tag_idx)
        self.priority1_count += 1

    def demote(self, tag_idx: int) -> None:
        """Priority-1 -> priority-0 on global random data eviction."""
        entry = self._entries[tag_idx]
        if entry.state is not TagState.PRIORITY_1:
            raise SimulationError("can only demote a priority-1 entry")
        entry.state = TagState.PRIORITY_0
        entry.fptr = NO_DATA
        entry.dirty = False
        self._p0_add(tag_idx)
        self.priority1_count -= 1

    def invalidate(self, tag_idx: int) -> TagEntry:
        """Drop a tag entry entirely; returns a copy of the old contents."""
        entry = self._entries[tag_idx]
        if not entry.valid:
            raise SimulationError("invalidating an already-invalid tag")
        old = TagEntry(
            state=entry.state,
            line_addr=entry.line_addr,
            sdid=entry.sdid,
            core_id=entry.core_id,
            dirty=entry.dirty,
            reused=entry.reused,
            fptr=entry.fptr,
        )
        if entry.state is TagState.PRIORITY_0:
            self._p0_remove(tag_idx)
        else:
            self.priority1_count -= 1
        skew, set_idx, _ = self.locate(tag_idx)
        self._valid_count[skew][set_idx] -= 1
        del self._where[(entry.line_addr, entry.sdid)]
        entry.invalidate()
        return old

    # -- introspection / invariants ------------------------------------------

    def iter_valid(self):
        """Yield (tag index, entry) for every valid entry."""
        for idx, entry in enumerate(self._entries):
            if entry.valid:
                yield idx, entry

    def check_invariants(self) -> None:
        """Verify the structural invariants; raises on violation.

        Exercised heavily by the test suite (and cheap enough to call
        in integration tests after every few thousand accesses).
        """
        p0 = p1 = 0
        per_set = [[0] * self._sets for _ in range(self._skews)]
        for idx, entry in enumerate(self._entries):
            if not entry.valid:
                continue
            skew, set_idx, _ = self.locate(idx)
            per_set[skew][set_idx] += 1
            if entry.state is TagState.PRIORITY_0:
                p0 += 1
                if entry.fptr != NO_DATA:
                    raise SimulationError("priority-0 entry with a forward pointer")
                if idx not in self._p0_pos:
                    raise SimulationError("priority-0 entry missing from the pool")
            else:
                p1 += 1
                if entry.fptr == NO_DATA:
                    raise SimulationError("priority-1 entry without a forward pointer")
        if p0 != len(self._p0_pool):
            raise SimulationError(f"p0 pool size {len(self._p0_pool)} != live count {p0}")
        if p1 != self.priority1_count:
            raise SimulationError(f"p1 counter {self.priority1_count} != live count {p1}")
        if per_set != self._valid_count:
            raise SimulationError("per-set valid counters out of sync")
        live = {(e.line_addr, e.sdid): i for i, e in enumerate(self._entries) if e.valid}
        if live != self._where:
            raise SimulationError("location map out of sync with the tag array")
