"""Maya's decoupled data store.

The data store is a plain array of line-sized entries, smaller than the
tag store (192K entries vs 480K tags at full scale).  Each entry keeps
a reverse pointer (RPTR) to its owning priority-1 tag so *global random
data eviction* - pick a uniformly random data entry, demote its tag -
is O(1).  A free list serves fills while the store is warming up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..common.errors import SimulationError
from ..common.rng import make_rng

#: RPTR value meaning "entry is free".
NO_TAG = -1


@dataclass
class DataEntry:
    """One data-store entry (the 512 data bits are not materialized)."""

    rptr: int = NO_TAG

    @property
    def valid(self) -> bool:
        return self.rptr != NO_TAG


class DataStore:
    """Fixed-size data array with O(1) allocate / free / random-victim."""

    def __init__(self, entries: int, seed: Optional[int] = None):
        if entries <= 0:
            raise SimulationError(f"data store needs a positive size, got {entries}")
        self._entries: List[DataEntry] = [DataEntry() for _ in range(entries)]
        self._free: List[int] = list(range(entries - 1, -1, -1))
        self._rng = make_rng(seed)

    @property
    def capacity(self) -> int:
        return len(self._entries)

    @property
    def used(self) -> int:
        return len(self._entries) - len(self._free)

    @property
    def full(self) -> bool:
        return not self._free

    def entry(self, idx: int) -> DataEntry:
        return self._entries[idx]

    def allocate(self, rptr: int) -> int:
        """Take a free entry, point it at tag ``rptr``, return its index."""
        if not self._free:
            raise SimulationError("data store full: evict before allocating")
        idx = self._free.pop()
        self._entries[idx].rptr = rptr
        return idx

    def free(self, idx: int) -> None:
        """Release an entry back to the free list."""
        if not self._entries[idx].valid:
            raise SimulationError("freeing an already-free data entry")
        self._entries[idx].rptr = NO_TAG
        self._free.append(idx)

    def random_victim(self) -> int:
        """Uniformly random *valid* entry (global random data eviction).

        In steady state the store is full, so this is a single draw; the
        warm-up case rejects free entries, which stays cheap because the
        policy is only invoked when the store is full anyway.
        """
        if self.used == 0:
            raise SimulationError("no valid data entries to evict")
        while True:
            idx = self._rng.randrange(len(self._entries))
            if self._entries[idx].valid:
                return idx

    def check_invariants(self, expected_rptrs) -> None:
        """Verify RPTR/free-list consistency against the tag store.

        ``expected_rptrs`` maps data index -> tag index for every
        priority-1 tag; everything else must be free.
        """
        free_set = set(self._free)
        if len(free_set) != len(self._free):
            raise SimulationError("duplicate entries on the data free list")
        for idx, entry in enumerate(self._entries):
            if idx in free_set:
                if entry.valid:
                    raise SimulationError(f"data entry {idx} on free list but valid")
            elif entry.rptr != expected_rptrs.get(idx):
                raise SimulationError(
                    f"data entry {idx} RPTR {entry.rptr} != tag {expected_rptrs.get(idx)}"
                )
        if len(expected_rptrs) != self.used:
            raise SimulationError("data-store used count disagrees with priority-1 tags")
