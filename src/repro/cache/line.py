"""Cache-line state: coherence states and the line record.

The paper's tag entries carry three MOESI coherence bits (Table VIII).
The single-node simulators in this library only exercise the
valid/clean/dirty distinction, but the full MOESI state set is modelled
so the storage arithmetic and the tag-entry layout match the hardware
design, and so multi-socket extensions have somewhere to stand.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class CoherenceState(enum.Enum):
    """MOESI coherence states (3 encoding bits in the tag entry)."""

    INVALID = 0
    SHARED = 1
    EXCLUSIVE = 2
    OWNED = 3
    MODIFIED = 4

    @property
    def is_valid(self) -> bool:
        return self is not CoherenceState.INVALID

    @property
    def is_dirty(self) -> bool:
        """Dirty states must be written back on eviction."""
        return self in (CoherenceState.MODIFIED, CoherenceState.OWNED)

    def on_write(self) -> "CoherenceState":
        """State after a write hit."""
        if self is CoherenceState.INVALID:
            raise ValueError("cannot write an invalid line")
        return CoherenceState.MODIFIED

    def on_read_fill(self) -> "CoherenceState":
        """State after filling for a demand read (single-node: Exclusive)."""
        return CoherenceState.EXCLUSIVE


@dataclass
class CacheLine:
    """One resident cache line plus the metadata the experiments need.

    ``reused`` drives the dead-block measurements (Fig. 1): a line that
    is evicted with ``reused == False`` was dead on arrival.  ``core_id``
    lets the LLC attribute evictions to inter-core interference.
    """

    line_addr: int = 0
    state: CoherenceState = CoherenceState.INVALID
    core_id: int = -1
    sdid: int = 0
    reused: bool = False
    fill_epoch: int = 0
    #: Replacement-policy scratch (RRPV for SRRIP, timestamp for LRU).
    repl_state: int = 0

    @property
    def valid(self) -> bool:
        return self.state.is_valid

    @property
    def dirty(self) -> bool:
        return self.state.is_dirty

    def invalidate(self) -> None:
        """Reset to the empty state (keeps the object for reuse)."""
        self.state = CoherenceState.INVALID
        self.line_addr = 0
        self.core_id = -1
        self.sdid = 0
        self.reused = False
        self.repl_state = 0


@dataclass(frozen=True)
class EvictedLine:
    """What an eviction produced, as seen by the next level / DRAM."""

    line_addr: int
    dirty: bool
    core_id: int
    sdid: int
    was_reused: bool


#: Bit flags returned by the allocation-free ``access_fast`` protocol.
#: A packed engine returns an int combining these; when ``ACC_EVICTED``
#: is set, the victim's identity is published in the engine's
#: ``victim_addr`` / ``victim_core`` / ``victim_sdid`` /
#: ``victim_reused`` instance fields, which stay valid only until the
#: engine's next access - callers must read them immediately.
ACC_HIT = 1
ACC_EVICTED = 2
ACC_EVICTED_DIRTY = 4
ACC_TAG_HIT = 8
ACC_SAE = 16


@dataclass
class AccessResult:
    """Outcome of a single cache access.

    ``hit`` means *data* was served.  ``tag_hit`` is Maya-specific: the
    tag was present as a priority-0 entry, so the access missed on data
    but promoted the entry (the data is filled and will hit next time).
    ``sae`` flags a set-associative eviction in secure designs.
    """

    hit: bool
    evicted: Optional[EvictedLine] = None
    tag_hit: bool = False
    sae: bool = False
    #: Extra lookup latency in cycles beyond the level's base latency.
    extra_latency: int = 0


def victim_line(engine, flags: int) -> EvictedLine:
    """The victim an ``ACC_EVICTED`` result published in ``engine``'s
    ``victim_*`` fields, as an :class:`EvictedLine`."""
    return EvictedLine(
        line_addr=engine.victim_addr,
        dirty=bool(flags & ACC_EVICTED_DIRTY),
        core_id=engine.victim_core,
        sdid=engine.victim_sdid,
        was_reused=engine.victim_reused,
    )


def access_result(engine, flags: int, extra_latency: int = 0) -> AccessResult:
    """The :class:`AccessResult` an ``access_fast`` outcome stands for.

    The boundary every packed engine's ``access()`` wraps its step in;
    read it right after the step, while the victim fields are valid.
    """
    if flags & ACC_HIT:
        return AccessResult(hit=True, extra_latency=extra_latency)
    return AccessResult(
        hit=False,
        evicted=victim_line(engine, flags) if flags & ACC_EVICTED else None,
        tag_hit=bool(flags & ACC_TAG_HIT),
        sae=bool(flags & ACC_SAE),
        extra_latency=extra_latency,
    )
