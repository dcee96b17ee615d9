"""Cache-line state: coherence states and the line record.

The paper's tag entries carry three MOESI coherence bits (Table VIII).
The single-node simulators in this library only exercise the
valid/clean/dirty distinction, but the full MOESI state set is modelled
so the storage arithmetic and the tag-entry layout match the hardware
design, and so multi-socket extensions have somewhere to stand.

The module also holds the ``access_fast`` step protocol every packed
engine shares: the ``ACC_*`` flags, the first-use binder
(:func:`first_access`, :func:`bind_steps`), the one eviction rule
(:func:`drop_victim` for maintenance drops, its inline twin
:data:`STEP_EVICT` for the generated steps' evictions) and the boundary
wrappers (:func:`victim_line`, :func:`access_result`).
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


def drop_victim(engine, addr: int, core: int, sdid: int, dirty, reused) -> int:
    """Publish a line that a maintenance drop removes as ``engine``'s
    victim and count its eviction; returns the ``ACC_*`` flags.

    The one eviction path of every packed engine's invalidation, flush
    and SAE drops.  A drop fills nothing, so it is never cross-core
    interference: that takes a fill by one core displacing another
    core's line, which the generated steps count.
    """
    engine.victim_addr = addr
    engine.victim_core = core
    engine.victim_sdid = sdid
    engine.victim_reused = bool(reused)
    engine.stats.record_eviction(dirty=dirty, was_reused=reused, cross_core=False)
    return ACC_EVICTED | ACC_EVICTED_DIRTY if dirty else ACC_EVICTED


# ``drop_victim`` as statements, for the generated steps' evictions,
# which render them with the engine bound as ``llc``, its stats as
# ``st``, the victim's fields as ``vaddr``/``vcore``/``vsd``/``vdirty``/
# ``vreused`` and the filler's core as ``core_id``; they set ``flags``.
# A step's eviction is cross-core interference when both cores are
# known (>= 0) and differ, the rule the reference models count by;
# ``drop_victim`` is this with the filler's core -1, so a drop never is.
STEP_EVICT = """\
llc.victim_addr = vaddr
llc.victim_core = vcore
llc.victim_sdid = vsd
llc.victim_reused = True if vreused else False
st.evictions += 1
if vdirty:
    st.dirty_evictions += 1
    flags = 6
else:
    flags = 2
if not vreused:
    st.dead_evictions += 1
if vcore >= 0 and core_id >= 0 and vcore != core_id:
    st.interference_evictions += 1
"""


def bind_steps(engine):
    """Bind ``engine``'s generated steps; returns its ``access_fast``.

    ``engine.fresh_steps()`` renders the design's ``(owner, step)``
    pairs - its own step and those of the arrays it holds - and each
    step becomes its owner's instance ``access_fast``.
    :func:`repro.engine.specialize.specialize_llc` installs the same
    pairs releasably.
    """
    for owner, step in engine.fresh_steps():
        owner.access_fast = step
    return engine.access_fast


def first_access(engine, line_addr, is_write=False, core_id=0, is_writeback=False, sdid=0) -> int:
    """The class-level ``access_fast`` of every packed engine: binds its
    generated steps (:func:`bind_steps`) on first use and runs the step.

    Attribute lookup finds the instance binding from then on.  A caller
    that bound this method before the first access keeps landing here,
    so the instance binding is looked up first and the steps render
    once.
    """
    step = engine.__dict__.get("access_fast")
    if step is None:
        step = bind_steps(engine)
    return step(line_addr, is_write, core_id, is_writeback, sdid)


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
