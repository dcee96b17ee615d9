"""The fully-associative cache's per-access step, rendered per capacity.

The one fast implementation of
:class:`~repro.llc.fully_assoc.FullyAssociativeCache`'s access
protocol: the hit, and on a miss into a full cache the uniformly random
victim, its drop and the swap-remove that moves the last slot into the
hole, then the install into the last slot.  The capacity, the victim
draw's bound, renders as a literal; the access and the victim are
counted by the shared accounting snippets (``CacheStats.step_hit``/
``STEP_MISS``, :data:`repro.cache.line.STEP_EVICT`).
:meth:`FullyAssociativeCache.access_fast` binds the step on first use;
:mod:`repro.engine.specialize` installs a releasable one.  The oracle
is :mod:`repro.reference.fully_assoc`: same RNG draw order,
bit-identical statistics and placement.
"""

from __future__ import annotations

from ..cache.line import STEP_EVICT
from ..cache.stats import CacheStats
from ..common.addr import SDID_SHIFT
from ..common.codegen import _draw, _indent, bind_template, compiled_template

# ACC literals: HIT=1, EVICTED=2, EVICTED|DIRTY=6.  A full cache holds
# exactly ``capacity`` lines, so the victim draw's bound is a literal.

# A hit's marks, in CacheStats.step_hit's two arms: a writeback dirties
# the line; a demand hit marks it reused, and a write dirties it too.
_WRITEBACK_MARK = "dirty_col[pos] = 1\n"
_DEMAND_MARKS = "reused_col[pos] = 1\nif is_write:\n    dirty_col[pos] = 1\n"
_TEMPLATE = '''\
# Generated by repro.llc.fully_assoc_step; do not edit.
# kind=fully_assoc capacity={CAPACITY}


def _bind(llc, SimulationError, SetAssociativeEviction):
    st = llc.stats
    addr_col = llc._addr
    sdid_col = llc._sdid
    core_col = llc._core
    dirty_col = llc._dirty
    reused_col = llc._reused
    where = llc._where
    where_get = where.get
    rng_getrandbits = llc._rng.getrandbits

    def access_fast(line_addr, is_write=False, core_id=0, is_writeback=False, sdid=0):
        key = (line_addr << {SDID_SHIFT}) | sdid
        pos = where_get(key)
        if pos is not None:
{HIT}
            return 1
{MISS}
        flags = 0
        pos = llc._size
        if pos >= {CAPACITY}:
{VICTIM_DRAW}
            vaddr = addr_col[vpos]
            vcore = core_col[vpos]
            vsd = sdid_col[vpos]
            vdirty = dirty_col[vpos]
            vreused = reused_col[vpos]
{EVICT}
            pos -= 1
            del where[(vaddr << {SDID_SHIFT}) | vsd]
            if vpos < pos:
                moved_addr = addr_col[pos]
                moved_sdid = sdid_col[pos]
                addr_col[vpos] = moved_addr
                sdid_col[vpos] = moved_sdid
                core_col[vpos] = core_col[pos]
                dirty_col[vpos] = dirty_col[pos]
                reused_col[vpos] = reused_col[pos]
                where[(moved_addr << {SDID_SHIFT}) | moved_sdid] = vpos
        addr_col[pos] = line_addr
        sdid_col[pos] = sdid
        core_col[pos] = core_id
        dirty_col[pos] = 1 if is_write or is_writeback else 0
        reused_col[pos] = 0
        where[key] = pos
        llc._size = pos + 1
        return flags

    return access_fast
'''


def fully_assoc_step(llc):
    """The ``access_fast`` closure for a :class:`FullyAssociativeCache`."""
    capacity = llc.capacity_lines

    def build() -> str:
        return _TEMPLATE.format(
            CAPACITY=capacity,
            SDID_SHIFT=SDID_SHIFT,
            VICTIM_DRAW=_indent(_draw("vpos", capacity, "rng_getrandbits"), 12),
            HIT=_indent(CacheStats.step_hit(_WRITEBACK_MARK, _DEMAND_MARKS), 12),
            MISS=_indent(CacheStats.STEP_MISS, 8),
            EVICT=_indent(STEP_EVICT, 12),
        )

    return bind_template(compiled_template("fully_assoc", (capacity,), build), llc)
