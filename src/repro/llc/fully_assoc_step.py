"""The fully-associative cache's per-access step, rendered per capacity.

The one fast implementation of
:class:`~repro.llc.fully_assoc.FullyAssociativeCache`'s access
protocol: the hit, and on a miss into a full cache the uniformly random
victim, its drop and the swap-remove that moves the last slot into the
hole, then the install into the last slot.  The capacity, the victim
draw's bound, renders as a literal; the access and the victim are
counted by the shared accounting snippets (``CacheStats.STEP_HIT``/
``STEP_MISS``, :data:`repro.cache.line.STEP_EVICT`).
:meth:`FullyAssociativeCache.access_fast` binds the step on first use;
:mod:`repro.engine.specialize` installs a releasable one.  The oracle
is :mod:`repro.reference.fully_assoc`: same RNG draw order,
bit-identical statistics and placement.
"""

from __future__ import annotations

from ..cache.line import STEP_EVICT
from ..cache.stats import CacheStats
from ..common.codegen import _draw, _indent, bind_template, compiled_template

# ACC literals: HIT=1, EVICTED=2, EVICTED|DIRTY=6.  A full cache holds
# exactly ``capacity`` lines, so the victim draw's bound is a literal.
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
        key = (line_addr << 16) | sdid
        pos = where_get(key)
        if pos is not None:
{HIT}
            if is_writeback:
                dirty_col[pos] = 1
            else:
                reused_col[pos] = 1
                if is_write:
                    dirty_col[pos] = 1
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
            del where[(vaddr << 16) | vsd]
            if vpos < pos:
                moved_addr = addr_col[pos]
                moved_sdid = sdid_col[pos]
                addr_col[vpos] = moved_addr
                sdid_col[vpos] = moved_sdid
                core_col[vpos] = core_col[pos]
                dirty_col[vpos] = dirty_col[pos]
                reused_col[vpos] = reused_col[pos]
                where[(moved_addr << 16) | moved_sdid] = vpos
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
            VICTIM_DRAW=_indent(_draw("vpos", capacity, "rng_getrandbits"), 12),
            HIT=_indent(CacheStats.STEP_HIT, 12),
            MISS=_indent(CacheStats.STEP_MISS, 8),
            EVICT=_indent(STEP_EVICT, 12),
        )

    return bind_template(compiled_template("fully_assoc", (capacity,), build), llc)
