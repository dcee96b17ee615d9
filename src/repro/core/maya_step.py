"""Maya's per-access state machine, rendered per configuration.

This module is the one fast implementation of Maya's access protocol
(Section III-B, Fig. 5): the priority-1 hit, the reuse-filtered
priority-0 install (Fig. 5a), promotion (Fig. 5b) and the priority-1
install (Fig. 5c), with their global random data and tag evictions.
:func:`maya_step` renders it as Python source with every configuration
constant inlined as a literal (ways, sets, data-store size, memo and
priority-0 capacities, the splitmix fold shifts, the window size),
compiles it once per configuration (:mod:`repro.common.codegen`), and
binds the tag store's packed columns as closure locals.

:meth:`repro.core.maya_cache.MayaCache.access_fast` binds the step on
first use; a run or campaign cell that manages its steps
(``specialize_llc``, one layer up) installs a fresh one through a
releasable ``Specialization`` instead.  The differential oracle is the
object model in :mod:`repro.reference.maya`: same seed, same RNG draw
order, bit-identical statistics.

The step makes no Python call-out on any steady-state path and draws
its random numbers with the stdlib's own ``getrandbits`` rejection
loop (``codegen._draw``).  Maya's reuse filter makes promotion and the
priority-1 install common paths: one maya-lbm-prince bench job runs
52,511 priority-1 installs among 206,689 LLC ops, one maya-mcf job
12,307 promotions and 9,844 priority-1 installs among 173,179.  Only
SAE handling calls back into :meth:`MayaCache._handle_sae`:
rekey/flush mutate every structure in place, so the column bindings
stay valid across it.  Every store operation keeps its
``SimulationError`` check, even one a guard before it already implies.
The step counts its accesses and its data evictions with the shared
accounting snippets (``CacheStats.step_hit``/``STEP_MISS``,
:data:`repro.cache.line.STEP_EVICT`) and keeps no per-access state that
nothing reads.
"""

from __future__ import annotations

from ..cache.line import STEP_EVICT
from ..cache.stats import CacheStats
from ..common.addr import SDID_SHIFT
from ..common.codegen import (
    _draw,
    _indent,
    _memo_lookup,
    bind_template,
    compiled_template,
)


# Each shared operation renders from one snippet below, so its sites
# cannot drift apart.  Tag-state literals: P0=1, P1=2.  ACC literals:
# HIT=1, EVICTED=2, EVICTED|DIRTY=6, TAG_HIT=8, SAE=16.

# The mapping lookup of ``key`` (repro.common.codegen._memo_lookup)
# plus the load-aware two-skew pick, then the first invalid way of the
# picked set.
_MAYA_PICK = """\
{LOOKUP}
l0 = valid_count[i0]
l1 = valid_count[{SETS} + i1]
if l0 < l1:
    skew = 0
    set_idx = i0
elif l1 < l0:
    skew = 1
    set_idx = i1
else:
{TIE_DRAW}
    set_idx = i1 if skew else i0
base = (skew * {SETS} + set_idx) * {WAYS}
slot = state.find(0, base, base + {WAYS})
"""

# Global random data eviction: a uniformly random live data entry is
# freed and its tag demoted to priority-0, the writeback published and
# counted by repro.cache.line.STEP_EVICT.
_MAYA_DATA_EVICTION = """\
if len(free_list) == {DATA_N}:
    raise SimulationError("no valid data entries to evict")
while True:
{VICTIM_DRAW}
    if rptr[vd] != -1:
        break
vt = rptr[vd]
if state[vt] != 2:
    raise SimulationError("data entry points at a non-priority-1 tag")
vaddr = addr_col[vt]
vcore = core_col[vt]
vsd = sdid_col[vt]
vdirty = dirty_col[vt]
vreused = reused_col[vt]
{STEP_EVICT}
if rptr[vd] == -1:
    raise SimulationError("freeing an already-free data entry")
rptr[vd] = -1
free_append(vd)
if state[vt] != 2:
    raise SimulationError("can only demote a priority-1 entry")
state[vt] = 1
fptr_col[vt] = -1
dirty_col[vt] = 0
pos_map[vt] = len(pool)
pool.append(vt)
tags.priority1_count -= 1
"""

# Global random tag eviction after an install into ``slot``, with ``n``
# the priority-0 pool size: one draw picks a random priority-0 entry
# (a draw landing on ``slot`` takes the next pool entry, so the draw
# count stays fixed), the premature-eviction window's FIFO insert, and
# SkewedTagStore.invalidate_fast.
_MAYA_TAG_EVICTION = """\
if n > {P0_CAP}:
    if n == 1 and pool[0] == slot:
        raise SimulationError("priority-0 pool over capacity but empty")
{VICTIM_DRAW}
    victim = pool[i]
    if victim == slot:
        victim = pool[(i + 1) % n]
    vkey = (addr_col[victim] << {SDID_SHIFT}) | sdid_col[victim]
    window[vkey] = True
    if len(window) > {WINDOW_SIZE}:
        window_popitem(last=False)
    vstate = state[victim]
    if not vstate:
        raise SimulationError("invalidating an already-invalid tag")
    if vstate == 1:
        pos = pos_map[victim]
        last = pool.pop()
        if last != victim:
            pool[pos] = last
            pos_map[last] = pos
    else:
        tags.priority1_count -= 1
    valid_count[victim // {WAYS}] -= 1
    del where[vkey]
    state[victim] = 0
    st.tag_evictions += 1
"""

# A priority-1 hit's marks, in CacheStats.step_hit's two arms: a
# writeback dirties the line; a demand hit marks it reused, and a write
# dirties it too.
_WRITEBACK_MARK = "dirty_col[tag_idx] = 1\n"
_DEMAND_MARKS = "reused_col[tag_idx] = 1\nif is_write:\n    dirty_col[tag_idx] = 1\n"

_MAYA_TEMPLATE = '''\
# Generated by repro.core.maya_step; do not edit.
# kind=maya ways={WAYS} sets={SETS} data={DATA_N} memo={MEMO_CAP} p0={P0_CAP} \
window={WINDOW_SIZE} mix_bits={MIX_BITS} global_tag_eviction={GLOBAL_TAG_EVICTION}


def _bind(llc, SimulationError, SetAssociativeEviction):
    tags = llc.tags
    rand = llc.index_randomizer
    st = llc.stats
    state = tags._state
    addr_col = tags._addr
    sdid_col = tags._sdid
    core_col = tags._core
    dirty_col = tags._dirty
    reused_col = tags._reused
    fptr_col = tags._fptr
    valid_count = tags._valid_count
    pool = tags._p0_pool
    pos_map = tags._p0_pos
    where = tags._where
    where_get = where.get
    memo = rand._memo
    memo_pop = memo.pop
    precomputed_get = rand._precomputed.get
    raw_packed = rand._raw_packed
    tag_getrandbits = tags._rng.getrandbits
    rptr = llc.data._rptr
    free_list = llc.data._free
    free_pop = free_list.pop
    free_append = free_list.append
    data_getrandbits = llc.data._rng.getrandbits
    window = llc._evicted_p0_window
    window_popitem = window.popitem
    handle_sae = llc._handle_sae

    def access_fast(line_addr, is_write=False, core_id=0, is_writeback=False, sdid=0):
        key = (line_addr << {SDID_SHIFT}) | sdid
        tag_idx = where_get(key)
        if tag_idx is not None:
            if state[tag_idx] == 2:
{HIT}
                return 1
{TAG_HIT_MISS}
            st.tag_only_hits += 1
            # Priority-0 tag hit: promote, allocating a data entry.
            flags = 0
            if not free_list:
{DATA_EVICTION}
            if not free_list:
                raise SimulationError("data store full: evict before allocating")
            fidx = free_pop()
            rptr[fidx] = tag_idx
            if state[tag_idx] != 1:
                raise SimulationError("can only promote a priority-0 entry")
            state[tag_idx] = 2
            fptr_col[tag_idx] = fidx
            dirty_col[tag_idx] = 1 if is_write or is_writeback else 0
            pos = pos_map[tag_idx]
            last = pool.pop()
            if last != tag_idx:
                pool[pos] = last
                pos_map[last] = pos
            tags.priority1_count += 1
            core_col[tag_idx] = core_id
            reused_col[tag_idx] = 0
            return 8 | flags
{MISS}
        llc.installs += 1
        flags = 0
        if is_write or is_writeback:
            # Write/writeback tag miss: priority-1 install (tag + data).
            if not free_list:
{DATA_EVICTION}
{P1_PICK}
            if slot < 0:
                if flags & 2:
                    # The data-eviction writeback wins over the SAE's:
                    # keep its victim fields, take only the SAE marker.
                    va = llc.victim_addr
                    vc = llc.victim_core
                    vs = llc.victim_sdid
                    vr = llc.victim_reused
                    flags |= handle_sae(skew, set_idx) & 16
                    llc.victim_addr = va
                    llc.victim_core = vc
                    llc.victim_sdid = vs
                    llc.victim_reused = vr
                else:
                    flags = handle_sae(skew, set_idx)
                slot = state.find(0, base, base + {WAYS})
                if slot < 0:
                    raise SimulationError("no invalid way even after SAE handling")
            if not free_list:
                raise SimulationError("data store full: evict before allocating")
            fidx = free_pop()
            rptr[fidx] = slot
            if state[slot]:
                raise SimulationError("installing over a valid tag entry")
            addr_col[slot] = line_addr
            sdid_col[slot] = sdid
            core_col[slot] = core_id
            dirty_col[slot] = 1
            reused_col[slot] = 0
            state[slot] = 2
            fptr_col[slot] = fidx
            tags.priority1_count += 1
            valid_count[slot // {WAYS}] += 1
            where[key] = slot
            n = len(pool)
{P1_TAG_EVICTION}
            return flags
        # Demand tag miss: priority-0 install (the dominant miss path).
        if window.pop(key, None):
            llc.premature_p0_evictions += 1
{P0_PICK}
        if slot < 0:
            flags = handle_sae(skew, set_idx)
            slot = state.find(0, base, base + {WAYS})
            if slot < 0:
                raise SimulationError("no invalid way even after SAE handling")
        addr_col[slot] = line_addr
        sdid_col[slot] = sdid
        core_col[slot] = core_id
        dirty_col[slot] = 0
        reused_col[slot] = 0
        state[slot] = 1
        fptr_col[slot] = -1
        pos_map[slot] = n = len(pool)
        pool.append(slot)
        valid_count[slot // {WAYS}] += 1
        where[key] = slot
        n += 1
{P0_TAG_EVICTION}
        return flags

    return access_fast
'''


def maya_step(llc):
    """The ``access_fast`` closure for a :class:`MayaCache` ``llc``.

    Renders the paper's design point - two skews with load-aware skew
    selection, which :class:`MayaCache` enforces - so it never declines.
    The step is bound to ``llc``'s live columns and counters; the
    rendered code is shared by every cache with the same configuration.
    """
    tags = llc.tags
    ways = tags._ways
    sets = tags._sets
    rand = llc.index_randomizer
    data_n = len(llc.data._rptr)
    memo_cap = rand._memo_capacity
    p0_cap = llc.config.priority0_entries
    window_size = llc._evicted_p0_window_size
    global_tag_eviction = bool(llc._global_tag_eviction)
    mix_bits = rand._index_bits if rand._algorithm == "splitmix" else None
    fingerprint = (
        ways,
        sets,
        data_n,
        memo_cap,
        p0_cap,
        window_size,
        mix_bits,
        global_tag_eviction,
    )

    def build() -> str:
        subst = dict(
            WAYS=ways,
            SETS=sets,
            DATA_N=data_n,
            MEMO_CAP=memo_cap,
            P0_CAP=p0_cap,
            WINDOW_SIZE=window_size,
            MIX_BITS=mix_bits,
            GLOBAL_TAG_EVICTION=global_tag_eviction,
            SDID_SHIFT=SDID_SHIFT,
        )
        pick = _MAYA_PICK.format(
            LOOKUP=_memo_lookup(memo_cap, mix_bits).rstrip("\n"),
            TIE_DRAW=_indent(_draw("skew", 2, "tag_getrandbits"), 4),
            **subst,
        )
        data_eviction = _MAYA_DATA_EVICTION.format(
            VICTIM_DRAW=_indent(_draw("vd", data_n, "data_getrandbits"), 4),
            STEP_EVICT=STEP_EVICT.rstrip("\n"),
            **subst,
        )
        tag_eviction = (
            _MAYA_TAG_EVICTION.format(
                VICTIM_DRAW=_indent(_draw("i", "n", "tag_getrandbits"), 4), **subst
            )
            if global_tag_eviction
            else ""
        )
        return _MAYA_TEMPLATE.format(
            DATA_EVICTION=_indent(data_eviction, 16),
            P1_PICK=_indent(pick, 12),
            P1_TAG_EVICTION=_indent(tag_eviction, 12),
            P0_PICK=_indent(pick, 8),
            P0_TAG_EVICTION=_indent(tag_eviction, 8),
            HIT=_indent(CacheStats.step_hit(_WRITEBACK_MARK, _DEMAND_MARKS), 16),
            TAG_HIT_MISS=_indent(CacheStats.STEP_MISS, 12),
            MISS=_indent(CacheStats.STEP_MISS, 8),
            **subst,
        )

    return bind_template(compiled_template("maya", fingerprint, build), llc)
