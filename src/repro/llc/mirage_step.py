"""Mirage's per-access state machine, rendered per configuration.

This module is the one fast implementation of
:class:`~repro.llc.mirage.MirageCache`'s access protocol: the tag hit,
and on a miss the global random data eviction, the two-skew load-aware
skew pick (a random tie-break on equal loads), the SAE branch (the one
configured arm: count, or raise) and the install.  The drop-tag body is
expanded at both eviction sites exactly as the object model sequences
it; the access and each dropped tag are counted by the shared
accounting snippets (``CacheStats.step_hit``/``STEP_MISS``,
:data:`repro.cache.line.STEP_EVICT`).  :func:`mirage_step` renders
the step as Python source with the ways, sets, data-store size and
memo capacity inlined as literals, compiles it once per configuration
(:mod:`repro.common.codegen`) and binds the tag store's packed
columns, the data store's RPTR column and free list, and the
randomizer's memo and side table as closure locals.
The mapping-memo lookup (with the splitmix mixer on a miss) and the
three random draws render from the snippets Maya's step shares
(:mod:`repro.common.codegen`); only a PRINCE miss outside the side
table calls out, to the cipher.

:meth:`MirageCache.access_fast` binds the step on first use; a run or
campaign cell that manages its steps (:mod:`repro.engine.specialize`)
installs one through a releasable ``Specialization`` instead.  The
differential oracle is the object model in :mod:`repro.reference.mirage`:
same seed, same RNG draw order, bit-identical statistics and tag
placement.
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


# Drop the valid tag ``{TAG}`` and free its data entry: the victim is
# published and counted by repro.cache.line.STEP_EVICT.  Rendered at
# both eviction sites exactly as the object model sequences it.
_DROP_TAG = """\
vt = {TAG}
if not valid[vt]:
    raise SimulationError("dropping an invalid Mirage tag")
vaddr = addr_col[vt]
vcore = core_col[vt]
vsd = sdid_col[vt]
vdirty = dirty_col[vt]
vreused = reused_col[vt]
{STEP_EVICT}
fp = fptr_col[vt]
if rptr[fp] == -1:
    raise SimulationError("freeing an already-free data entry")
rptr[fp] = -1
free_append(fp)
valid_count[vt // {WAYS}] -= 1
del where[(vaddr << {SDID_SHIFT}) | vsd]
valid[vt] = 0
fptr_col[vt] = -1
"""


def _drop_tag(tag_expr: str, ways: int) -> str:
    return _DROP_TAG.format(
        TAG=tag_expr, STEP_EVICT=STEP_EVICT.rstrip("\n"), WAYS=ways, SDID_SHIFT=SDID_SHIFT
    )


_SAE_RAISE = """\
            raise SetAssociativeEviction(
                "SAE in skew %d, set %d" % (skew, set_idx), installs=llc.installs
            )
"""

# The SAE victim's writeback supersedes the data eviction's (v1
# semantics, kept by the reference model).
_SAE_COUNT = """\
{VICTIM_DRAW}
{DROP}
            flags |= 16
            slot = valid.find(0, base, base + {WAYS})
"""

# A hit's marks, in CacheStats.step_hit's two arms: a writeback dirties
# the line; a demand hit marks it reused, and a write dirties it too.
_WRITEBACK_MARK = "dirty_col[tag_idx] = 1\n"
_DEMAND_MARKS = "reused_col[tag_idx] = 1\nif is_write:\n    dirty_col[tag_idx] = 1\n"

# ACC literals: HIT=1, EVICTED=2, EVICTED|DIRTY=6, SAE=16.
_TEMPLATE = '''\
# Generated by repro.llc.mirage_step; do not edit.
# kind=mirage ways={WAYS} sets={SETS} data={DATA_N} memo={MEMO_CAP} \
mix_bits={MIX_BITS} on_sae={ON_SAE}


def _bind(llc, SimulationError, SetAssociativeEviction):
    st = llc.stats
    valid = llc._valid
    addr_col = llc._addr
    sdid_col = llc._sdid
    core_col = llc._core
    dirty_col = llc._dirty
    reused_col = llc._reused
    fptr_col = llc._fptr
    valid_count = llc._valid_count
    where = llc._where
    where_get = where.get
    rand = llc.index_randomizer
    memo = rand._memo
    memo_pop = memo.pop
    precomputed_get = rand._precomputed.get
    raw_packed = rand._raw_packed
    rng_getrandbits = llc._rng.getrandbits
    data = llc.data
    rptr = data._rptr
    free_list = data._free
    free_append = free_list.append
    free_pop = free_list.pop
    data_getrandbits = data._rng.getrandbits

    def access_fast(line_addr, is_write=False, core_id=0, is_writeback=False, sdid=0):
        key = (line_addr << {SDID_SHIFT}) | sdid
        tag_idx = where_get(key)
        if tag_idx is not None:
{HIT}
            return 1
{MISS}
        flags = 0
        llc.installs += 1
        if not free_list:
            while True:
{DATA_DRAW}
                if rptr[vd] != -1:
                    break
{GLOBAL_DROP}
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
        slot = valid.find(0, base, base + {WAYS})
        if slot < 0:
            st.saes += 1
{SAE}
        if valid[slot]:
            raise SimulationError("installing over a valid Mirage tag")
        valid[slot] = 1
        addr_col[slot] = line_addr
        sdid_col[slot] = sdid
        core_col[slot] = core_id
        dirty_col[slot] = 1 if is_write or is_writeback else 0
        reused_col[slot] = 0
        if not free_list:
            raise SimulationError("data store full: evict before allocating")
        fidx = free_pop()
        rptr[fidx] = slot
        fptr_col[slot] = fidx
        valid_count[slot // {WAYS}] += 1
        where[key] = slot
        return flags

    return access_fast
'''


def mirage_step(llc):
    """The ``access_fast`` closure for a :class:`MirageCache`."""
    data_n = len(llc.data._rptr)
    rand = llc.index_randomizer
    memo_cap = rand._memo_capacity
    mix_bits = rand._index_bits if rand._algorithm == "splitmix" else None
    fingerprint = (llc._ways, llc._sets, data_n, memo_cap, mix_bits, llc._on_sae)

    def build() -> str:
        subst = dict(
            WAYS=llc._ways,
            SETS=llc._sets,
            DATA_N=data_n,
            MEMO_CAP=memo_cap,
            MIX_BITS=mix_bits,
            ON_SAE=llc._on_sae,
            SDID_SHIFT=SDID_SHIFT,
        )
        if llc._on_sae == "raise":
            sae = _SAE_RAISE
        else:
            sae = _SAE_COUNT.format(
                VICTIM_DRAW=_indent(_draw("victim_way", llc._ways, "rng_getrandbits"), 12),
                DROP=_indent(_drop_tag("base + victim_way", llc._ways), 12),
                **subst,
            )
        return _TEMPLATE.format(
            DATA_DRAW=_indent(_draw("vd", data_n, "data_getrandbits"), 16),
            GLOBAL_DROP=_indent(_drop_tag("rptr[vd]", llc._ways), 12),
            LOOKUP=_indent(_memo_lookup(memo_cap, mix_bits), 8),
            TIE_DRAW=_indent(_draw("skew", 2, "rng_getrandbits"), 12),
            SAE=sae.rstrip("\n"),
            HIT=_indent(CacheStats.step_hit(_WRITEBACK_MARK, _DEMAND_MARKS), 12),
            MISS=_indent(CacheStats.STEP_MISS, 8),
            **subst,
        )

    return bind_template(compiled_template("mirage", fingerprint, build), llc)
