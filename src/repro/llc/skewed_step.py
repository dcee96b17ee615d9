"""CEASER-S and Scatter-Cache's per-access step, rendered per configuration.

The one fast implementation of
:class:`~repro.llc.skewed.SkewedRandomizedCache`'s access protocol: the
hit, and on a miss the two-skew mapping lookup, the random skew pick,
the first invalid way of that set (else a random way, whose line is
dropped), the install and, when the design remaps, the epoch remap.
Ways, sets, memo capacity and remap period render as literals; the SDID
that enters the hash and the location map is the access's own for
Scatter-Cache and ``0`` for CEASER-S.  The mapping lookup (splitmix
inlined, PRINCE a call-out) and both draws come from the snippets the
Maya and Mirage steps share (:mod:`repro.common.codegen`); the access
and the dropped line are counted by the shared accounting snippets
(``CacheStats.step_hit``/``STEP_MISS``,
:data:`repro.cache.line.STEP_EVICT`).
:meth:`SkewedRandomizedCache.access_fast` binds the step on first use;
:mod:`repro.engine.specialize` installs a releasable one.  The oracle
is :mod:`repro.reference.skewed`: same RNG draw order, bit-identical
statistics and placement.
"""

from __future__ import annotations

from ..cache.line import STEP_EVICT
from ..cache.stats import CacheStats
from ..common.addr import SDID_SHIFT
from ..common.codegen import _draw, _indent, _memo_lookup, bind_template, compiled_template

# The remap's flush must not clobber this fill's victim.
_REMAP = """\
        llc._fills_since_remap = fills = llc._fills_since_remap + 1
        if fills >= {REMAP_PERIOD}:
            victim = (llc.victim_addr, llc.victim_core, llc.victim_sdid, llc.victim_reused)
            llc.rekey()
            llc.victim_addr, llc.victim_core, llc.victim_sdid, llc.victim_reused = victim
"""

# ACC literals: HIT=1, EVICTED=2, EVICTED|DIRTY=6.  Coherence literals:
# INVALID=0, EXCLUSIVE=2, OWNED(dirty floor)=3, MODIFIED=4.  The victim's
# slot is refilled at once, so its state byte is not cleared.

# A hit's marks, in CacheStats.step_hit's two arms: a writeback dirties
# the line; a demand hit marks it reused, and a write dirties it too.
_WRITEBACK_MARK = "state[idx] = 4\n"
_DEMAND_MARKS = "reused_col[idx] = 1\nif is_write:\n    state[idx] = 4\n"
_TEMPLATE = '''\
# Generated by repro.llc.skewed_step; do not edit.
# kind=skewed ways={WAYS} sets={SETS} memo={MEMO_CAP} mix_bits={MIX_BITS} \
sdid_in_hash={SDID_IN_HASH} remap={REMAP_PERIOD}


def _bind(llc, SimulationError, SetAssociativeEviction):
    st = llc.stats
    state = llc._state
    addr_col = llc._addr
    core_col = llc._core
    sdid_col = llc._sdid
    reused_col = llc._reused
    where = llc._where
    where_get = where.get
    rand = llc.index_randomizer
    memo = rand._memo
    memo_pop = memo.pop
    precomputed_get = rand._precomputed.get
    raw_packed = rand._raw_packed
    rng_getrandbits = llc._rng.getrandbits

    def access_fast(line_addr, is_write=False, core_id=0, is_writeback=False, sdid=0):
        key = {KEY}
        idx = where_get(key)
        if idx is not None:
{HIT}
            return 1
{MISS}
{LOOKUP}
{SKEW_DRAW}
        base = (skew * {SETS} + (i1 if skew else i0)) * {WAYS}
        idx = state.find(0, base, base + {WAYS})
        flags = 0
        if idx < 0:
{WAY_DRAW}
            idx = base + way
            vaddr = addr_col[idx]
            vcore = core_col[idx]
            vsd = sdid_col[idx]
            vdirty = state[idx] >= 3
            vreused = reused_col[idx]
{EVICT}
            del where[{VICTIM_KEY}]
        state[idx] = 4 if is_write or is_writeback else 2
        addr_col[idx] = line_addr
        core_col[idx] = core_id
        sdid_col[idx] = sdid
        reused_col[idx] = 0
        where[key] = idx
{REMAP}
        return flags

    return access_fast
'''


def skewed_step(llc):
    """The ``access_fast`` closure for a :class:`SkewedRandomizedCache`."""
    rand = llc.index_randomizer
    memo_cap = rand._memo_capacity
    mix_bits = rand._index_bits if rand._algorithm == "splitmix" else None
    sdid_in_hash = llc.use_sdid_in_hash
    fingerprint = (
        llc.ways_per_skew, llc.sets_per_skew, memo_cap, mix_bits, sdid_in_hash, llc.remap_period
    )

    def build() -> str:
        subst = dict(
            WAYS=llc.ways_per_skew,
            SETS=llc.sets_per_skew,
            MEMO_CAP=memo_cap,
            MIX_BITS=mix_bits,
            SDID_IN_HASH=sdid_in_hash,
            REMAP_PERIOD=llc.remap_period,
        )
        remap = "" if llc.remap_period is None else _REMAP.format(**subst)
        return _TEMPLATE.format(
            KEY=(
                f"(line_addr << {SDID_SHIFT}) | sdid" if sdid_in_hash
                else f"line_addr << {SDID_SHIFT}"
            ),
            VICTIM_KEY=(
                f"(vaddr << {SDID_SHIFT}) | vsd" if sdid_in_hash else f"vaddr << {SDID_SHIFT}"
            ),
            LOOKUP=_indent(_memo_lookup(memo_cap, mix_bits, "sdid" if sdid_in_hash else "0"), 8),
            SKEW_DRAW=_indent(_draw("skew", 2, "rng_getrandbits"), 8),
            WAY_DRAW=_indent(_draw("way", llc.ways_per_skew, "rng_getrandbits"), 12),
            REMAP=remap.rstrip("\n"),
            HIT=_indent(CacheStats.step_hit(_WRITEBACK_MARK, _DEMAND_MARKS), 12),
            MISS=_indent(CacheStats.STEP_MISS, 8),
            EVICT=_indent(STEP_EVICT, 12),
            **subst,
        )

    return bind_template(compiled_template("skewed", fingerprint, build), llc)
