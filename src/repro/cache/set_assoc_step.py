"""The set-associative array's per-access step, rendered per configuration.

This module is the one fast implementation of
:class:`~repro.cache.set_assoc.SetAssociativeCache`'s access protocol:
the hit, the invalid-way fill and the victim eviction, with the
replacement policy's hit touch, victim choice and insertion inlined as
the single arm the configured policy takes (LRU, random, SRRIP,
BRRIP).  One array serves the private L1/L2 levels, the baseline LLC,
CEASER's inner array and the partitioned designs' slices.
:func:`set_assoc_step` renders the step as Python source with the ways,
set mask, capacity and RRPV bounds inlined as literals, compiles it
once per configuration (:mod:`repro.common.codegen`) and binds the
array's packed columns as closure locals.  The accesses and the
victim's eviction are counted by the shared accounting snippets
(``CacheStats.step_hit``/``STEP_MISS``,
:data:`repro.cache.line.STEP_EVICT`), which read the array under the
name every step template binds its target to, ``llc``.

:meth:`SetAssociativeCache.access_fast` binds the step on first use; a
run or campaign cell that manages its steps
(:mod:`repro.engine.specialize`) installs one through a releasable
``Specialization`` instead.  The differential oracle is the object
model in :mod:`repro.reference.set_assoc`: same seed, same RNG draw
order, bit-identical statistics and placement.
"""

from __future__ import annotations

from ..common.codegen import _indent, bind_template, compiled_template
from .line import STEP_EVICT
from .stats import CacheStats

# ACC literals: HIT=1, EVICTED=2, EVICTED|DIRTY=6.  Coherence literals:
# INVALID=0, EXCLUSIVE=2, OWNED(dirty floor)=3, MODIFIED=4.

# A hit's marks, in CacheStats.step_hit's two arms: a writeback dirties
# the line; a demand hit marks it reused, and a write dirties it too.
_WRITEBACK_MARK = "state[idx] = 4\n"
_DEMAND_MARKS = "reused_col[idx] = 1\nif is_write:\n    state[idx] = 4\n"

_HIT_TOUCH = {
    "lru": (
        "            policy._clock = clk = policy._clock + 1\n"
        "            repl[idx] = clk\n"
    ),
    "random": "",
    "srrip": "            repl[idx] = 0\n",
    "brrip": "            repl[idx] = 0\n",
}

# SRRIP and BRRIP: RRPVs never exceed the maximum, so the object
# policy's scan-then-age-all rounds collapse to one jump - age every
# line by (max - highest RRPV) and take the first line that was at the
# highest RRPV.  LRU's ``index(min)`` is the object policy's
# first-minimum scan.
_VICTIM = {
    "lru": (
        "            window = repl[base : base + {WAYS}]\n"
        "            idx = base + window.index(min(window))\n"
    ),
    "random": "            idx = base + rng_randrange({WAYS})\n",
    "srrip": (
        "            window = repl[base : base + {WAYS}]\n"
        "            m = max(window)\n"
        "            delta = {RRPV_MAX} - m\n"
        "            if delta > 0:\n"
        "                for i in range(base, base + {WAYS}):\n"
        "                    repl[i] += delta\n"
        "            idx = base + window.index(m)\n"
    ),
}
_VICTIM["brrip"] = _VICTIM["srrip"]

_FILL = {
    "lru": (
        "        policy._clock = clk = policy._clock + 1\n"
        "        repl[idx] = clk\n"
    ),
    "random": "",
    "srrip": "        repl[idx] = {RRPV_MAX_MINUS_1}\n",
    "brrip": (
        "        if rng_random() < long_probability:\n"
        "            repl[idx] = {RRPV_MAX_MINUS_1}\n"
        "        else:\n"
        "            repl[idx] = {RRPV_MAX}\n"
    ),
}

_BINDINGS = {
    "lru": "",
    "random": "    rng_randrange = policy._rng.randrange\n",
    "srrip": "",
    "brrip": (
        "    rng_random = policy._rng.random\n"
        "    long_probability = policy._long_probability\n"
    ),
}

_TEMPLATE = '''\
# Generated by repro.cache.set_assoc_step; do not edit.
# kind=set_assoc policy={POLICY} ways={WAYS} sets={SETS}


def _bind(llc, SimulationError, SetAssociativeEviction):
    st = llc.stats
    state = llc._state
    addr_col = llc._addr
    core_col = llc._core
    sdid_col = llc._sdid
    reused_col = llc._reused
    repl = llc._repl
    where = llc._where
    where_get = where.get
    policy = llc._policy
{POLICY_BINDINGS}
    def access_fast(line_addr, is_write=False, core_id=0, is_writeback=False, sdid=0):
        idx = where_get(line_addr, -1)
        if idx >= 0:
{HIT}
{HIT_TOUCH}
            return 1
{MISS}
        base = (line_addr & {SET_MASK}) * {WAYS}
        if len(where) == {TOTAL_LINES}:
            idx = -1
        else:
            idx = state.find(0, base, base + {WAYS})
        flags = 0
        if idx < 0:
{VICTIM}
            vaddr = addr_col[idx]
            vcore = core_col[idx]
            vsd = sdid_col[idx]
            vdirty = state[idx] >= 3
            vreused = reused_col[idx]
{EVICT}
            del where[vaddr]
        state[idx] = 4 if is_write or is_writeback else 2
        addr_col[idx] = line_addr
        core_col[idx] = core_id
        sdid_col[idx] = sdid
        reused_col[idx] = 0
        where[line_addr] = idx
{FILL_TOUCH}
        return flags

    return access_fast
'''


def set_assoc_step(cache):
    """The ``access_fast`` closure for a packed set-associative array."""
    policy_kind = cache._policy_kind
    ways = cache._ways
    rrpv_max = getattr(cache._policy, "_max", 0)
    fingerprint = (policy_kind, ways, cache._set_mask, cache._total_lines, rrpv_max)

    def build() -> str:
        subst = dict(
            POLICY=policy_kind,
            WAYS=ways,
            SETS=cache._set_mask + 1,
            SET_MASK=cache._set_mask,
            TOTAL_LINES=cache._total_lines,
            RRPV_MAX=rrpv_max,
            RRPV_MAX_MINUS_1=rrpv_max - 1,
        )
        return _TEMPLATE.format(
            POLICY_BINDINGS=_BINDINGS[policy_kind],
            HIT_TOUCH=_HIT_TOUCH[policy_kind].format(**subst) or "            pass\n",
            VICTIM=_VICTIM[policy_kind].format(**subst),
            FILL_TOUCH=_FILL[policy_kind].format(**subst) or "        pass\n",
            HIT=_indent(CacheStats.step_hit(_WRITEBACK_MARK, _DEMAND_MARKS), 12),
            MISS=_indent(CacheStats.STEP_MISS, 8),
            EVICT=_indent(STEP_EVICT, 12),
            **subst,
        )

    return bind_template(compiled_template("set_assoc", fingerprint, build), cache)
