"""Config-specialized step functions, installed per run.

Two generic engines (:mod:`repro.llc.mirage`,
:mod:`repro.cache.set_assoc`) interpret their configuration on every
access: attribute loads for the packed columns, policy dispatch,
capacity tests against ``self`` fields - all on values that are frozen
for the lifetime of a run.  This module emits, per concrete
configuration, a *specialized* per-access step function for each with:

* all config constants inlined as literals (ways, sets, data-store
  size, RRPV bounds),
* policy branches pruned to the single taken arm (LRU vs. hook
  dispatch, the configured SAE response),
* the ``ACC_*`` flag-word protocol flattened into plain int literals,
* every store column bound as a closure local (one ``LOAD_DEREF``
  instead of two attribute loads per touch).

Maya has no generic engine to specialize: its one implementation is
the generated step in :mod:`repro.core.maya_step`, which
:class:`~repro.core.maya_cache.MayaCache` binds on first use.
:func:`specialize_llc` installs a fresh one through the same releasable
:class:`Specialization`, so a run that specializes leaves no reference
cycle behind.  Its differential oracle is :mod:`repro.reference.maya`.

The generated function is installed as an *instance* attribute
(``llc.access_fast``), which every caller - the compiled hierarchy
closure (:meth:`repro.hierarchy.system.CacheHierarchy._compile_access`),
the op-stream replay (:mod:`repro.engine.vector`), the security
campaign's attack harnesses (:mod:`repro.security.campaign`), and the
public ``access()`` wrapper - picks up because they all resolve
``access_fast`` by attribute after the step is installed.  Each
template transcribes the generic code it replaces, checks and RNG draw
order included, so behaviour is bit-identical by construction; the
``specialize`` differential suite enforces it across the design zoo.
Compiled code objects are cached in-process
(:mod:`repro.common.codegen`).

Selection precedence mirrors the engine/mmap switches: the
``run_mix(specialize=...)`` / CLI ``--specialize`` argument, then the
``REPRO_SPECIALIZE`` environment variable, then *on*.
``REPRO_SPECIALIZE=0`` keeps the generic Mirage and set-assoc engines
as their differential oracle, and for Maya selects only the drive: the
per-access hierarchy loop instead of the op-stream replay.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

from ..common.codegen import bind_template, compiled_template

#: Environment variable consulted when no explicit choice is passed.
SPECIALIZE_ENV = "REPRO_SPECIALIZE"

_FALSEY = ("0", "false", "off", "no")


def resolve_specialize(specialize: Optional[bool] = None) -> bool:
    """Resolve whether specialized step functions should be installed.

    ``specialize`` wins when given; otherwise :data:`SPECIALIZE_ENV`
    ("0"/"false"/"off"/"no" disable); otherwise on.  The generic
    Mirage and set-assoc engines stay the differential oracle under
    ``REPRO_SPECIALIZE=0``.
    """
    if specialize is not None:
        return bool(specialize)
    raw = os.environ.get(SPECIALIZE_ENV)
    if raw is None:
        return True
    return raw.strip().lower() not in _FALSEY


_MISSING = object()


class Specialization:
    """Bookkeeping for installed step functions; releasable.

    ``release()`` restores every shadowed attribute (dropping the
    instance binding so the class method shows through again), which
    breaks the ``cache -> closure -> cache`` reference cycles so
    per-trial bench loops stay refcount-clean.
    """

    def __init__(self):
        self._bindings = []
        self.info: dict = {"llc": None, "llc_reason": None, "private": 0}

    def _install(self, obj, attr: str, value) -> None:
        old = obj.__dict__.get(attr, _MISSING)
        setattr(obj, attr, value)
        self._bindings.append((obj, attr, old))

    @property
    def active(self) -> bool:
        return bool(self._bindings)

    def release(self) -> None:
        for obj, attr, old in reversed(self._bindings):
            if old is _MISSING:
                obj.__dict__.pop(attr, None)
            else:
                setattr(obj, attr, old)
        self._bindings.clear()


# ---------------------------------------------------------------------------
# Set-associative template (private L1/L2 levels, baseline LLC, CEASER
# inner array).  ACC literals: HIT=1, EVICTED=2, EVICTED|DIRTY=6.
# Coherence literals: INVALID=0, EXCLUSIVE=2, OWNED(dirty floor)=3,
# MODIFIED=4.
# ---------------------------------------------------------------------------

_SET_ASSOC_HIT_TOUCH = {
    "lru": (
        "            policy._clock = clk = policy._clock + 1\n"
        "            repl[idx] = clk\n"
    ),
    "random": "",
    "srrip": "            repl[idx] = 0\n",
    "brrip": "            repl[idx] = 0\n",
    "drrip": "            on_hit(repl, idx)\n",
}

_SET_ASSOC_VICTIM = {
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
    "drrip": "            idx = victim(repl, base, {WAYS})\n",
}
_SET_ASSOC_VICTIM["brrip"] = _SET_ASSOC_VICTIM["srrip"]

_SET_ASSOC_FILL = {
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
    "drrip": "        on_fill(repl, base, {WAYS}, idx)\n",
}

_SET_ASSOC_BINDINGS = {
    "lru": "",
    "random": "    rng_randrange = policy._rng.randrange\n",
    "srrip": "",
    "brrip": (
        "    rng_random = policy._rng.random\n"
        "    long_probability = policy._long_probability\n"
    ),
    "drrip": (
        "    on_hit = policy.on_hit\n"
        "    on_fill = policy.on_fill\n"
        "    victim = policy.victim\n"
    ),
}

_SET_ASSOC_TEMPLATE = '''\
# Generated by repro.engine.specialize; do not edit.
# kind=set_assoc policy={POLICY} ways={WAYS} sets={SETS}


def _bind(cache, SimulationError, SetAssociativeEviction):
    st = cache.stats
    state = cache._state
    addr_col = cache._addr
    core_col = cache._core
    sdid_col = cache._sdid
    reused_col = cache._reused
    repl = cache._repl
    epoch_col = cache._epoch
    where = cache._where
    where_get = where.get
    policy = cache._policy
{POLICY_BINDINGS}
    def access_fast(line_addr, is_write=False, core_id=0, is_writeback=False, sdid=0):
        idx = where_get(line_addr, -1)
        st.accesses += 1
        if idx >= 0:
            st.hits += 1
            if is_writeback:
                st.writebacks_received += 1
                state[idx] = 4
            else:
                st.demand_accesses += 1
                st.demand_hits += 1
                reused_col[idx] = 1
                if is_write:
                    state[idx] = 4
{HIT_TOUCH}
            return 1
        st.misses += 1
        if is_writeback:
            st.writebacks_received += 1
        else:
            st.demand_accesses += 1
            pcm = st.per_core_misses
            pcm[core_id] = pcm.get(core_id, 0) + 1
        base = (line_addr & {SET_MASK}) * {WAYS}
        if len(where) == {TOTAL_LINES}:
            idx = -1
        else:
            idx = state.find(0, base, base + {WAYS})
        flags = 0
        if idx < 0:
{VICTIM}
            vstate = state[idx]
            addr = addr_col[idx]
            vcore = core_col[idx]
            vreused = reused_col[idx]
            cache.victim_addr = addr
            cache.victim_core = vcore
            cache.victim_sdid = sdid_col[idx]
            cache.victim_reused = True if vreused else False
            st.evictions += 1
            if vstate >= 3:
                st.dirty_evictions += 1
                flags = 6
            else:
                flags = 2
            if not vreused:
                st.dead_evictions += 1
            if vcore >= 0 and vcore != core_id:
                st.interference_evictions += 1
            del where[addr]
        state[idx] = 4 if is_write or is_writeback else 2
        addr_col[idx] = line_addr
        core_col[idx] = core_id
        sdid_col[idx] = sdid
        reused_col[idx] = 0
        cache._fill_epoch = fe = cache._fill_epoch + 1
        epoch_col[idx] = fe
        where[line_addr] = idx
{FILL_TOUCH}
        st.fills += 1
        st.data_fills += 1
        return flags

    return access_fast
'''


def _set_assoc_policy_kind(policy) -> Optional[str]:
    from ..cache.replacement import (
        PackedBRRIPPolicy,
        PackedDRRIPPolicy,
        PackedLRUPolicy,
        PackedRandomPolicy,
        PackedSRRIPPolicy,
    )

    tp = type(policy)
    if tp is PackedLRUPolicy:
        return "lru"
    if tp is PackedRandomPolicy:
        return "random"
    if tp is PackedSRRIPPolicy:
        return "srrip"
    if tp is PackedBRRIPPolicy:
        return "brrip"
    if tp is PackedDRRIPPolicy:
        return "drrip"
    return None


def specialized_set_assoc_step(cache):
    """Specialized ``access_fast`` closure for a packed set-assoc cache.

    Returns ``(step, None)`` or ``(None, reason)`` when the policy has
    no template (custom policy objects keep the generic engine).
    """
    policy_kind = _set_assoc_policy_kind(cache._policy)
    if policy_kind is None:
        return None, f"no template for policy {type(cache._policy).__name__}"
    ways = cache._ways
    rrpv_max = getattr(cache._policy, "_max", 0)
    fingerprint = (
        policy_kind,
        ways,
        cache._set_mask,
        cache._total_lines,
        rrpv_max,
    )

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
        return _SET_ASSOC_TEMPLATE.format(
            POLICY_BINDINGS=_SET_ASSOC_BINDINGS[policy_kind],
            HIT_TOUCH=_SET_ASSOC_HIT_TOUCH[policy_kind].format(**subst) or "            pass\n",
            VICTIM=_SET_ASSOC_VICTIM[policy_kind].format(**subst),
            FILL_TOUCH=_SET_ASSOC_FILL[policy_kind].format(**subst) or "        pass\n",
            **subst,
        )

    code = compiled_template("set_assoc", fingerprint, build)
    return bind_template(code, cache), None


# ---------------------------------------------------------------------------
# Mirage template.  Everything on the access path is inlined: the global
# random data eviction, the two-skew load-aware pick, the SAE branch
# (the single configured arm), and the install, with the drop-tag body
# expanded at both eviction sites exactly as the generic methods
# sequence it.
# ---------------------------------------------------------------------------

def _mirage_drop_tag(indent: str, tag_expr: str) -> str:
    lines = [
        f"vt = {tag_expr}",
        "if not valid[vt]:",
        "    raise SimulationError(\"dropping an invalid Mirage tag\")",
        "vdirty = dirty_col[vt]",
        "vreused = reused_col[vt]",
        "vcore = core_col[vt]",
        "vaddr = addr_col[vt]",
        "vsd = sdid_col[vt]",
        "llc.victim_addr = vaddr",
        "llc.victim_core = vcore",
        "llc.victim_sdid = vsd",
        "llc.victim_reused = True if vreused else False",
        "st.evictions += 1",
        "if vdirty:",
        "    st.dirty_evictions += 1",
        "if not vreused:",
        "    st.dead_evictions += 1",
        "if vcore >= 0 and core_id >= 0 and vcore != core_id:",
        "    st.interference_evictions += 1",
        "fp = fptr_col[vt]",
        "if rptr[fp] == -1:",
        "    raise SimulationError(\"freeing an already-free data entry\")",
        "rptr[fp] = -1",
        "free_append(fp)",
        "valid_count[vt // {WAYS}] -= 1",
        "del where[(vaddr << 16) | vsd]",
        "valid[vt] = 0",
        "fptr_col[vt] = -1",
    ]
    return "".join(indent + line + "\n" for line in lines)


_MIRAGE_SAE_RAISE = """\
            raise SetAssociativeEviction(
                "SAE in skew %d, set %d" % (skew, set_idx), installs=llc.installs
            )
"""

_MIRAGE_SAE_COUNT = (
    """\
            victim_way = rng_randrange({WAYS})
"""
    + _mirage_drop_tag("            ", "base + victim_way")
    + """\
            flags = 22 if vdirty else 18
            slot = valid.find(0, base, base + {WAYS})
"""
)

_MIRAGE_TEMPLATE = '''\
# Generated by repro.engine.specialize; do not edit.
# kind=mirage ways={WAYS} sets={SETS} data={DATA_N} on_sae={ON_SAE}


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
    indices_of = llc._indices_of
    rng_randrange = llc._rng.randrange
    data = llc.data
    rptr = data._rptr
    free_list = data._free
    free_append = free_list.append
    free_pop = free_list.pop
    data_randbelow = data._randbelow

    def access_fast(line_addr, is_write=False, core_id=0, is_writeback=False, sdid=0):
        key = (line_addr << 16) | sdid
        tag_idx = where_get(key)
        st.accesses += 1
        if tag_idx is not None:
            st.hits += 1
            if is_writeback:
                st.writebacks_received += 1
                dirty_col[tag_idx] = 1
            else:
                st.demand_accesses += 1
                st.demand_hits += 1
                reused_col[tag_idx] = 1
                if is_write:
                    dirty_col[tag_idx] = 1
            return 1
        st.misses += 1
        if is_writeback:
            st.writebacks_received += 1
        else:
            st.demand_accesses += 1
            pcm = st.per_core_misses
            pcm[core_id] = pcm.get(core_id, 0) + 1
        flags = 0
        llc.installs += 1
        if not free_list:
            while True:
                vd = data_randbelow({DATA_N})
                if rptr[vd] != -1:
                    break
{GLOBAL_DROP}
            flags = 6 if vdirty else 2
        indices = indices_of(line_addr, sdid)
        i0 = indices[0]
        i1 = indices[1]
        l0 = valid_count[i0]
        l1 = valid_count[{SETS} + i1]
        if l0 < l1:
            skew = 0
            set_idx = i0
        elif l1 < l0:
            skew = 1
            set_idx = i1
        elif rng_randrange(2):
            skew = 1
            set_idx = i1
        else:
            skew = 0
            set_idx = i0
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
        st.fills += 1
        st.data_fills += 1
        return flags

    return access_fast
'''


def specialized_mirage_step(llc):
    """Specialized ``access_fast`` closure for a :class:`MirageCache`.

    Covers load-aware skew selection with two skews (the deployed
    configuration); the random-skew ablation keeps the generic engine.
    """
    if llc._skew_policy != "load_aware" or llc._skews != 2:
        return None, (
            f"skew policy {llc._skew_policy!r} with {llc._skews} skews "
            "is not specialized"
        )
    fingerprint = (llc._ways, llc._sets, len(llc.data._rptr), llc._on_sae)

    def build() -> str:
        subst = dict(
            WAYS=llc._ways,
            SETS=llc._sets,
            DATA_N=len(llc.data._rptr),
            ON_SAE=llc._on_sae,
        )
        sae = (
            _MIRAGE_SAE_RAISE
            if llc._on_sae == "raise"
            else _MIRAGE_SAE_COUNT.format(**subst)
        )
        return _MIRAGE_TEMPLATE.format(
            GLOBAL_DROP=_mirage_drop_tag("            ", "rptr[vd]")
            .format(**subst)
            .rstrip("\n"),
            SAE=sae.rstrip("\n"),
            **subst,
        )

    code = compiled_template("mirage", fingerprint, build)
    return bind_template(code, llc), None


# ---------------------------------------------------------------------------
# Dispatch + run-level application.
# ---------------------------------------------------------------------------

def specialize_llc(llc, spec: Specialization) -> Optional[str]:
    """Install a specialized step on ``llc`` if a template covers it.

    Returns ``None`` on success or a human-readable fallback reason.
    Maya always gets a fresh generated step (its only implementation),
    so releasing ``spec`` drops it again.
    Wrapper designs (baseline, CEASER) specialize their inner packed
    array.  The skewed and fully-associative designs are packed too but
    have no template: they keep their generic ``access_fast`` step and
    get a reason back.  Callers: :func:`apply_specialization` (one
    ``run_mix``) and :func:`repro.security.campaign.run_shard` (every
    design one campaign cell builds); each releases ``spec`` when done.
    """
    from ..cache.set_assoc import SetAssociativeCache
    from ..core.maya_cache import MayaCache
    from ..core.maya_step import maya_step
    from ..llc.baseline import BaselineLLC
    from ..llc.ceaser import CeaserCache
    from ..llc.mirage import MirageCache

    if isinstance(llc, MayaCache):
        spec._install(llc, "access_fast", maya_step(llc))
        return None
    if isinstance(llc, MirageCache):
        step, reason = specialized_mirage_step(llc)
        if step is None:
            return reason
        spec._install(llc, "access_fast", step)
        return None
    if isinstance(llc, SetAssociativeCache):
        step, reason = specialized_set_assoc_step(llc)
        if step is None:
            return reason
        spec._install(llc, "access_fast", step)
        return None
    if isinstance(llc, BaselineLLC):
        step, reason = specialized_set_assoc_step(llc._cache)
        if step is None:
            return reason
        # BaselineLLC bound the inner generic method at construction;
        # shadow both so its forwarding attribute follows the inner step.
        spec._install(llc._cache, "access_fast", step)
        spec._install(llc, "access_fast", step)
        return None
    if isinstance(llc, CeaserCache):
        # CeaserCache.access_fast looks the inner array's step up per
        # call, so shadowing the inner array alone is enough.
        step, reason = specialized_set_assoc_step(llc._cache)
        if step is None:
            return reason
        spec._install(llc._cache, "access_fast", step)
        return None
    return f"no specialized template for {type(llc).__name__}"


def apply_specialization(llc, hierarchy=None) -> Tuple[Specialization, dict]:
    """Specialize an LLC (and a hierarchy's private levels) in one call.

    Used by :func:`repro.hierarchy.simulator.run_mix`: the returned
    :class:`Specialization` must be released when the run finishes; the
    info dict records what was specialized (``llc`` template kind or
    ``None`` with ``llc_reason``, plus the count of specialized private
    L1/L2 arrays).  The info is diagnostic provenance only - it never
    flows into canonical results.
    """
    spec = Specialization()
    reason = specialize_llc(llc, spec)
    spec.info["llc"] = None if reason else type(llc).__name__
    spec.info["llc_reason"] = reason
    private = 0
    if hierarchy is not None:
        for cache in list(getattr(hierarchy, "l1", ())) + list(
            getattr(hierarchy, "l2", ())
        ):
            step, inner_reason = specialized_set_assoc_step(cache)
            if step is not None:
                spec._install(cache, "access_fast", step)
                private += 1
            del inner_reason
    spec.info["private"] = private
    return spec, spec.info
