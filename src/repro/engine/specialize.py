"""Config-specialized codegen for the serial LLC state machine.

The generic engines (:mod:`repro.core.maya_cache`,
:mod:`repro.llc.mirage`, :mod:`repro.cache.set_assoc`) interpret their
configuration on every access: attribute loads for the packed columns,
policy dispatch, skew/hash branching, capacity tests against ``self``
fields - all on values that are frozen for the lifetime of a run.  This
module emits, per concrete configuration, a *specialized* per-access
step function with:

* all config constants inlined as literals (ways, sets, memo/priority-0
  capacities, splitmix fold shifts, window sizes),
* policy branches pruned to the single taken arm (LRU vs. hook
  dispatch, fast-pick vs. generic skew selection, global tag eviction
  on/off),
* the ``ACC_*`` flag-word protocol flattened into plain int literals,
* every store column bound as a closure local (one ``LOAD_DEREF``
  instead of two attribute loads per touch).

The generated function is installed as an *instance* attribute
(``llc.access_fast``), which every caller - the compiled hierarchy
closure (:meth:`repro.hierarchy.system.CacheHierarchy._compile_access`),
the op-stream replay (:mod:`repro.engine.vector`), the security
campaign's attack harnesses (:mod:`repro.security.campaign`), and the
public ``access()`` wrapper - picks up because they all resolve
``access_fast`` by attribute after the step is installed.  Rare paths (SAE handling, priority-0
promotion, priority-1 install) delegate to the bound generic methods,
so behaviour is bit-identical by construction; the ``specialize``
differential suite enforces it across the design zoo.

Generated source is cached content-keyed by config fingerprint + code
version, the same idiom as the trace/translated/opstream caches: an
in-process code-object cache (resident service workers compile once per
warm pool) over an on-disk source cache
(``results/.specialize_cache/``, override with
:data:`SPECIALIZE_CACHE_ENV`).

Selection precedence mirrors the engine/mmap switches: the
``run_mix(specialize=...)`` / CLI ``--specialize`` argument, then the
``REPRO_SPECIALIZE`` environment variable, then *on*.
``REPRO_SPECIALIZE=0`` keeps the generic interpreters as the
differential oracle.
"""

from __future__ import annotations

import hashlib
import os
from typing import NamedTuple, Optional, Tuple

from ..common.errors import SetAssociativeEviction, SimulationError

#: Environment variable consulted when no explicit choice is passed.
SPECIALIZE_ENV = "REPRO_SPECIALIZE"

#: On-disk generated-source cache directory override ("0" disables).
SPECIALIZE_CACHE_ENV = "REPRO_SPECIALIZE_CACHE"

#: Bumped whenever a template changes; part of every cache key, so a
#: stale on-disk source can never be loaded against newer templates.
CODEGEN_VERSION = 1

_DEFAULT_CACHE_DIR = os.path.join("results", ".specialize_cache")

_FALSEY = ("0", "false", "off", "no")


def resolve_specialize(specialize: Optional[bool] = None) -> bool:
    """Resolve whether specialized step functions should be installed.

    ``specialize`` wins when given; otherwise :data:`SPECIALIZE_ENV`
    ("0"/"false"/"off"/"no" disable); otherwise on.  The generic
    engines stay the differential oracle under ``REPRO_SPECIALIZE=0``.
    """
    if specialize is not None:
        return bool(specialize)
    raw = os.environ.get(SPECIALIZE_ENV)
    if raw is None:
        return True
    return raw.strip().lower() not in _FALSEY


class SpecializeCacheInfo(NamedTuple):
    """Counters for the generated-source cache (``cache_snapshot`` row)."""

    memory_hits: int
    disk_hits: int
    compiles: int
    size: int


_code_cache: dict = {}
_memory_hits = 0
_disk_hits = 0
_compiles = 0


def specialize_cache_info() -> SpecializeCacheInfo:
    """Hit/compile counters of the in-process + on-disk source cache."""
    return SpecializeCacheInfo(
        memory_hits=_memory_hits,
        disk_hits=_disk_hits,
        compiles=_compiles,
        size=len(_code_cache),
    )


def clear_code_cache() -> None:
    """Drop the in-process code cache and zero the counters (tests)."""
    global _memory_hits, _disk_hits, _compiles
    _code_cache.clear()
    _memory_hits = 0
    _disk_hits = 0
    _compiles = 0


def _cache_dir() -> Optional[str]:
    raw = os.environ.get(SPECIALIZE_CACHE_ENV)
    if raw is None:
        return _DEFAULT_CACHE_DIR
    raw = raw.strip()
    if raw.lower() in _FALSEY or not raw:
        return None
    return raw


def _compiled_template(kind: str, fingerprint: tuple, build_source):
    """Code object for (kind, fingerprint), via memory -> disk -> codegen.

    The key hashes the config fingerprint together with
    :data:`CODEGEN_VERSION`; identical configurations across runs (and
    across the resident service's warm workers, via the disk layer)
    reuse one compile.
    """
    global _memory_hits, _disk_hits, _compiles
    key = hashlib.sha256(
        repr((CODEGEN_VERSION, kind, fingerprint)).encode()
    ).hexdigest()
    code = _code_cache.get(key)
    if code is not None:
        _memory_hits += 1
        return code
    source = None
    directory = _cache_dir()
    path = os.path.join(directory, f"{kind}-{key[:16]}.py") if directory else None
    if path is not None and os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
            _disk_hits += 1
        except OSError:
            source = None
    if source is None:
        source = build_source()
        if path is not None:
            try:
                os.makedirs(directory, exist_ok=True)
                tmp = f"{path}.tmp.{os.getpid()}"
                with open(tmp, "w", encoding="utf-8") as fh:
                    fh.write(source)
                os.replace(tmp, path)
            except OSError:
                pass  # cache is best-effort; codegen already succeeded
    code = compile(source, f"<specialized:{kind}:{key[:12]}>", "exec")
    _compiles += 1
    _code_cache[key] = code
    return code


def _bind_template(code, target):
    namespace: dict = {}
    exec(code, namespace)
    return namespace["_bind"](target, SimulationError, SetAssociativeEviction)


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
# Generated by repro.engine.specialize (v{VERSION}); do not edit.
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
            VERSION=CODEGEN_VERSION,
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

    code = _compiled_template("set_assoc", fingerprint, build)
    return _bind_template(code, cache), None


# ---------------------------------------------------------------------------
# Maya template.  The priority-1 hit and the dominant priority-0 install
# path (Fig. 5a) are fully inlined; promotion, priority-1 install, and
# SAE handling delegate to the bound generic methods (rare paths, and
# rekey/flush mutate every structure in place so the column bindings
# stay valid across them).  Tag-state literals: P0=1, P1=2.  ACC
# literals: HIT=1, TAG_HIT=8.
# ---------------------------------------------------------------------------

_MAYA_MIX_INLINE = """\
                    k0, k1 = rand._mix_keys
                    tweaked = line_addr ^ (sdid << 56)
                    x = (tweaked ^ k0) & 0xFFFFFFFFFFFFFFFF
                    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
                    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
                    x ^= x >> 31
                    f0 = {FOLD}
                    x = (tweaked ^ k1) & 0xFFFFFFFFFFFFFFFF
                    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
                    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
                    x ^= x >> 31
                    f1 = {FOLD}
                    indices = (f0 & {MIX_MASK}, f1 & {MIX_MASK})
"""

_MAYA_RAW_INDICES = """\
                    indices = raw_indices(line_addr, sdid)
"""

_MAYA_TAG_EVICTION = """\
        n += 1
        if n > {P0_CAP}:
            if n == 1:
                raise SimulationError("priority-0 pool over capacity but empty")
            i = randbelow(n)
            victim = pool[i]
            if victim == slot:
                victim = pool[(i + 1) % n]
            victim_addr = addr_col[victim]
            victim_sdid = sdid_col[victim]
            window[(victim_addr, victim_sdid)] = True
            if len(window) > {WINDOW_SIZE}:
                del window[next(iter(window))]
            pos = pos_map[victim]
            last = pool.pop()
            if last != victim:
                pool[pos] = last
                pos_map[last] = pos
            valid_count[victim // {WAYS}] -= 1
            del where[(victim_addr << 16) | victim_sdid]
            state[victim] = 0
            st.tag_evictions += 1
"""

_MAYA_TEMPLATE = '''\
# Generated by repro.engine.specialize (v{VERSION}); do not edit.
# kind=maya ways={WAYS} sets={SETS} memo={MEMO_CAP} p0={P0_CAP} \
fast_mix={FAST_MIX} global_tag_eviction={GLOBAL_TAG_EVICTION}


def _bind(llc, SimulationError, SetAssociativeEviction):
    tags = llc.tags
    rand = tags.randomizer
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
    raw_indices = rand._raw_indices
    randbelow = tags._randbelow
    window = llc._evicted_p0_window
    promote = llc._promote
    install_p1 = llc._install_priority1
    handle_sae = llc._handle_sae

    def access_fast(line_addr, is_write=False, core_id=0, is_writeback=False, sdid=0):
        tag_idx = where_get((line_addr << 16) | sdid)
        st.accesses += 1
        if tag_idx is not None:
            if state[tag_idx] == 2:
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
            st.tag_only_hits += 1
            return 8 | promote(tag_idx, is_write or is_writeback, core_id)
        st.misses += 1
        if is_writeback:
            st.writebacks_received += 1
        else:
            st.demand_accesses += 1
            pcm = st.per_core_misses
            pcm[core_id] = pcm.get(core_id, 0) + 1
        if is_write or is_writeback:
            return install_p1(line_addr, sdid, core_id)
        # Priority-0 install (the dominant miss path), specialized.
        llc.installs += 1
        if window.pop((line_addr, sdid), None):
            llc.premature_p0_evictions += 1
        flags = 0
        mkey = (line_addr, sdid)
        indices = memo_pop(mkey, None)
        if indices is None:
            rand.cache_misses += 1
            indices = precomputed_get(mkey)
            if indices is None:
{MISS_INDICES}
            if len(memo) >= {MEMO_CAP}:
                del memo[next(iter(memo))]
        else:
            rand.cache_hits += 1
        memo[mkey] = indices
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
        elif randbelow(2):
            skew = 1
            set_idx = i1
        else:
            skew = 0
            set_idx = i0
        base = (skew * {SETS} + set_idx) * {WAYS}
        slot = state.find(0, base, base + {WAYS})
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
        where[(line_addr << 16) | sdid] = slot
        st.fills += 1
{TAG_EVICTION}
        return flags

    return access_fast
'''


def specialized_maya_step(llc):
    """Specialized ``access_fast`` closure for a :class:`MayaCache`.

    Covers the dominant configuration family: two skews with load-aware
    selection (the paper's design point; ``_fast_pick``).  Other skew
    policies keep the generic engine with a recorded reason.
    """
    if not llc._fast_pick:
        return None, (
            f"skew policy {llc._skew_policy!r} with {llc.tags._skews} skews "
            "is not specialized"
        )
    tags = llc.tags
    ways = tags._ways
    sets = tags._sets
    rand = tags.randomizer
    fingerprint = (
        ways,
        sets,
        rand._memo_capacity,
        llc._p0_capacity,
        llc._evicted_p0_window_size,
        bool(llc._fast_mix),
        llc._mix_shifts,
        llc._mix_mask,
        bool(llc._global_tag_eviction),
    )

    def build() -> str:
        if llc._fast_mix:
            fold = " ^ ".join(["x"] + [f"(x >> {s})" for s in llc._mix_shifts])
            miss_indices = _MAYA_MIX_INLINE.format(FOLD=fold, MIX_MASK=llc._mix_mask)
        else:
            miss_indices = _MAYA_RAW_INDICES
        subst = dict(
            VERSION=CODEGEN_VERSION,
            WAYS=ways,
            SETS=sets,
            MEMO_CAP=rand._memo_capacity,
            P0_CAP=llc._p0_capacity,
            WINDOW_SIZE=llc._evicted_p0_window_size,
            FAST_MIX=bool(llc._fast_mix),
            GLOBAL_TAG_EVICTION=bool(llc._global_tag_eviction),
        )
        tag_eviction = (
            _MAYA_TAG_EVICTION.format(**subst) if llc._global_tag_eviction else ""
        )
        return _MAYA_TEMPLATE.format(
            MISS_INDICES=miss_indices.rstrip("\n"),
            TAG_EVICTION=tag_eviction.rstrip("\n") or "        pass",
            **subst,
        )

    code = _compiled_template("maya", fingerprint, build)
    return _bind_template(code, llc), None


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
# Generated by repro.engine.specialize (v{VERSION}); do not edit.
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
            VERSION=CODEGEN_VERSION,
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

    code = _compiled_template("mirage", fingerprint, build)
    return _bind_template(code, llc), None


# ---------------------------------------------------------------------------
# Dispatch + run-level application.
# ---------------------------------------------------------------------------

def specialize_llc(llc, spec: Specialization) -> Optional[str]:
    """Install a specialized step on ``llc`` if a template covers it.

    Returns ``None`` on success or a human-readable fallback reason.
    Wrapper designs (baseline, CEASER) specialize their inner packed
    array.  The skewed and fully-associative designs are packed too but
    have no template: they keep their generic ``access_fast`` step and
    get a reason back.  Callers: :func:`apply_specialization` (one
    ``run_mix``) and :func:`repro.security.campaign.run_shard` (every
    design one campaign cell builds); each releases ``spec`` when done.
    """
    from ..cache.set_assoc import SetAssociativeCache
    from ..core.maya_cache import MayaCache
    from ..llc.baseline import BaselineLLC
    from ..llc.ceaser import CeaserCache
    from ..llc.mirage import MirageCache

    if isinstance(llc, MayaCache):
        step, reason = specialized_maya_step(llc)
        if step is None:
            return reason
        spec._install(llc, "access_fast", step)
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
