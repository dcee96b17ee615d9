"""The Maya cache: reuse-filtered, effectively fully-associative LLC.

This module ties the skewed tag store and the decoupled data store
together with the paper's insertion and eviction policies (Section
III-B):

* **Demand tag miss** - install a *priority-0* (tag-only) entry into
  the mapped set with more invalid ways (load-aware skew selection);
  once the priority-0 pool is at its steady-state size, a random
  priority-0 entry anywhere in the cache is invalidated (*global random
  tag eviction*), keeping the invalid-tag reserve constant.
* **Tag hit on a priority-0 entry** - the line proved its reuse: it is
  *promoted* to priority-1 and a data entry is allocated; if the data
  store is full, a uniformly random data entry is evicted and its tag
  *demoted* to priority-0 (*global random data eviction*).
* **Write / writeback tag miss** - installed directly as priority-1
  (dirty), with the same two global evictions as needed.
* **Tag hit on a priority-1 entry** - a plain data hit.

A set-associative eviction (SAE) can only happen when *both* mapped
sets have no invalid way; the provisioning (6 invalid ways per skew)
makes this astronomically rare - Section IV quantifies it, and the
``on_sae`` policy here lets experiments count, raise on, or rekey
after one.

The hot path is :meth:`MayaCache.access_fast`, which works directly on
the tag store's packed columns, returns an ``ACC_*`` flag int, and
publishes any writeback through the ``victim_*`` instance fields - no
per-access allocation.  The public :meth:`MayaCache.access` wraps it in
the historical :class:`AccessResult` API.  Behaviour - including RNG
draw order and every statistics counter - is bit-identical to the
object-model reference in ``repro.reference.maya`` (enforced by the
differential tests).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..common.config import MayaConfig
from ..common.errors import SetAssociativeEviction, SimulationError
from ..common.rng import derive_seed, make_rng
from ..cache.line import (
    ACC_EVICTED,
    ACC_EVICTED_DIRTY,
    ACC_HIT,
    ACC_SAE,
    ACC_TAG_HIT,
    AccessResult,
    EvictedLine,
    access_result,
    victim_line,
)
from ..cache.stats import CacheStats
from .data_store import DataStore
from .tag_store import NO_DATA, SkewedTagStore, TagState

#: Extra LLC lookup cycles: 3 for the PRINCE cipher + 1 for indirection.
SECURE_LOOKUP_EXTRA_CYCLES = 4

_P0 = TagState.PRIORITY_0.value
_P1 = TagState.PRIORITY_1.value


class MayaCache:
    """Functional model of the Maya LLC.

    Parameters
    ----------
    config:
        Geometry and provisioning (defaults are the paper's 12 MB design).
    skew_policy:
        ``"load_aware"`` (the paper's policy) or ``"random"`` (the
        insecure alternative, kept for the ablation benchmark).
    on_sae:
        What to do when a set-associative eviction occurs:
        ``"count"`` (evict and keep a counter), ``"raise"``
        (raise :class:`SetAssociativeEviction`), or ``"rekey"``
        (count, flush the cache, and refresh the mapping keys - the
        paper's key-management response).
    """

    extra_lookup_latency = SECURE_LOOKUP_EXTRA_CYCLES

    def __init__(
        self,
        config: Optional[MayaConfig] = None,
        skew_policy: str = "load_aware",
        on_sae: str = "count",
        global_tag_eviction: bool = True,
    ):
        """``global_tag_eviction=False`` disables the global random tag
        eviction policy - an ablation only: without it the priority-0
        population grows past its steady-state size, the invalid-tag
        reserve drains, and SAEs appear (see the ablation benchmark)."""
        self.config = config or MayaConfig()
        if skew_policy not in ("load_aware", "random"):
            raise ValueError(f"unknown skew policy {skew_policy!r}")
        if on_sae not in ("count", "raise", "rekey"):
            raise ValueError(f"unknown SAE policy {on_sae!r}")
        self._skew_policy = skew_policy
        self._on_sae = on_sae
        self._global_tag_eviction = global_tag_eviction
        self.tags = SkewedTagStore(self.config)
        # Resolve the skew-selection dispatch once (hot path), and bind
        # the location-map probe (the tag store never replaces the dict).
        self._pick_skew = (
            self.tags.pick_skew_load_aware
            if skew_policy == "load_aware"
            else self.tags.pick_skew_random
        )
        # The dominant install path inlines the two-skew load-aware
        # pick; anything else dispatches through _pick_skew.
        self._fast_pick = skew_policy == "load_aware" and self.tags._skews == 2
        rand = self.tags.randomizer
        bits = rand._index_bits
        # ... and, for the splitmix hash, the mixer itself (keys are
        # re-read per miss because rekey() replaces them).  The XOR
        # fold over 64/bits chunks is precomputed as shift offsets:
        # masking distributes over XOR, so the chunk fold equals
        # ``(x ^ x>>bits ^ x>>2*bits ^ ...) & mask`` for any width.
        self._fast_mix = self._fast_pick and rand._algorithm == "splitmix"
        self._mix_shifts = tuple(range(bits, 64, bits))
        self._mix_mask = (1 << bits) - 1
        self._tag_where_get = self.tags._where.get
        self.data = DataStore(self.config.data_entries, seed=derive_seed(self.config.rng_seed, 3))
        self._rng = make_rng(derive_seed(self.config.rng_seed, 4))
        self.stats = CacheStats()
        self._p0_capacity = self.config.priority0_entries
        #: Mapping-cache counter snapshot taken at the last stats reset,
        #: so ``stats.randomizer_*`` report the measured window only.
        self._mapping_cache_base = (0, 0)
        self.installs = 0
        #: Recently tag-evicted priority-0 lines, for the premature-
        #: eviction measurement (Section V-B): line -> True.  A plain
        #: dict is insertion-ordered, so FIFO eviction is
        #: ``del window[next(iter(window))]``.
        self._evicted_p0_window: Dict[tuple, bool] = {}
        self._evicted_p0_window_size = 4096
        self.premature_p0_evictions = 0
        # Victim fields of the access_fast protocol (valid until the
        # next access after a result with ACC_EVICTED set).
        self.victim_addr = 0
        self.victim_core = -1
        self.victim_sdid = 0
        self.victim_reused = False

    # -- public API --------------------------------------------------------

    def access_fast(
        self,
        line_addr: int,
        is_write: bool = False,
        core_id: int = 0,
        is_writeback: bool = False,
        sdid: int = 0,
    ) -> int:
        """One LLC access with no allocation; returns ``ACC_*`` flags.

        When ``ACC_EVICTED`` is set, the produced writeback is published
        in the ``victim_*`` fields until the next access.  The secure
        lookup adds the constant :data:`SECURE_LOOKUP_EXTRA_CYCLES` on
        every access (the hierarchy accounts for it).
        """
        tags = self.tags
        tag_idx = self._tag_where_get((line_addr << 16) | sdid)
        st = self.stats
        st.accesses += 1
        if tag_idx is not None:
            if tags._state[tag_idx] == _P1:
                st.hits += 1
                if is_writeback:
                    st.writebacks_received += 1
                    tags._dirty[tag_idx] = 1
                else:
                    st.demand_accesses += 1
                    st.demand_hits += 1
                    tags._reused[tag_idx] = 1
                    if is_write:
                        tags._dirty[tag_idx] = 1
                return ACC_HIT
            # Priority-0 tag hit: promotion (data itself is a miss).
            st.misses += 1
            if is_writeback:
                st.writebacks_received += 1
            else:
                st.demand_accesses += 1
                pcm = st.per_core_misses
                pcm[core_id] = pcm.get(core_id, 0) + 1
            st.tag_only_hits += 1
            return ACC_TAG_HIT | self._promote(tag_idx, is_write or is_writeback, core_id)

        # Tag miss.
        st.misses += 1
        if is_writeback:
            st.writebacks_received += 1
        else:
            st.demand_accesses += 1
            pcm = st.per_core_misses
            pcm[core_id] = pcm.get(core_id, 0) + 1
        if is_write or is_writeback:
            return self._install_priority1(line_addr, sdid, core_id)
        return self._install_priority0(line_addr, sdid, core_id)

    def access(
        self,
        line_addr: int,
        is_write: bool = False,
        core_id: int = 0,
        is_writeback: bool = False,
        sdid: int = 0,
    ) -> AccessResult:
        """One LLC access; returns hit/miss plus any writeback produced.

        Boundary wrapper over :meth:`access_fast` returning the
        historical :class:`AccessResult` dataclass.
        """
        flags = self.access_fast(line_addr, is_write, core_id, is_writeback, sdid)
        return access_result(self, flags, self.extra_lookup_latency)

    def invalidate(self, line_addr: int, sdid: int = 0) -> Optional[EvictedLine]:
        """Flush one line (clflush semantics for this SDID's copy)."""
        tag_idx = self.tags.lookup(line_addr, sdid)
        if tag_idx is None:
            return None
        flags = self._drop_tag(tag_idx, filler_core=-1)
        if flags & ACC_EVICTED:
            return victim_line(self, flags)
        return None

    def flush_all(self) -> int:
        """Invalidate every valid tag (and its data); returns count."""
        dropped = 0
        state = self.tags._state
        for tag_idx in range(len(state)):
            if state[tag_idx]:
                self._drop_tag(tag_idx, filler_core=-1)
                dropped += 1
        return dropped

    def reset_stats(self) -> None:
        """Zero statistics after warm-up, including the premature
        priority-0 eviction tracking (counter and window)."""
        self.stats.reset()
        self.premature_p0_evictions = 0
        self._evicted_p0_window.clear()
        info = self.tags.randomizer.cache_info()
        self._mapping_cache_base = (info.hits, info.misses)

    def refresh_mapping_cache_stats(self):
        """Pull the randomizer's mapping-cache counters into ``stats``.

        Returns the raw :class:`~repro.crypto.randomizer.MappingCacheInfo`;
        ``stats.randomizer_hits`` / ``stats.randomizer_misses`` are set to
        the deltas since the last :meth:`reset_stats`.
        """
        info = self.tags.randomizer.cache_info()
        self.stats.randomizer_hits = info.hits - self._mapping_cache_base[0]
        self.stats.randomizer_misses = info.misses - self._mapping_cache_base[1]
        return info

    def rekey(self) -> None:
        """Refresh the randomizing keys and flush (paper key management)."""
        self.flush_all()
        self.tags.randomizer.rekey()

    @property
    def index_randomizer(self):
        """The :class:`~repro.crypto.randomizer.IndexRandomizer` in use.

        Uniform accessor across randomized designs; the drive loop uses
        it to decide on (and feed) ahead-of-time index translation.
        """
        return self.tags.randomizer

    @property
    def mapping_cache_capacity(self) -> int:
        """LRU mapping-cache capacity of the index randomizer."""
        return self.tags.randomizer.memo_capacity

    def contains(self, line_addr: int, sdid: int = 0) -> bool:
        """Is the line resident *with data* (priority-1)?"""
        tag_idx = self.tags.lookup(line_addr, sdid)
        return tag_idx is not None and self.tags._state[tag_idx] == _P1

    def contains_tag(self, line_addr: int, sdid: int = 0) -> bool:
        """Is the line's tag resident at either priority?"""
        return self.tags.lookup(line_addr, sdid) is not None

    # -- internal operations ---------------------------------------------------

    def _promote(self, tag_idx: int, dirty: bool, core_id: int) -> int:
        """Upgrade a priority-0 tag; may trigger global random data eviction."""
        flags = 0
        if self.data.full:
            flags = self._global_random_data_eviction(filler_core=core_id)
        fptr = self.data.allocate(tag_idx)
        tags = self.tags
        tags.promote(tag_idx, fptr, dirty)
        tags._core[tag_idx] = core_id
        tags._reused[tag_idx] = 0
        self.stats.data_fills += 1
        return flags

    def _global_random_data_eviction(self, filler_core: int) -> int:
        """Evict a uniformly random data entry, demoting its tag."""
        victim_data = self.data.random_victim()
        victim_tag_idx = self.data.rptr_of(victim_data)
        tags = self.tags
        if tags._state[victim_tag_idx] != _P1:
            raise SimulationError("data entry points at a non-priority-1 tag")
        dirty = tags._dirty[victim_tag_idx]
        reused = tags._reused[victim_tag_idx]
        core = tags._core[victim_tag_idx]
        self.victim_addr = tags._addr[victim_tag_idx]
        self.victim_core = core
        self.victim_sdid = tags._sdid[victim_tag_idx]
        self.victim_reused = bool(reused)
        st = self.stats
        st.evictions += 1
        if dirty:
            st.dirty_evictions += 1
        if not reused:
            st.dead_evictions += 1
        if core >= 0 and core != filler_core:
            st.interference_evictions += 1
        self.data.free(victim_data)
        tags.demote(victim_tag_idx)
        return ACC_EVICTED | ACC_EVICTED_DIRTY if dirty else ACC_EVICTED

    def _install_priority0(self, line_addr: int, sdid: int, core_id: int) -> int:
        """Demand tag miss: fill a tag-only entry (Fig. 5a events).

        This is the dominant miss path, so the tag-store operations
        (install, random priority-0 pick, invalidate) are inlined here;
        each is behaviourally identical to the ``SkewedTagStore`` method
        of the same name (the differential tests enforce it).
        """
        self.installs += 1
        window = self._evicted_p0_window
        if window.pop((line_addr, sdid), None):
            self.premature_p0_evictions += 1
        flags = 0
        tags = self.tags
        ways = tags._ways
        state = tags._state
        if self._fast_pick:
            # pick_skew_load_aware inlined for two skews (the hottest
            # call on the install path): same memo LRU discipline,
            # counter updates, and tie-break draw.
            rand = tags.randomizer
            memo = rand._memo
            mkey = (line_addr, sdid)
            indices = memo.pop(mkey, None)
            if indices is None:
                rand.cache_misses += 1
                # Same miss discipline as IndexRandomizer._lookup: a
                # bulk_map / load_packed pretranslation satisfies the
                # miss before any cipher work.
                indices = rand._precomputed.get(mkey)
                if indices is None and self._fast_mix:
                    # IndexRandomizer._raw_indices (splitmix, two
                    # skews) inlined - the cipher pass per install
                    # miss.  Identical mixing; the precomputed-shift
                    # XOR fold equals the chunk fold for any width.
                    k0, k1 = rand._mix_keys
                    shifts = self._mix_shifts
                    m = self._mix_mask
                    tweaked = line_addr ^ (sdid << 56)
                    x = (tweaked ^ k0) & 0xFFFFFFFFFFFFFFFF
                    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
                    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
                    x ^= x >> 31
                    f0 = x
                    for s in shifts:
                        f0 ^= x >> s
                    x = (tweaked ^ k1) & 0xFFFFFFFFFFFFFFFF
                    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
                    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
                    x ^= x >> 31
                    f1 = x
                    for s in shifts:
                        f1 ^= x >> s
                    indices = (f0 & m, f1 & m)
                elif indices is None:
                    indices = rand._raw_indices(line_addr, sdid)
                if len(memo) >= rand._memo_capacity:
                    del memo[next(iter(memo))]
            else:
                rand.cache_hits += 1
            memo[mkey] = indices
            vc = tags._valid_count
            i0 = indices[0]
            i1 = indices[1]
            l0 = vc[i0]
            l1 = vc[tags._sets + i1]
            if l0 < l1:
                skew, set_idx = 0, i0
            elif l1 < l0:
                skew, set_idx = 1, i1
            elif tags._randbelow(2):
                skew, set_idx = 1, i1
            else:
                skew, set_idx = 0, i0
        else:
            skew, set_idx = self._pick_skew(line_addr, sdid)
        base = (skew * tags._sets + set_idx) * ways
        slot = state.find(0, base, base + ways)
        if slot < 0:
            flags = self._handle_sae(skew, set_idx)
            slot = state.find(0, base, base + ways)
            if slot < 0:
                raise SimulationError("no invalid way even after SAE handling")
        # install(slot, ..., priority1=False), inlined.
        tags._addr[slot] = line_addr
        tags._sdid[slot] = sdid
        tags._core[slot] = core_id
        tags._dirty[slot] = 0
        tags._reused[slot] = 0
        state[slot] = _P0
        tags._fptr[slot] = NO_DATA
        pool = tags._p0_pool
        pos_map = tags._p0_pos
        pos_map[slot] = n = len(pool)
        pool.append(slot)
        tags._valid_count[slot // ways] += 1
        tags._where[(line_addr << 16) | sdid] = slot
        self.stats.fills += 1
        n += 1
        if self._global_tag_eviction and n > self._p0_capacity:
            # Global random tag eviction, inlined: random_priority0
            # (excluding the fresh install) + invalidate_fast.
            if n == 1:
                raise SimulationError("priority-0 pool over capacity but empty")
            i = tags._randbelow(n)
            victim = pool[i]
            if victim == slot:
                victim = pool[(i + 1) % n]
            victim_addr = tags._addr[victim]
            victim_sdid = tags._sdid[victim]
            window[(victim_addr, victim_sdid)] = True
            if len(window) > self._evicted_p0_window_size:
                del window[next(iter(window))]
            pos = pos_map[victim]
            last = pool.pop()
            if last != victim:
                pool[pos] = last
                pos_map[last] = pos
            tags._valid_count[victim // ways] -= 1
            del tags._where[(victim_addr << 16) | victim_sdid]
            state[victim] = 0
            self.stats.tag_evictions += 1
        return flags

    def _install_priority1(self, line_addr: int, sdid: int, core_id: int) -> int:
        """Write/writeback tag miss: fill tag + data (Fig. 5c events)."""
        self.installs += 1
        flags = 0
        if self.data.full:
            flags = self._global_random_data_eviction(filler_core=core_id)
        tags = self.tags
        skew, set_idx = self._pick_skew(line_addr, sdid)
        base = (skew * tags._sets + set_idx) * tags._ways
        slot = tags._state.find(0, base, base + tags._ways)
        if slot < 0:
            if flags & ACC_EVICTED:
                # The data-eviction writeback wins over the SAE's: keep
                # its victim fields, take only the SAE marker.
                va = self.victim_addr
                vc = self.victim_core
                vs = self.victim_sdid
                vr = self.victim_reused
                flags |= self._handle_sae(skew, set_idx) & ACC_SAE
                self.victim_addr = va
                self.victim_core = vc
                self.victim_sdid = vs
                self.victim_reused = vr
            else:
                flags = self._handle_sae(skew, set_idx)
            slot = tags._state.find(0, base, base + tags._ways)
            if slot < 0:
                raise SimulationError("no invalid way even after SAE handling")
        fptr = self.data.allocate(slot)
        tags.install(slot, line_addr, sdid, core_id, priority1=True, dirty=True, fptr=fptr)
        self.stats.fills += 1
        self.stats.data_fills += 1
        if self._global_tag_eviction and tags.priority0_count > self.config.priority0_entries:
            self._global_random_tag_eviction(exclude=slot)
        return flags

    def _global_random_tag_eviction(self, exclude: int) -> None:
        """Invalidate a random priority-0 tag anywhere in the cache."""
        victim_idx = self.tags.random_priority0(exclude=exclude)
        if victim_idx is None:
            raise SimulationError("priority-0 pool over capacity but empty")
        tags = self.tags
        self._remember_evicted_p0(tags._addr[victim_idx], tags._sdid[victim_idx])
        tags.invalidate_fast(victim_idx)
        self.stats.tag_evictions += 1

    def _handle_sae(self, skew: int, set_idx: int) -> int:
        """Both mapped sets full: a set-associative eviction happens."""
        self.stats.saes += 1
        if self._on_sae == "raise":
            raise SetAssociativeEviction(
                f"SAE in skew {skew}, set {set_idx}", installs=self.installs
            )
        if self._on_sae == "rekey":
            self.rekey()
            return ACC_SAE
        # Evict a random valid way from the conflicting set, preferring a
        # priority-0 victim (it frees a slot without touching the data store).
        tags = self.tags
        base = tags.tag_index(skew, set_idx, 0)
        state = tags._state
        ways = self.config.ways_per_skew
        p0_ways = [base + way for way in range(ways) if state[base + way] == _P0]
        if p0_ways:
            victim_idx = p0_ways[self._rng.randrange(len(p0_ways))]
        else:
            victim_idx = base + self._rng.randrange(ways)
        return ACC_SAE | self._drop_tag(victim_idx, filler_core=-1)

    def _drop_tag(self, tag_idx: int, filler_core: int) -> int:
        """Invalidate a tag at either priority, freeing data if present."""
        tags = self.tags
        flags = 0
        if tags._state[tag_idx] == _P1:
            dirty = tags._dirty[tag_idx]
            reused = tags._reused[tag_idx]
            core = tags._core[tag_idx]
            self.victim_addr = tags._addr[tag_idx]
            self.victim_core = core
            self.victim_sdid = tags._sdid[tag_idx]
            self.victim_reused = bool(reused)
            st = self.stats
            st.evictions += 1
            if dirty:
                st.dirty_evictions += 1
            if not reused:
                st.dead_evictions += 1
            if core >= 0 and filler_core >= 0 and core != filler_core:
                st.interference_evictions += 1
            self.data.free(tags._fptr[tag_idx])
            flags = ACC_EVICTED | ACC_EVICTED_DIRTY if dirty else ACC_EVICTED
        tags.invalidate_fast(tag_idx)
        return flags

    # -- premature priority-0 eviction tracking (Section V-B) ----------------

    def _remember_evicted_p0(self, line_addr: int, sdid: int) -> None:
        window = self._evicted_p0_window
        window[(line_addr, sdid)] = True
        if len(window) > self._evicted_p0_window_size:
            del window[next(iter(window))]

    # -- introspection ---------------------------------------------------------

    @property
    def occupancy(self) -> int:
        """Valid data entries (what an occupancy attacker observes)."""
        return self.data.used

    def occupancy_by_core(self) -> Dict[int, int]:
        """Priority-1 entry counts keyed by owning core."""
        counts: Dict[int, int] = {}
        tags = self.tags
        state = tags._state
        core = tags._core
        for idx in range(len(state)):
            if state[idx] == _P1:
                counts[core[idx]] = counts.get(core[idx], 0) + 1
        return counts

    def occupancy_by_domain(self) -> Dict[int, int]:
        """Priority-1 entry counts keyed by SDID."""
        counts: Dict[int, int] = {}
        tags = self.tags
        state = tags._state
        sdid = tags._sdid
        for idx in range(len(state)):
            if state[idx] == _P1:
                counts[sdid[idx]] = counts.get(sdid[idx], 0) + 1
        return counts

    def check_invariants(self) -> None:
        """Full cross-structure invariant check (tests/integration)."""
        self.tags.check_invariants()
        expected = {}
        for tag_idx, entry in self.tags.iter_valid():
            if entry.state is TagState.PRIORITY_1:
                if entry.fptr == NO_DATA:
                    raise SimulationError("priority-1 tag without data pointer")
                expected[entry.fptr] = tag_idx
        self.data.check_invariants(expected)
        if self.tags.priority1_count != self.data.used:
            raise SimulationError("priority-1 count != data entries in use")
        if self._global_tag_eviction and self.tags.priority0_count > self.config.priority0_entries:
            raise SimulationError("priority-0 pool exceeded its steady-state size")
        if self.data.used > self.config.data_entries:
            raise SimulationError("data store above capacity")
