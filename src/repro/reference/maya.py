"""Object-model reference of the Maya cache (pre-SoA, kept verbatim).

Behavioural oracle for ``repro.core.maya_cache.MayaCache``: identical
RNG draw order and bit-identical statistics are contractual
(differential test layer).  Slow by design - never use it in
experiments.

Original module docstring follows.

The Maya cache: reuse-filtered, effectively fully-associative LLC.

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
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from ..common.config import MayaConfig
from ..common.errors import SetAssociativeEviction, SimulationError
from ..common.rng import derive_seed, make_rng
from ..cache.line import AccessResult, EvictedLine
from ..cache.stats import CacheStats
from .data_store import DataStore
from .tag_store import NO_DATA, SkewedTagStore, TagState

#: Extra LLC lookup cycles: 3 for the PRINCE cipher + 1 for indirection.
SECURE_LOOKUP_EXTRA_CYCLES = 4


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
        self.data = DataStore(self.config.data_entries, seed=derive_seed(self.config.rng_seed, 3))
        self._rng = make_rng(derive_seed(self.config.rng_seed, 4))
        self.stats = CacheStats()
        #: Mapping-cache counter snapshot taken at the last stats reset,
        #: so ``stats.randomizer_*`` report the measured window only.
        self._mapping_cache_base = (0, 0)
        self.installs = 0
        #: Recently tag-evicted priority-0 lines, for the premature-
        #: eviction measurement (Section V-B): line -> True.
        self._evicted_p0_window: "OrderedDict[tuple, bool]" = OrderedDict()
        self._evicted_p0_window_size = 4096
        self.premature_p0_evictions = 0

    # -- public API --------------------------------------------------------

    def access(
        self,
        line_addr: int,
        is_write: bool = False,
        core_id: int = 0,
        is_writeback: bool = False,
        sdid: int = 0,
    ) -> AccessResult:
        """One LLC access; returns hit/miss plus any writeback produced."""
        tag_idx = self.tags.lookup(line_addr, sdid)
        if tag_idx is not None:
            entry = self.tags.entry(tag_idx)
            if entry.state is TagState.PRIORITY_1:
                if not is_writeback:
                    entry.reused = True
                if is_write or is_writeback:
                    entry.dirty = True
                self.stats.record_access(True, is_writeback)
                return AccessResult(hit=True, extra_latency=self.extra_lookup_latency)
            # Priority-0 tag hit: promotion (data itself is a miss).
            self.stats.record_access(False, is_writeback)
            self.stats.tag_only_hits += 1
            evicted = self._promote(tag_idx, dirty=is_write or is_writeback, core_id=core_id)
            return AccessResult(
                hit=False, tag_hit=True, evicted=evicted, extra_latency=self.extra_lookup_latency
            )

        # Tag miss.
        self.stats.record_access(False, is_writeback)
        if is_write or is_writeback:
            evicted = self._install_priority1(line_addr, sdid, core_id)
        else:
            evicted = self._install_priority0(line_addr, sdid, core_id)
        return AccessResult(
            hit=False, evicted=evicted, sae=self._last_access_sae, extra_latency=self.extra_lookup_latency
        )

    def invalidate(self, line_addr: int, sdid: int = 0) -> Optional[EvictedLine]:
        """Flush one line (clflush semantics for this SDID's copy)."""
        tag_idx = self.tags.lookup(line_addr, sdid)
        if tag_idx is None:
            return None
        return self._drop_tag(tag_idx, filler_core=-1)

    def flush_all(self) -> int:
        """Invalidate every valid tag (and its data); returns count."""
        dropped = 0
        for tag_idx, _ in list(self.tags.iter_valid()):
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

    def contains(self, line_addr: int, sdid: int = 0) -> bool:
        """Is the line resident *with data* (priority-1)?"""
        tag_idx = self.tags.lookup(line_addr, sdid)
        return tag_idx is not None and self.tags.entry(tag_idx).state is TagState.PRIORITY_1

    def contains_tag(self, line_addr: int, sdid: int = 0) -> bool:
        """Is the line's tag resident at either priority?"""
        return self.tags.lookup(line_addr, sdid) is not None

    # -- internal operations ---------------------------------------------------

    _last_access_sae = False

    def _promote(self, tag_idx: int, dirty: bool, core_id: int) -> Optional[EvictedLine]:
        """Upgrade a priority-0 tag; may trigger global random data eviction."""
        self._last_access_sae = False
        evicted = None
        if self.data.full:
            evicted = self._global_random_data_eviction(filler_core=core_id)
        fptr = self.data.allocate(tag_idx)
        self.tags.promote(tag_idx, fptr, dirty)
        entry = self.tags.entry(tag_idx)
        entry.core_id = core_id
        entry.reused = False
        return evicted

    def _global_random_data_eviction(self, filler_core: int) -> Optional[EvictedLine]:
        """Evict a uniformly random data entry, demoting its tag."""
        victim_data = self.data.random_victim()
        victim_tag_idx = self.data.entry(victim_data).rptr
        victim = self.tags.entry(victim_tag_idx)
        if victim.state is not TagState.PRIORITY_1:
            raise SimulationError("data entry points at a non-priority-1 tag")
        writeback = EvictedLine(
            line_addr=victim.line_addr,
            dirty=victim.dirty,
            core_id=victim.core_id,
            sdid=victim.sdid,
            was_reused=victim.reused,
        )
        self.stats.record_eviction(
            dirty=victim.dirty,
            was_reused=victim.reused,
            cross_core=victim.core_id >= 0 and filler_core >= 0 and victim.core_id != filler_core,
        )
        self.data.free(victim_data)
        self.tags.demote(victim_tag_idx)
        return writeback

    def _install_priority0(self, line_addr: int, sdid: int, core_id: int) -> Optional[EvictedLine]:
        """Demand tag miss: fill a tag-only entry (Fig. 5a events)."""
        self._last_access_sae = False
        self.installs += 1
        self._note_demand_miss(line_addr, sdid)
        writeback = None
        skew, set_idx = self._pick_skew(line_addr, sdid)
        slot = self.tags.find_invalid_way(skew, set_idx)
        if slot is None:
            writeback = self._handle_sae(skew, set_idx)
            slot = self.tags.find_invalid_way(skew, set_idx)
            if slot is None:
                raise SimulationError("no invalid way even after SAE handling")
        self.tags.install(slot, line_addr, sdid, core_id, priority1=False)
        if self._global_tag_eviction and self.tags.priority0_count > self.config.priority0_entries:
            self._global_random_tag_eviction(exclude=slot)
        return writeback

    def _install_priority1(self, line_addr: int, sdid: int, core_id: int) -> Optional[EvictedLine]:
        """Write/writeback tag miss: fill tag + data (Fig. 5c events)."""
        self._last_access_sae = False
        self.installs += 1
        writeback = None
        if self.data.full:
            writeback = self._global_random_data_eviction(filler_core=core_id)
        skew, set_idx = self._pick_skew(line_addr, sdid)
        slot = self.tags.find_invalid_way(skew, set_idx)
        if slot is None:
            sae_wb = self._handle_sae(skew, set_idx)
            writeback = writeback or sae_wb
            slot = self.tags.find_invalid_way(skew, set_idx)
            if slot is None:
                raise SimulationError("no invalid way even after SAE handling")
        fptr = self.data.allocate(slot)
        self.tags.install(slot, line_addr, sdid, core_id, priority1=True, dirty=True, fptr=fptr)
        if self._global_tag_eviction and self.tags.priority0_count > self.config.priority0_entries:
            self._global_random_tag_eviction(exclude=slot)
        return writeback

    def _pick_skew(self, line_addr: int, sdid: int):
        if self._skew_policy == "load_aware":
            return self.tags.pick_skew_load_aware(line_addr, sdid)
        return self.tags.pick_skew_random(line_addr, sdid)

    def _global_random_tag_eviction(self, exclude: int) -> None:
        """Invalidate a random priority-0 tag anywhere in the cache."""
        victim_idx = self.tags.random_priority0(exclude=exclude)
        if victim_idx is None:
            raise SimulationError("priority-0 pool over capacity but empty")
        victim = self.tags.entry(victim_idx)
        self._remember_evicted_p0(victim.line_addr, victim.sdid)
        self.tags.invalidate(victim_idx)
        self.stats.tag_evictions += 1

    def _handle_sae(self, skew: int, set_idx: int) -> Optional[EvictedLine]:
        """Both mapped sets full: a set-associative eviction happens."""
        self.stats.saes += 1
        if self._on_sae == "raise":
            raise SetAssociativeEviction(
                f"SAE in skew {skew}, set {set_idx}", installs=self.installs
            )
        if self._on_sae == "rekey":
            self.rekey()
            self._last_access_sae = True
            return None
        # Evict a random valid way from the conflicting set, preferring a
        # priority-0 victim (it frees a slot without touching the data store).
        self._last_access_sae = True
        base = self.tags.tag_index(skew, set_idx, 0)
        p0_ways = [
            base + way
            for way in range(self.config.ways_per_skew)
            if self.tags.entry(base + way).state is TagState.PRIORITY_0
        ]
        if p0_ways:
            victim_idx = p0_ways[self._rng.randrange(len(p0_ways))]
        else:
            victim_idx = base + self._rng.randrange(self.config.ways_per_skew)
        return self._drop_tag(victim_idx, filler_core=-1)

    def _drop_tag(self, tag_idx: int, filler_core: int) -> Optional[EvictedLine]:
        """Invalidate a tag at either priority, freeing data if present."""
        entry = self.tags.entry(tag_idx)
        writeback = None
        if entry.state is TagState.PRIORITY_1:
            writeback = EvictedLine(
                line_addr=entry.line_addr,
                dirty=entry.dirty,
                core_id=entry.core_id,
                sdid=entry.sdid,
                was_reused=entry.reused,
            )
            self.stats.record_eviction(
                dirty=entry.dirty,
                was_reused=entry.reused,
                cross_core=entry.core_id >= 0 and filler_core >= 0 and entry.core_id != filler_core,
            )
            self.data.free(entry.fptr)
        self.tags.invalidate(tag_idx)
        return writeback

    # -- premature priority-0 eviction tracking (Section V-B) ----------------

    def _remember_evicted_p0(self, line_addr: int, sdid: int) -> None:
        key = (line_addr, sdid)
        self._evicted_p0_window[key] = True
        if len(self._evicted_p0_window) > self._evicted_p0_window_size:
            self._evicted_p0_window.popitem(last=False)

    def _note_demand_miss(self, line_addr: int, sdid: int) -> None:
        if self._evicted_p0_window.pop((line_addr, sdid), None):
            self.premature_p0_evictions += 1

    # -- introspection ---------------------------------------------------------

    @property
    def occupancy(self) -> int:
        """Valid data entries (what an occupancy attacker observes)."""
        return self.data.used

    def occupancy_by_core(self) -> Dict[int, int]:
        """Priority-1 entry counts keyed by owning core."""
        counts: Dict[int, int] = {}
        for _, entry in self.tags.iter_valid():
            if entry.state is TagState.PRIORITY_1:
                counts[entry.core_id] = counts.get(entry.core_id, 0) + 1
        return counts

    def occupancy_by_domain(self) -> Dict[int, int]:
        """Priority-1 entry counts keyed by SDID."""
        counts: Dict[int, int] = {}
        for _, entry in self.tags.iter_valid():
            if entry.state is TagState.PRIORITY_1:
                counts[entry.sdid] = counts.get(entry.sdid, 0) + 1
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
