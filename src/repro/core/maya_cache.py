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

The per-access protocol lives in :mod:`repro.core.maya_step`, which
renders it per configuration over the tag store's packed columns.
:meth:`MayaCache.access_fast` binds that step on first use; it returns
an ``ACC_*`` flag int and publishes any writeback through the
``victim_*`` instance fields - no per-access allocation.  The public
:meth:`~repro.llc.interface.LLCache.access` wraps it in the historical
:class:`~repro.cache.line.AccessResult` API and rejects an SDID outside
``[0, config.max_domains)``.  This module keeps the rare and
whole-cache paths: SAE handling, the tag drop and flush, and the
priority-1 rule of the probe surface; the location-map key, the SDID
check, invalidation, the key refresh and the randomizer's counters come
from :class:`~repro.llc.interface.MappedLLCache`.  Behaviour -
including RNG draw order and every statistics counter - is
bit-identical to the object-model reference in ``repro.reference.maya``
(enforced by the differential tests).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from ..common.addr import SDID_SHIFT
from ..common.config import MayaConfig
from ..common.errors import SetAssociativeEviction, SimulationError
from ..common.rng import derive_seed, make_rng
from ..cache.line import ACC_SAE, drop_victim, first_access
from ..cache.stats import CacheStats
from ..llc.interface import MappedLLCache
from .data_store import DataStore
from .maya_step import maya_step
from .tag_store import NO_DATA, SkewedTagStore, TagState

#: Extra LLC lookup cycles: 3 for the PRINCE cipher + 1 for indirection.
SECURE_LOOKUP_EXTRA_CYCLES = 4

_P0 = TagState.PRIORITY_0.value
_P1 = TagState.PRIORITY_1.value


class MayaCache(MappedLLCache):
    """Functional model of the Maya LLC.

    Parameters
    ----------
    config:
        Geometry and provisioning (defaults are the paper's 12 MB design).
        Only the paper's two skews are supported; skew selection is
        always load-aware.
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
        on_sae: str = "count",
        global_tag_eviction: bool = True,
    ):
        """``global_tag_eviction=False`` disables the global random tag
        eviction policy - an ablation only: without it the priority-0
        population grows past its steady-state size, the invalid-tag
        reserve drains, and SAEs appear (see the ablation benchmark)."""
        self.config = config or MayaConfig()
        if self.config.skews != 2:
            raise ValueError(f"MayaCache models two skews, not {self.config.skews}")
        if on_sae not in ("count", "raise", "rekey"):
            raise ValueError(f"unknown SAE policy {on_sae!r}")
        self._on_sae = on_sae
        self._global_tag_eviction = global_tag_eviction
        # sdid_bits <= SDID_SHIFT, so an SDID that fits the domain count
        # also fits the packed key's lane.
        self.sdid_bits = self.config.sdid_bits
        self.tags = SkewedTagStore(self.config)
        self.index_randomizer = self.tags.randomizer
        #: The tag store's location map (packed key -> tag index).
        self._where = self.tags._where
        self.data = DataStore(self.config.data_entries, seed=derive_seed(self.config.rng_seed, 3))
        self._rng = make_rng(derive_seed(self.config.rng_seed, 4))
        self.stats = CacheStats()
        self.installs = 0
        #: Recently tag-evicted priority-0 lines, for the premature-
        #: eviction measurement (Section V-B): packed
        #: ``(line_addr << SDID_SHIFT) | sdid`` key -> True, FIFO-evicted
        #: by ``popitem(last=False)``.  An ``OrderedDict``, not a plain
        #: dict: every tag eviction past the cap drops the oldest entry,
        #: and a plain dict's ``next(iter(d))`` then scans the holes
        #: earlier front deletions left.  Cleared in place only - the
        #: step binds it once.
        self._evicted_p0_window: "OrderedDict[int, bool]" = OrderedDict()
        self._evicted_p0_window_size = 4096
        self.premature_p0_evictions = 0

    # -- public API --------------------------------------------------------

    #: One LLC access with no allocation; returns ``ACC_*`` flags and
    #: publishes a produced writeback in the ``victim_*`` fields until
    #: the next access.  Binds the generated step on first use.
    access_fast = first_access

    def fresh_steps(self):
        """Maya's one fresh generated step (:func:`~repro.core.maya_step.maya_step`)."""
        return [(self, maya_step(self))]

    def flush_all(self) -> int:
        """Invalidate every valid tag (and its data); returns count."""
        dropped = 0
        state = self.tags._state
        for tag_idx in range(len(state)):
            if state[tag_idx]:
                self._drop(tag_idx)
                dropped += 1
        return dropped

    def reset_stats(self) -> None:
        """Zero statistics after warm-up, including the premature
        priority-0 eviction tracking (counter and window)."""
        super().reset_stats()
        self.premature_p0_evictions = 0
        self._evicted_p0_window.clear()

    def contains(self, line_addr: int, sdid: int = 0) -> bool:
        """Is the line resident *with data* (priority-1)?"""
        tag_idx = self._where.get(self._key(line_addr, sdid))
        return tag_idx is not None and self.tags._state[tag_idx] == _P1

    def missing(self, lines, sdid: int = 0) -> list:
        """The lines of ``lines`` without data for ``sdid``, in order: a
        tag-only (priority-0) line is missing, as :meth:`contains` says."""
        lane = self._lane(sdid)
        where_get = self._where.get
        state = self.tags._state
        return [
            line for line in lines
            if (idx := where_get((line << SDID_SHIFT) | lane)) is None or state[idx] != _P1
        ]

    def contains_tag(self, line_addr: int, sdid: int = 0) -> bool:
        """Is the line's tag resident at either priority?"""
        return super().contains(line_addr, sdid)

    # -- internal operations ---------------------------------------------------

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
        return ACC_SAE | self._drop(victim_idx)

    def _drop(self, tag_idx: int) -> int:
        """Invalidate a tag at either priority, freeing data if present."""
        tags = self.tags
        flags = 0
        if tags._state[tag_idx] == _P1:
            flags = drop_victim(
                self, tags._addr[tag_idx], tags._core[tag_idx], tags._sdid[tag_idx],
                tags._dirty[tag_idx], tags._reused[tag_idx],
            )
            self.data.free(tags._fptr[tag_idx])
        tags.invalidate_fast(tag_idx)
        return flags

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
