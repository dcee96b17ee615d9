"""Mirage: the fully-associative-illusion LLC Maya improves upon.

Mirage (Saileshwar & Qureshi, USENIX Security'21) decouples tag and
data stores, over-provisions *invalid* tags in a two-skew tag array
(load-aware skew selection keeps them balanced), and on every fill
evicts a uniformly random line from the *entire* data store (global
random eviction).  The result: fills never cause set-associative
evictions in practice, so evictions leak no address information.

Differences from Maya (and why Maya saves storage): Mirage installs
data for *every* fill, so its data store matches the baseline's 16 MB
and the extra tags are pure overhead (+20% storage); Maya's reuse
filtering lets it shrink the data store below the baseline instead.

The tag array is stored as packed columns (validity, address, SDID,
core, FPTR, dirty/reused bits) and the hot path is
:meth:`MirageCache.access_fast` (``ACC_*`` flag protocol, victim
published via the ``victim_*`` fields).  Behaviour is bit-identical to
the object-model reference in ``repro.reference.mirage``.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..cache.line import (
    ACC_EVICTED,
    ACC_EVICTED_DIRTY,
    ACC_HIT,
    ACC_SAE,
    AccessResult,
    EvictedLine,
    access_result,
    victim_line,
)
from ..cache.stats import CacheStats
from ..common.config import MirageConfig
from ..common.errors import SetAssociativeEviction, SimulationError
from ..common.rng import derive_seed, make_rng
from ..core.data_store import DataStore
from ..crypto.randomizer import DEFAULT_MEMO_CAPACITY, IndexRandomizer
from .interface import LLCache


class MirageCache(LLCache):
    """Functional Mirage model (v2 'MIRAGE' with global evictions)."""

    extra_lookup_latency = 4

    def __init__(
        self,
        config: Optional[MirageConfig] = None,
        skew_policy: str = "load_aware",
        on_sae: str = "count",
    ):
        self.config = config or MirageConfig()
        if skew_policy not in ("load_aware", "random"):
            raise ValueError(f"unknown skew policy {skew_policy!r}")
        if on_sae not in ("count", "raise"):
            raise ValueError(f"unknown SAE policy {on_sae!r}")
        self._skew_policy = skew_policy
        self._on_sae = on_sae
        cfg = self.config
        self._ways = cfg.ways_per_skew
        self._sets = cfg.sets_per_skew
        self._skews = cfg.skews
        self.randomizer = IndexRandomizer(
            cfg.skews,
            cfg.sets_per_skew,
            seed=derive_seed(cfg.rng_seed, 31),
            algorithm=cfg.hash_algorithm,
            memo_capacity=(
                cfg.memo_capacity if cfg.memo_capacity is not None else DEFAULT_MEMO_CAPACITY
            ),
        )
        self._rng = make_rng(derive_seed(cfg.rng_seed, 32))
        # Memoized per-skew index lookup, bound once (rekey clears the
        # randomizer's memo in place, so the binding stays valid).
        self._indices_of = self.randomizer._lookup
        total = cfg.tag_entries
        # A tag entry is valid iff its FPTR >= 0; the separate validity
        # byte column exists so find-invalid-way is a C-speed .find().
        self._valid = bytearray(total)
        # Integer columns are plain lists: stores keep a reference to
        # the caller's int and reads skip the array-type box/unbox on
        # the install/evict hot path.
        self._addr = [0] * total
        self._sdid = [0] * total
        self._core = [-1] * total
        self._dirty = bytearray(total)
        self._reused = bytearray(total)
        self._fptr = [-1] * total
        # Flat list indexed ``skew * sets + set_idx`` (== tag_idx // ways).
        self._valid_count = [0] * (self._skews * self._sets)
        #: packed (line_addr << 16 | sdid) -> tag index.
        self._where: Dict[int, int] = {}
        self.data = DataStore(cfg.data_entries, seed=derive_seed(cfg.rng_seed, 33))
        self.stats = CacheStats()
        self.installs = 0
        # Victim fields of the access_fast protocol (valid until the
        # next access after a result with ACC_EVICTED set).
        self.victim_addr = 0
        self.victim_core = -1
        self.victim_sdid = 0
        self.victim_reused = False

    # -- index helpers -------------------------------------------------------

    def _tag_index(self, skew: int, set_idx: int, way: int) -> int:
        return (skew * self._sets + set_idx) * self._ways + way

    def _locate(self, tag_idx: int):
        set_way, way = divmod(tag_idx, self._ways)
        skew, set_idx = divmod(set_way, self._sets)
        return skew, set_idx, way

    # -- access path ---------------------------------------------------------

    def access_fast(
        self,
        line_addr: int,
        is_write: bool = False,
        core_id: int = 0,
        is_writeback: bool = False,
        sdid: int = 0,
    ) -> int:
        """One access with no allocation; returns ``ACC_*`` flags."""
        tag_idx = self._where.get((line_addr << 16) | sdid)
        st = self.stats
        st.accesses += 1
        if tag_idx is not None:
            st.hits += 1
            if is_writeback:
                st.writebacks_received += 1
                self._dirty[tag_idx] = 1
            else:
                st.demand_accesses += 1
                st.demand_hits += 1
                self._reused[tag_idx] = 1
                if is_write:
                    self._dirty[tag_idx] = 1
            return ACC_HIT
        st.misses += 1
        if is_writeback:
            st.writebacks_received += 1
        else:
            st.demand_accesses += 1
            pcm = st.per_core_misses
            pcm[core_id] = pcm.get(core_id, 0) + 1

        flags = 0
        self.installs += 1
        # Global random eviction first, so a data entry and the victim's
        # tag slot are free before the new install.
        if self.data.full:
            flags = self._global_random_eviction(filler_core=core_id)
        skew, set_idx = self._pick_skew(line_addr, sdid)
        base = (skew * self._sets + set_idx) * self._ways
        slot = self._valid.find(0, base, base + self._ways)
        if slot < 0:
            st.saes += 1
            if self._on_sae == "raise":
                raise SetAssociativeEviction(
                    f"SAE in skew {skew}, set {set_idx}", installs=self.installs
                )
            victim_way = self._rng.randrange(self._ways)
            # The SAE victim's writeback supersedes the data eviction's
            # (v1 semantics kept by the reference model).
            flags = ACC_SAE | self._drop_tag(base + victim_way, filler_core=core_id)
            slot = self._valid.find(0, base, base + self._ways)
        self._install(slot, line_addr, sdid, core_id, dirty=is_write or is_writeback)
        return flags

    def access(
        self,
        line_addr: int,
        is_write: bool = False,
        core_id: int = 0,
        is_writeback: bool = False,
        sdid: int = 0,
    ) -> AccessResult:
        flags = self.access_fast(line_addr, is_write, core_id, is_writeback, sdid)
        return access_result(self, flags, self.extra_lookup_latency)

    def _pick_skew(self, line_addr: int, sdid: int):
        indices = self._indices_of(line_addr, sdid)
        if self._skew_policy == "random":
            skew = self._rng.randrange(self._skews)
            return skew, indices[skew]
        vc = self._valid_count
        if self._skews == 2:
            i0 = indices[0]
            i1 = indices[1]
            l0 = vc[i0]
            l1 = vc[self._sets + i1]
            if l0 < l1:
                return 0, i0
            if l1 < l0:
                return 1, i1
            skew = self._rng.randrange(2)
            return (1, i1) if skew else (0, i0)
        loads = [vc[s * self._sets + indices[s]] for s in range(self._skews)]
        best = min(loads)
        candidates = [s for s, load in enumerate(loads) if load == best]
        skew = candidates[self._rng.randrange(len(candidates))] if len(candidates) > 1 else candidates[0]
        return skew, indices[skew]

    def _install(self, tag_idx: int, line_addr: int, sdid: int, core_id: int, dirty: bool) -> None:
        if self._valid[tag_idx]:
            raise SimulationError("installing over a valid Mirage tag")
        self._valid[tag_idx] = 1
        self._addr[tag_idx] = line_addr
        self._sdid[tag_idx] = sdid
        self._core[tag_idx] = core_id
        self._dirty[tag_idx] = 1 if dirty else 0
        self._reused[tag_idx] = 0
        self._fptr[tag_idx] = self.data.allocate(tag_idx)
        self._valid_count[tag_idx // self._ways] += 1
        self._where[(line_addr << 16) | sdid] = tag_idx
        self.stats.fills += 1
        self.stats.data_fills += 1

    def _global_random_eviction(self, filler_core: int) -> int:
        victim_data = self.data.random_victim()
        return self._drop_tag(self.data.rptr_of(victim_data), filler_core=filler_core)

    def _drop_tag(self, tag_idx: int, filler_core: int) -> int:
        if not self._valid[tag_idx]:
            raise SimulationError("dropping an invalid Mirage tag")
        dirty = self._dirty[tag_idx]
        reused = self._reused[tag_idx]
        core = self._core[tag_idx]
        addr = self._addr[tag_idx]
        sd = self._sdid[tag_idx]
        self.victim_addr = addr
        self.victim_core = core
        self.victim_sdid = sd
        self.victim_reused = bool(reused)
        st = self.stats
        st.evictions += 1
        if dirty:
            st.dirty_evictions += 1
        if not reused:
            st.dead_evictions += 1
        if core >= 0 and filler_core >= 0 and core != filler_core:
            st.interference_evictions += 1
        self.data.free(self._fptr[tag_idx])
        self._valid_count[tag_idx // self._ways] -= 1
        del self._where[(addr << 16) | sd]
        # Only the validity and FPTR columns are cleared: every reader
        # gates on them (or on ``_where``), and a refill overwrites the
        # rest, so further resets would be wasted stores.
        self._valid[tag_idx] = 0
        self._fptr[tag_idx] = -1
        return ACC_EVICTED | ACC_EVICTED_DIRTY if dirty else ACC_EVICTED

    # -- maintenance -----------------------------------------------------------

    def invalidate(self, line_addr: int, sdid: int = 0) -> Optional[EvictedLine]:
        tag_idx = self._where.get((line_addr << 16) | sdid)
        if tag_idx is None:
            return None
        return victim_line(self, self._drop_tag(tag_idx, filler_core=-1))

    def flush_all(self) -> int:
        # Insertion order of the location map, matching the reference
        # model exactly (the order the data entries return to the free
        # list is observable through later allocations).
        count = 0
        for tag_idx in list(self._where.values()):
            self._drop_tag(tag_idx, filler_core=-1)
            count += 1
        return count

    def contains(self, line_addr: int, sdid: int = 0) -> bool:
        return ((line_addr << 16) | sdid) in self._where

    def rekey(self) -> None:
        """Refresh the randomizing keys and flush (key management).

        Mirrors :meth:`repro.core.maya_cache.MayaCache.rekey`; the
        randomizer's memo is cleared in place, so the bound
        ``_indices_of`` lookup stays valid.
        """
        self.flush_all()
        self.randomizer.rekey()

    @property
    def index_randomizer(self):
        """The :class:`~repro.crypto.randomizer.IndexRandomizer` in use.

        Uniform accessor across randomized designs; the drive loop uses
        it to decide on (and feed) ahead-of-time index translation.
        """
        return self.randomizer

    @property
    def mapping_cache_capacity(self) -> int:
        """LRU mapping-cache capacity of the index randomizer."""
        return self.randomizer.memo_capacity

    @property
    def occupancy(self) -> int:
        return self.data.used

    def occupancy_by_core(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        core = self._core
        for tag_idx in self._where.values():
            counts[core[tag_idx]] = counts.get(core[tag_idx], 0) + 1
        return counts

    def resident_unreused(self) -> int:
        """Still-resident never-reused lines (Fig. 1 accounting)."""
        valid = self._valid
        reused = self._reused
        return sum(1 for i in range(len(valid)) if valid[i] and not reused[i])

    def check_invariants(self) -> None:
        """Structural consistency between tags, data, and indices."""
        expected = {}
        valid_total = 0
        per_set = [0] * (self._skews * self._sets)
        for idx in range(len(self._valid)):
            if self._valid[idx]:
                if self._fptr[idx] < 0:
                    raise SimulationError("valid Mirage tag without a data pointer")
                valid_total += 1
                expected[self._fptr[idx]] = idx
                per_set[idx // self._ways] += 1
        self.data.check_invariants(expected)
        if valid_total != len(self._where):
            raise SimulationError("location map out of sync")
        if per_set != self._valid_count:
            raise SimulationError("per-set valid counters out of sync")
