"""Object-model reference of the Mirage LLC (pre-SoA, kept verbatim).

Behavioural oracle for ``repro.llc.mirage.MirageCache``: identical RNG
draw order and bit-identical statistics are contractual (differential
test layer).  Slow by design - never use it in experiments.

Original module docstring follows.

Mirage: the fully-associative-illusion LLC Maya improves upon.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..cache.line import AccessResult, EvictedLine
from ..cache.stats import CacheStats
from ..common.config import MirageConfig
from ..common.errors import SetAssociativeEviction, SimulationError
from ..common.rng import derive_seed, make_rng
from ..crypto.randomizer import DEFAULT_MEMO_CAPACITY, IndexRandomizer
from ..llc.interface import LLCache
from .data_store import DataStore


@dataclass
class _MirageTag:
    """One Mirage tag entry: tag + SDID + FPTR (valid iff fptr >= 0)."""

    line_addr: int = 0
    sdid: int = 0
    core_id: int = -1
    dirty: bool = False
    reused: bool = False
    fptr: int = -1

    @property
    def valid(self) -> bool:
        return self.fptr >= 0


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
        self._tags: List[_MirageTag] = [_MirageTag() for _ in range(cfg.tag_entries)]
        self._valid_count: List[List[int]] = [[0] * self._sets for _ in range(self._skews)]
        self._where: Dict[tuple, int] = {}
        self.data = DataStore(cfg.data_entries, seed=derive_seed(cfg.rng_seed, 33))
        self.stats = CacheStats()
        self.installs = 0

    # -- index helpers -------------------------------------------------------

    def _tag_index(self, skew: int, set_idx: int, way: int) -> int:
        return (skew * self._sets + set_idx) * self._ways + way

    def _locate(self, tag_idx: int):
        set_way, way = divmod(tag_idx, self._ways)
        skew, set_idx = divmod(set_way, self._sets)
        return skew, set_idx, way

    # -- access path ---------------------------------------------------------

    def access(
        self,
        line_addr: int,
        is_write: bool = False,
        core_id: int = 0,
        is_writeback: bool = False,
        sdid: int = 0,
    ) -> AccessResult:
        tag_idx = self._where.get((line_addr, sdid))
        hit = tag_idx is not None
        self.stats.record_access(hit, is_writeback)
        if hit:
            tag = self._tags[tag_idx]
            if not is_writeback:
                tag.reused = True
            if is_write or is_writeback:
                tag.dirty = True
            return AccessResult(hit=True, extra_latency=self.extra_lookup_latency)

        sae = False
        evicted = None
        self.installs += 1
        # Global random eviction first, so a data entry and the victim's
        # tag slot are free before the new install.
        if self.data.full:
            evicted = self._global_random_eviction(filler_core=core_id)
        skew, set_idx = self._pick_skew(line_addr, sdid)
        slot = self._find_invalid_way(skew, set_idx)
        if slot is None:
            sae = True
            self.stats.saes += 1
            if self._on_sae == "raise":
                raise SetAssociativeEviction(
                    f"SAE in skew {skew}, set {set_idx}", installs=self.installs
                )
            victim_way = self._rng.randrange(self._ways)
            evicted = self._drop_tag(self._tag_index(skew, set_idx, victim_way), filler_core=core_id)
            slot = self._find_invalid_way(skew, set_idx)
        self._install(slot, line_addr, sdid, core_id, dirty=is_write or is_writeback)
        return AccessResult(hit=False, evicted=evicted, sae=sae, extra_latency=self.extra_lookup_latency)

    def _pick_skew(self, line_addr: int, sdid: int):
        indices = self.randomizer.all_indices(line_addr, sdid)
        if self._skew_policy == "random":
            skew = self._rng.randrange(self._skews)
            return skew, indices[skew]
        loads = [self._valid_count[s][indices[s]] for s in range(self._skews)]
        best = min(loads)
        candidates = [s for s, load in enumerate(loads) if load == best]
        skew = candidates[self._rng.randrange(len(candidates))] if len(candidates) > 1 else candidates[0]
        return skew, indices[skew]

    def _find_invalid_way(self, skew: int, set_idx: int) -> Optional[int]:
        base = self._tag_index(skew, set_idx, 0)
        for way in range(self._ways):
            if not self._tags[base + way].valid:
                return base + way
        return None

    def _install(self, tag_idx: int, line_addr: int, sdid: int, core_id: int, dirty: bool) -> None:
        tag = self._tags[tag_idx]
        if tag.valid:
            raise SimulationError("installing over a valid Mirage tag")
        tag.line_addr = line_addr
        tag.sdid = sdid
        tag.core_id = core_id
        tag.dirty = dirty
        tag.reused = False
        tag.fptr = self.data.allocate(tag_idx)
        skew, set_idx, _ = self._locate(tag_idx)
        self._valid_count[skew][set_idx] += 1
        self._where[(line_addr, sdid)] = tag_idx

    def _global_random_eviction(self, filler_core: int) -> EvictedLine:
        victim_data = self.data.random_victim()
        return self._drop_tag(self.data.entry(victim_data).rptr, filler_core=filler_core)

    def _drop_tag(self, tag_idx: int, filler_core: int) -> EvictedLine:
        tag = self._tags[tag_idx]
        if not tag.valid:
            raise SimulationError("dropping an invalid Mirage tag")
        evicted = EvictedLine(
            line_addr=tag.line_addr,
            dirty=tag.dirty,
            core_id=tag.core_id,
            sdid=tag.sdid,
            was_reused=tag.reused,
        )
        self.stats.record_eviction(
            dirty=tag.dirty,
            was_reused=tag.reused,
            cross_core=tag.core_id >= 0 and filler_core >= 0 and tag.core_id != filler_core,
        )
        self.data.free(tag.fptr)
        skew, set_idx, _ = self._locate(tag_idx)
        self._valid_count[skew][set_idx] -= 1
        del self._where[(tag.line_addr, tag.sdid)]
        tag.fptr = -1
        tag.core_id = -1
        tag.dirty = False
        tag.reused = False
        return evicted

    # -- maintenance -----------------------------------------------------------

    def invalidate(self, line_addr: int, sdid: int = 0) -> Optional[EvictedLine]:
        tag_idx = self._where.get((line_addr, sdid))
        if tag_idx is None:
            return None
        return self._drop_tag(tag_idx, filler_core=-1)

    def flush_all(self) -> int:
        count = 0
        for tag_idx in list(self._where.values()):
            self._drop_tag(tag_idx, filler_core=-1)
            count += 1
        return count

    def contains(self, line_addr: int, sdid: int = 0) -> bool:
        return (line_addr, sdid) in self._where

    def rekey(self) -> None:
        """Refresh the randomizing keys and flush (key management)."""
        self.flush_all()
        self.randomizer.rekey()

    @property
    def occupancy(self) -> int:
        return self.data.used

    def occupancy_by_core(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for tag_idx in self._where.values():
            tag = self._tags[tag_idx]
            counts[tag.core_id] = counts.get(tag.core_id, 0) + 1
        return counts

    def resident_unreused(self) -> int:
        """Still-resident never-reused lines (Fig. 1 accounting)."""
        return sum(1 for t in self._tags if t.valid and not t.reused)

    def check_invariants(self) -> None:
        """Structural consistency between tags, data, and indices."""
        expected = {}
        valid = 0
        per_set = [[0] * self._sets for _ in range(self._skews)]
        for idx, tag in enumerate(self._tags):
            if tag.valid:
                valid += 1
                expected[tag.fptr] = idx
                skew, set_idx, _ = self._locate(idx)
                per_set[skew][set_idx] += 1
        self.data.check_invariants(expected)
        if valid != len(self._where):
            raise SimulationError("location map out of sync")
        if per_set != self._valid_count:
            raise SimulationError("per-set valid counters out of sync")
