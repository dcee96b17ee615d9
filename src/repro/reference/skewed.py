"""Object-model reference of the skewed randomized LLC (pre-SoA, kept verbatim).

Behavioural oracle for ``repro.llc.skewed.SkewedRandomizedCache``:
identical RNG draw order and bit-identical statistics are contractual
(differential test layer).  Slow by design - never use it in
experiments.

Original module docstring follows.

Skewed randomized LLCs: CEASER-S and Scatter-Cache.

Both split the cache into two skews with independent keyed hashes and
pick a random skew on fill; they differ in that Scatter-Cache mixes the
security-domain ID into the hash (per-domain mappings) while CEASER-S
relies on remapping alone.  These designs reduce, but do not eliminate,
set conflicts - eviction-set attacks remain possible at reduced rate
(Section II-B), which the attack benchmarks demonstrate against Maya's
zero-SAE behaviour.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..cache.line import AccessResult, CacheLine, CoherenceState, EvictedLine
from ..cache.stats import CacheStats
from ..common.config import CacheGeometry
from ..common.errors import ConfigurationError
from ..common.rng import derive_seed, make_rng
from ..crypto.randomizer import IndexRandomizer
from ..llc.interface import LLCache


class SkewedRandomizedCache(LLCache):
    """Two-skew randomized LLC with random skew selection.

    Parameters
    ----------
    geometry:
        Total geometry; ways are split evenly across ``skews``.
    use_sdid_in_hash:
        ``True`` gives Scatter-Cache semantics (per-domain mapping),
        ``False`` gives CEASER-S semantics.
    remap_period:
        Fills between re-keys (``None`` disables remapping).
    """

    extra_lookup_latency = 3

    def __init__(
        self,
        geometry: CacheGeometry,
        skews: int = 2,
        use_sdid_in_hash: bool = True,
        remap_period: Optional[int] = None,
        seed: Optional[int] = None,
        hash_algorithm: str = "prince",
    ):
        if geometry.ways % skews:
            raise ConfigurationError(f"{geometry.ways} ways do not split across {skews} skews")
        self.geometry = geometry
        self.skews = skews
        self.ways_per_skew = geometry.ways // skews
        self.sets_per_skew = geometry.sets
        self.use_sdid_in_hash = use_sdid_in_hash
        self.remap_period = remap_period
        self._randomizer = IndexRandomizer(
            skews, geometry.sets, seed=derive_seed(seed, 21), algorithm=hash_algorithm
        )
        self._rng = make_rng(derive_seed(seed, 22))
        self._arrays: List[List[List[CacheLine]]] = [
            [[CacheLine() for _ in range(self.ways_per_skew)] for _ in range(geometry.sets)]
            for _ in range(skews)
        ]
        self._where: Dict[tuple, tuple] = {}
        self.stats = CacheStats()
        self._fills_since_remap = 0
        self.remaps = 0

    @property
    def index_randomizer(self):
        """The :class:`~repro.crypto.randomizer.IndexRandomizer` in use."""
        return self._randomizer

    def _hash_sdid(self, sdid: int) -> int:
        return sdid if self.use_sdid_in_hash else 0

    def access(
        self,
        line_addr: int,
        is_write: bool = False,
        core_id: int = 0,
        is_writeback: bool = False,
        sdid: int = 0,
    ) -> AccessResult:
        key = (line_addr, sdid if self.use_sdid_in_hash else 0)
        loc = self._where.get(key)
        hit = loc is not None
        self.stats.record_access(hit, is_writeback)
        if hit:
            skew, set_idx, way = loc
            line = self._arrays[skew][set_idx][way]
            if not is_writeback:
                line.reused = True
            if is_write or is_writeback:
                line.state = line.state.on_write()
            return AccessResult(hit=True, extra_latency=self.extra_lookup_latency)

        evicted = self._fill(line_addr, sdid, core_id, dirty=is_write or is_writeback)
        self._fills_since_remap += 1
        if self.remap_period is not None and self._fills_since_remap >= self.remap_period:
            self.remap()
        return AccessResult(hit=False, evicted=evicted, extra_latency=self.extra_lookup_latency)

    def _fill(self, line_addr: int, sdid: int, core_id: int, dirty: bool) -> Optional[EvictedLine]:
        hash_sdid = self._hash_sdid(sdid)
        indices = self._randomizer.all_indices(line_addr, hash_sdid)
        skew = self._rng.randrange(self.skews)
        set_idx = indices[skew]
        cache_set = self._arrays[skew][set_idx]
        way = next((w for w, ln in enumerate(cache_set) if not ln.valid), None)
        evicted = None
        if way is None:
            way = self._rng.randrange(self.ways_per_skew)
            evicted = self._evict(skew, set_idx, way, filler_core=core_id)
        line = cache_set[way]
        line.line_addr = line_addr
        line.state = CoherenceState.MODIFIED if dirty else CoherenceState.EXCLUSIVE
        line.core_id = core_id
        line.sdid = sdid
        line.reused = False
        self._where[(line_addr, hash_sdid)] = (skew, set_idx, way)
        return evicted

    def _evict(self, skew: int, set_idx: int, way: int, filler_core: int) -> EvictedLine:
        line = self._arrays[skew][set_idx][way]
        evicted = EvictedLine(
            line_addr=line.line_addr,
            dirty=line.dirty,
            core_id=line.core_id,
            sdid=line.sdid,
            was_reused=line.reused,
        )
        self.stats.record_eviction(
            dirty=line.dirty,
            was_reused=line.reused,
            cross_core=line.core_id >= 0 and filler_core >= 0 and line.core_id != filler_core,
        )
        del self._where[(line.line_addr, self._hash_sdid(line.sdid))]
        line.invalidate()
        return evicted

    def remap(self) -> None:
        """Re-key both skews (epoch model: flush + new keys)."""
        self.flush_all()
        self._randomizer.rekey()
        self._fills_since_remap = 0
        self.remaps += 1

    def rekey(self) -> None:
        """Uniform probe-surface alias for :meth:`remap`."""
        self.remap()

    def invalidate(self, line_addr: int, sdid: int = 0) -> Optional[EvictedLine]:
        loc = self._where.get((line_addr, self._hash_sdid(sdid)))
        if loc is None:
            return None
        return self._evict(*loc, filler_core=-1)

    def flush_all(self) -> int:
        count = 0
        for loc in list(self._where.values()):
            self._evict(*loc, filler_core=-1)
            count += 1
        return count

    def contains(self, line_addr: int, sdid: int = 0) -> bool:
        return (line_addr, self._hash_sdid(sdid)) in self._where

    @property
    def occupancy(self) -> int:
        return len(self._where)

    def occupancy_by_core(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for skew, set_idx, way in self._where.values():
            line = self._arrays[skew][set_idx][way]
            counts[line.core_id] = counts.get(line.core_id, 0) + 1
        return counts

    def mapped_sets(self, line_addr: int, sdid: int = 0):
        """The per-skew sets an address maps to (analysis helper)."""
        return self._randomizer.all_indices(line_addr, self._hash_sdid(sdid))

