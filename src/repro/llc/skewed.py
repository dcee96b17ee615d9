"""Skewed randomized LLCs: CEASER-S and Scatter-Cache.

Both split the cache into two skews with independent keyed hashes and
pick a random skew on fill; they differ in that Scatter-Cache mixes the
security-domain ID into the hash (per-domain mappings) while CEASER-S
relies on remapping alone.  These designs reduce, but do not eliminate,
set conflicts - eviction-set attacks remain possible at reduced rate
(Section II-B), which the attack benchmarks demonstrate against Maya's
zero-SAE behaviour.

The array is stored as packed columns (coherence state, address, core,
SDID, reused bit) indexed ``(skew * sets + set) * ways + way``, and the
hot path is :meth:`SkewedRandomizedCache.access_fast` (``ACC_*`` flag
protocol, victim published via the ``victim_*`` fields).  Behaviour -
RNG draw order and every statistics counter included - is
bit-identical to the object-model reference in
``repro.reference.skewed``.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..cache.line import (
    ACC_EVICTED,
    ACC_EVICTED_DIRTY,
    ACC_HIT,
    AccessResult,
    CoherenceState,
    EvictedLine,
    access_result,
    victim_line,
)
from ..cache.stats import CacheStats
from ..common.config import CacheGeometry
from ..common.errors import ConfigurationError
from ..common.rng import derive_seed, make_rng
from ..crypto.randomizer import IndexRandomizer
from .interface import LLCache

_EXCLUSIVE = CoherenceState.EXCLUSIVE.value
_MODIFIED = CoherenceState.MODIFIED.value
_DIRTY_MIN = CoherenceState.OWNED.value


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
        # Memoized per-skew index lookup, bound once (rekey clears the
        # randomizer's memo in place, so the binding stays valid).
        self._indices_of = self._randomizer._lookup
        total = skews * geometry.sets * self.ways_per_skew
        # A slot is valid iff its state byte is non-zero (INVALID == 0),
        # so find-invalid-way is a C-speed ``.find(0)``.
        self._state = bytearray(total)
        self._addr = [0] * total
        self._core = [-1] * total
        self._sdid = [0] * total
        self._reused = bytearray(total)
        #: packed (line_addr << 16 | hashed SDID) -> slot index.
        self._where: Dict[int, int] = {}
        self.stats = CacheStats()
        self._fills_since_remap = 0
        self.remaps = 0
        # Victim fields of the access_fast protocol (valid until the
        # next access after a result with ACC_EVICTED set).
        self.victim_addr = 0
        self.victim_core = -1
        self.victim_sdid = 0
        self.victim_reused = False

    @property
    def index_randomizer(self):
        """The :class:`~repro.crypto.randomizer.IndexRandomizer` in use."""
        return self._randomizer

    def _hash_sdid(self, sdid: int) -> int:
        return sdid if self.use_sdid_in_hash else 0

    def access_fast(
        self,
        line_addr: int,
        is_write: bool = False,
        core_id: int = 0,
        is_writeback: bool = False,
        sdid: int = 0,
    ) -> int:
        """One access with no allocation; returns ``ACC_*`` flags."""
        hash_sdid = sdid if self.use_sdid_in_hash else 0
        idx = self._where.get((line_addr << 16) | hash_sdid)
        st = self.stats
        st.accesses += 1
        if idx is not None:
            st.hits += 1
            if is_writeback:
                st.writebacks_received += 1
                self._state[idx] = _MODIFIED
            else:
                st.demand_accesses += 1
                st.demand_hits += 1
                self._reused[idx] = 1
                if is_write:
                    self._state[idx] = _MODIFIED
            return ACC_HIT
        st.misses += 1
        if is_writeback:
            st.writebacks_received += 1
        else:
            st.demand_accesses += 1
            pcm = st.per_core_misses
            pcm[core_id] = pcm.get(core_id, 0) + 1

        # Fill: random skew, first invalid way, else a random way.
        indices = self._indices_of(line_addr, hash_sdid)
        skew = self._rng.randrange(self.skews)
        ways = self.ways_per_skew
        base = (skew * self.sets_per_skew + indices[skew]) * ways
        state = self._state
        idx = state.find(0, base, base + ways)
        flags = 0
        if idx < 0:
            idx = base + self._rng.randrange(ways)
            flags = self._drop(idx, filler_core=core_id)
        state[idx] = _MODIFIED if is_write or is_writeback else _EXCLUSIVE
        self._addr[idx] = line_addr
        self._core[idx] = core_id
        self._sdid[idx] = sdid
        self._reused[idx] = 0
        self._where[(line_addr << 16) | hash_sdid] = idx
        st.fills += 1
        st.data_fills += 1

        self._fills_since_remap += 1
        if self.remap_period is not None and self._fills_since_remap >= self.remap_period:
            # The remap's flush must not clobber this fill's victim.
            victim = (self.victim_addr, self.victim_core, self.victim_sdid, self.victim_reused)
            self.remap()
            self.victim_addr, self.victim_core, self.victim_sdid, self.victim_reused = victim
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

    def _drop(self, idx: int, filler_core: int) -> int:
        dirty = self._state[idx] >= _DIRTY_MIN
        addr = self._addr[idx]
        core = self._core[idx]
        sd = self._sdid[idx]
        reused = self._reused[idx]
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
        del self._where[(addr << 16) | (sd if self.use_sdid_in_hash else 0)]
        # Only the state column is cleared: every reader gates on it (or
        # on ``_where``), and a refill overwrites the other columns.
        self._state[idx] = 0
        return ACC_EVICTED | ACC_EVICTED_DIRTY if dirty else ACC_EVICTED

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
        idx = self._where.get((line_addr << 16) | self._hash_sdid(sdid))
        if idx is None:
            return None
        return victim_line(self, self._drop(idx, filler_core=-1))

    def flush_all(self) -> int:
        # Insertion order of the location map, matching the reference.
        count = 0
        for idx in list(self._where.values()):
            self._drop(idx, filler_core=-1)
            count += 1
        return count

    def contains(self, line_addr: int, sdid: int = 0) -> bool:
        return ((line_addr << 16) | self._hash_sdid(sdid)) in self._where

    @property
    def occupancy(self) -> int:
        return len(self._where)

    def occupancy_by_core(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        core = self._core
        for idx in self._where.values():
            counts[core[idx]] = counts.get(core[idx], 0) + 1
        return counts

    def mapped_sets(self, line_addr: int, sdid: int = 0):
        """The per-skew sets an address maps to (analysis helper)."""
        return self._randomizer.all_indices(line_addr, self._hash_sdid(sdid))


def make_ceaser_s(geometry: CacheGeometry, remap_period: Optional[int] = 10_000, seed=None):
    """CEASER-S: skewed, randomized, SDID-less, remapped."""
    return SkewedRandomizedCache(
        geometry, use_sdid_in_hash=False, remap_period=remap_period, seed=seed
    )


def make_scatter_cache(geometry: CacheGeometry, seed=None):
    """Scatter-Cache: skewed, randomized, SDID-aware mapping."""
    return SkewedRandomizedCache(geometry, use_sdid_in_hash=True, remap_period=None, seed=seed)
