"""Skewed randomized LLCs: CEASER-S and Scatter-Cache.

Both split the cache into two skews with independent keyed hashes and
pick a random skew on fill; they differ in that Scatter-Cache mixes the
security-domain ID into the hash (per-domain mappings) while CEASER-S
relies on remapping alone.  These designs reduce, but do not eliminate,
set conflicts - eviction-set attacks remain possible at reduced rate
(Section II-B), which the attack benchmarks demonstrate against Maya's
zero-SAE behaviour.

The array is stored as packed columns (coherence state, address, core,
SDID, reused bit) indexed ``(skew * sets + set) * ways + way``.  The
per-access protocol lives in :mod:`repro.llc.skewed_step`, which
renders it per configuration over these columns;
:meth:`SkewedRandomizedCache.access_fast` binds that step on first use
(``ACC_*`` flag protocol, victim published via the ``victim_*``
fields).  This module keeps the slot drop, flush and the hash-SDID
rule; the probe surface, the remap
(:meth:`~repro.llc.interface.LLCache.rekey`) and the randomizer's
counters come from :class:`~repro.llc.interface.MappedLLCache`.  Only
the deployed two-skew arrangement is modelled; the reference in
``repro.reference.skewed`` also keeps more skews.
Behaviour - RNG draw order and every statistics counter included - is
bit-identical to that reference (enforced by the differential tests).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..cache.line import CoherenceState, drop_victim, first_access
from ..cache.stats import CacheStats
from ..common.addr import SDID_SHIFT
from ..common.config import CacheGeometry
from ..common.errors import ConfigurationError
from ..common.rng import derive_seed, make_rng
from ..crypto.randomizer import IndexRandomizer
from .interface import MappedLLCache
from .skewed_step import skewed_step

_DIRTY_MIN = CoherenceState.OWNED.value


class SkewedRandomizedCache(MappedLLCache):
    """Two-skew randomized LLC with random skew selection.

    Parameters
    ----------
    geometry:
        Total geometry; ways are split evenly across the two skews.
    use_sdid_in_hash:
        ``True`` gives Scatter-Cache semantics (per-domain mapping),
        ``False`` gives CEASER-S semantics.
    remap_period:
        Fills between re-keys (``None`` disables remapping).
    """

    extra_lookup_latency = 3
    sdid_bits = SDID_SHIFT

    def __init__(
        self,
        geometry: CacheGeometry,
        use_sdid_in_hash: bool = True,
        remap_period: Optional[int] = None,
        seed: Optional[int] = None,
        hash_algorithm: str = "prince",
    ):
        if geometry.ways % 2:
            raise ConfigurationError(f"{geometry.ways} ways do not split across 2 skews")
        self.geometry = geometry
        self.ways_per_skew = geometry.ways // 2
        self.sets_per_skew = geometry.sets
        self.use_sdid_in_hash = use_sdid_in_hash
        self.remap_period = remap_period
        self.index_randomizer = IndexRandomizer(
            2, geometry.sets, seed=derive_seed(seed, 21), algorithm=hash_algorithm
        )
        self._rng = make_rng(derive_seed(seed, 22))
        total = geometry.sets * geometry.ways
        # A slot is valid iff its state byte is non-zero (INVALID == 0),
        # so find-invalid-way is a C-speed ``.find(0)``.
        self._state = bytearray(total)
        self._addr = [0] * total
        self._core = [-1] * total
        self._sdid = [0] * total
        self._reused = bytearray(total)
        #: packed (line_addr << SDID_SHIFT | hashed SDID) -> slot index.
        self._where: Dict[int, int] = {}
        self.stats = CacheStats()

    def hash_sdid(self, sdid: int) -> int:
        """The access's own SDID for Scatter-Cache, ``0`` for CEASER-S."""
        return sdid if self.use_sdid_in_hash else 0

    #: One access with no allocation; returns ``ACC_*`` flags.  Binds
    #: the generated step on first use.
    access_fast = first_access

    def fresh_steps(self):
        """The one fresh generated step (:func:`~repro.llc.skewed_step.skewed_step`)."""
        return [(self, skewed_step(self))]

    def _drop(self, idx: int) -> int:
        addr = self._addr[idx]
        sd = self._sdid[idx]
        flags = drop_victim(
            self, addr, self._core[idx], sd, self._state[idx] >= _DIRTY_MIN, self._reused[idx]
        )
        del self._where[(addr << SDID_SHIFT) | self.hash_sdid(sd)]
        # Only the state column is cleared: every reader gates on it (or
        # on ``_where``), and a refill overwrites the other columns.
        self._state[idx] = 0
        return flags

    def flush_all(self) -> int:
        # Insertion order of the location map, matching the reference.
        count = 0
        for idx in list(self._where.values()):
            self._drop(idx)
            count += 1
        return count

    @property
    def occupancy(self) -> int:
        return len(self._where)


def make_ceaser_s(geometry: CacheGeometry, remap_period: Optional[int] = 10_000, seed=None):
    """CEASER-S: skewed, randomized, SDID-less, remapped."""
    return SkewedRandomizedCache(
        geometry, use_sdid_in_hash=False, remap_period=remap_period, seed=seed
    )


def make_scatter_cache(geometry: CacheGeometry, seed=None):
    """Scatter-Cache: skewed, randomized, SDID-aware mapping."""
    return SkewedRandomizedCache(geometry, use_sdid_in_hash=True, remap_period=None, seed=seed)
