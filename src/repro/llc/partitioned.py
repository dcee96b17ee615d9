"""Secure LLC partitioning baselines (Table XI).

Partitioning mitigates both conflict- and occupancy-based attacks by
giving each security domain (here: core) a private slice of the LLC,
at the cost of significant performance loss.  Three schemes:

* **Way partitioning (DAWG-like)** - every set is split by ways; a
  domain's associativity shrinks to ``ways / domains``.
* **Set partitioning (page-coloring-like)** - the set index space is
  split; a domain keeps full associativity over ``sets / domains``
  sets, and cannot size its slice independently of DRAM allocation.
* **Flexible set partitioning (BCE-like)** - partitions are allocated
  at fine granularity (64 KB in the paper) and can be sized to each
  domain's demand, which is why BCE loses the least performance.  The
  model takes per-domain demand weights (the harness profiles solo
  MPKIs to produce them).

All three are *secure by isolation*: an access by one domain can never
evict another domain's line, which the tests assert directly.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from ..cache.line import ACC_EVICTED, EvictedLine
from ..cache.set_assoc import SetAssociativeCache
from ..common.config import CacheGeometry
from ..common.errors import ConfigurationError
from ..common.rng import derive_seed
from .interface import LLCache


class _PartitionedBase(LLCache):
    """Shared plumbing: route each access to the owner domain's slice."""

    extra_lookup_latency = 0

    def __init__(self, domains: int):
        if domains <= 0:
            raise ConfigurationError("need at least one domain")
        self.domains = domains
        self._slices: List[SetAssociativeCache] = []

    def fresh_steps(self):
        """Each slice's fresh step; the router itself has none."""
        return [pair for part in self._slices for pair in part.fresh_steps()]

    def access_fast(
        self,
        line_addr: int,
        is_write: bool = False,
        core_id: int = 0,
        is_writeback: bool = False,
        sdid: int = 0,
    ) -> int:
        """One access with no allocation; returns ``ACC_*`` flags.

        The owning slice's step is looked up per call, so a step
        installed on it (:mod:`repro.engine.specialize`) is used.
        """
        part = self._slices[core_id % self.domains]
        flags = part.access_fast(line_addr, is_write, core_id, is_writeback, sdid)
        if flags & ACC_EVICTED:
            self.victim_addr = part.victim_addr
            self.victim_core = part.victim_core
            self.victim_sdid = part.victim_sdid
            self.victim_reused = part.victim_reused
        return flags

    def invalidate(self, line_addr: int, sdid: int = 0) -> Optional[EvictedLine]:
        for part in self._slices:
            evicted = part.invalidate(line_addr)
            if evicted is not None:
                return evicted
        return None

    def flush_all(self) -> int:
        return sum(part.flush_all() for part in self._slices)

    def contains(self, line_addr: int, sdid: int = 0) -> bool:
        return any(part.contains(line_addr) for part in self._slices)

    @property
    def occupancy(self) -> int:
        return sum(part.occupancy for part in self._slices)

    def occupancy_by_core(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for part in self._slices:
            for core, n in part.occupancy_by_core().items():
                counts[core] = counts.get(core, 0) + n
        return counts

    @property
    def stats(self):  # type: ignore[override]
        """Aggregate statistics across the slices."""
        from ..cache.stats import CacheStats

        total = CacheStats()
        for part in self._slices:
            s = part.stats
            total.accesses += s.accesses
            total.hits += s.hits
            total.misses += s.misses
            total.demand_accesses += s.demand_accesses
            total.demand_hits += s.demand_hits
            total.writebacks_received += s.writebacks_received
            total.fills += s.fills
            total.data_fills += s.data_fills
            total.evictions += s.evictions
            total.dirty_evictions += s.dirty_evictions
            total.dead_evictions += s.dead_evictions
            total.interference_evictions += s.interference_evictions
            for core, n in s.per_core_misses.items():
                total.per_core_misses[core] = total.per_core_misses.get(core, 0) + n
        return total

    @stats.setter
    def stats(self, value) -> None:  # pragma: no cover - interface compat
        raise AttributeError("partitioned stats are aggregated; reset the slices instead")

    def reset_stats(self) -> None:
        for part in self._slices:
            part.stats.reset()


class WayPartitionedLLC(_PartitionedBase):
    """DAWG-like way partitioning: ``ways / domains`` ways per domain."""

    def __init__(self, geometry: CacheGeometry, domains: int, policy: str = "srrip", seed=None):
        super().__init__(domains)
        if geometry.ways % domains:
            raise ConfigurationError(
                f"{geometry.ways} ways do not divide across {domains} domains "
                "(DAWG's documented limitation: domains are bounded by ways)"
            )
        ways_each = geometry.ways // domains
        self._slices = [
            SetAssociativeCache(
                CacheGeometry(sets=geometry.sets, ways=ways_each, line_bytes=geometry.line_bytes),
                policy=policy,
                seed=derive_seed(seed, 40 + d),
                name=f"DAWG[{d}]",
            )
            for d in range(domains)
        ]


class SetPartitionedLLC(_PartitionedBase):
    """Page-coloring-like set partitioning: equal set ranges per domain."""

    def __init__(self, geometry: CacheGeometry, domains: int, policy: str = "srrip", seed=None):
        super().__init__(domains)
        if geometry.sets % domains:
            raise ConfigurationError(f"{geometry.sets} sets do not divide across {domains} domains")
        sets_each = geometry.sets // domains
        self._slices = [
            SetAssociativeCache(
                CacheGeometry(sets=sets_each, ways=geometry.ways, line_bytes=geometry.line_bytes),
                policy=policy,
                seed=derive_seed(seed, 60 + d),
                name=f"Color[{d}]",
            )
            for d in range(domains)
        ]


class FlexiblePartitionedLLC(_PartitionedBase):
    """BCE-like flexible set partitioning sized to per-domain demand.

    ``demand_weights`` (one non-negative weight per domain) steers the
    capacity split; each slice gets at least ``min_sets`` sets (the
    64 KB-granule floor) and set counts are rounded to the nearest
    power of two (our set-indexing requirement; BCE's indirection
    table would allow exact granule counts in hardware).
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        domains: int,
        demand_weights: Optional[Sequence[float]] = None,
        min_sets: int = 16,
        policy: str = "srrip",
        seed=None,
    ):
        super().__init__(domains)
        weights = list(demand_weights) if demand_weights is not None else [1.0] * domains
        if len(weights) != domains:
            raise ConfigurationError("one demand weight per domain required")
        if any(w < 0 for w in weights):
            raise ConfigurationError("demand weights must be non-negative")
        total = sum(weights) or 1.0
        self._slices = []
        for d in range(domains):
            share = max(min_sets, geometry.sets * weights[d] / total)
            # Round to the nearest power of two for conventional
            # indexing (BCE's indirection table would allow exact
            # granule counts; nearest keeps the model fair).
            sets_d = 1 << max(0, round(math.log2(share)))
            self._slices.append(
                SetAssociativeCache(
                    CacheGeometry(sets=sets_d, ways=geometry.ways, line_bytes=geometry.line_bytes),
                    policy=policy,
                    seed=derive_seed(seed, 80 + d),
                    name=f"BCE[{d}]",
                )
            )

    @property
    def allocated_sets(self) -> List[int]:
        """Sets granted to each domain (inspection/reporting)."""
        return [part.geometry.sets for part in self._slices]
