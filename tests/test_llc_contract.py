"""Interface contract tests: every LLC design, same semantics.

Each design is exercised through the shared :class:`repro.llc.LLCache`
surface; these tests pin down the behaviours the hierarchy, the attack
harnesses, and the experiments all rely on.
"""

import random

import pytest

from repro.common.config import CacheGeometry, MayaConfig, MirageConfig
from repro.core import MayaCache
from repro.llc import (
    BaselineLLC,
    CeaserCache,
    FullyAssociativeCache,
    MirageCache,
    SetPartitionedLLC,
    WayPartitionedLLC,
    make_ceaser_s,
    make_scatter_cache,
)

GEO = CacheGeometry(sets=32, ways=16)


def fresh_designs():
    return {
        "baseline": BaselineLLC(GEO, seed=1),
        "fully_assoc": FullyAssociativeCache(GEO.lines, seed=1),
        "ceaser": CeaserCache(GEO, remap_period=10**9, hash_algorithm="splitmix", seed=1),
        "ceaser_s": make_ceaser_s(GEO, remap_period=None, seed=1),
        "scatter": make_scatter_cache(GEO, seed=1),
        "mirage": MirageCache(MirageConfig(sets_per_skew=32, rng_seed=1, hash_algorithm="splitmix")),
        "maya": MayaCache(MayaConfig(sets_per_skew=32, rng_seed=1, hash_algorithm="splitmix")),
        "dawg": WayPartitionedLLC(GEO, domains=4, seed=1),
        "coloring": SetPartitionedLLC(GEO, domains=4, seed=1),
    }


ALL = list(fresh_designs())


def install(llc, addr, **kwargs):
    """Install with data on any design (two touches for Maya)."""
    llc.access(addr, **kwargs)
    llc.access(addr, **kwargs)


@pytest.mark.parametrize("name", ALL)
class TestContract:
    def test_miss_then_contains(self, name):
        llc = fresh_designs()[name]
        assert not llc.contains(0x123)
        install(llc, 0x123)
        assert llc.contains(0x123)

    def test_hit_after_install(self, name):
        llc = fresh_designs()[name]
        install(llc, 0x123)
        assert llc.access(0x123).hit

    def test_invalidate_removes(self, name):
        llc = fresh_designs()[name]
        install(llc, 0x123)
        llc.invalidate(0x123)
        assert not llc.contains(0x123)

    def test_invalidate_dirty_returns_writeback(self, name):
        llc = fresh_designs()[name]
        install(llc, 0x123, is_write=True)
        evicted = llc.invalidate(0x123)
        assert evicted is not None and evicted.dirty

    def test_invalidate_missing_is_none(self, name):
        llc = fresh_designs()[name]
        assert llc.invalidate(0x9999) is None

    def test_flush_all_empties(self, name):
        llc = fresh_designs()[name]
        for addr in range(8):
            install(llc, addr)
        assert llc.flush_all() > 0
        assert llc.occupancy == 0
        for addr in range(8):
            assert not llc.contains(addr)

    def test_occupancy_by_core_sums(self, name):
        llc = fresh_designs()[name]
        rng = random.Random(0)
        for _ in range(60):
            install(llc, rng.randrange(4000), core_id=rng.randrange(4))
        assert sum(llc.occupancy_by_core().values()) == llc.occupancy

    def test_stats_accounting_consistent(self, name):
        llc = fresh_designs()[name]
        rng = random.Random(0)
        for _ in range(500):
            llc.access(
                rng.randrange(2000),
                is_write=rng.random() < 0.2,
                is_writeback=rng.random() < 0.2,
                core_id=rng.randrange(4),
            )
        stats = llc.stats
        assert stats.hits + stats.misses == stats.accesses
        assert stats.demand_accesses + stats.writebacks_received == stats.accesses
        assert stats.demand_hits <= stats.demand_accesses

    def test_extra_latency_reported(self, name):
        llc = fresh_designs()[name]
        assert llc.extra_lookup_latency >= 0
        if name in ("mirage", "maya"):
            assert llc.extra_lookup_latency == 4
        if name in ("ceaser", "ceaser_s", "scatter"):
            assert llc.extra_lookup_latency == 3
        # The per-access drive charges what access() reports, and the
        # step drives charge extra_lookup_latency: they must agree on a
        # miss and on a hit (three touches make a data hit on Maya too).
        miss = llc.access(0x123)
        llc.access(0x123)
        hit = llc.access(0x123)
        assert not miss.hit and hit.hit
        assert miss.extra_latency == llc.extra_lookup_latency
        assert hit.extra_latency == llc.extra_lookup_latency

    def test_occupancy_bounded_by_capacity(self, name):
        llc = fresh_designs()[name]
        rng = random.Random(1)
        for _ in range(3000):
            llc.access(rng.randrange(10_000), is_writeback=True, core_id=rng.randrange(4))
        capacity = GEO.lines
        if name == "maya":
            capacity = llc.config.data_entries
        assert llc.occupancy <= capacity
