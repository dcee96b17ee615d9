"""The comparison LLC designs: baseline, FA, CEASER(-S), Scatter, Mirage,
and the partitioned schemes."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import CacheGeometry, MirageConfig
from repro.common.errors import ConfigurationError, SetAssociativeEviction
from repro.llc import (
    BaselineLLC,
    CeaserCache,
    FlexiblePartitionedLLC,
    FullyAssociativeCache,
    MirageCache,
    SetPartitionedLLC,
    WayPartitionedLLC,
    make_ceaser_s,
    make_scatter_cache,
)


def assert_sdid_lane_enforced(llc):
    """An SDID outside 16 bits would share domain 0's packed
    (line << 16) | sdid key, and so its line: the object API rejects
    it (a negative one too) and leaves the cache as it was."""
    llc.access(5, sdid=0)
    for sdid in (1 << 16, (1 << 16) + 1, -1):
        for probe in (llc.access, llc.contains, llc.invalidate):
            with pytest.raises(ConfigurationError):
                probe(5, sdid=sdid)
    assert llc.contains(5, sdid=0)
    assert llc.stats.accesses == 1


class TestBaseline:
    def test_basic_hit_miss(self, tiny_geometry):
        llc = BaselineLLC(tiny_geometry)
        assert not llc.access(1).hit
        assert llc.access(1).hit
        assert llc.contains(1)

    def test_set_index_is_public(self, tiny_geometry):
        llc = BaselineLLC(tiny_geometry)
        assert llc.set_index(9) == 9 % tiny_geometry.sets

    def test_extra_latency_zero(self, tiny_geometry):
        assert BaselineLLC(tiny_geometry).extra_lookup_latency == 0


class TestFullyAssociative:
    def test_any_line_anywhere(self):
        llc = FullyAssociativeCache(4, seed=1)
        for addr in (0, 1 << 30, 12345):
            llc.access(addr)
        assert llc.occupancy == 3

    def test_random_eviction_at_capacity(self):
        llc = FullyAssociativeCache(4, seed=1)
        for addr in range(4):
            llc.access(addr)
        result = llc.access(99)
        assert result.evicted is not None
        assert llc.occupancy == 4

    def test_eviction_is_uniform(self):
        counts = {}
        for trial in range(500):
            llc = FullyAssociativeCache(4, seed=trial)
            for addr in range(4):
                llc.access(addr)
            evicted = llc.access(99).evicted.line_addr
            counts[evicted] = counts.get(evicted, 0) + 1
        assert len(counts) == 4
        assert min(counts.values()) > 60

    def test_sdid_duplication(self):
        llc = FullyAssociativeCache(8, seed=1)
        llc.access(5, sdid=0)
        llc.access(5, sdid=1)
        assert llc.occupancy == 2

    def test_sdid_outside_the_key_lane_rejected(self):
        assert_sdid_lane_enforced(FullyAssociativeCache(16, seed=1))

    def test_flush_and_invalidate(self):
        llc = FullyAssociativeCache(8, seed=1)
        llc.access(5, is_write=True)
        assert llc.invalidate(5).dirty
        llc.access(6)
        assert llc.flush_all() == 1


class TestCeaser:
    def test_hit_after_fill(self, tiny_geometry):
        llc = CeaserCache(tiny_geometry, hash_algorithm="splitmix")
        llc.access(42)
        assert llc.contains(42)

    def test_remap_flushes_and_rekeys(self, tiny_geometry):
        llc = CeaserCache(tiny_geometry, remap_period=10, hash_algorithm="splitmix")
        for addr in range(10):
            llc.access(addr)
        assert llc.remaps == 1
        assert llc.occupancy == 0

    def test_mapping_changes_after_remap(self, tiny_geometry):
        llc = CeaserCache(tiny_geometry, remap_period=10**9, hash_algorithm="splitmix")
        before = [llc.set_index(addr) for addr in range(200)]
        llc.rekey()
        after = [llc.set_index(addr) for addr in range(200)]
        assert sum(1 for b, a in zip(before, after) if b != a) > 100


class TestSkewed:
    def test_scatter_isolates_domains(self, tiny_geometry):
        llc = make_scatter_cache(tiny_geometry)
        llc.access(5, sdid=0)
        assert llc.contains(5, sdid=0)
        assert not llc.contains(5, sdid=1)

    def test_sdid_outside_the_key_lane_rejected(self, tiny_geometry):
        assert_sdid_lane_enforced(make_scatter_cache(tiny_geometry))

    def test_ceaser_s_ignores_sdid(self, tiny_geometry):
        llc = make_ceaser_s(tiny_geometry, remap_period=None)
        llc.access(5, sdid=0)
        assert llc.contains(5, sdid=1)

    def test_ceaser_s_remaps(self, tiny_geometry):
        llc = make_ceaser_s(tiny_geometry, remap_period=16)
        for addr in range(16):
            llc.access(addr)
        assert llc.remaps == 1

    def test_ways_must_split(self):
        with pytest.raises(ConfigurationError):
            make_scatter_cache(CacheGeometry(sets=8, ways=7))

    def test_dirty_writeback_on_eviction(self):
        llc = make_scatter_cache(CacheGeometry(sets=2, ways=2), seed=1)
        rng = random.Random(0)
        wrote_back = False
        for _ in range(200):
            result = llc.access(rng.randrange(100), is_write=True)
            if result.evicted is not None and result.evicted.dirty:
                wrote_back = True
        assert wrote_back


class TestMirage:
    def test_fill_allocates_data_immediately(self, small_mirage):
        llc = MirageCache(small_mirage)
        llc.access(0x42)
        assert llc.contains(0x42)
        assert llc.data.used == 1

    def test_global_eviction_when_full(self, small_mirage):
        llc = MirageCache(small_mirage)
        for addr in range(small_mirage.data_entries):
            llc.access(addr)
        assert llc.data.full
        result = llc.access(10**6)
        assert result.evicted is not None
        assert llc.stats.saes == 0
        llc.check_invariants()

    def test_no_sae_under_heavy_load(self, small_mirage):
        llc = MirageCache(small_mirage)
        rng = random.Random(4)
        for _ in range(30_000):
            llc.access(rng.randrange(5000), is_writeback=rng.random() < 0.3)
        assert llc.stats.saes == 0
        llc.check_invariants()

    def test_sae_raise_policy_without_extra_ways(self):
        cfg = MirageConfig(
            sets_per_skew=4, extra_ways_per_skew=0, rng_seed=7, hash_algorithm="splitmix"
        )
        llc = MirageCache(cfg, on_sae="raise")
        with pytest.raises(SetAssociativeEviction):
            for addr in range(10_000):
                llc.access(addr)

    def test_sdid_duplication(self, small_mirage):
        llc = MirageCache(small_mirage)
        llc.access(5, sdid=0)
        llc.access(5, sdid=1)
        assert llc.data.used == 2

    def test_sdid_outside_the_key_lane_rejected(self, small_mirage):
        assert_sdid_lane_enforced(MirageCache(small_mirage))

    def test_only_two_skews(self):
        """The step renders the paper's two-skew load-aware pick; more
        skews live on in ``repro.reference.mirage`` only."""
        cfg = MirageConfig(skews=3, sets_per_skew=16, hash_algorithm="splitmix")
        with pytest.raises(ValueError, match="two skews, not 3"):
            MirageCache(cfg)

    def test_flush_all(self, small_mirage):
        llc = MirageCache(small_mirage)
        for addr in range(10):
            llc.access(addr)
        assert llc.flush_all() == 10
        llc.check_invariants()


class TestPartitioned:
    def test_way_partition_isolation(self, tiny_geometry):
        """The security property: a domain can never evict another's line."""
        llc = WayPartitionedLLC(tiny_geometry, domains=2, seed=1)
        llc.access(0x42, core_id=0)
        rng = random.Random(0)
        for _ in range(2000):
            llc.access(rng.randrange(10_000), core_id=1)
        assert llc.contains(0x42)

    def test_set_partition_isolation(self, tiny_geometry):
        llc = SetPartitionedLLC(tiny_geometry, domains=2, seed=1)
        llc.access(0x42, core_id=0)
        rng = random.Random(0)
        for _ in range(2000):
            llc.access(rng.randrange(10_000), core_id=1)
        assert llc.contains(0x42)

    @pytest.mark.parametrize(
        "design", [WayPartitionedLLC, SetPartitionedLLC, FlexiblePartitionedLLC]
    )
    def test_isolation_holds_on_the_step(self, tiny_geometry, design):
        # The hierarchy and the replay route through access_fast.
        llc = design(tiny_geometry, domains=2, seed=1)
        llc.access_fast(0x42, False, 0, False, 0)
        rng = random.Random(0)
        for _ in range(2000):
            llc.access_fast(rng.randrange(10_000), False, 1, False, 1)
        assert llc.contains(0x42)
        assert llc._slices[0].stats.accesses == 1

    def test_way_partition_requires_divisibility(self):
        with pytest.raises(ConfigurationError):
            WayPartitionedLLC(CacheGeometry(sets=8, ways=6), domains=4)

    def test_bce_allocates_by_demand(self, tiny_geometry):
        llc = FlexiblePartitionedLLC(
            tiny_geometry, domains=2, demand_weights=[3.0, 1.0], min_sets=1, seed=1
        )
        sets = llc.allocated_sets
        assert sets[0] > sets[1]

    def test_bce_rejects_bad_weights(self, tiny_geometry):
        with pytest.raises(ConfigurationError):
            FlexiblePartitionedLLC(tiny_geometry, domains=2, demand_weights=[1.0])
        with pytest.raises(ConfigurationError):
            FlexiblePartitionedLLC(tiny_geometry, domains=2, demand_weights=[1.0, -1.0])

    def test_aggregated_stats(self, tiny_geometry):
        llc = WayPartitionedLLC(tiny_geometry, domains=2, seed=1)
        llc.access(1, core_id=0)
        llc.access(2, core_id=1)
        assert llc.stats.accesses == 2
        llc.reset_stats()
        assert llc.stats.accesses == 0

    def test_flush_all_spans_slices(self, tiny_geometry):
        llc = SetPartitionedLLC(tiny_geometry, domains=2, seed=1)
        llc.access(1, core_id=0)
        llc.access(2, core_id=1)
        assert llc.flush_all() == 2
