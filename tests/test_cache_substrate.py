"""The generic cache substrate: lines, policies, arrays, stats."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.line import AccessResult, CacheLine, CoherenceState, EvictedLine
from repro.cache.replacement import (
    BRRIPPolicy,
    LRUPolicy,
    PackedLRUPolicy,
    RandomPolicy,
    SRRIPPolicy,
    make_policy,
)
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.common.config import CacheGeometry


class TestCoherence:
    def test_valid_and_dirty_flags(self):
        assert not CoherenceState.INVALID.is_valid
        assert CoherenceState.MODIFIED.is_dirty
        assert CoherenceState.OWNED.is_dirty
        assert not CoherenceState.EXCLUSIVE.is_dirty
        assert not CoherenceState.SHARED.is_dirty

    def test_write_transitions_to_modified(self):
        assert CoherenceState.EXCLUSIVE.on_write() is CoherenceState.MODIFIED
        assert CoherenceState.SHARED.on_write() is CoherenceState.MODIFIED

    def test_write_to_invalid_rejected(self):
        with pytest.raises(ValueError):
            CoherenceState.INVALID.on_write()

    def test_line_invalidate_resets(self):
        line = CacheLine(line_addr=5, state=CoherenceState.MODIFIED, core_id=3, reused=True)
        line.invalidate()
        assert not line.valid and not line.dirty and not line.reused


class TestLRU:
    def test_evicts_least_recently_used(self):
        policy = LRUPolicy()
        cache_set = [CacheLine(state=CoherenceState.EXCLUSIVE) for _ in range(4)]
        for way in range(4):
            policy.on_fill(cache_set, way)
        policy.on_hit(cache_set, 0)  # 0 is now MRU; 1 is LRU
        assert policy.victim(cache_set) == 1

    def test_fill_counts_as_use(self):
        policy = LRUPolicy()
        cache_set = [CacheLine(state=CoherenceState.EXCLUSIVE) for _ in range(3)]
        policy.on_fill(cache_set, 2)
        policy.on_fill(cache_set, 0)
        policy.on_fill(cache_set, 1)
        assert policy.victim(cache_set) == 2


class TestSRRIP:
    def test_hit_promotes_fill_inserts_long(self):
        policy = SRRIPPolicy()
        cache_set = [CacheLine(state=CoherenceState.EXCLUSIVE) for _ in range(4)]
        for way in range(4):
            policy.on_fill(cache_set, way)
        assert all(line.repl_state == 2 for line in cache_set)
        policy.on_hit(cache_set, 1)
        assert cache_set[1].repl_state == 0

    def test_victim_ages_until_max(self):
        policy = SRRIPPolicy()
        cache_set = [CacheLine(state=CoherenceState.EXCLUSIVE) for _ in range(2)]
        policy.on_fill(cache_set, 0)
        policy.on_fill(cache_set, 1)
        policy.on_hit(cache_set, 0)
        assert policy.victim(cache_set) == 1

    def test_scan_resistance(self):
        """A reused line survives a one-shot scan (the SRRIP pitch)."""
        geometry = CacheGeometry(sets=1, ways=4)
        cache = SetAssociativeCache(geometry, policy="srrip")
        hot = 0
        cache.access(hot)
        cache.access(hot)  # promote to RRPV 0
        for scan in range(1, 4):
            cache.access(scan * 16)
        assert cache.contains(hot)

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            SRRIPPolicy(rrpv_bits=0)


class TestRandomAndBrrip:
    def test_random_is_seeded(self):
        cache_set = [CacheLine(state=CoherenceState.EXCLUSIVE) for _ in range(8)]
        a = [RandomPolicy(seed=3).victim(cache_set) for _ in range(5)]
        b = [RandomPolicy(seed=3).victim(cache_set) for _ in range(5)]
        assert a == b

    def test_brrip_mostly_inserts_distant(self):
        policy = BRRIPPolicy(long_probability=0.0, seed=1)
        cache_set = [CacheLine(state=CoherenceState.EXCLUSIVE) for _ in range(4)]
        policy.on_fill(cache_set, 0)
        assert cache_set[0].repl_state == 3

    def test_brrip_validates_probability(self):
        with pytest.raises(ValueError):
            BRRIPPolicy(long_probability=1.5)

    def test_make_policy(self):
        assert isinstance(make_policy("lru"), LRUPolicy)
        assert isinstance(make_policy("SRRIP"), SRRIPPolicy)
        with pytest.raises(ValueError):
            make_policy("plru")


class TestSetAssociativeCache:
    def test_miss_then_hit(self, tiny_geometry):
        cache = SetAssociativeCache(tiny_geometry)
        assert not cache.access(100).hit
        assert cache.access(100).hit
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_eviction_on_full_set(self):
        geometry = CacheGeometry(sets=1, ways=2)
        cache = SetAssociativeCache(geometry, policy="lru")
        cache.access(0)
        cache.access(1)
        result = cache.access(2)
        assert result.evicted is not None
        assert result.evicted.line_addr == 0
        assert not cache.contains(0)

    def test_dirty_eviction_reports_writeback(self):
        geometry = CacheGeometry(sets=1, ways=1)
        cache = SetAssociativeCache(geometry)
        cache.access(0, is_write=True)
        result = cache.access(16)
        assert result.evicted.dirty

    def test_writeback_miss_allocates_dirty(self, tiny_geometry):
        cache = SetAssociativeCache(tiny_geometry)
        cache.access(5, is_writeback=True)
        evicted = cache.invalidate(5)
        assert evicted is not None and evicted.dirty

    def test_invalidate_missing_line_returns_none(self, tiny_geometry):
        cache = SetAssociativeCache(tiny_geometry)
        assert cache.invalidate(123) is None

    def test_flush_all(self, tiny_geometry):
        cache = SetAssociativeCache(tiny_geometry)
        for addr in range(10):
            cache.access(addr)
        assert cache.flush_all() == 10
        assert cache.occupancy == 0

    def test_dead_block_accounting(self):
        """A never-reused line counts as dead on eviction (Fig. 1 metric)."""
        geometry = CacheGeometry(sets=1, ways=1)
        cache = SetAssociativeCache(geometry)
        cache.access(0)          # fill, never reused
        cache.access(16)         # evicts 0 dead
        cache.access(16)         # reuse 16
        cache.access(32)         # evicts 16 live
        assert cache.stats.dead_evictions == 1
        assert cache.stats.evictions == 2

    def test_interference_accounting(self):
        geometry = CacheGeometry(sets=1, ways=1)
        cache = SetAssociativeCache(geometry)
        cache.access(0, core_id=0)
        cache.access(16, core_id=1)
        assert cache.stats.interference_evictions == 1

    def test_occupancy_by_core(self, tiny_geometry):
        cache = SetAssociativeCache(tiny_geometry)
        for addr in range(6):
            cache.access(addr, core_id=addr % 2)
        counts = cache.occupancy_by_core()
        assert counts[0] == 3 and counts[1] == 3

    @pytest.mark.parametrize("policy", [LRUPolicy(), PackedLRUPolicy()])
    def test_policy_object_rejected(self, tiny_geometry, policy):
        """The step renders one arm per policy *name*; objects (of
        either engine) have no arm."""
        with pytest.raises(TypeError, match="replacement policy name"):
            SetAssociativeCache(tiny_geometry, policy=policy)

    @pytest.mark.parametrize("name", ["plru", "drrip"])
    def test_unknown_policy_name_rejected(self, tiny_geometry, name):
        with pytest.raises(ValueError, match=f"unknown replacement policy '{name}'"):
            SetAssociativeCache(tiny_geometry, policy=name)

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=200), st.booleans()), max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_matches_reference_model(self, operations):
        """The cache's hit/miss decisions match a brute-force model."""
        geometry = CacheGeometry(sets=4, ways=2)
        cache = SetAssociativeCache(geometry, policy="lru")
        reference = {}  # set -> list of (addr), most recent last
        clock = 0
        for addr, is_write in operations:
            set_idx = addr % 4
            lines = reference.setdefault(set_idx, [])
            expected_hit = addr in lines
            result = cache.access(addr, is_write=is_write)
            assert result.hit == expected_hit
            if expected_hit:
                lines.remove(addr)
            elif len(lines) == 2:
                lines.pop(0)
            lines.append(addr)


class TestStats:
    def test_rates(self):
        stats = CacheStats()
        stats.record_access(True, False)
        stats.record_access(False, False, core_id=2)
        assert stats.hit_rate == 0.5
        assert stats.demand_hit_rate == 0.5
        assert stats.per_core_misses == {2: 1}

    def test_mpki(self):
        stats = CacheStats()
        for _ in range(5):
            stats.record_access(False, False)
        assert stats.mpki(1000) == 5.0
        with pytest.raises(ValueError):
            stats.mpki(0)

    def test_reset(self):
        stats = CacheStats()
        stats.record_access(False, False)
        stats.tag_only_hits = 7
        stats.reset()
        assert stats.accesses == 0 and stats.tag_only_hits == 0
