"""The generic cache substrate: lines, policies, arrays, stats."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.line import (
    ACC_EVICTED,
    ACC_EVICTED_DIRTY,
    STEP_EVICT,
    CacheLine,
    CoherenceState,
    EvictedLine,
    drop_victim,
)
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
        stats.record_access(False, False)
        assert stats.hit_rate == 0.5
        assert stats.demand_hit_rate == 0.5

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


def _seeded_stats() -> CacheStats:
    """Stats whose counters start at distinct values, so a snippet that
    bumps the wrong counter shows."""
    stats = CacheStats()
    for i, name in enumerate(vars(stats)):
        setattr(stats, name, 100 * (i + 1))
    return stats


def _engine() -> SimpleNamespace:
    """A stand-in engine: seeded stats and victim fields no drop sets."""
    return SimpleNamespace(
        stats=_seeded_stats(), victim_addr=-7, victim_core=-7, victim_sdid=-7, victim_reused=None
    )


def _victim_fields(engine) -> dict:
    return {name: value for name, value in vars(engine).items() if name.startswith("victim_")}


#: (is_write, is_writeback) per access kind.
_KINDS = {"read": (False, False), "write": (True, False), "writeback": (False, True)}


class TestStepAccounting:
    """The generated steps render their accounting from snippets, and
    each snippet equals the method it inlines: ``STEP_HIT``/``STEP_MISS``
    are ``CacheStats.record_access`` and ``STEP_EVICT`` is
    ``drop_victim`` plus the cross-core rule of a step's fill."""

    @pytest.mark.parametrize("kind", sorted(_KINDS))
    @pytest.mark.parametrize("hit", [True, False])
    def test_access_snippets_are_record_access(self, hit, kind):
        is_write, is_writeback = _KINDS[kind]
        called = _seeded_stats()
        called.record_access(hit, is_writeback)
        inlined = _seeded_stats()
        snippet = CacheStats.STEP_HIT if hit else CacheStats.STEP_MISS
        exec(snippet, {"st": inlined, "is_write": is_write, "is_writeback": is_writeback})
        assert vars(inlined) == vars(called)
        assert vars(called) != vars(_seeded_stats())

    @pytest.mark.parametrize("core_id", [2, -1])
    @pytest.mark.parametrize("vcore", [2, 3, -1])
    @pytest.mark.parametrize("vreused", [0, 1])
    @pytest.mark.parametrize("vdirty", [0, 1])
    @pytest.mark.parametrize("kind", sorted(_KINDS))
    def test_evict_snippet_is_drop_victim(self, kind, vdirty, vreused, vcore, core_id):
        # A step's miss path: the access is counted, then the victim of
        # the fill by core ``core_id`` (-1: unknown, as for a drop).
        is_write, is_writeback = _KINDS[kind]
        called = _engine()
        called.stats.record_access(False, is_writeback)
        flags = drop_victim(called, 0x1234, vcore, 5, vdirty, vreused)
        # A drop fills nothing, so it never counts interference; a fill
        # does when both cores are known and differ.
        cross_core = vcore >= 0 and core_id >= 0 and vcore != core_id
        called.stats.interference_evictions += cross_core

        inlined = _engine()
        namespace = {
            "llc": inlined, "st": inlined.stats, "is_write": is_write,
            "is_writeback": is_writeback, "core_id": core_id,
            "vaddr": 0x1234, "vcore": vcore, "vsd": 5, "vdirty": vdirty, "vreused": vreused,
        }
        exec(CacheStats.STEP_MISS + STEP_EVICT, namespace)

        assert vars(inlined.stats) == vars(called.stats)
        assert _victim_fields(inlined) == _victim_fields(called)
        assert namespace["flags"] == flags
        # The marks a caller reads: the victim's reused bit (a bool, as
        # EvictedLine.was_reused) and the dirty bit of the flag word.
        assert inlined.victim_reused is bool(vreused)
        assert bool(flags & ACC_EVICTED_DIRTY) == bool(vdirty) and flags & ACC_EVICTED
        assert (inlined.victim_addr, inlined.victim_core, inlined.victim_sdid) == (0x1234, vcore, 5)
