"""The Maya cache: the paper's design rules, end to end."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import MayaConfig
from repro.common.errors import ConfigurationError, SetAssociativeEviction
from repro.core import MayaCache, TagState


def make_maya(sets=16, seed=7, **kwargs):
    return MayaCache(MayaConfig(sets_per_skew=sets, rng_seed=seed, hash_algorithm="splitmix"), **kwargs)


class TestReuseFiltering:
    """Section III-B: data is installed only on the second touch."""

    def test_first_read_is_tag_only(self):
        cache = make_maya()
        result = cache.access(0x100)
        assert not result.hit and not result.tag_hit
        assert cache.contains_tag(0x100)
        assert not cache.contains(0x100)  # no data yet
        assert cache.occupancy == 0

    def test_second_read_promotes_but_still_misses(self):
        cache = make_maya()
        cache.access(0x100)
        result = cache.access(0x100)
        assert not result.hit and result.tag_hit
        assert cache.contains(0x100)
        assert cache.stats.tag_only_hits == 1

    def test_third_read_hits(self):
        cache = make_maya()
        cache.access(0x100)
        cache.access(0x100)
        assert cache.access(0x100).hit

    def test_write_installs_data_immediately(self):
        """Fig. 3: invalid -> priority-1 (dirty) on a write request."""
        cache = make_maya()
        cache.access(0x200, is_write=True)
        assert cache.contains(0x200)
        tag_idx = cache.tags.lookup(0x200, 0)
        assert cache.tags.entry(tag_idx).dirty

    def test_writeback_installs_data_immediately(self):
        cache = make_maya()
        cache.access(0x300, is_writeback=True)
        assert cache.contains(0x300)


class TestStateTransitions:
    """Fig. 3's transition diagram, exercised edge by edge."""

    def test_read_hit_on_clean_priority1_stays_clean(self):
        cache = make_maya()
        cache.access(1)
        cache.access(1)
        cache.access(1)
        entry = cache.tags.entry(cache.tags.lookup(1, 0))
        assert entry.state is TagState.PRIORITY_1 and not entry.dirty

    def test_write_hit_marks_dirty(self):
        cache = make_maya()
        cache.access(1)
        cache.access(1)
        cache.access(1, is_write=True)
        assert cache.tags.entry(cache.tags.lookup(1, 0)).dirty

    def test_promotion_by_write_is_dirty(self):
        cache = make_maya()
        cache.access(1)
        cache.access(1, is_write=True)
        assert cache.tags.entry(cache.tags.lookup(1, 0)).dirty

    def test_demotion_resets_dirty_and_pointer(self):
        """Priority-1 -> priority-0 via global random data eviction."""
        cfg = MayaConfig(sets_per_skew=4, rng_seed=7, hash_algorithm="splitmix")
        cache = MayaCache(cfg)
        # Fill the data store completely with dirty lines.
        for addr in range(cfg.data_entries):
            cache.access(0x1000 + addr, is_write=True)
        assert cache.data.full
        result = cache.access(0x9999, is_write=True)  # forces a data eviction
        assert result.evicted is not None and result.evicted.dirty
        cache.check_invariants()


class TestGlobalEvictions:
    def test_steady_state_pool_sizes(self):
        cfg = MayaConfig(sets_per_skew=16, rng_seed=7, hash_algorithm="splitmix")
        cache = MayaCache(cfg)
        import random
        rng = random.Random(1)
        for _ in range(20_000):
            cache.access(rng.randrange(3000), is_writeback=rng.random() < 0.3)
        assert cache.tags.priority0_count == cfg.priority0_entries
        assert cache.tags.priority1_count == cfg.data_entries
        assert cache.data.full
        cache.check_invariants()

    def test_no_tag_eviction_until_pool_full(self):
        cache = make_maya()
        for addr in range(10):
            cache.access(addr)
        assert cache.stats.tag_evictions == 0

    def test_tag_eviction_once_pool_full(self):
        cfg = MayaConfig(sets_per_skew=4, rng_seed=7, hash_algorithm="splitmix")
        cache = MayaCache(cfg)
        for addr in range(cfg.priority0_entries + 5):
            cache.access(addr)
        assert cache.stats.tag_evictions == 5
        assert cache.tags.priority0_count == cfg.priority0_entries

    def test_data_eviction_only_when_full(self):
        cfg = MayaConfig(sets_per_skew=4, rng_seed=7, hash_algorithm="splitmix")
        cache = MayaCache(cfg)
        for addr in range(cfg.data_entries):
            cache.access(0x5000 + addr, is_write=True)
        assert cache.stats.evictions == 0
        cache.access(0x9000, is_write=True)
        assert cache.stats.evictions == 1


class TestNoSAE:
    def test_no_sae_under_heavy_random_load(self):
        """The provisioning guarantee: invalid tags never run out."""
        cache = make_maya(sets=16)
        import random
        rng = random.Random(2)
        for _ in range(50_000):
            cache.access(rng.randrange(10_000), is_writeback=rng.random() < 0.3)
        assert cache.stats.saes == 0
        cache.check_invariants()

    def test_sae_raise_policy(self):
        """With zero invalid ways, conflicts must surface quickly."""
        cfg = MayaConfig(
            sets_per_skew=4,
            invalid_ways_per_skew=0,
            rng_seed=7,
            hash_algorithm="splitmix",
        )
        cache = MayaCache(cfg, on_sae="raise")
        with pytest.raises(SetAssociativeEviction):
            for addr in range(10_000):
                cache.access(addr, is_writeback=(addr % 3 == 0))

    def test_sae_count_policy_recovers(self):
        cfg = MayaConfig(
            sets_per_skew=4,
            invalid_ways_per_skew=0,
            rng_seed=7,
            hash_algorithm="splitmix",
        )
        cache = MayaCache(cfg, on_sae="count")
        for addr in range(5_000):
            cache.access(addr, is_writeback=(addr % 3 == 0))
        assert cache.stats.saes > 0
        cache.check_invariants()

    def test_invalid_policy_names_rejected(self):
        with pytest.raises(ValueError):
            make_maya(on_sae="ignore")
        with pytest.raises(ValueError):
            MayaCache(MayaConfig(skews=3, sets_per_skew=16, hash_algorithm="splitmix"))


class TestSDIDIsolation:
    def test_domains_get_separate_copies(self):
        cache = make_maya()
        cache.access(0x42, sdid=1)
        cache.access(0x42, sdid=1)
        assert cache.contains(0x42, sdid=1)
        assert not cache.contains_tag(0x42, sdid=2)

    def test_flush_only_touches_own_domain(self):
        cache = make_maya()
        for sdid in (1, 2):
            cache.access(0x42, sdid=sdid)
            cache.access(0x42, sdid=sdid)
        cache.invalidate(0x42, sdid=1)
        assert not cache.contains_tag(0x42, sdid=1)
        assert cache.contains(0x42, sdid=2)

    @pytest.mark.parametrize("sdid", [-1, 256, 1 << 16])
    def test_sdid_outside_the_domains_rejected(self, sdid):
        # 8 SDID bits: 256 domains.  Domain 65536 would otherwise share
        # domain 0's packed (line << 16) | sdid key, and so its line.
        cache = make_maya()
        cache.access(5, sdid=0)
        cache.access(5, sdid=0)
        for probe in (cache.access, cache.contains, cache.contains_tag, cache.invalidate):
            with pytest.raises(ConfigurationError):
                probe(5, sdid=sdid)
        assert cache.contains(5, sdid=0)
        assert cache.stats.accesses == 2

    def test_occupancy_by_domain(self):
        cache = make_maya()
        for addr in range(4):
            cache.access(addr, sdid=1, is_write=True)
        for addr in range(10, 12):
            cache.access(addr, sdid=2, is_write=True)
        by_domain = cache.occupancy_by_domain()
        assert by_domain[1] == 4 and by_domain[2] == 2


class TestMaintenance:
    def test_flush_all(self):
        cache = make_maya()
        for addr in range(20):
            cache.access(addr, is_write=True)
        assert cache.flush_all() == 20
        assert cache.occupancy == 0
        cache.check_invariants()

    def test_rekey_changes_mapping_and_flushes(self):
        cache = make_maya()
        cache.access(1, is_write=True)
        epoch = cache.tags.randomizer.epoch
        cache.rekey()
        assert cache.tags.randomizer.epoch == epoch + 1
        assert cache.occupancy == 0

    def test_invalidate_returns_dirty_writeback(self):
        cache = make_maya()
        cache.access(7, is_write=True)
        evicted = cache.invalidate(7)
        assert evicted is not None and evicted.dirty
        assert cache.invalidate(7) is None

    def test_premature_p0_eviction_tracking(self):
        cfg = MayaConfig(sets_per_skew=4, rng_seed=7, hash_algorithm="splitmix")
        cache = MayaCache(cfg)
        # Flood with one-touch lines so tag evictions recycle them, then
        # re-touch an early line: if its p0 tag was evicted, the miss is
        # recorded as premature.
        for addr in range(cfg.priority0_entries * 4):
            cache.access(addr)
        before = cache.premature_p0_evictions
        for addr in range(cfg.priority0_entries * 4):
            cache.access(addr)
        assert cache.premature_p0_evictions > before


class TestOccupancy:
    def test_occupancy_counts_data_entries(self):
        cache = make_maya()
        for addr in range(5):
            cache.access(addr, is_write=True)
        for addr in range(100, 110):
            cache.access(addr)  # tag-only
        assert cache.occupancy == 5

    def test_occupancy_by_core(self):
        cache = make_maya()
        cache.access(1, core_id=3, is_write=True)
        assert cache.occupancy_by_core() == {3: 1}


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=800),
            st.sampled_from(["read", "write", "writeback"]),
            st.integers(min_value=0, max_value=2),
        ),
        max_size=400,
    )
)
@settings(max_examples=20, deadline=None)
def test_invariants_under_arbitrary_traffic(operations):
    """Any access sequence preserves every cross-structure invariant."""
    cache = make_maya(sets=8, seed=3)
    for addr, kind, sdid in operations:
        cache.access(
            addr,
            is_write=(kind == "write"),
            is_writeback=(kind == "writeback"),
            sdid=sdid,
        )
    cache.check_invariants()
    assert cache.stats.saes == 0


class TestResetStats:
    def test_reset_clears_counters_and_window(self):
        cache = make_maya(sets=4)
        for addr in range(10):
            cache.access(addr)
            cache.access(addr)  # immediate re-touch: promoted to data
        assert cache.stats.accesses > 0
        cache.reset_stats()
        assert cache.stats.accesses == 0
        assert cache.premature_p0_evictions == 0
        assert len(cache._evicted_p0_window) == 0
        # Cache contents survive the reset.
        assert cache.occupancy > 0


class TestStepBinding:
    """``access_fast`` binds the generated step once per instance."""

    def test_step_binds_once(self, monkeypatch):
        from repro.cache.line import first_access
        from repro.common.codegen import template_source
        from repro.core import maya_cache
        from repro.engine.specialize import apply_specialization
        from repro.llc.interface import access_step

        renders = []
        render = maya_cache.maya_step

        def counting_render(llc):
            renders.append(llc)
            return render(llc)

        monkeypatch.setattr(maya_cache, "maya_step", counting_render)
        # A caller that binds the method before any access holds the
        # class binder, so every call below enters it.
        cache = make_maya()
        binder = cache.access_fast
        assert binder.__func__ is first_access
        for i in range(2000):
            binder(i % 300, i % 5 == 0, i % 4, i % 11 == 0, i % 2)
        assert renders == [cache]
        bound = vars(cache)["access_fast"]
        assert cache.access_fast is bound
        assert cache.stats.accesses == 2000

        # access_step binds a fresh design's step before handing it out,
        # as the attack harnesses take it: the generated step itself.
        fresh = make_maya()
        step = access_step(fresh)
        assert template_source(step) is not None
        assert vars(fresh)["access_fast"] is step
        assert access_step(fresh) is step
        assert renders == [cache, fresh]

        spec, info = apply_specialization(cache)
        assert info["llc"] == "MayaCache", info["llc_reason"]
        assert cache.access_fast is not bound
        spec.release()
        assert cache.access_fast is bound
