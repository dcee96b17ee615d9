"""Differential tests for the randomizer's LRU mapping cache.

The cache is a pure performance layer: every (line address, SDID)
mapping it serves must equal what the cipher would compute, across
epochs and security domains, and a re-key must drop every entry (a
stale mapping after an epoch change would be a *correctness* bug - the
whole point of re-keying is that old mappings become invalid).
"""

import pytest

from repro.common.rng import make_rng
from repro.core import MayaCache
from repro.crypto.randomizer import IndexRandomizer
from repro.harness.presets import experiment_maya


@pytest.mark.parametrize("algorithm", ["splitmix", "prince"])
class TestDifferential:
    def test_cached_equals_uncached(self, algorithm):
        """Cached path == cipher path for random addresses x SDIDs x epochs."""
        r = IndexRandomizer(2, 256, seed=11, algorithm=algorithm)
        rng = make_rng(99)
        addresses = [rng.getrandbits(40) for _ in range(2500 if algorithm == "prince" else 10_000)]
        for epoch in range(2):
            for addr in addresses:
                for sdid in (0, 1):
                    assert r.all_indices(addr, sdid) == r.compute_indices(addr, sdid), (
                        epoch, addr, sdid)
            r.rekey()

    def test_repeat_lookups_hit_and_stay_correct(self, algorithm):
        r = IndexRandomizer(2, 128, seed=3, algorithm=algorithm)
        addrs = list(range(200))
        first = [r.all_indices(a) for a in addrs]
        hits_before = r.cache_hits
        second = [r.all_indices(a) for a in addrs]
        assert second == first
        assert r.cache_hits == hits_before + len(addrs)
        assert [r.compute_indices(a) for a in addrs] == first

    def test_sdid_keys_are_distinct_cache_entries(self, algorithm):
        r = IndexRandomizer(2, 256, seed=5, algorithm=algorithm)
        r.all_indices(42, sdid=0)
        r.all_indices(42, sdid=7)
        assert r.cache_info().size == 2
        assert r.all_indices(42, sdid=0) == r.compute_indices(42, sdid=0)
        assert r.all_indices(42, sdid=7) == r.compute_indices(42, sdid=7)


class TestInvalidation:
    def test_rekey_fully_invalidates(self):
        r = IndexRandomizer(2, 256, seed=11, algorithm="splitmix")
        addrs = list(range(500))
        before = {a: r.all_indices(a) for a in addrs}
        assert r.cache_info().size == len(addrs)
        r.rekey()
        info = r.cache_info()
        assert info.size == 0
        assert info.invalidations == 1
        misses_before = r.cache_misses
        after = {a: r.all_indices(a) for a in addrs}
        # Every post-rekey lookup recomputed (no stale entry served) ...
        assert r.cache_misses == misses_before + len(addrs)
        # ... and matches the new keys' cipher output.
        assert all(after[a] == r.compute_indices(a) for a in addrs)
        assert any(after[a] != before[a] for a in addrs)

    def test_construction_counts_no_invalidation(self):
        assert IndexRandomizer(2, 64, seed=1).cache_info().invalidations == 0


class TestLruBehaviour:
    def test_capacity_is_bounded(self):
        r = IndexRandomizer(2, 64, seed=1, algorithm="splitmix", memo_capacity=128)
        for addr in range(1000):
            r.all_indices(addr)
        assert r.cache_info().size == 128

    def test_lru_eviction_order(self):
        r = IndexRandomizer(2, 64, seed=1, algorithm="splitmix", memo_capacity=4)
        for addr in (0, 1, 2, 3):
            r.all_indices(addr)
        r.all_indices(0)  # touch 0: now 1 is the LRU entry
        r.all_indices(4)  # evicts 1
        misses = r.cache_misses
        r.all_indices(0)
        r.all_indices(4)
        assert r.cache_misses == misses  # both still resident
        r.all_indices(1)
        assert r.cache_misses == misses + 1  # 1 was evicted

    def test_rejects_nonpositive_capacity(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            IndexRandomizer(2, 64, memo_capacity=0)


class TestMayaIntegration:
    @pytest.mark.perf
    def test_reuse_heavy_trace_hits_over_half(self):
        """Acceptance: >50% mapping-cache hit rate on a reuse-heavy trace.

        Three sweeps over a fixed working set: the first pays the
        cipher, the rest hit the cache, so the hit rate approaches 2/3.
        """
        cache = MayaCache(experiment_maya(llc_sets=64, seed=9))
        cache.reset_stats()
        working_set = list(range(1500))
        for _ in range(3):
            for addr in working_set:
                cache.access(addr)
        info = cache.refresh_mapping_cache_stats()
        assert cache.stats.randomizer_hit_rate > 0.5
        assert info.hits == cache.stats.randomizer_hits
        assert cache.stats.randomizer_hits + cache.stats.randomizer_misses > 0

    def test_reset_stats_windows_the_counters(self):
        cache = MayaCache(experiment_maya(llc_sets=64, seed=9))
        for addr in range(200):
            cache.access(addr)
        # Flushing drops the tags but keeps the mapping cache warm, so
        # the reinstalls below look up the randomizer and all hit.
        cache.flush_all()
        cache.reset_stats()
        for addr in range(200):
            cache.access(addr)
        cache.refresh_mapping_cache_stats()
        assert cache.stats.randomizer_misses == 0
        assert cache.stats.randomizer_hits >= 200

    def test_rekey_on_sae_policy_invalidates_mapping_cache(self):
        cache = MayaCache(experiment_maya(llc_sets=64, seed=9))
        for addr in range(100):
            cache.access(addr)
        assert cache.tags.randomizer.cache_info().size > 0
        cache.rekey()
        assert cache.tags.randomizer.cache_info().size == 0
        assert cache.tags.randomizer.cache_info().invalidations == 1


class TestBulkMap:
    """bulk_map pre-warming must be invisible to the memo's accounting."""

    def test_precomputes_correct_mappings(self):
        r = IndexRandomizer(2, 256, seed=11, algorithm="splitmix")
        addrs = list(range(300))
        assert r.bulk_map(addrs, sdid=3) == len(addrs)
        info = r.cache_info()
        assert info.precomputed == len(addrs)
        assert (info.hits, info.misses, info.size) == (0, 0, 0)
        for addr in addrs:
            assert r.all_indices(addr, sdid=3) == r.compute_indices(addr, sdid=3)

    def test_counters_identical_with_and_without_prewarm(self):
        addrs = [a % 97 for a in range(0, 4000, 7)]  # revisits + evictions
        plain = IndexRandomizer(2, 128, seed=5, algorithm="splitmix", memo_capacity=50)
        warmed = IndexRandomizer(2, 128, seed=5, algorithm="splitmix", memo_capacity=50)
        warmed.bulk_map(set(addrs))
        results = []
        for r in (plain, warmed):
            results.append([r.all_indices(a) for a in addrs])
        assert results[0] == results[1]
        a, b = plain.cache_info(), warmed.cache_info()
        assert (a.hits, a.misses, a.size) == (b.hits, b.misses, b.size)

    def test_skips_already_known_pairs(self):
        r = IndexRandomizer(2, 64, seed=2, algorithm="splitmix")
        r.all_indices(10)  # lands in the memo
        assert r.bulk_map([10, 11]) == 1  # only 11 is new
        assert r.bulk_map([11]) == 0  # already in the side table

    def test_rekey_drops_precomputed(self):
        r = IndexRandomizer(2, 64, seed=2, algorithm="splitmix")
        r.bulk_map(range(50))
        r.rekey()
        assert r.cache_info().precomputed == 0
        # After the rekey every lookup must reflect the *new* keys.
        for addr in range(50):
            assert r.all_indices(addr) == r.compute_indices(addr)

    def test_llc_delegation(self):
        cache = MayaCache(experiment_maya(llc_sets=64, seed=9))
        assert cache.mapping_cache_capacity == cache.tags.randomizer.memo_capacity


class TestPrecomputedBound:
    """The bulk_map side table is FIFO-bounded: no memory leak."""

    def test_capacity_enforced_with_eviction_counter(self):
        r = IndexRandomizer(2, 64, seed=3, algorithm="splitmix", precomputed_capacity=30)
        assert r.precomputed_capacity == 30
        r.bulk_map(range(100))
        info = r.cache_info()
        assert info.precomputed == 30
        assert info.precomputed_evictions == 70
        # The survivors are the most recently installed (FIFO evicts oldest).
        assert set(r._precomputed) == {(a, 0) for a in range(70, 100)}

    def test_evicted_entries_recompute_correctly(self):
        r = IndexRandomizer(2, 64, seed=3, algorithm="splitmix", precomputed_capacity=10)
        r.bulk_map(range(50))
        for addr in range(50):  # evicted or not, values must match the cipher
            assert r.all_indices(addr) == r.compute_indices(addr)

    def test_clear_precomputed(self):
        r = IndexRandomizer(2, 64, seed=3, algorithm="splitmix")
        r.bulk_map(range(25))
        r.all_indices(0)
        before = r.cache_info()
        assert r.clear_precomputed() == 25
        after = r.cache_info()
        assert after.precomputed == 0
        # Memo contents and counters untouched.
        assert (after.hits, after.misses, after.size) == (before.hits, before.misses, before.size)

    def test_invalid_capacity_rejected(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            IndexRandomizer(2, 64, precomputed_capacity=0)


class TestTranslateAndLoadPacked:
    """Batch translation is the bulk_map substrate and must match it."""

    def test_translate_matches_compute_indices(self):
        for algorithm in ("prince", "splitmix"):
            r = IndexRandomizer(2, 256, seed=11, algorithm=algorithm)
            addrs = list(range(0, 600, 3))
            columns = r.translate(addrs, sdid=2)
            assert len(columns) == 2
            for i, addr in enumerate(addrs):
                assert tuple(c[i] for c in columns) == r.compute_indices(addr, 2)
            # translate() itself caches nothing.
            assert r.cache_info().precomputed == 0

    def test_load_packed_feeds_the_miss_path(self):
        r = IndexRandomizer(2, 256, seed=11, algorithm="prince")
        addrs = list(range(100))
        assert r.load_packed(addrs, r.translate(addrs)) == 100
        assert r.cache_info().precomputed == 100
        for addr in addrs:
            assert r.all_indices(addr) == r.compute_indices(addr)

    def test_load_packed_validates_column_count(self):
        from repro.common.errors import ConfigurationError

        r = IndexRandomizer(2, 256, seed=11, algorithm="splitmix")
        with pytest.raises(ConfigurationError, match="index columns"):
            r.load_packed([1, 2], r.translate([1, 2])[:1])

    def test_bulk_map_equals_translate_install(self):
        a = IndexRandomizer(2, 128, seed=4, algorithm="splitmix")
        b = IndexRandomizer(2, 128, seed=4, algorithm="splitmix")
        addrs = list(range(200))
        a.bulk_map(addrs, sdid=1)
        b.load_packed(addrs, b.translate(addrs, 1), sdid=1)
        assert a._precomputed == b._precomputed


class TestKeyFingerprint:
    def test_sensitive_to_every_mapping_input(self):
        base = IndexRandomizer(2, 256, seed=7, algorithm="prince")
        distinct = {
            base.key_fingerprint(),
            IndexRandomizer(2, 256, seed=8, algorithm="prince").key_fingerprint(),
            IndexRandomizer(2, 256, seed=7, algorithm="splitmix").key_fingerprint(),
            IndexRandomizer(3, 256, seed=7, algorithm="prince").key_fingerprint(),
            IndexRandomizer(2, 512, seed=7, algorithm="prince").key_fingerprint(),
        }
        assert len(distinct) == 5

    def test_stable_within_epoch_changes_on_rekey(self):
        r = IndexRandomizer(2, 256, seed=7, algorithm="prince")
        assert r.key_fingerprint() == r.key_fingerprint()
        before = r.key_fingerprint()
        r.rekey()
        assert r.key_fingerprint() != before

    def test_same_seed_same_fingerprint(self):
        a = IndexRandomizer(2, 256, seed=7, algorithm="prince")
        b = IndexRandomizer(2, 256, seed=7, algorithm="prince")
        assert a.key_fingerprint() == b.key_fingerprint()


class TestSplitmixHelper:
    def test_shared_mixer_is_the_inlined_mixer(self):
        # The dedup must not change a single mapping: recompute the
        # two-skew specialized path against a by-hand mixer evaluation.
        from repro.crypto.randomizer import splitmix64

        r = IndexRandomizer(2, 256, seed=9, algorithm="splitmix")
        m64 = (1 << 64) - 1
        for addr in (0, 1, 12345, 2**40 - 3):
            expected = []
            for key in r._mix_keys:
                x = splitmix64((addr ^ key) & m64)
                f = 0
                bits = r.index_bits
                while x:
                    f ^= x & ((1 << bits) - 1)
                    x >>= bits
                expected.append(f)
            assert r.compute_indices(addr) == tuple(expected)

    def test_encrypt_address_uses_shared_mixer(self):
        from repro.crypto.randomizer import splitmix64

        r = IndexRandomizer(1, 64, seed=3, algorithm="splitmix")
        addr = 987654321
        assert r.encrypt_address(addr) == splitmix64(addr ^ r._mix_keys[0])
