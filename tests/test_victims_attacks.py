"""Victim models and attack harnesses."""

import pytest

from repro.common.config import CacheGeometry, MayaConfig
from repro.core import MayaCache
from repro.llc import BaselineLLC, FullyAssociativeCache, make_scatter_cache
from repro.security.attacks import (
    construct_eviction_set,
    flush_reload_accuracy,
    operations_to_distinguish,
    targeting_advantage,
    welch_t,
)
from repro.security.victims import (
    AESKey,
    AESVictim,
    ModExpVictim,
    RSAKey,
    aes_key_pair,
    modexp_key_pair,
)


def small_maya_cache(sets=64, seed=2):
    return MayaCache(MayaConfig(sets_per_skew=sets, rng_seed=seed, hash_algorithm="splitmix"))


class TestVictims:
    def test_aes_key_validation(self):
        with pytest.raises(ValueError):
            AESKey([1, 2, 3])
        with pytest.raises(ValueError):
            AESKey([300] * 16)

    def test_aes_accesses_within_tables(self):
        victim = AESVictim(aes_key_pair(seed=1)[0], seed=2)
        accesses = victim.encryption_accesses()
        assert len(accesses) == 160  # 10 rounds x 16 lookups
        for addr in accesses:
            assert any(base <= addr < base + 16 for base in AESVictim.TABLE_BASES)

    def test_aes_keys_have_different_footprints(self):
        key_a, key_b = aes_key_pair(seed=1)
        footprint_a = {a for _ in range(30) for a in AESVictim(key_a, seed=2).encryption_accesses()}
        footprint_b = {a for _ in range(30) for a in AESVictim(key_b, seed=2).encryption_accesses()}
        assert len(footprint_b) > len(footprint_a)

    def test_rsa_key_validation(self):
        with pytest.raises(ValueError):
            RSAKey([])
        with pytest.raises(ValueError):
            RSAKey([0, 2])
        assert RSAKey([1, 0, 1]).hamming_weight == 2

    def test_modexp_footprint_tracks_hamming_weight(self):
        sparse, dense = modexp_key_pair(bits=64, seed=1)
        assert dense.hamming_weight > sparse.hamming_weight
        lines_sparse = set(ModExpVictim(sparse, seed=1).encryption_accesses())
        lines_dense = set(ModExpVictim(dense, seed=1).encryption_accesses())
        assert len(lines_dense) > len(lines_sparse)


class TestWelchT:
    def test_identical_samples_zero(self):
        assert welch_t([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]) == 0.0

    def test_clear_separation_is_large(self):
        assert abs(welch_t([10.0, 10.1, 9.9] * 4, [20.0, 20.1, 19.9] * 4)) > 50

    def test_insufficient_samples(self):
        assert welch_t([1.0], [2.0]) == 0.0


class TestTargetingAdvantage:
    def test_baseline_is_targetable(self, tiny_geometry):
        llc = BaselineLLC(CacheGeometry(sets=16, ways=8))
        result = targeting_advantage(llc, fills=16, trials=40, seed=1)
        assert result.targeted_eviction_rate > 0.9
        assert result.advantage > 10

    def test_maya_is_not_targetable(self):
        llc = small_maya_cache(sets=16)
        result = targeting_advantage(llc, fills=64, trials=40, seed=1)
        # Global random eviction: targeted fills no better than random.
        assert result.targeted_eviction_rate <= result.random_eviction_rate + 0.25


class TestEvictionSetConstruction:
    def test_succeeds_against_baseline(self):
        llc = BaselineLLC(CacheGeometry(sets=16, ways=8))
        result = construct_eviction_set(
            llc, pool_size=256, target_size=8, max_queries=300, seed=1
        )
        assert result.found
        assert len(result.eviction_set) <= 8
        target = llc.set_index(0x7FFF_0000)
        assert all(llc.set_index(a) == target for a in result.eviction_set)

    def test_fails_against_maya(self):
        llc = small_maya_cache(sets=16)
        result = construct_eviction_set(
            llc, pool_size=256, target_size=8, max_queries=120, seed=1
        )
        assert not result.found


class TestFlushReload:
    def test_perfect_channel_on_baseline(self, tiny_geometry):
        llc = BaselineLLC(tiny_geometry)
        assert flush_reload_accuracy(llc, trials=100, seed=1).accuracy == 1.0

    def test_no_channel_on_maya(self):
        llc = small_maya_cache()
        accuracy = flush_reload_accuracy(llc, trials=300, seed=1).accuracy
        assert 0.4 <= accuracy <= 0.6

    def test_no_channel_on_scatter_cache(self, tiny_geometry):
        llc = make_scatter_cache(tiny_geometry, seed=1)
        accuracy = flush_reload_accuracy(llc, trials=300, seed=1).accuracy
        assert 0.4 <= accuracy <= 0.6


class TestOccupancyAttack:
    def test_distinguishes_on_fully_associative(self):
        ka, kb = modexp_key_pair(seed=11)
        llc = FullyAssociativeCache(1024, seed=1)
        result = operations_to_distinguish(
            llc,
            lambda: ModExpVictim(ka, seed=1),
            lambda: ModExpVictim(kb, seed=2),
            attacker_lines=1024,
            max_operations=600,
            seed=7,
        )
        assert result.distinguished
        assert result.mean_b > result.mean_a  # dense key evicts more

    def test_set_associative_no_harder_than_fa(self):
        """Fig. 8 ordering: the 16-way cache is easier (or equal)."""
        ka, kb = modexp_key_pair(seed=11)

        def measure(llc, lines):
            return operations_to_distinguish(
                llc,
                lambda: ModExpVictim(ka, seed=1),
                lambda: ModExpVictim(kb, seed=2),
                attacker_lines=lines,
                max_operations=600,
                seed=7,
            ).operations

        sa_ops = measure(BaselineLLC(CacheGeometry(sets=64, ways=16), policy="lru"), 1024)
        fa_ops = measure(FullyAssociativeCache(1024, seed=1), 1024)
        assert sa_ops <= fa_ops

    def test_maya_remains_attackable(self):
        """Maya does not *mitigate* occupancy attacks (Section IV-D)."""
        ka, kb = modexp_key_pair(seed=11)
        llc = small_maya_cache()
        result = operations_to_distinguish(
            llc,
            lambda: ModExpVictim(ka, seed=1),
            lambda: ModExpVictim(kb, seed=2),
            attacker_lines=llc.config.data_entries,
            max_operations=2000,
            seed=7,
        )
        assert result.distinguished


class TestLineage:
    """Set-associative -> Mirage -> Maya: randomization is what kills
    targeting."""

    def test_set_assoc_is_targetable_but_mirage_is_not(self):
        from repro.llc import BaselineLLC, MirageCache
        from repro.common.config import CacheGeometry, MirageConfig

        baseline = BaselineLLC(CacheGeometry(sets=16, ways=8), policy="random", seed=1)
        result = targeting_advantage(baseline, fills=64, trials=40, seed=1)
        # The set index is public: conflicts are addressable.
        assert result.targeted_eviction_rate > result.random_eviction_rate + 0.2

        mirage = MirageCache(MirageConfig(sets_per_skew=16, rng_seed=1, hash_algorithm="splitmix"))
        result = targeting_advantage(mirage, fills=64, trials=40, seed=1)
        assert result.targeted_eviction_rate <= result.random_eviction_rate + 0.25


class TestPolicyLeakageAcrossPolicies:
    """The one-line probe channel, under all four replacement policies.

    Deterministic recency policies hand the attacker the victim bit
    (the first-primed line is always the one displaced); random
    replacement bounds the channel near a coin flip; Maya removes the
    set-targeting entirely.
    """

    @pytest.mark.parametrize("policy", ["lru", "srrip", "brrip"])
    def test_deterministic_policies_leak(self, policy):
        from repro.security.attacks import replacement_leakage

        llc = BaselineLLC(CacheGeometry(sets=16, ways=8), policy=policy, seed=3)
        outcome = replacement_leakage(llc, ways=8, trials=40, seed=5)
        assert outcome.accuracy >= 0.9

    def test_random_policy_bounds_the_channel(self):
        from repro.security.attacks import replacement_leakage

        llc = BaselineLLC(CacheGeometry(sets=16, ways=8), policy="random", seed=3)
        outcome = replacement_leakage(llc, ways=8, trials=60, seed=5)
        # 0.5 + 1/(2*ways) plus sampling noise.
        assert outcome.accuracy < 0.75

    def test_maya_is_a_coin_flip(self):
        from repro.security.attacks import replacement_leakage

        outcome = replacement_leakage(small_maya_cache(sets=16), ways=8, trials=60, seed=5)
        assert abs(outcome.accuracy - 0.5) <= 0.15


class TestPrimePruneProbeAcrossPolicies:
    """PPP observes conflicts instead of computing them, so it works
    under any deterministic policy - and still dies against Maya."""

    @pytest.mark.parametrize("policy", ["lru", "srrip", "brrip"])
    def test_constructs_against_baseline(self, policy):
        from repro.security.attacks import prime_prune_probe

        llc = BaselineLLC(CacheGeometry(sets=16, ways=8), policy=policy, seed=3)
        result = prime_prune_probe(llc, target_size=8, max_rounds=16, confirm=2, seed=9)
        assert result.found
        assert len(result.eviction_set) >= 8
        assert result.construction_cost > 0

    def test_fails_against_maya_with_full_budget(self):
        from repro.security.attacks import prime_prune_probe

        result = prime_prune_probe(
            small_maya_cache(sets=16), target_size=8, max_rounds=10, confirm=2, seed=9
        )
        assert not result.found
        assert result.eviction_set == []
        assert result.rounds == 10  # burned the whole budget

    def test_scatter_cache_resists_at_small_budget(self):
        from repro.security.attacks import prime_prune_probe

        llc = make_scatter_cache(CacheGeometry(sets=16, ways=8), seed=3)
        result = prime_prune_probe(llc, target_size=8, max_rounds=10, confirm=2, seed=9)
        assert not result.found


class TestRekeyMidAttack:
    """The defender's countermeasure: rekeying mid-attack invalidates
    the attacker's accumulated mapping knowledge - including the
    randomizer's pretranslated side tables (the PR 5 fallback path)."""

    def test_ceaser_rekey_breaks_the_policy_probe(self):
        from repro.llc import CeaserCache
        from repro.security.attacks import replacement_leakage

        def fresh(seed=3):
            return CeaserCache(
                CacheGeometry(sets=16, ways=8),
                remap_period=10**9,
                seed=seed,
                hash_algorithm="splitmix",
                policy="lru",
            )

        stable = replacement_leakage(fresh(), ways=8, trials=32, seed=5)
        rekeyed = replacement_leakage(fresh(), ways=8, trials=32, rekey_every=4, seed=5)
        assert stable.accuracy == 1.0
        assert rekeyed.rekeys == 7
        assert rekeyed.accuracy <= stable.accuracy - 0.2

    def test_ceaser_rekey_breaks_ppp_construction(self):
        from repro.llc import CeaserCache
        from repro.security.attacks import prime_prune_probe

        llc = CeaserCache(
            CacheGeometry(sets=16, ways=8),
            remap_period=10**9,
            seed=3,
            hash_algorithm="splitmix",
            policy="lru",
        )
        # Rekey every round: no two rounds share a mapping, so caught
        # lines never accumulate into a set that verifies.
        result = prime_prune_probe(
            llc, target_size=8, max_rounds=10, confirm=2, rekey_every=1, seed=9
        )
        assert not result.found

    def test_maya_rekey_invalidates_pretranslated_indices(self):
        """Attack traffic after rekey() must fall back to live
        translation: the packed side table is invalidated, the epoch
        advances, and the attack keeps running correctly."""
        from repro.security.attacks import prime_prune_probe

        llc = small_maya_cache(sets=16)
        randomizer = llc.tags.randomizer
        # Simulate the trace fast path: pretranslate some attack lines.
        lines = list(range(0x6000_0000, 0x6000_0000 + 64))
        randomizer.bulk_map(lines, 0)
        info = randomizer.cache_info()
        assert info.precomputed > 0
        epoch_before = randomizer.epoch
        prime_prune_probe(llc, target_size=4, max_rounds=2, confirm=1, seed=9)
        llc.rekey()
        info = randomizer.cache_info()
        assert randomizer.epoch == epoch_before + 1
        assert info.invalidations >= 1
        assert info.precomputed == 0  # side table dropped with the keys
        # The attack continues against the new mapping without error.
        result = prime_prune_probe(llc, target_size=4, max_rounds=2, confirm=1, seed=10)
        assert result.rounds == 2
        llc.check_invariants()

    def test_ppp_rekey_mid_attack_on_maya_runs_clean(self):
        from repro.security.attacks import prime_prune_probe

        llc = small_maya_cache(sets=16)
        result = prime_prune_probe(
            llc, target_size=8, max_rounds=6, confirm=2, rekey_every=2, seed=9
        )
        assert not result.found
        assert llc.tags.randomizer.epoch >= 2
        llc.check_invariants()
