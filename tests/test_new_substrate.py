"""Tests for the extension substrates: OPT, DRAM bandwidth, channel
measurement, fingerprinting."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.opt import opt_hit_rate, policy_gap_report, set_associative_opt_hit_rate
from repro.cache.set_assoc import SetAssociativeCache
from repro.common.config import CacheGeometry, DramConfig, MayaConfig
from repro.core import MayaCache
from repro.hierarchy.dram import DramModel
from repro.llc import BaselineLLC, FullyAssociativeCache
from repro.security.attacks import fingerprint_accuracy
from repro.security.channel import leakage_curve, mutual_information_binary
from repro.security.victims import ModExpVictim, WebsiteVictim, modexp_key_pair, website_catalog


class TestOpt:
    def test_textbook_example(self):
        assert opt_hit_rate([1, 2, 1, 3, 2], capacity_lines=2) == pytest.approx(0.4)

    def test_everything_fits(self):
        trace = [1, 2, 3] * 10
        assert opt_hit_rate(trace, capacity_lines=3) == pytest.approx(27 / 30)

    def test_opt_dominates_lru_and_srrip(self):
        import random
        rng = random.Random(0)
        trace = [rng.randrange(64) for _ in range(3000)]
        geometry = CacheGeometry(sets=4, ways=4)
        report = policy_gap_report(trace, geometry)
        assert report["opt"] >= report["lru"] - 1e-9
        assert report["opt"] >= report["srrip"] - 1e-9
        assert report["opt_fa"] >= report["opt"] - 1e-9

    def test_empty_trace(self):
        assert opt_hit_rate([], 4) == 0.0
        assert set_associative_opt_hit_rate([], CacheGeometry(sets=2, ways=2)) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            opt_hit_rate([1], 0)

    @given(st.lists(st.integers(min_value=0, max_value=30), max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_opt_upper_bounds_lru_fully_associative(self, trace):
        """MIN is optimal: no online policy beats it at equal capacity."""
        capacity = 4
        opt = opt_hit_rate(trace, capacity)
        cache = SetAssociativeCache(CacheGeometry(sets=1, ways=capacity), policy="lru")
        lru_hits = sum(1 for addr in trace if cache.access(addr).hit)
        lru = lru_hits / len(trace) if trace else 0.0
        assert opt >= lru - 1e-9


class TestDramBandwidth:
    def test_queueing_applies_when_now_given(self):
        dram = DramModel(DramConfig(service_cycles=10))
        first = dram.access(0, now=0.0)
        second = dram.access(10_000_000, now=0.0)  # arrives while busy
        assert second > first - dram.config.row_miss_cycles + 5
        assert dram.queue_cycles > 0

    def test_no_queueing_without_now(self):
        dram = DramModel()
        dram.access(0)
        dram.access(10_000_000)
        assert dram.queue_cycles == 0

    def test_idle_channel_no_delay(self):
        dram = DramModel(DramConfig(service_cycles=10))
        dram.access(0, now=0.0)
        lat = dram.access(0, now=1000.0)  # long idle gap, same row
        assert lat == dram.config.row_hit_cycles


class TestChannel:
    def test_perfectly_separable_is_one_bit(self):
        assert mutual_information_binary([0.0] * 64, [1.0] * 64) == pytest.approx(1.0, abs=0.01)

    def test_identical_distributions_zero(self):
        assert mutual_information_binary([3.0] * 64, [3.0] * 64) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            mutual_information_binary([], [1.0])

    def test_leakage_curve_monotone_observations(self):
        key_a, key_b = modexp_key_pair(seed=1)
        llc = FullyAssociativeCache(512, seed=1)
        curve = leakage_curve(
            llc,
            lambda: ModExpVictim(key_a, seed=1),
            lambda: ModExpVictim(key_b, seed=2),
            attacker_lines=512,
            observation_counts=(4, 16),
            seed=3,
        )
        assert [p.observations for p in curve] == [4, 16]
        assert all(0.0 <= p.mutual_information_bits <= 1.0 for p in curve)


class TestFingerprinting:
    def test_websites_distinguishable_on_baseline(self):
        result = fingerprint_accuracy(
            lambda: BaselineLLC(CacheGeometry(sets=32, ways=16)),
            website_catalog(seed=1),
            attacker_lines=512,
            training_loads=2,
            test_loads=2,
            seed=2,
        )
        assert result.accuracy > 0.5  # well above the 1/3 chance level

    def test_maya_does_not_hide_occupancy(self):
        """The paper's explicit non-claim: occupancy leaks on Maya too."""
        cfg = MayaConfig(sets_per_skew=32, rng_seed=1, hash_algorithm="splitmix")
        result = fingerprint_accuracy(
            lambda: MayaCache(cfg),
            website_catalog(seed=1),
            attacker_lines=cfg.data_entries,
            training_loads=2,
            test_loads=2,
            seed=2,
        )
        assert result.accuracy > 0.5

    def test_website_victim_validation(self):
        with pytest.raises(ValueError):
            WebsiteVictim(())
