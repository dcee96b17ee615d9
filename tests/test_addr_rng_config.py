"""Tests for repro.common: addresses, RNG management, configurations."""

import pytest
from hypothesis import given, strategies as st

from repro.common.addr import set_index_from_address
from repro.common.config import (
    CacheGeometry,
    DramConfig,
    MayaConfig,
    MirageConfig,
    PAPER_BASELINE,
    PAPER_MAYA,
    PAPER_MIRAGE,
    SystemConfig,
)
from repro.common.errors import ConfigurationError
from repro.common.rng import DEFAULT_SEED, derive_seed, make_rng


class TestAddresses:
    @given(st.integers(min_value=0, max_value=(1 << 46) - 1))
    def test_set_index_is_the_low_line_bits(self, line):
        assert set_index_from_address(line, 1024) == line % 1024


class TestRng:
    def test_default_seed_is_deterministic(self):
        assert make_rng().random() == make_rng().random()
        assert make_rng(5).random() == make_rng(5).random()
        assert make_rng(5).random() != make_rng(6).random()

    def test_derive_seed_separates_streams(self):
        seeds = {derive_seed(1, s) for s in range(100)}
        assert len(seeds) == 100

    def test_derive_seed_none_uses_default(self):
        assert derive_seed(None, 3) == derive_seed(DEFAULT_SEED, 3)


class TestCacheGeometry:
    def test_paper_baseline(self):
        assert PAPER_BASELINE.lines == 262144
        assert PAPER_BASELINE.capacity_bytes == 16 * 1024 * 1024

    def test_scaled_preserves_ways(self):
        scaled = PAPER_BASELINE.scaled(16)
        assert scaled.sets == 1024
        assert scaled.ways == 16

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigurationError):
            CacheGeometry(sets=12, ways=4)

    def test_rejects_bad_scale(self):
        with pytest.raises(ConfigurationError):
            CacheGeometry(sets=8, ways=4).scaled(16)


class TestMayaConfig:
    def test_paper_defaults_match_section_iii(self):
        cfg = PAPER_MAYA
        assert cfg.ways_per_skew == 15
        assert cfg.tag_entries == 491520  # 480K
        assert cfg.priority1_entries == 196608  # 192K
        assert cfg.priority0_entries == 98304  # 96K
        assert cfg.data_capacity_bytes == 12 * 1024 * 1024
        assert cfg.max_domains == 256

    def test_scaling_preserves_way_structure(self):
        scaled = PAPER_MAYA.scaled(16)
        assert scaled.ways_per_skew == 15
        assert scaled.priority0_entries * 16 == PAPER_MAYA.priority0_entries

    def test_rejects_zero_reuse_ways(self):
        with pytest.raises(ConfigurationError):
            MayaConfig(reuse_ways_per_skew=0)

    def test_rejects_single_skew(self):
        with pytest.raises(ConfigurationError):
            MayaConfig(skews=1)

    def test_rejects_bad_sdid(self):
        with pytest.raises(ConfigurationError):
            MayaConfig(sdid_bits=0)


class TestMirageConfig:
    def test_paper_defaults_match_table_viii(self):
        assert PAPER_MIRAGE.tag_entries == 458752
        assert PAPER_MIRAGE.data_entries == 262144
        assert PAPER_MIRAGE.data_capacity_bytes == 16 * 1024 * 1024

    def test_rejects_no_base_ways(self):
        with pytest.raises(ConfigurationError):
            MirageConfig(base_ways_per_skew=0)


class TestSystemAndDram:
    def test_dram_validation(self):
        with pytest.raises(ConfigurationError):
            DramConfig(row_hit_cycles=0)
        with pytest.raises(ConfigurationError):
            DramConfig(row_hit_cycles=100, row_miss_cycles=50)

    def test_system_defaults(self):
        cfg = SystemConfig()
        assert cfg.cores == 8
