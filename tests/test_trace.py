"""Trace substrate: records, generators, workloads, mixes."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import TraceError
from repro.trace import (
    GAP_MEMORY_INTENSIVE,
    HETEROGENEOUS_MIXES,
    LLC_FITTING,
    SPEC_MEMORY_INTENSIVE,
    WORKLOADS,
    MemoryAccess,
    get_workload,
    homogeneous,
)
from repro.trace import synthetic


def head(gen, n=1000):
    return list(itertools.islice(gen, n))


class TestRecord:
    def test_equality_and_repr(self):
        a = MemoryAccess(5, True, 3)
        assert a == MemoryAccess(5, True, 3)
        assert a != MemoryAccess(5, False, 3)
        assert "W" in repr(a)


class TestStreaming:
    def test_sequential_and_wrapping(self):
        accesses = head(synthetic.streaming(10, write_fraction=0, seed=1), 25)
        assert [a.line_addr for a in accesses[:12]] == list(range(10)) + [0, 1]

    def test_write_fraction_respected(self):
        accesses = head(synthetic.streaming(1000, write_fraction=0.5, seed=1), 4000)
        writes = sum(a.is_write for a in accesses)
        assert 1700 < writes < 2300

    def test_deterministic(self):
        a = head(synthetic.streaming(100, seed=5))
        b = head(synthetic.streaming(100, seed=5))
        assert a == b


class TestScanWithHotSet:
    def test_hot_addresses_respect_stride(self):
        gen = synthetic.scan_with_hot_set(
            1000, hot_lines=10, hot_fraction=1.0, hot_stride=8, seed=1
        )
        for access in head(gen, 200):
            assert access.line_addr % 8 == 0
            assert access.line_addr < 80

    def test_cold_scan_above_hot_region(self):
        gen = synthetic.scan_with_hot_set(
            1000, hot_lines=10, hot_fraction=0.0, hot_stride=8, seed=1
        )
        for access in head(gen, 200):
            assert access.line_addr >= 80

    def test_hot_fraction_mixes(self):
        gen = synthetic.scan_with_hot_set(1000, hot_lines=10, hot_fraction=0.5, seed=1)
        accesses = head(gen, 2000)
        hot = sum(1 for a in accesses if a.line_addr < 10)
        assert 800 < hot < 1200


class TestPointerChase:
    def test_addresses_in_footprint(self):
        for access in head(synthetic.pointer_chase(500, seed=1)):
            assert 0 <= access.line_addr < 500

    def test_low_short_term_reuse(self):
        accesses = head(synthetic.pointer_chase(100_000, seed=1), 2000)
        assert len({a.line_addr for a in accesses}) > 1900


class TestZipf:
    def test_head_concentration(self):
        accesses = head(synthetic.zipf(10_000, alpha=1.2, seed=1), 5000)
        head_hits = sum(1 for a in accesses if a.line_addr < 1000)
        assert head_hits > 2500  # heavy head

    def test_stride_spaces_addresses(self):
        accesses = head(synthetic.zipf(1000, alpha=1.0, stride=16, seed=1), 500)
        assert all(a.line_addr % 16 == 0 for a in accesses)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            next(synthetic.zipf(100, alpha=0))


class TestWorkingSetAndStencil:
    def test_working_set_loops(self):
        accesses = head(synthetic.working_set(10, write_fraction=0, seed=1), 30)
        assert [a.line_addr for a in accesses[:10]] == list(range(10))
        assert [a.line_addr for a in accesses[10:20]] == list(range(10))

    def test_stencil_revisits_trailing_neighbour(self):
        accesses = head(synthetic.stencil(1000, reuse_distance=4, seed=1), 100)
        addresses = [a.line_addr for a in accesses]
        # After warm-up the pattern alternates (front, front - 4).
        assert addresses[10] - addresses[11] == 4

    def test_mixed_validates_weights(self):
        with pytest.raises(ValueError):
            next(synthetic.mixed([synthetic.streaming(10)], [1, 2]))

    def test_mixed_interleaves(self):
        gen = synthetic.mixed(
            [synthetic.streaming(10, seed=1), synthetic.working_set(5, seed=2)],
            [0.5, 0.5],
            seed=3,
        )
        assert len(head(gen, 100)) == 100


class TestWorkloads:
    def test_all_specs_instantiate(self):
        for name in WORKLOADS:
            stream = get_workload(name).stream(llc_lines=4096, seed=1)
            accesses = head(stream, 200)
            assert len(accesses) == 200
            assert all(a.line_addr >= 0 for a in accesses)

    def test_unknown_workload_raises(self):
        with pytest.raises(TraceError):
            get_workload("dhrystone")

    def test_footprint_scales_with_llc(self):
        small = head(get_workload("cc").stream(llc_lines=1024, seed=1), 5000)
        large = head(get_workload("cc").stream(llc_lines=8192, seed=1), 5000)
        assert max(a.line_addr for a in large) > max(a.line_addr for a in small)

    def test_suite_membership(self):
        assert set(SPEC_MEMORY_INTENSIVE) <= set(WORKLOADS)
        assert set(GAP_MEMORY_INTENSIVE) <= set(WORKLOADS)
        assert set(LLC_FITTING) <= set(WORKLOADS)

    def test_deterministic_given_seed(self):
        a = head(get_workload("mcf").stream(2048, seed=9), 500)
        b = head(get_workload("mcf").stream(2048, seed=9), 500)
        assert a == b


class TestMixes:
    def test_homogeneous(self):
        mix = homogeneous("mcf", cores=4)
        assert mix.assignments == ("mcf",) * 4
        assert mix.cores == 4

    def test_table_vi_all_have_eight_cores(self):
        assert len(HETEROGENEOUS_MIXES) == 21
        for mix in HETEROGENEOUS_MIXES.values():
            assert mix.cores == 8, mix.name

    def test_table_vi_bins(self):
        bins = [m.bin for m in HETEROGENEOUS_MIXES.values()]
        assert {b: bins.count(b) for b in bins} == {"L": 7, "M": 7, "H": 7}

    def test_specific_composition_matches_table_vi(self):
        m4 = HETEROGENEOUS_MIXES["M4"]
        assert sorted(m4.assignments) == sorted(
            ["perlbench", "bwaves", "mcf", "mcf", "mcf", "cam4", "xz", "bc"]
        )
