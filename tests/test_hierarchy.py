"""The hierarchy: DRAM, prefetcher, writeback propagation, simulation."""

import pytest

from repro.common.config import CacheGeometry, DramConfig, MirageConfig, SystemConfig
from repro.common.errors import ConfigurationError
from repro.core import MayaCache
from repro.common.config import MayaConfig
from repro.hierarchy import (
    CacheHierarchy,
    DramModel,
    StridePrefetcher,
    normalized_weighted_speedup,
    run_mix,
    weighted_speedup,
)
from repro.llc import BaselineLLC
from repro.reference import (
    AccessFastAdapter,
    ReferenceFullyAssociativeCache,
    ReferenceMayaCache,
    ReferenceMirageCache,
    ReferenceSkewedRandomizedCache,
)
from repro.trace import homogeneous


class TestDram:
    def test_row_hit_is_faster(self):
        dram = DramModel(DramConfig(row_hit_cycles=50, row_miss_cycles=100))
        first = dram.access(0)
        second = dram.access(1)  # same 4 KB row
        assert first == 100 and second == 50
        assert dram.row_hit_rate == 0.5

    def test_different_rows_miss(self):
        dram = DramModel()
        dram.access(0)
        lines_per_row = 4096 // 64
        assert dram.access(lines_per_row * DramModel().config.banks) == dram.config.row_miss_cycles

    def test_writes_counted_but_do_not_disturb_rows(self):
        dram = DramModel()
        dram.access(0)
        dram.access(10_000, is_write=True)
        assert dram.access(1) == dram.config.row_hit_cycles
        assert dram.writes == 1

    def test_reset_stats(self):
        dram = DramModel()
        dram.access(0)
        dram.reset_stats()
        assert dram.reads == 0 and dram.row_hits == 0


class TestPrefetcher:
    def test_detects_constant_stride(self):
        pf = StridePrefetcher(degree=2)
        issued = []
        for addr in range(0, 40, 4):
            issued = pf.observe(addr)
        assert issued == [40, 44]

    def test_no_prefetch_on_random(self):
        pf = StridePrefetcher()
        import random
        rng = random.Random(1)
        total = sum(len(pf.observe(rng.randrange(10_000))) for _ in range(200))
        assert total < 20

    def test_reset(self):
        pf = StridePrefetcher()
        for addr in range(0, 40, 4):
            pf.observe(addr)
        pf.reset()
        assert pf.observe(100) == []

    def test_rejects_zero_degree(self):
        with pytest.raises(ValueError):
            StridePrefetcher(degree=0)


class TestHierarchy:
    def make(self, tiny_system, prefetch=False):
        llc = BaselineLLC(tiny_system.llc_geometry)
        return llc, CacheHierarchy(llc, tiny_system, enable_prefetch=prefetch)

    def test_l1_hit_is_cheapest(self, tiny_system):
        llc, hier = self.make(tiny_system)
        cold = hier.access(0, 100)
        warm = hier.access(0, 100)
        assert warm == tiny_system.latencies.l1_cycles
        assert cold > warm

    def test_llc_miss_pays_dram(self, tiny_system):
        llc, hier = self.make(tiny_system)
        lat = hier.access(0, 100)
        expected_min = (
            tiny_system.latencies.l1_cycles
            + tiny_system.latencies.l2_cycles
            + tiny_system.latencies.llc_cycles
        )
        assert lat > expected_min

    def test_secure_llc_extra_latency_charged(self, tiny_system):
        maya = MayaCache(MayaConfig(sets_per_skew=64, rng_seed=1, hash_algorithm="splitmix"))
        hier = CacheHierarchy(maya, tiny_system, enable_prefetch=False)
        base_llc, base_hier = self.make(tiny_system)
        assert hier.access(0, 100) == base_hier.access(0, 100) + maya.extra_lookup_latency

    def test_dirty_writebacks_propagate_to_llc(self, tiny_system):
        llc, hier = self.make(tiny_system)
        # Dirty a line, then push enough conflicting lines through L1/L2
        # to force it down to the LLC as a writeback.
        hier.access(0, 0, is_write=True)
        l1_sets = tiny_system.l1d_geometry.sets
        l2_sets = tiny_system.l2_geometry.sets
        for i in range(1, 200):
            hier.access(0, i * l1_sets * l2_sets)
        assert llc.stats.writebacks_received > 0

    def test_prefetch_covers_streaming(self, tiny_system):
        llc_pf, hier_pf = self.make(tiny_system, prefetch=True)
        llc_np, hier_np = self.make(tiny_system, prefetch=False)
        for addr in range(400):
            hier_pf.access(0, addr)
            hier_np.access(0, addr)
        assert hier_pf.prefetchers[0].issued > 100
        # Prefetching converts L1 misses into hits on the stream.
        assert hier_pf.l1[0].stats.hit_rate > hier_np.l1[0].stats.hit_rate + 0.3

    def test_reset_stats(self, tiny_system):
        llc, hier = self.make(tiny_system)
        hier.access(0, 1)
        hier.reset_stats()
        assert llc.stats.accesses == 0
        assert hier.l1[0].stats.accesses == 0

    def test_rejects_sub_unity_mlp(self, tiny_system):
        with pytest.raises(ValueError):
            CacheHierarchy(BaselineLLC(tiny_system.llc_geometry), tiny_system, mlp_factor=0.5)

    #: Every object-model reference LLC: each has only access().
    REFERENCES = {
        "mirage": lambda system: ReferenceMirageCache(
            MirageConfig(sets_per_skew=16, rng_seed=7, hash_algorithm="splitmix")),
        "maya": lambda system: ReferenceMayaCache(
            MayaConfig(sets_per_skew=16, rng_seed=7, hash_algorithm="splitmix")),
        "skewed": lambda system: ReferenceSkewedRandomizedCache(
            system.llc_geometry, seed=3, hash_algorithm="splitmix"),
        "fully_assoc": lambda system: ReferenceFullyAssociativeCache(
            system.llc_geometry.lines, seed=3),
    }

    @pytest.mark.parametrize("name", sorted(REFERENCES))
    def test_rejects_llc_without_access_fast(self, tiny_system, name):
        # The hierarchy drives the LLC through the access_fast protocol
        # alone, so a model with only access() is refused up front.
        model = self.REFERENCES[name](tiny_system)
        with pytest.raises(ConfigurationError,
                           match=f"{type(model).__name__} has no access_fast step"):
            CacheHierarchy(model, tiny_system)
        with pytest.raises(ConfigurationError):
            run_mix(model, homogeneous("mcf", 2), tiny_system, 100, 50)
        assert model.stats.accesses == 0
        # Behind the adapter it runs.
        hier = CacheHierarchy(AccessFastAdapter(model), tiny_system, enable_prefetch=False)
        hier.access(0, 1)
        assert model.stats.accesses == 1


class TestRunMix:
    def test_run_mix_produces_per_core_results(self, tiny_system):
        mix = homogeneous("mcf", cores=2)
        result = run_mix(
            BaselineLLC(tiny_system.llc_geometry), mix, tiny_system,
            accesses_per_core=500, warmup_accesses=200, seed=1,
        )
        assert len(result.cores) == 2
        assert all(c.ipc > 0 for c in result.cores)
        assert all(c.instructions > 0 for c in result.cores)
        assert result.llc_mpki >= 0

    def test_mix_needs_enough_cores(self, tiny_system):
        mix = homogeneous("mcf", cores=4)
        with pytest.raises(ValueError):
            run_mix(BaselineLLC(tiny_system.llc_geometry), mix, tiny_system, 100, 50)

    def test_deterministic(self, tiny_system):
        mix = homogeneous("mcf", cores=2)
        a = run_mix(BaselineLLC(tiny_system.llc_geometry), mix, tiny_system, 400, 100, seed=3)
        b = run_mix(BaselineLLC(tiny_system.llc_geometry), mix, tiny_system, 400, 100, seed=3)
        assert a.ipcs == b.ipcs


class TestWeightedSpeedup:
    def test_definition(self):
        assert weighted_speedup([1.0, 2.0], [2.0, 2.0]) == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            weighted_speedup([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            weighted_speedup([1.0], [0.0])

    def test_normalized_self_is_unity(self, tiny_system):
        mix = homogeneous("mcf", cores=2)
        r = run_mix(BaselineLLC(tiny_system.llc_geometry), mix, tiny_system, 400, 100, seed=3)
        assert normalized_weighted_speedup(r, r) == pytest.approx(1.0)
