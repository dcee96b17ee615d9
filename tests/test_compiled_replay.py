"""Differential gate: the op-stream replay vs the per-access drive.

``run_mix`` takes the op-stream replay unless it declines an input it
cannot replay exactly; only then does the per-access drive loop walk
every access through the hierarchy.  That loop is the replay's oracle:
the ``drives`` fixture (``tests/conftest.py``) pins either drive, and
for every design and stream shape the replay must produce
*bit-identical* statistics (the raw ``CacheStats`` counters, not just
summary figures) and identical per-core instruction/cycle counts.
``TestDesigns`` also holds each design's step against its
``repro.reference`` twin through the whole hierarchy.
"""

import dataclasses
import gc
import weakref

import pytest

from repro.common.config import CacheGeometry, MayaConfig, MirageConfig, SystemConfig
from repro.common.errors import SetAssociativeEviction
from repro.core.maya_cache import MayaCache
from repro.hierarchy.dram import DramModel
from repro.hierarchy.simulator import run_mix
from repro.hierarchy.system import CacheHierarchy
from repro.llc.baseline import BaselineLLC
from repro.llc.ceaser import CeaserCache
from repro.llc.fully_assoc import FullyAssociativeCache
from repro.llc.mirage import MirageCache
from repro.llc.partitioned import (
    FlexiblePartitionedLLC,
    SetPartitionedLLC,
    WayPartitionedLLC,
    _PartitionedBase,
)
from repro.llc.skewed import SkewedRandomizedCache
from repro.reference import (
    AccessFastAdapter,
    ReferenceFullyAssociativeCache,
    ReferenceMayaCache,
    ReferenceMirageCache,
    ReferenceSetAssociativeCache,
    ReferenceSkewedRandomizedCache,
)
from repro.trace.mixes import Mix, homogeneous


def run_pair(drives, make_llc, mix, system, **kwargs):
    """Run the per-access drive (the oracle) and the op-stream replay on
    fresh LLCs; return their ``(llc, result)`` pairs in that order."""
    runs = []
    for pin in (drives.per_access, drives.replay):
        llc = make_llc()
        with pin():
            result = run_mix(llc, mix, system, **kwargs)
        runs.append((llc, result))
    assert runs[0][1].specialize_info["replay"] is None
    assert runs[1][1].specialize_info["replay"] == "opstream-scalar", (
        runs[1][1].specialize_info)
    return runs


def assert_bit_identical(pair_a, pair_b):
    (llc_a, r_a), (llc_b, r_b) = pair_a, pair_b
    assert vars(llc_b.stats) == vars(llc_a.stats)  # every raw counter
    assert [c.instructions for c in r_b.cores] == [c.instructions for c in r_a.cores]
    assert [c.cycles for c in r_b.cores] == [c.cycles for c in r_a.cores]
    assert r_b.ipcs == r_a.ipcs
    assert r_b.llc_mpki == r_a.llc_mpki
    assert r_b.llc_randomizer_hit_rate == r_a.llc_randomizer_hit_rate


@pytest.fixture()
def system():
    return SystemConfig(
        cores=2,
        l1d_geometry=CacheGeometry(sets=4, ways=4),
        l2_geometry=CacheGeometry(sets=16, ways=8),
        llc_geometry=CacheGeometry(sets=64, ways=16),
    )


MAYA = dict(sets_per_skew=16, rng_seed=7, hash_algorithm="splitmix")
MIRAGE = dict(sets_per_skew=16, rng_seed=7, hash_algorithm="splitmix")


def _reference_array(geometry, seed):
    """The reference set-associative array as the baseline LLC: it is
    no LLC itself, so give it the baseline's zero extra lookup latency."""
    array = ReferenceSetAssociativeCache(geometry, policy="srrip", seed=seed)
    array.extra_lookup_latency = BaselineLLC.extra_lookup_latency
    return array


class TestDesigns:
    """Each packed design on the op-stream replay vs its
    ``repro.reference`` twin on the per-access drive, through the whole
    hierarchy.

    The twin has only ``access()``, so it runs behind
    :class:`~repro.reference.AccessFastAdapter`; the replay drives the
    generated ``access_fast`` step.  Four
    heterogeneous cores interleave their streams; stats, per-core
    cycles and per-core occupancy must match bit for bit.
    """

    MIX = Mix("mcf-lbm-omnetpp-mcf", ("mcf", "lbm", "omnetpp", "mcf"), "RATE")

    @pytest.fixture()
    def system4(self, system):
        return dataclasses.replace(system, cores=4)

    def run(self, drives, system4, make_llc, make_reference):
        runs = []
        for make, pin in ((make_llc, drives.replay), (make_reference, drives.per_access)):
            llc = make()
            with pin():
                result = run_mix(llc, self.MIX, system4, accesses_per_core=600,
                                 warmup_accesses=200, seed=19)
            runs.append((llc, result))
        (llc, r_replay), (reference, r_reference) = runs
        assert r_replay.specialize_info["replay"] == "opstream-scalar"
        assert r_reference.specialize_info["replay"] is None
        assert isinstance(reference, AccessFastAdapter)
        assert llc.stats.accesses > 0
        assert_bit_identical((reference, r_reference), (llc, r_replay))
        assert llc.occupancy_by_core() == reference.occupancy_by_core()
        return llc, reference

    def test_maya(self, system4, drives):
        self.run(
            drives, system4,
            lambda: MayaCache(MayaConfig(**MAYA)),
            lambda: AccessFastAdapter(ReferenceMayaCache(MayaConfig(**MAYA))),
        )

    def test_mirage(self, system4, drives):
        self.run(
            drives, system4,
            lambda: MirageCache(MirageConfig(**MIRAGE)),
            lambda: AccessFastAdapter(ReferenceMirageCache(MirageConfig(**MIRAGE))),
        )

    def test_baseline(self, system4, drives):
        geometry = system4.llc_geometry
        self.run(
            drives, system4,
            lambda: BaselineLLC(geometry, seed=3),
            lambda: AccessFastAdapter(_reference_array(geometry, seed=3)),
        )

    def test_scatter(self, system4, drives):
        kwargs = dict(use_sdid_in_hash=True, seed=3, hash_algorithm="splitmix")
        geometry = system4.llc_geometry
        self.run(
            drives, system4,
            lambda: SkewedRandomizedCache(geometry, **kwargs),
            lambda: AccessFastAdapter(ReferenceSkewedRandomizedCache(geometry, **kwargs)),
        )

    def test_ceaser_s_remaps_mid_run(self, system4, drives):
        # remap_period=700: re-keys and flushes land between replayed ops.
        kwargs = dict(use_sdid_in_hash=False, remap_period=700, seed=3,
                      hash_algorithm="splitmix")
        geometry = system4.llc_geometry
        llc, reference = self.run(
            drives, system4,
            lambda: SkewedRandomizedCache(geometry, **kwargs),
            lambda: AccessFastAdapter(ReferenceSkewedRandomizedCache(geometry, **kwargs)),
        )
        assert llc.remaps == reference.remaps > 1

    def test_fully_assoc(self, system4, drives):
        lines = system4.llc_geometry.lines
        self.run(
            drives, system4,
            lambda: FullyAssociativeCache(lines, seed=3),
            lambda: AccessFastAdapter(ReferenceFullyAssociativeCache(lines, seed=3)),
        )


class TestStreamShapes:
    def test_write_heavy_stream(self, system, drives):
        # lbm: streaming, 45% writes.  With the prefetcher off every
        # write miss reaches the LLC as a demand fill, and dirty lines
        # leave it as dirty victims.
        a, b = run_pair(
            drives,
            lambda: MayaCache(MayaConfig(**MAYA)),
            homogeneous("lbm", 2), system,
            accesses_per_core=800, warmup_accesses=200, seed=5, enable_prefetch=False,
        )
        assert a[0].stats.writebacks_received > 0
        assert a[0].stats.dirty_evictions > 0
        assert_bit_identical(a, b)

    def test_rekey_during_run(self, system, drives):
        # Tag store with no invalid-way reserve + rekey-on-SAE, without
        # global tag eviction: the mapping keys change mid-replay, which
        # must not desynchronize the two drives.
        cfg = MayaConfig(
            sets_per_skew=4, base_ways_per_skew=2, reuse_ways_per_skew=1,
            invalid_ways_per_skew=0, rng_seed=5, hash_algorithm="splitmix",
        )
        a, b = run_pair(
            drives,
            lambda: MayaCache(cfg, on_sae="rekey", global_tag_eviction=False),
            homogeneous("mcf", 2), system,
            accesses_per_core=1200, warmup_accesses=300, seed=13,
        )
        assert a[0].stats.saes > 0
        assert_bit_identical(a, b)

    def test_zero_warmup(self, system, drives):
        a, b = run_pair(
            drives,
            lambda: MayaCache(MayaConfig(**MAYA)),
            homogeneous("mcf", 2), system,
            accesses_per_core=500, warmup_accesses=0, seed=3,
        )
        assert_bit_identical(a, b)

    def test_heterogeneous_cores_interleave_identically(self, system, drives):
        # Three cores over two way-partitioned slices: cores 0 and 2
        # share slice 0, so two streams interleave inside one slice.
        a, b = run_pair(
            drives,
            lambda: WayPartitionedLLC(system.llc_geometry, domains=2, seed=3),
            Mix("mcf-lbm-omnetpp", ("mcf", "lbm", "omnetpp"), "RATE"),
            dataclasses.replace(system, cores=3),
            accesses_per_core=700, warmup_accesses=300, seed=17,
        )
        assert set(a[0]._slices[0].occupancy_by_core()) == {0, 2}
        assert_bit_identical(a, b)
        assert tag_placement(b[0]) == tag_placement(a[0])

    def test_single_core(self, system, drives):
        a, b = run_pair(
            drives,
            lambda: MirageCache(MirageConfig(**MIRAGE)),
            homogeneous("omnetpp", 1), dataclasses.replace(system, cores=1),
            accesses_per_core=900, warmup_accesses=300, seed=23,
        )
        assert_bit_identical(a, b)


class TestPrewarm:
    """A mapping side table filled before the timed loop - forced with
    ``pretranslate=True`` on a splitmix design, where it is off by
    default - must be invisible in every counter."""

    def test_forced_prewarm_is_invisible_in_stats(self, system, drives):
        # Small memo so the run actually evicts mappings: pre-warming
        # must still leave every counter bit-identical (the side table
        # is consulted on misses without touching hit/miss accounting).
        # The per-access drive keeps the replay's own precompute pass
        # out, so every side-table entry comes from the forced pre-warm.
        make = lambda: MayaCache(MayaConfig(memo_capacity=64, **MAYA))  # noqa: E731
        kwargs = dict(accesses_per_core=800, warmup_accesses=200, seed=11)
        llc_off, llc_on = make(), make()
        with drives.per_access():
            r_off = run_mix(llc_off, homogeneous("mcf", 2), system,
                            pretranslate=False, **kwargs)
            r_on = run_mix(llc_on, homogeneous("mcf", 2), system,
                           pretranslate=True, **kwargs)
        assert llc_off.index_randomizer.cache_info().precomputed == 0
        assert_bit_identical((llc_off, r_off), (llc_on, r_on))
        info = llc_on.index_randomizer.cache_info()
        assert info.size == info.capacity < info.misses  # the memo overflowed
        assert info.precomputed > 0  # the prewarm actually fired

    def test_prewarm_off_by_default(self, system, drives):
        # Mirage under splitmix: no pre-warm unless asked for.  Pinned
        # to the per-access drive, as in test_splitmix_stays_off_by_default.
        llc = MirageCache(MirageConfig(sets_per_skew=16, rng_seed=7,
                                       hash_algorithm="splitmix"))
        with drives.per_access():
            run_mix(llc, homogeneous("mcf", 2), system,
                    accesses_per_core=300, warmup_accesses=0, seed=2)
        assert llc.index_randomizer.cache_info().precomputed == 0


class TestPretranslate:
    """Ahead-of-time index translation must be invisible in results.

    The translation side of each pair runs on the per-access drive, so
    the replay's own precompute pass cannot stand in for it."""

    PRINCE = dict(sets_per_skew=16, rng_seed=7, hash_algorithm="prince")

    def test_prince_auto_pretranslate_is_invisible(self, system, drives):
        # pretranslate defaults to on for prince designs; an untranslated
        # run is the oracle.
        make = lambda: MayaCache(MayaConfig(**self.PRINCE))  # noqa: E731
        llc_off, llc_auto = make(), make()
        kwargs = dict(accesses_per_core=500, warmup_accesses=200, seed=11)
        with drives.per_access():
            r_off = run_mix(llc_off, homogeneous("mcf", 2), system,
                            pretranslate=False, **kwargs)
            r_auto = run_mix(llc_auto, homogeneous("mcf", 2), system, **kwargs)
        assert llc_off.index_randomizer.cache_info().precomputed == 0
        assert llc_auto.index_randomizer.cache_info().precomputed > 0  # it fired
        assert_bit_identical((llc_off, r_off), (llc_auto, r_auto))

    def test_pretranslate_on_off_bit_identical(self, system, drives):
        make = lambda: MayaCache(MayaConfig(**self.PRINCE))  # noqa: E731
        kwargs = dict(accesses_per_core=500, warmup_accesses=200, seed=11)
        llc_off, llc_on = make(), make()
        with drives.per_access():
            r_off = run_mix(llc_off, homogeneous("mcf", 2), system,
                            pretranslate=False, **kwargs)
            r_on = run_mix(llc_on, homogeneous("mcf", 2), system,
                           pretranslate=True, **kwargs)
        assert llc_off.index_randomizer.cache_info().precomputed == 0
        assert llc_on.index_randomizer.cache_info().precomputed > 0
        assert_bit_identical((llc_off, r_off), (llc_on, r_on))

    def test_splitmix_stays_off_by_default(self, system, drives):
        # Pinned to the per-access drive: the op-stream replay
        # batch-precomputes set indices by design - an observably-free
        # side-table fill - so the no-precompute invariant is a
        # property of the per-access drive.
        llc = MayaCache(MayaConfig(**MAYA))
        with drives.per_access():
            run_mix(llc, homogeneous("mcf", 2), system,
                    accesses_per_core=300, warmup_accesses=0, seed=2)
        assert llc.index_randomizer.cache_info().precomputed == 0

    def test_rekey_during_run_falls_back_to_live_randomizer(self, system, drives):
        # SAE-triggered rekeys drop the pretranslated side table mid-
        # replay; from then on lookups must hit the live cipher and the
        # replay must stay in lockstep with an untranslated per-access
        # run.
        cfg = MayaConfig(
            sets_per_skew=4, base_ways_per_skew=2, reuse_ways_per_skew=1,
            invalid_ways_per_skew=0, rng_seed=5, hash_algorithm="prince",
        )
        make = lambda: MayaCache(cfg, on_sae="rekey", global_tag_eviction=False)  # noqa: E731
        llc_off, llc_on = make(), make()
        kwargs = dict(accesses_per_core=800, warmup_accesses=200, seed=13)
        with drives.per_access():
            r_off = run_mix(llc_off, homogeneous("mcf", 2), system,
                            pretranslate=False, **kwargs)
        with drives.replay():
            r_on = run_mix(llc_on, homogeneous("mcf", 2), system,
                           pretranslate=True, **kwargs)
        assert r_on.specialize_info["replay"] == "opstream-scalar"
        assert llc_on.stats.saes > 0  # rekeys actually happened
        assert llc_on.index_randomizer.epoch > 1
        assert llc_on.index_randomizer.cache_info().precomputed == 0  # dropped
        assert_bit_identical((llc_off, r_off), (llc_on, r_on))

    def test_mirage_pretranslate(self, system):
        make = lambda: MirageCache(  # noqa: E731
            MirageConfig(sets_per_skew=16, rng_seed=7, hash_algorithm="prince")
        )
        llc_off, llc_on = make(), make()
        kwargs = dict(accesses_per_core=500, warmup_accesses=200, seed=11)
        r_off = run_mix(llc_off, homogeneous("mcf", 2), system,
                        pretranslate=False, **kwargs)
        r_on = run_mix(llc_on, homogeneous("mcf", 2), system, **kwargs)
        assert llc_on.index_randomizer.cache_info().precomputed > 0
        assert_bit_identical((llc_off, r_off), (llc_on, r_on))


@pytest.mark.specialize
class TestVectorEngine:
    """The op-stream replay (:mod:`repro.engine.vector`) vs the
    per-access drive, hazards included.

    Each test drives both over the same mix and asserts bit-identical
    raw counters; the hazard tests additionally assert that the hazard
    actually fired while the replay drove the run.
    """

    def test_full_protocol_bit_identical(self, system, drives):
        a, b = run_pair(
            drives,
            lambda: MayaCache(MayaConfig(**MAYA)),
            homogeneous("mcf", 2), system,
            accesses_per_core=800, warmup_accesses=400, seed=11,
        )
        assert b[1].engine_info["scalar_ops"] > 0
        assert_bit_identical(a, b)

    def test_write_heavy_stream(self, system, drives):
        a, b = run_pair(
            drives,
            lambda: MayaCache(MayaConfig(**MAYA)),
            homogeneous("lbm", 2), system,
            accesses_per_core=800, warmup_accesses=200, seed=5,
        )
        assert a[0].stats.writebacks_received > 0
        assert_bit_identical(a, b)

    def test_heterogeneous_mix(self, system, drives):
        a, b = run_pair(
            drives,
            lambda: MayaCache(MayaConfig(**MAYA)),
            Mix("mcf-lbm", ("mcf", "lbm"), "RATE"), system,
            accesses_per_core=700, warmup_accesses=300, seed=17,
        )
        assert_bit_identical(a, b)

    def test_prince_hash(self, system, drives):
        a, b = run_pair(
            drives,
            lambda: MayaCache(MayaConfig(sets_per_skew=16, rng_seed=7,
                                         hash_algorithm="prince")),
            homogeneous("mcf", 2), system,
            accesses_per_core=500, warmup_accesses=200, seed=11,
        )
        assert_bit_identical(a, b)

    # -- hazards landing mid-phase ------------------------------------

    SAE_CFG = dict(
        sets_per_skew=4, base_ways_per_skew=2, reuse_ways_per_skew=1,
        invalid_ways_per_skew=0, rng_seed=5,
    )

    def test_sae_storm_mid_batch_count_policy(self, system, drives):
        a, b = run_pair(
            drives,
            lambda: MayaCache(MayaConfig(hash_algorithm="splitmix",
                                         **self.SAE_CFG)),
            homogeneous("mcf", 2), system,
            accesses_per_core=1200, warmup_accesses=300, seed=13,
        )
        assert b[0].stats.saes > 0
        assert_bit_identical(a, b)

    def test_sae_rekey_mid_batch(self, system, drives):
        # on_sae="rekey": the mapping keys change and the memo/side
        # tables are invalidated between replayed ops; the replay must
        # pick up the new keys exactly where the per-access drive does.
        a, b = run_pair(
            drives,
            lambda: MayaCache(MayaConfig(hash_algorithm="splitmix",
                                         **self.SAE_CFG), on_sae="rekey"),
            homogeneous("mcf", 2), system,
            accesses_per_core=1200, warmup_accesses=300, seed=13,
        )
        assert b[0].stats.saes > 0
        assert b[0].tags.randomizer.epoch > 1  # rekeys actually happened
        assert_bit_identical(a, b)

    def test_sae_rekey_prince_mid_batch(self, system, drives):
        # Same, under the real cipher: rekey drops the precomputed
        # tables and later installs hit the live PRINCE path.
        a, b = run_pair(
            drives,
            lambda: MayaCache(MayaConfig(hash_algorithm="prince",
                                         **self.SAE_CFG), on_sae="rekey"),
            homogeneous("mcf", 2), system,
            accesses_per_core=1000, warmup_accesses=200, seed=13,
        )
        assert b[0].stats.saes > 0
        assert b[0].tags.randomizer.epoch > 1
        assert_bit_identical(a, b)

    def test_memo_capacity_eviction_mid_batch(self, system, drives):
        # A 64-entry memo overflows constantly while the replay's
        # precompute pass backs its misses from the side table: neither
        # may show in any counter.
        a, b = run_pair(
            drives,
            lambda: MayaCache(MayaConfig(memo_capacity=64, **MAYA)),
            homogeneous("mcf", 2), system,
            accesses_per_core=800, warmup_accesses=200, seed=11,
        )
        info = b[0].tags.randomizer.cache_info()
        assert info.size == info.capacity < info.misses  # it overflowed
        assert info.precomputed > 0  # the side table was filled
        assert_bit_identical(a, b)


# -- the op-stream replay for every design ------------------------------

#: Every LLC design: the hierarchy drives each through its
#: ``access_fast`` step, and the op-stream replay drives all of them
#: from the cached op streams.
REPLAYED = {
    "baseline": lambda system: BaselineLLC(system.llc_geometry),
    "mirage-splitmix": lambda system: MirageCache(
        MirageConfig(sets_per_skew=16, rng_seed=7, hash_algorithm="splitmix")),
    "mirage-prince": lambda system: MirageCache(
        MirageConfig(sets_per_skew=16, rng_seed=7, hash_algorithm="prince")),
    "maya": lambda system: MayaCache(MayaConfig(**MAYA)),
    # remap_period=500 remaps mid-run: the flush and the fresh keys
    # land between replayed ops.
    "ceaser": lambda system: CeaserCache(
        system.llc_geometry, remap_period=500, seed=3, hash_algorithm="splitmix"),
    "ceaser_s": lambda system: SkewedRandomizedCache(
        system.llc_geometry, use_sdid_in_hash=False, remap_period=700, seed=3,
        hash_algorithm="splitmix"),
    "scatter-prince": lambda system: SkewedRandomizedCache(
        system.llc_geometry, use_sdid_in_hash=True, seed=3, hash_algorithm="prince"),
    "fully_assoc": lambda system: FullyAssociativeCache(system.llc_geometry.lines, seed=3),
    # Table XI's partitioned designs: one set-associative slice per core.
    "way-partitioned": lambda system: WayPartitionedLLC(
        system.llc_geometry, domains=2, seed=3),
    "set-partitioned": lambda system: SetPartitionedLLC(
        system.llc_geometry, domains=2, seed=3),
    "flex-partitioned": lambda system: FlexiblePartitionedLLC(
        system.llc_geometry, domains=2, demand_weights=(3, 1), seed=3),
}


def tag_placement(llc):
    """Resident line -> tag slot.  Catches index-derivation errors the
    stats cannot: Mirage's global data eviction does not care which
    skew holds a tag."""
    if isinstance(llc, MayaCache):
        return llc.tags._where
    if isinstance(llc, (BaselineLLC, CeaserCache)):
        return llc._cache._where
    if isinstance(llc, _PartitionedBase):
        return [part._where for part in llc._slices]
    return llc._where  # Mirage, skewed, fully-associative


@pytest.mark.specialize
class TestOpstreamReplay:
    """The op-stream replay vs the per-access drive.

    The replay must engage for every design and match the per-access
    drive (the oracle) bit for bit.  Both drives run the same generated
    steps, so these rows check the drive, not the steps:
    ``repro.reference`` is the steps' oracle.  Inputs the replay cannot
    drive exactly must say why.
    """

    @pytest.mark.parametrize("bench", ["mcf", "lbm"])
    @pytest.mark.parametrize("design", sorted(REPLAYED))
    def test_replay_engages_and_matches_per_access_drive(self, system, drives, design, bench):
        runs = run_pair(
            drives, lambda: REPLAYED[design](system), homogeneous(bench, 2), system,
            accesses_per_core=800, warmup_accesses=300, seed=11,
        )
        (llc_oracle, r_oracle), (llc_replay, r_replay) = runs
        assert r_oracle.engine_info is None
        assert r_replay.engine_info["scalar_ops"] > 0
        assert_bit_identical(*runs)
        assert tag_placement(llc_replay) == tag_placement(llc_oracle)

    @pytest.mark.parametrize("case", ["model_bandwidth", "base_cpi"])
    def test_declined_cases_report_a_reason(self, system, drives, case):
        kwargs = {}
        if case == "model_bandwidth":
            kwargs["model_bandwidth"] = True
            reason = "model_bandwidth=True"
        else:
            # 0.1 is no multiple of any coarse power-of-two grid.
            system = dataclasses.replace(system, base_cpi=0.1)
            reason = "timing constants"
        with drives.replay():
            r = run_mix(MayaCache(MayaConfig(**MAYA)), homogeneous("mcf", 2), system,
                        accesses_per_core=300, warmup_accesses=100, seed=3, **kwargs)
        assert r.specialize_info["replay"] is None
        assert reason in r.specialize_info["replay_reason"]
        assert r.engine_info is None
        assert r.llc_mpki > 0

    # on_sae="raise" stops the run at the first SAE: 4 base ways and no
    # extra ways per skew give one within a few hundred accesses.
    RAISING = {
        "mirage": lambda: MirageCache(MirageConfig(
            sets_per_skew=32, base_ways_per_skew=4, extra_ways_per_skew=0,
            hash_algorithm="splitmix"), on_sae="raise"),
        "maya": lambda: MayaCache(MayaConfig(
            sets_per_skew=4, base_ways_per_skew=2, reuse_ways_per_skew=1,
            invalid_ways_per_skew=0, rng_seed=5, hash_algorithm="splitmix"),
            on_sae="raise"),
    }

    @pytest.mark.parametrize("design", sorted(RAISING))
    def test_on_sae_raise_stops_both_drives_alike(self, system, drives, design):
        raised = []
        for pin in (drives.per_access, drives.replay):
            llc = self.RAISING[design]()
            with pin(), pytest.raises(SetAssociativeEviction) as info:
                run_mix(llc, homogeneous("mcf", 2), system,
                        accesses_per_core=800, warmup_accesses=300, seed=11)
            raised.append((str(info.value), vars(llc.stats), llc.occupancy))
        assert raised[0][0].startswith("SAE")
        assert raised[1] == raised[0]


class TestReleaseOnError:
    """A run that raises still restores the caller's LLC and releases
    its hierarchy, on the replay and on the per-access drive."""

    @pytest.mark.parametrize("design", ["mirage-replayed", "baseline-per-access"])
    def test_failed_run_releases_specialization(self, system, monkeypatch, drives, design):
        access = DramModel.access
        calls = []

        def failing_access(self, *args, **kwargs):
            calls.append(None)
            if len(calls) > 50:
                raise RuntimeError("injected DRAM failure")
            return access(self, *args, **kwargs)

        release = CacheHierarchy.release
        released = []

        def recording_release(self):
            released.append(self)
            release(self)

        monkeypatch.setattr(DramModel, "access", failing_access)
        monkeypatch.setattr(CacheHierarchy, "release", recording_release)
        if design == "mirage-replayed":
            llc = REPLAYED["mirage-splitmix"](system)
            step_owner = llc
            pin = drives.replay
        else:
            # The step lives on the inner array.
            llc = BaselineLLC(system.llc_geometry)
            step_owner = llc._cache
            pin = drives.per_access
        binder = llc.access_fast
        with pin(), pytest.raises(RuntimeError, match="injected DRAM failure"):
            run_mix(llc, homogeneous("mcf", 2), system,
                    accesses_per_core=800, warmup_accesses=300, seed=11)
        assert len(calls) == 51
        assert "access_fast" not in vars(step_owner)
        assert llc.access_fast == binder
        assert len(released) == 1 and released[0].access is None
        private = released[0].l1 + released[0].l2
        assert not any("access_fast" in vars(cache) for cache in private)


#: Per drive: the drive to pin and the run_mix keyword arguments.
DRIVES = {
    "replay": ("replay", {}),
    "model_bandwidth": ("per_access", {"model_bandwidth": True}),
    "per_access": ("per_access", {}),
}


#: The designs whose arrays bind generated steps: Maya, Mirage, the
#: baseline's inner array and the partitioned slices.
FREED = {
    "maya": REPLAYED["maya"],
    "mirage-splitmix": REPLAYED["mirage-splitmix"],
    "baseline": REPLAYED["baseline"],
    "partitioned": REPLAYED["way-partitioned"],
}


class TestRunFreesByRefcount:
    """A finished run leaves no reference cycle behind.

    Every generated step closes over its cache, so a step left bound on
    the LLC, on a wrapper's inner array or slice, or on a private L1/L2
    keeps that cache alive until the cyclic collector runs.  With the
    collector off, every cache a run touched must die by refcount once
    the caller drops the LLC and the result, on both drives and under
    the bandwidth model.
    """

    @pytest.mark.parametrize("drive", sorted(DRIVES))
    @pytest.mark.parametrize("design", sorted(FREED))
    def test_every_cache_frees_by_refcount(self, system, monkeypatch, drives, design, drive):
        private = []
        init = CacheHierarchy.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            private.extend(self.l1 + self.l2)

        monkeypatch.setattr(CacheHierarchy, "__init__", recording_init)
        llc = FREED[design](system)
        pin, kwargs = DRIVES[drive]
        gc.collect()
        gc.disable()
        try:
            with getattr(drives, pin)():
                result = run_mix(llc, homogeneous("mcf", 2), system,
                                 accesses_per_core=300, warmup_accesses=100, seed=3, **kwargs)
            replay = result.specialize_info["replay"]
            assert replay == ("opstream-scalar" if pin == "replay" else None)
            assert llc.stats.accesses > 0
            if pin != "replay":
                assert all(cache.stats.accesses > 0 for cache in private)
            caches = [llc, getattr(llc, "_cache", None)] + getattr(llc, "_slices", [])
            refs = [weakref.ref(cache) for cache in caches + private if cache is not None]
            del llc, result, caches, private[:]
            alive = [type(ref()).__name__ for ref in refs if ref() is not None]
            assert not alive, f"{design} on {drive} left {alive} alive"
        finally:
            gc.enable()


class TestReplayKeepsNoOps:
    """The replay walks each core's op columns by offset, so nothing it
    allocates per op outlives the run that made it, and the randomizer's
    mapping tables it fills hold plain ints."""

    # Seeds no other test runs, and the artifact cache is off, so
    # nothing from an earlier run could serve these and nothing is kept.
    @pytest.mark.parametrize("design, seed", [(MayaCache, 2027), (MirageCache, 2029)])
    def test_cold_run_leaves_no_replay_allocations(
        self, system, drives, monkeypatch, design, seed
    ):
        import tracemalloc

        from repro.engine import vector
        from repro.store import CACHE_ENV

        monkeypatch.setenv(CACHE_ENV, "0")

        config = MayaConfig if design is MayaCache else MirageConfig
        llc = design(config(sets_per_skew=4, rng_seed=7, hash_algorithm="splitmix"))
        tracemalloc.start()
        try:
            with drives.replay():
                result = run_mix(llc, homogeneous("mcf", 2), system,
                                 accesses_per_core=2000, warmup_accesses=500, seed=seed)
            assert result.specialize_info["replay"] == "opstream-scalar"
            assert result.engine_info["kernel"] == "inline"
            assert result.engine_info["scalar_ops"] > 1000
            rand = llc.index_randomizer
            assert rand.cache_info().size and rand.cache_info().precomputed
            for table in (rand._memo, rand._precomputed):
                assert all(type(k) is int and type(v) is int for k, v in table.items())
            # The kernel runs the design's step inline, so the LLC's own
            # tags and memo entries were made on the kernel's lines: drop
            # the LLC (a run frees by refcount), and whatever the replay
            # or its kernel made is left.
            del llc, rand, table, result
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        alive = snapshot.filter_traces([
            tracemalloc.Filter(True, vector.__file__),
            tracemalloc.Filter(True, "<specialized:replay:*"),
        ])
        size = sum(stat.size for stat in alive.statistics("filename"))
        assert size < 16 * 1024, (
            f"{size} bytes from engine/vector.py and its kernel still alive")
