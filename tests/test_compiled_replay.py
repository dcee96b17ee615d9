"""Differential gate: compiled packed replay vs the generator oracle.

``run_mix`` has two drive loops - the default batched replay over
compiled packed columns and the original generator path.  The
generator path is the oracle: for every design and stream shape the
compiled path must produce *bit-identical* statistics (the raw
``CacheStats`` counters, not just summary figures) and identical
per-core instruction/cycle counts.  With specialization on (the
default) the compiled path of every design with an ``access_fast``
step is the op-stream replay, which the specialize-marked classes
below also hold against the per-access drive.
"""

import gc
import weakref

import pytest

from repro.common.config import CacheGeometry, MayaConfig, MirageConfig, SystemConfig
from repro.core.maya_cache import MayaCache
from repro.hierarchy.dram import DramModel
from repro.hierarchy.simulator import run_mix
from repro.hierarchy.system import CacheHierarchy
from repro.llc.baseline import BaselineLLC
from repro.llc.ceaser import CeaserCache
from repro.llc.fully_assoc import FullyAssociativeCache
from repro.llc.mirage import MirageCache
from repro.llc.partitioned import WayPartitionedLLC
from repro.llc.skewed import SkewedRandomizedCache
from repro.llc.vway import VWayCache
from repro.trace.mixes import homogeneous


def run_pair(make_llc, mix, system, **kwargs):
    """Run both drive loops on fresh LLCs; return their (llc, result)s."""
    llc_gen, llc_cmp = make_llc(), make_llc()
    r_gen = run_mix(llc_gen, mix, system, compiled=False, **kwargs)
    r_cmp = run_mix(llc_cmp, mix, system, compiled=True, trace_cache=False, **kwargs)
    return (llc_gen, r_gen), (llc_cmp, r_cmp)


def assert_bit_identical(pair_gen, pair_cmp):
    (llc_gen, r_gen), (llc_cmp, r_cmp) = pair_gen, pair_cmp
    assert vars(llc_cmp.stats) == vars(llc_gen.stats)  # every raw counter
    assert [c.instructions for c in r_cmp.cores] == [c.instructions for c in r_gen.cores]
    assert [c.cycles for c in r_cmp.cores] == [c.cycles for c in r_gen.cores]
    assert r_cmp.ipcs == r_gen.ipcs
    assert r_cmp.llc_mpki == r_gen.llc_mpki
    assert r_cmp.llc_randomizer_hit_rate == r_gen.llc_randomizer_hit_rate


@pytest.fixture()
def system():
    return SystemConfig(
        cores=2,
        l1d_geometry=CacheGeometry(sets=4, ways=4),
        l2_geometry=CacheGeometry(sets=16, ways=8),
        llc_geometry=CacheGeometry(sets=64, ways=16),
    )


MAYA = dict(sets_per_skew=16, rng_seed=7, hash_algorithm="splitmix")


class TestDesigns:
    def test_maya(self, system):
        a, b = run_pair(
            lambda: MayaCache(MayaConfig(**MAYA)),
            homogeneous("mcf", 2), system,
            accesses_per_core=800, warmup_accesses=400, seed=11,
        )
        assert a[0].stats.accesses > 0
        assert_bit_identical(a, b)

    def test_mirage(self, system):
        a, b = run_pair(
            lambda: MirageCache(MirageConfig(sets_per_skew=16, rng_seed=7,
                                             hash_algorithm="splitmix")),
            homogeneous("mcf", 2), system,
            accesses_per_core=800, warmup_accesses=400, seed=11,
        )
        assert_bit_identical(a, b)

    def test_baseline(self, system):
        a, b = run_pair(
            lambda: BaselineLLC(system.llc_geometry),
            homogeneous("mcf", 2), system,
            accesses_per_core=800, warmup_accesses=400, seed=11,
        )
        assert_bit_identical(a, b)


class TestStreamShapes:
    def test_write_heavy_stream(self, system):
        # lbm: streaming, 45% writes - exercises the writeback path.
        a, b = run_pair(
            lambda: MayaCache(MayaConfig(**MAYA)),
            homogeneous("lbm", 2), system,
            accesses_per_core=800, warmup_accesses=200, seed=5,
        )
        assert a[0].stats.writebacks_received > 0
        assert_bit_identical(a, b)

    def test_rekey_during_run(self, system):
        # Tag store with no invalid-way reserve + rekey-on-SAE: the
        # mapping keys change mid-replay, which must not desynchronize
        # the two drive loops.
        cfg = MayaConfig(
            sets_per_skew=4, base_ways_per_skew=2, reuse_ways_per_skew=1,
            invalid_ways_per_skew=0, rng_seed=5, hash_algorithm="splitmix",
        )
        a, b = run_pair(
            lambda: MayaCache(cfg, on_sae="rekey", global_tag_eviction=False),
            homogeneous("mcf", 2), system,
            accesses_per_core=1200, warmup_accesses=300, seed=13,
        )
        assert a[0].stats.saes > 0
        assert_bit_identical(a, b)

    def test_zero_warmup(self, system):
        a, b = run_pair(
            lambda: MayaCache(MayaConfig(**MAYA)),
            homogeneous("mcf", 2), system,
            accesses_per_core=500, warmup_accesses=0, seed=3,
        )
        assert_bit_identical(a, b)

    def test_heterogeneous_cores_interleave_identically(self, system):
        from repro.trace.mixes import Mix

        mix = Mix("mcf-lbm", ("mcf", "lbm"), "RATE")
        a, b = run_pair(
            lambda: MayaCache(MayaConfig(**MAYA)),
            mix, system,
            accesses_per_core=700, warmup_accesses=300, seed=17,
        )
        assert_bit_identical(a, b)


class TestPrewarm:
    """A mapping side table filled before the timed loop - forced with
    ``pretranslate=True`` on a splitmix design, where it is off by
    default - must be invisible in every counter."""

    def test_forced_prewarm_is_invisible_in_stats(self, system):
        # Small memo so the run actually evicts mappings: pre-warming
        # must still leave every counter bit-identical (the side table
        # is consulted on misses without touching hit/miss accounting).
        # specialize=False keeps the replay's own precompute pass out,
        # so every side-table entry comes from the forced pre-warm.
        make = lambda: MayaCache(MayaConfig(memo_capacity=64, **MAYA))  # noqa: E731
        a, b = run_pair(
            make, homogeneous("mcf", 2), system,
            accesses_per_core=800, warmup_accesses=200, seed=11,
            pretranslate=True, specialize=False,
        )
        assert_bit_identical(a, b)
        info = b[0].index_randomizer.cache_info()
        assert info.size == info.capacity < info.misses  # the memo overflowed
        assert info.precomputed > 0  # the prewarm actually fired

    def test_prewarm_off_by_default(self, system):
        # Mirage under splitmix: no pre-warm unless asked for.  Pinned
        # to the per-access drive, as in test_splitmix_stays_off_by_default.
        llc = MirageCache(MirageConfig(sets_per_skew=16, rng_seed=7,
                                       hash_algorithm="splitmix"))
        run_mix(llc, homogeneous("mcf", 2), system,
                accesses_per_core=300, warmup_accesses=0, seed=2,
                trace_cache=False, specialize=False)
        assert llc.index_randomizer.cache_info().precomputed == 0


class TestPretranslate:
    """Ahead-of-time index translation must be invisible in results."""

    PRINCE = dict(sets_per_skew=16, rng_seed=7, hash_algorithm="prince")

    def test_prince_auto_pretranslate_matches_generator_oracle(self, system):
        # pretranslate defaults to on for prince-mode compiled runs; the
        # generator path (no pretranslation possible) is the oracle.
        make = lambda: MayaCache(MayaConfig(**self.PRINCE))  # noqa: E731
        llc_gen, llc_cmp = make(), make()
        kwargs = dict(accesses_per_core=500, warmup_accesses=200, seed=11)
        r_gen = run_mix(llc_gen, homogeneous("mcf", 2), system, compiled=False, **kwargs)
        r_cmp = run_mix(llc_cmp, homogeneous("mcf", 2), system,
                        compiled=True, trace_cache=False, **kwargs)
        assert llc_cmp.index_randomizer.cache_info().precomputed > 0  # it fired
        assert_bit_identical((llc_gen, r_gen), (llc_cmp, r_cmp))

    def test_pretranslate_on_off_bit_identical(self, system):
        make = lambda: MayaCache(MayaConfig(**self.PRINCE))  # noqa: E731
        # specialize=False: the specialized replay batch-fills the
        # precomputed side table itself, which this test uses as its
        # pretranslate-fired signal.
        kwargs = dict(accesses_per_core=500, warmup_accesses=200, seed=11,
                      trace_cache=False, specialize=False)
        llc_off, llc_on = make(), make()
        r_off = run_mix(llc_off, homogeneous("mcf", 2), system,
                        pretranslate=False, **kwargs)
        r_on = run_mix(llc_on, homogeneous("mcf", 2), system,
                       pretranslate=True, **kwargs)
        assert llc_off.index_randomizer.cache_info().precomputed == 0
        assert llc_on.index_randomizer.cache_info().precomputed > 0
        assert_bit_identical((llc_off, r_off), (llc_on, r_on))

    def test_splitmix_stays_off_by_default(self, system):
        # Pinned to the generic oracle: the op-stream replay
        # (specialize=True, the default) batch-precomputes set indices
        # by design - an observably-free side-table fill - so the
        # no-precompute invariant is a property of the per-access drive.
        llc = MayaCache(MayaConfig(**MAYA))
        run_mix(llc, homogeneous("mcf", 2), system,
                accesses_per_core=300, warmup_accesses=0, seed=2,
                trace_cache=False, specialize=False)
        assert llc.index_randomizer.cache_info().precomputed == 0

    def test_rekey_during_run_falls_back_to_live_randomizer(self, system):
        # SAE-triggered rekeys drop the pretranslated side table mid-
        # replay; from then on lookups must hit the live cipher and the
        # two drive loops must stay in lockstep.
        cfg = MayaConfig(
            sets_per_skew=4, base_ways_per_skew=2, reuse_ways_per_skew=1,
            invalid_ways_per_skew=0, rng_seed=5, hash_algorithm="prince",
        )
        make = lambda: MayaCache(cfg, on_sae="rekey", global_tag_eviction=False)  # noqa: E731
        llc_gen, llc_cmp = make(), make()
        kwargs = dict(accesses_per_core=800, warmup_accesses=200, seed=13)
        r_gen = run_mix(llc_gen, homogeneous("mcf", 2), system, compiled=False, **kwargs)
        r_cmp = run_mix(llc_cmp, homogeneous("mcf", 2), system,
                        compiled=True, trace_cache=False, pretranslate=True,
                        **kwargs)
        assert llc_cmp.stats.saes > 0  # rekeys actually happened
        assert llc_cmp.index_randomizer.epoch > 1
        assert llc_cmp.index_randomizer.cache_info().precomputed == 0  # dropped
        assert_bit_identical((llc_gen, r_gen), (llc_cmp, r_cmp))

    def test_mirage_pretranslate(self, system):
        make = lambda: MirageCache(  # noqa: E731
            MirageConfig(sets_per_skew=16, rng_seed=7, hash_algorithm="prince")
        )
        llc_off, llc_on = make(), make()
        kwargs = dict(accesses_per_core=500, warmup_accesses=200, seed=11,
                      trace_cache=False)
        r_off = run_mix(llc_off, homogeneous("mcf", 2), system,
                        pretranslate=False, **kwargs)
        r_on = run_mix(llc_on, homogeneous("mcf", 2), system, **kwargs)
        assert llc_on.index_randomizer.cache_info().precomputed > 0
        assert_bit_identical((llc_off, r_off), (llc_on, r_on))


def run_replay_pair(make_llc, mix, system, **kwargs):
    """Run the per-access drive (``specialize=False``, the oracle) and
    the op-stream replay (``specialize=True``) on fresh LLCs."""
    runs = []
    for specialize in (False, True):
        llc = make_llc()
        result = run_mix(llc, mix, system, specialize=specialize,
                         trace_cache=False, **kwargs)
        runs.append((llc, result))
    assert runs[1][1].specialize_info["replay"] == "opstream-scalar", (
        runs[1][1].specialize_info)
    return runs


@pytest.mark.specialize
class TestVectorEngine:
    """The op-stream replay (:mod:`repro.engine.vector`) vs the
    per-access drive, hazards included.

    Each test drives both over the same mix and asserts bit-identical
    raw counters; the hazard tests additionally assert that the hazard
    actually fired while the replay drove the run.
    """

    def test_full_protocol_bit_identical(self, system):
        a, b = run_replay_pair(
            lambda: MayaCache(MayaConfig(**MAYA)),
            homogeneous("mcf", 2), system,
            accesses_per_core=800, warmup_accesses=400, seed=11,
        )
        assert b[1].engine_info["scalar_ops"] > 0
        assert_bit_identical(a, b)

    def test_write_heavy_stream(self, system):
        a, b = run_replay_pair(
            lambda: MayaCache(MayaConfig(**MAYA)),
            homogeneous("lbm", 2), system,
            accesses_per_core=800, warmup_accesses=200, seed=5,
        )
        assert a[0].stats.writebacks_received > 0
        assert_bit_identical(a, b)

    def test_heterogeneous_mix(self, system):
        from repro.trace.mixes import Mix

        a, b = run_replay_pair(
            lambda: MayaCache(MayaConfig(**MAYA)),
            Mix("mcf-lbm", ("mcf", "lbm"), "RATE"), system,
            accesses_per_core=700, warmup_accesses=300, seed=17,
        )
        assert_bit_identical(a, b)

    def test_prince_hash(self, system):
        a, b = run_replay_pair(
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

    def test_sae_storm_mid_batch_count_policy(self, system):
        a, b = run_replay_pair(
            lambda: MayaCache(MayaConfig(hash_algorithm="splitmix",
                                         **self.SAE_CFG)),
            homogeneous("mcf", 2), system,
            accesses_per_core=1200, warmup_accesses=300, seed=13,
        )
        assert b[0].stats.saes > 0
        assert_bit_identical(a, b)

    def test_sae_rekey_mid_batch(self, system):
        # on_sae="rekey": the mapping keys change and the memo/side
        # tables are invalidated between replayed ops; the replay must
        # pick up the new keys exactly where the per-access drive does.
        a, b = run_replay_pair(
            lambda: MayaCache(MayaConfig(hash_algorithm="splitmix",
                                         **self.SAE_CFG), on_sae="rekey"),
            homogeneous("mcf", 2), system,
            accesses_per_core=1200, warmup_accesses=300, seed=13,
        )
        assert b[0].stats.saes > 0
        assert b[0].tags.randomizer.epoch > 1  # rekeys actually happened
        assert_bit_identical(a, b)

    def test_sae_rekey_prince_mid_batch(self, system):
        # Same, under the real cipher: rekey drops the precomputed
        # tables and later installs hit the live PRINCE path.
        a, b = run_replay_pair(
            lambda: MayaCache(MayaConfig(hash_algorithm="prince",
                                         **self.SAE_CFG), on_sae="rekey"),
            homogeneous("mcf", 2), system,
            accesses_per_core=1000, warmup_accesses=200, seed=13,
        )
        assert b[0].stats.saes > 0
        assert b[0].tags.randomizer.epoch > 1
        assert_bit_identical(a, b)

    def test_memo_capacity_eviction_mid_batch(self, system):
        # A 64-entry memo overflows constantly while the replay's
        # precompute pass backs its misses from the side table: neither
        # may show in any counter.
        a, b = run_replay_pair(
            lambda: MayaCache(MayaConfig(memo_capacity=64, **MAYA)),
            homogeneous("mcf", 2), system,
            accesses_per_core=800, warmup_accesses=200, seed=11,
        )
        info = b[0].tags.randomizer.cache_info()
        assert info.size == info.capacity < info.misses  # it overflowed
        assert info.precomputed > 0  # the side table was filled
        assert_bit_identical(a, b)


# -- the op-stream replay for every access_fast design ------------------

#: Designs with the ``access_fast`` step protocol: the op-stream
#: replay drives all of them from the cached op streams.
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
}


def tag_placement(llc):
    """Resident line -> tag slot.  Catches index-derivation errors the
    stats cannot: Mirage's global data eviction does not care which
    skew holds a tag."""
    if isinstance(llc, MayaCache):
        return llc.tags._where
    if isinstance(llc, (BaselineLLC, CeaserCache)):
        return llc._cache._where
    return llc._where  # Mirage, skewed, fully-associative


@pytest.mark.specialize
class TestOpstreamReplay:
    """The op-stream replay vs the per-access drive.

    ``specialize=False`` keeps the per-access hierarchy drive (the
    oracle); ``specialize=True`` must engage the replay for every
    design with an ``access_fast`` step and match the oracle bit for
    bit.  Both drives run the same generated steps, so these rows check
    the drive, not the steps: ``repro.reference`` is the steps' oracle.
    Designs and configs the replay cannot drive must say why.
    """

    @pytest.mark.parametrize("bench", ["mcf", "lbm"])
    @pytest.mark.parametrize("design", sorted(REPLAYED))
    def test_replay_engages_and_matches_per_access_drive(self, system, design, bench):
        runs = run_replay_pair(
            lambda: REPLAYED[design](system), homogeneous(bench, 2), system,
            accesses_per_core=800, warmup_accesses=300, seed=11,
        )
        (llc_generic, r_generic), (llc_replay, r_replay) = runs
        assert r_generic.specialize_info is None
        assert r_replay.engine_info["scalar_ops"] > 0
        assert_bit_identical(*runs)
        assert tag_placement(llc_replay) == tag_placement(llc_generic)

    @pytest.mark.parametrize("case", ["vway", "partitioned", "model_bandwidth"])
    def test_declined_cases_report_a_reason(self, system, case):
        kwargs = {}
        if case == "vway":
            llc = VWayCache(system.llc_geometry, seed=3)
            reason = "VWayCache has no access_fast step"
        elif case == "partitioned":
            llc = WayPartitionedLLC(system.llc_geometry, domains=2, seed=3)
            reason = "WayPartitionedLLC has no access_fast step"
        else:
            llc = MayaCache(MayaConfig(**MAYA))
            kwargs["model_bandwidth"] = True
            reason = "model_bandwidth=True"
        r = run_mix(llc, homogeneous("mcf", 2), system, specialize=True,
                    accesses_per_core=300, warmup_accesses=100, seed=3,
                    trace_cache=False, **kwargs)
        assert r.specialize_info["replay"] is None
        assert reason in r.specialize_info["replay_reason"]
        assert r.engine_info is None


class TestReleaseOnError:
    """A run that raises still restores the caller's LLC and releases
    its hierarchy, on the replay and on the per-access drive."""

    @pytest.mark.parametrize("design", ["mirage-replayed", "baseline-per-access"])
    def test_failed_run_releases_specialization(self, system, monkeypatch, design):
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
        kwargs = {}
        if design == "mirage-replayed":
            llc = REPLAYED["mirage-splitmix"](system)
            step_owner = llc
        else:
            # The bandwidth model keeps the per-access drive; the step
            # lives on the inner array.
            llc = BaselineLLC(system.llc_geometry)
            step_owner = llc._cache
            kwargs["model_bandwidth"] = True
        binder = llc.access_fast
        with pytest.raises(RuntimeError, match="injected DRAM failure"):
            run_mix(llc, homogeneous("mcf", 2), system, specialize=True,
                    accesses_per_core=800, warmup_accesses=300, seed=11,
                    trace_cache=False, **kwargs)
        assert len(calls) == 51
        assert "access_fast" not in vars(step_owner)
        assert llc.access_fast == binder
        assert len(released) == 1 and released[0].access is None
        private = released[0].l1 + released[0].l2
        assert not any("access_fast" in vars(cache) for cache in private)


#: run_mix keyword arguments per drive.
DRIVES = {
    "replay": {"specialize": True},
    "model_bandwidth": {"specialize": True, "model_bandwidth": True},
    "per_access": {"specialize": False},
}


#: The designs whose arrays bind generated steps: Maya, Mirage, the
#: baseline's inner array and the partitioned slices (which never
#: replay, so every drive is per-access for them).
FREED = {
    "maya": REPLAYED["maya"],
    "mirage-splitmix": REPLAYED["mirage-splitmix"],
    "baseline": REPLAYED["baseline"],
    "partitioned": lambda system: WayPartitionedLLC(system.llc_geometry, domains=2, seed=3),
}


class TestRunFreesByRefcount:
    """A finished run leaves no reference cycle behind.

    Every generated step closes over its cache, so a step left bound on
    the LLC, on a wrapper's inner array or slice, or on a private L1/L2
    keeps that cache alive until the cyclic collector runs.  With the
    collector off, every cache a run touched must die by refcount once
    the caller drops the LLC and the result, on both drives and under
    ``specialize=False``.
    """

    @pytest.mark.parametrize("drive", sorted(DRIVES))
    @pytest.mark.parametrize("design", sorted(FREED))
    def test_every_cache_frees_by_refcount(self, system, monkeypatch, design, drive):
        private = []
        init = CacheHierarchy.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            private.extend(self.l1 + self.l2)

        monkeypatch.setattr(CacheHierarchy, "__init__", recording_init)
        llc = FREED[design](system)
        replayed = drive == "replay" and design != "partitioned"
        gc.collect()
        gc.disable()
        try:
            result = run_mix(llc, homogeneous("mcf", 2), system,
                             accesses_per_core=300, warmup_accesses=100, seed=3,
                             trace_cache=False, **DRIVES[drive])
            replay = (result.specialize_info or {}).get("replay")
            assert replay == ("opstream-scalar" if replayed else None)
            assert llc.stats.accesses > 0
            if not replayed:
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

    # Seeds no other test runs, so nothing from an earlier run could
    # serve these.
    @pytest.mark.parametrize("design, seed", [(MayaCache, 2027), (MirageCache, 2029)])
    def test_cold_run_leaves_no_replay_allocations(self, system, design, seed):
        import tracemalloc

        from repro.engine import vector

        # The line addresses the LLC holds were created by the replay
        # loop: 4 sets per skew keep them to ~120 tags (~4 KiB).
        config = MayaConfig if design is MayaCache else MirageConfig
        llc = design(config(sets_per_skew=4, rng_seed=7, hash_algorithm="splitmix"))
        tracemalloc.start()
        try:
            result = run_mix(llc, homogeneous("mcf", 2), system,
                             accesses_per_core=2000, warmup_accesses=500, seed=seed,
                             trace_cache=False, specialize=True)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert result.specialize_info["replay"] == "opstream-scalar"
        assert result.engine_info["scalar_ops"] > 1000
        rand = llc.index_randomizer
        assert rand.cache_info().size and rand.cache_info().precomputed
        for table in (rand._memo, rand._precomputed):
            assert all(type(k) is int and type(v) is int for k, v in table.items())
        alive = snapshot.filter_traces([tracemalloc.Filter(True, vector.__file__)])
        size = sum(stat.size for stat in alive.statistics("filename"))
        assert size < 16 * 1024, f"{size} bytes from engine/vector.py still alive"
