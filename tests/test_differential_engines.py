"""Differential tests: packed SoA engines vs the object-model reference.

The packed struct-of-arrays engines (``repro.cache.set_assoc``,
``repro.core.maya_cache``, ``repro.llc.mirage``, ``repro.llc.skewed``,
``repro.llc.fully_assoc``) must be *behaviourally
indistinguishable* from the retained object-model implementations in
``repro.reference``: same seed + same access stream => identical
per-access results, bit-identical statistics, identical occupancy, and
identical RNG draw order.  These tests drive both engines with the same
randomized streams - including invalidates, full flushes, SAE storms,
and rekeying - and fail on the first divergence.

Any failure here is a bug in the packed rewrite (or in an edit that
touched one engine and forgot its twin).
"""

import dataclasses
import random

import pytest

from repro.cache.set_assoc import SetAssociativeCache
from repro.common.config import CacheGeometry, MayaConfig, MirageConfig
from repro.core.maya_cache import MayaCache
from repro.llc.fully_assoc import FullyAssociativeCache
from repro.llc.interface import attack_capacity
from repro.llc.mirage import MirageCache
from repro.llc.skewed import SkewedRandomizedCache
from repro.reference import (
    ReferenceFullyAssociativeCache,
    ReferenceMayaCache,
    ReferenceMirageCache,
    ReferenceSetAssociativeCache,
    ReferenceSkewedRandomizedCache,
)


# -- stream generation ----------------------------------------------------


def make_stream(seed, length, addr_space, cores=4, sdids=1):
    """A reproducible mixed stream: (addr, is_write, core, is_writeback, sdid).

    60% of accesses hit a hot working set (drives promotions, reuse, and
    global evictions); the rest scan cold addresses (drives installs and
    capacity pressure).  ~20% writes, ~10% writebacks.
    """
    rng = random.Random(seed)
    hot = [rng.randrange(addr_space) for _ in range(max(8, addr_space // 8))]
    ops = []
    for _ in range(length):
        addr = rng.choice(hot) if rng.random() < 0.6 else rng.randrange(addr_space)
        kind = rng.random()
        ops.append(
            (
                addr,
                kind < 0.2,  # is_write
                rng.randrange(cores),
                0.2 <= kind < 0.3,  # is_writeback
                rng.randrange(sdids),
            )
        )
    return ops


# -- comparison helpers ---------------------------------------------------


def assert_stats_equal(packed, reference):
    """Full CacheStats dicts must match field for field."""
    ps = dataclasses.asdict(packed.stats)
    rs = dataclasses.asdict(reference.stats)
    assert ps == rs, f"stats diverged:\n packed   ={ps}\n reference={rs}"


def assert_state_equal(packed, reference):
    assert_stats_equal(packed, reference)
    assert packed.occupancy == reference.occupancy
    assert packed.occupancy_by_core() == reference.occupancy_by_core()
    if hasattr(packed, "occupancy_by_domain"):
        assert packed.occupancy_by_domain() == reference.occupancy_by_domain()
    if hasattr(packed, "check_invariants"):
        packed.check_invariants()
    if hasattr(reference, "check_invariants"):
        reference.check_invariants()


def drive_pair(packed, reference, ops, sdid_aware=True, mutate_every=None):
    """Replay ``ops`` on both engines, comparing every AccessResult.

    With ``mutate_every=n``, every n-th access is followed by an
    ``invalidate`` of that address (exercising the flush/invalidate
    paths mid-stream, where lazily-cleared packed columns could leak
    stale state if the readers' gating were wrong).
    """
    for i, (addr, is_write, core, is_writeback, sdid) in enumerate(ops):
        kwargs = {"is_write": is_write, "core_id": core, "is_writeback": is_writeback}
        if sdid_aware:
            kwargs["sdid"] = sdid
        rp = packed.access(addr, **kwargs)
        rr = reference.access(addr, **kwargs)
        assert rp == rr, f"access {i} ({addr=}) diverged:\n packed   ={rp}\n reference={rr}"
        if mutate_every and i % mutate_every == mutate_every - 1:
            if sdid_aware:
                ep = packed.invalidate(addr, sdid=sdid)
                er = reference.invalidate(addr, sdid=sdid)
            else:
                ep = packed.invalidate(addr)
                er = reference.invalidate(addr)
            assert ep == er, f"invalidate after access {i} diverged: {ep} vs {er}"
    assert_state_equal(packed, reference)


# -- Maya -----------------------------------------------------------------


def maya_pair(sets=64, seed=11, **kwargs):
    cfg = dict(sets_per_skew=sets, rng_seed=seed, hash_algorithm="splitmix")
    return (
        MayaCache(MayaConfig(**cfg), **kwargs),
        ReferenceMayaCache(MayaConfig(**cfg), **kwargs),
    )


class TestMayaDifferential:
    def test_mixed_stream_bit_identical(self):
        packed, reference = maya_pair()
        ops = make_stream(seed=1, length=4000, addr_space=4096, cores=4, sdids=3)
        drive_pair(packed, reference, ops, mutate_every=97)
        # The stream must exercise the interesting paths, not tiptoe
        # around them: tag-only hits (promotions), global tag evictions,
        # data evictions, and the premature-P0 window.
        assert packed.stats.tag_only_hits > 0
        assert packed.stats.tag_evictions > 0
        assert packed.stats.evictions > 0
        assert packed.premature_p0_evictions == reference.premature_p0_evictions
        assert packed.installs == reference.installs
        info_p = packed.refresh_mapping_cache_stats()
        info_r = reference.refresh_mapping_cache_stats()
        assert (info_p.hits, info_p.misses) == (info_r.hits, info_r.misses)
        assert_stats_equal(packed, reference)

    def test_flush_all_mid_stream(self):
        packed, reference = maya_pair(seed=23)
        ops = make_stream(seed=2, length=2400, addr_space=2048, sdids=2)
        drive_pair(packed, reference, ops[:1200])
        assert packed.flush_all() == reference.flush_all()
        assert packed.occupancy == 0
        drive_pair(packed, reference, ops[1200:])

    def test_rekey_mid_stream(self):
        packed, reference = maya_pair(seed=31)
        ops = make_stream(seed=3, length=2400, addr_space=2048, sdids=2)
        drive_pair(packed, reference, ops[:1200])
        packed.rekey()
        reference.rekey()
        drive_pair(packed, reference, ops[1200:])

    def test_sae_storm_with_rekey_policy(self):
        # No invalid-way reserve + no global tag eviction => the tag
        # store fills and SAEs (and the resulting rekey-flushes) fire
        # constantly.  Both engines must agree access for access.
        cfg = dict(
            sets_per_skew=4,
            base_ways_per_skew=2,
            reuse_ways_per_skew=1,
            invalid_ways_per_skew=0,
            rng_seed=5,
            hash_algorithm="splitmix",
        )
        packed = MayaCache(MayaConfig(**cfg), on_sae="rekey", global_tag_eviction=False)
        reference = ReferenceMayaCache(
            MayaConfig(**cfg), on_sae="rekey", global_tag_eviction=False
        )
        ops = make_stream(seed=4, length=1500, addr_space=256, cores=2, sdids=2)
        drive_pair(packed, reference, ops)
        assert packed.stats.saes > 0

    def test_random_skew_policy(self):
        packed, reference = maya_pair(seed=47, skew_policy="random")
        ops = make_stream(seed=6, length=2000, addr_space=2048)
        drive_pair(packed, reference, ops)


# -- Mirage ---------------------------------------------------------------


def mirage_pair(seed=13, on_sae="count", **cfg_kwargs):
    cfg = dict(sets_per_skew=64, rng_seed=seed, hash_algorithm="splitmix")
    cfg.update(cfg_kwargs)
    return (
        MirageCache(MirageConfig(**cfg), on_sae=on_sae),
        ReferenceMirageCache(MirageConfig(**cfg), on_sae=on_sae),
    )


class TestMirageDifferential:
    def test_mixed_stream_bit_identical(self):
        packed, reference = mirage_pair()
        ops = make_stream(seed=7, length=4000, addr_space=4096, cores=4, sdids=2)
        drive_pair(packed, reference, ops, mutate_every=89)
        assert packed.stats.evictions > 0

    def test_sae_path(self):
        # Zero extra (invalid) tag ways per skew: SAEs are routine.
        packed, reference = mirage_pair(
            seed=17, sets_per_skew=4, base_ways_per_skew=4, extra_ways_per_skew=0
        )
        ops = make_stream(seed=8, length=1500, addr_space=256, cores=2)
        drive_pair(packed, reference, ops)
        assert packed.stats.saes > 0

    def test_flush_all_mid_stream(self):
        packed, reference = mirage_pair(seed=19)
        ops = make_stream(seed=9, length=2400, addr_space=2048)
        drive_pair(packed, reference, ops[:1200])
        assert packed.flush_all() == reference.flush_all()
        drive_pair(packed, reference, ops[1200:])


# -- Set-associative baseline (also the packed L1/L2 substrate) -----------


class TestSetAssocDifferential:
    @pytest.mark.parametrize("policy", ["lru", "random", "srrip", "brrip", "drrip"])
    def test_mixed_stream_bit_identical(self, policy):
        geometry = CacheGeometry(sets=32, ways=4)
        packed = SetAssociativeCache(geometry, policy=policy, seed=21)
        reference = ReferenceSetAssociativeCache(geometry, policy=policy, seed=21)
        ops = make_stream(seed=10, length=3000, addr_space=1024, cores=4)
        drive_pair(packed, reference, ops, sdid_aware=False, mutate_every=101)

    def test_flush_all_mid_stream(self):
        geometry = CacheGeometry(sets=16, ways=8)
        packed = SetAssociativeCache(geometry, policy="lru")
        reference = ReferenceSetAssociativeCache(geometry, policy="lru")
        ops = make_stream(seed=12, length=2000, addr_space=512)
        drive_pair(packed, reference, ops[:1000], sdid_aware=False)
        assert packed.flush_all() == reference.flush_all()
        assert packed.occupancy == 0
        drive_pair(packed, reference, ops[1000:], sdid_aware=False)


# -- Skewed (CEASER-S / Scatter-Cache) and fully-associative ---------------


def skewed_pair(use_sdid_in_hash, remap_period=None, seed=29):
    geometry = CacheGeometry(sets=32, ways=8)
    kwargs = dict(
        use_sdid_in_hash=use_sdid_in_hash, remap_period=remap_period,
        seed=seed, hash_algorithm="splitmix",
    )
    return (
        SkewedRandomizedCache(geometry, **kwargs),
        ReferenceSkewedRandomizedCache(geometry, **kwargs),
    )


#: Designs packed from their object models, as (packed, reference) pairs.
PACKED_TWINS = {
    "ceaser_s": lambda seed: skewed_pair(False, seed=seed),
    "scatter": lambda seed: skewed_pair(True, seed=seed),
    "fully_assoc": lambda seed: (
        FullyAssociativeCache(256, seed=seed),
        ReferenceFullyAssociativeCache(256, seed=seed),
    ),
}


def assert_contains_equal(packed, reference, lines):
    """Residency must agree for every (line, sdid) the stream touched."""
    for line, sdid in lines:
        assert packed.contains(line, sdid=sdid) == reference.contains(line, sdid=sdid), (
            f"contains({line}, sdid={sdid}) diverged"
        )


def traffic_lines(ops):
    """Every (line, sdid) an attack-traffic op stream touches."""
    touched = set()
    for op in ops:
        if op[0] == "access":
            touched.add((op[1], op[5]))
        elif op[0] == "invalidate":
            touched.add((op[1], op[2]))
    return touched


@pytest.mark.parametrize("name", sorted(PACKED_TWINS))
class TestPackedTwinsDifferential:
    """The designs packed last keep their object models as oracles.

    ``drive_pair``/``replay_pair`` compare every ``AccessResult`` (so
    the ``EvictedLine`` streams), then ``vars(stats)`` and
    ``occupancy_by_core()``; residency is compared for every line the
    stream touched.
    """

    def test_mixed_stream_with_invalidates(self, name):
        packed, reference = PACKED_TWINS[name](41)
        ops = make_stream(seed=14, length=4000, addr_space=2048, cores=4, sdids=3)
        drive_pair(packed, reference, ops, mutate_every=83)
        assert vars(packed.stats) == vars(reference.stats)
        assert packed.stats.evictions > 0 and packed.stats.dirty_evictions > 0
        assert_contains_equal(packed, reference, {(op[0], op[4]) for op in ops})

    def test_flush_all_mid_stream(self, name):
        packed, reference = PACKED_TWINS[name](43)
        ops = make_stream(seed=15, length=3000, addr_space=1024, sdids=2)
        drive_pair(packed, reference, ops[:1500])
        assert packed.flush_all() == reference.flush_all()
        assert packed.occupancy == 0
        drive_pair(packed, reference, ops[1500:])
        assert_contains_equal(packed, reference, {(op[0], op[4]) for op in ops})

    def test_eviction_storm(self, name):
        from repro.security.attacks import eviction_storm_ops

        packed, reference = PACKED_TWINS[name](47)
        ops = eviction_storm_ops(attack_capacity(packed), rounds=3, seed=51)
        replay_pair(packed, reference, ops)
        assert packed.stats.evictions > 0
        assert_contains_equal(packed, reference, traffic_lines(ops))

    def test_prime_probe_with_mid_stream_rekeys(self, name):
        from repro.security.attacks import prime_probe_ops

        packed, reference = PACKED_TWINS[name](53)
        ops = prime_probe_ops(attack_capacity(packed), trials=8, rekey_period=2, seed=61)
        assert sum(1 for op in ops if op[0] == "rekey") == 3
        replay_pair(packed, reference, ops)
        assert_contains_equal(packed, reference, traffic_lines(ops))

    def test_recorded_ppp_traffic(self, name):
        # Recorded against a packed twin with the pair's seed, so the
        # adaptive attack issued exactly what either twin would see.
        from repro.security.attacks import RecordingLLC, prime_prune_probe

        recorder = RecordingLLC(PACKED_TWINS[name](59)[0])
        prime_prune_probe(recorder, target_size=4, max_rounds=3, confirm=1, seed=73)
        ops = recorder.ops
        assert sum(1 for op in ops if op[0] == "access") > 100
        packed, reference = PACKED_TWINS[name](59)
        replay_pair(packed, reference, ops)
        assert_contains_equal(packed, reference, traffic_lines(ops))


class TestSkewedRemapDifferential:
    @pytest.mark.parametrize("use_sdid_in_hash", [False, True])
    def test_remap_period_and_rekey(self, use_sdid_in_hash):
        packed, reference = skewed_pair(use_sdid_in_hash, remap_period=250, seed=61)
        ops = make_stream(seed=16, length=4000, addr_space=2048, cores=4, sdids=2)
        drive_pair(packed, reference, ops[:2000], mutate_every=71)
        packed.rekey()
        reference.rekey()
        drive_pair(packed, reference, ops[2000:])
        assert packed.remaps == reference.remaps > 2
        assert packed.index_randomizer.epoch == reference.index_randomizer.epoch
        assert_contains_equal(packed, reference, {(op[0], op[4]) for op in ops})


# -- adversarial traffic (attack streams as engine fuzzers) ----------------


def replay_pair(packed, reference, ops):
    """Replay one attack-traffic op stream on both engines in lockstep.

    Same op format as ``repro.security.attacks.traffic.replay``, but
    every mutating call's result is compared across the pair, and a
    ``("rekey",)`` op is applied to *both* sides (every twin has the
    same ``rekey``: a real one, or the base no-op on the
    fully-associative cache).
    """
    for i, op in enumerate(ops):
        kind = op[0]
        if kind == "access":
            _, line, is_write, core, is_writeback, sdid = op
            kwargs = {"is_write": is_write, "core_id": core, "is_writeback": is_writeback}
            rp = packed.access(line, sdid=sdid, **kwargs)
            rr = reference.access(line, sdid=sdid, **kwargs)
            assert rp == rr, f"op {i} {op!r} diverged:\n packed   ={rp}\n reference={rr}"
        elif kind == "invalidate":
            _, line, sdid = op
            assert packed.invalidate(line, sdid=sdid) == reference.invalidate(line, sdid=sdid)
        elif kind == "flush":
            assert packed.flush_all() == reference.flush_all()
        elif kind == "rekey":
            packed.rekey()
            reference.rekey()
        else:
            raise AssertionError(f"unknown traffic op {op!r}")
    assert_state_equal(packed, reference)


class TestAdversarialTraffic:
    """Attack-shaped streams as differential fuzzers.

    Attack harnesses concentrate pressure ordinary benchmark streams
    spread out - flush storms, dense conflict groups, cross-SDID
    interleavings, mid-stream rekeys.  Every stream must leave the
    packed engine and its reference twin bit-identical.
    """

    pytestmark = pytest.mark.security

    def test_eviction_storm_on_maya(self):
        from repro.llc.interface import attack_capacity
        from repro.security.attacks import eviction_storm_ops

        packed, reference = maya_pair(sets=16, seed=43)
        ops = eviction_storm_ops(attack_capacity(packed), rounds=3, seed=51)
        replay_pair(packed, reference, ops)
        assert packed.stats.evictions + packed.stats.tag_evictions > 0
        assert packed.occupancy == 0  # each round ends in a flush

    def test_eviction_storm_on_mirage(self):
        from repro.llc.interface import attack_capacity
        from repro.security.attacks import eviction_storm_ops

        packed, reference = mirage_pair(seed=53, sets_per_skew=16)
        ops = eviction_storm_ops(attack_capacity(packed), rounds=3, seed=51)
        replay_pair(packed, reference, ops)
        assert packed.stats.accesses == sum(1 for op in ops if op[0] == "access")

    def test_prime_probe_with_mid_stream_rekeys_on_maya(self):
        from repro.llc.interface import attack_capacity
        from repro.security.attacks import prime_probe_ops

        packed, reference = maya_pair(sets=16, seed=59)
        ops = prime_probe_ops(
            attack_capacity(packed), trials=8, rekey_period=2, seed=61
        )
        rekeys = sum(1 for op in ops if op[0] == "rekey")
        assert rekeys == 3
        epoch_before = packed.tags.randomizer.epoch
        replay_pair(packed, reference, ops)
        assert packed.tags.randomizer.epoch == epoch_before + rekeys

    def test_prime_probe_with_mid_stream_rekeys_on_mirage(self):
        from repro.llc.interface import attack_capacity
        from repro.security.attacks import prime_probe_ops

        packed, reference = mirage_pair(seed=67, sets_per_skew=16)
        ops = prime_probe_ops(
            attack_capacity(packed), trials=8, rekey_period=4, seed=61
        )
        assert any(op[0] == "rekey" for op in ops)
        replay_pair(packed, reference, ops)

    def test_recorded_ppp_traffic_replays_bit_identical(self):
        """Record a *real* (adaptive) Prime+Prune+Probe run and replay
        its exact traffic through a fresh pair.

        The attack adapts to probe outcomes, so the recording target is
        a packed Maya with the same seed as the pair: same seed, same
        responses, so the recorded stream is exactly what the attack
        would have issued against either twin.
        """
        from repro.core.maya_cache import MayaCache as PackedMaya
        from repro.security.attacks import RecordingLLC, prime_prune_probe

        cfg = dict(sets_per_skew=16, rng_seed=71, hash_algorithm="splitmix")
        recorder = RecordingLLC(PackedMaya(MayaConfig(**cfg)))
        result = prime_prune_probe(
            recorder, target_size=4, max_rounds=3, confirm=1, seed=73
        )
        assert not result.found  # Maya, as ever
        ops = recorder.ops
        assert len(ops) > 100
        assert any(op[0] == "flush" for op in ops)
        assert any(op[0] == "access" and op[5] == 1 for op in ops)  # victim SDID
        packed, reference = maya_pair(sets=16, seed=71)
        replay_pair(packed, reference, ops)
        assert packed.stats.accesses == sum(1 for op in ops if op[0] == "access")


@pytest.mark.specialize
class TestVectorEngineSweep:
    """Seed sweep: the op-stream replay (:mod:`repro.engine.vector`,
    ``specialize=True``) vs the per-access drive (``specialize=False``).

    The targeted hazard tests live in ``test_compiled_replay.py``; this
    sweep drives whole ``run_mix`` protocols across seeds and workload
    shapes so divergences that depend on stream interleaving (not on a
    specific hazard) still get caught.
    """

    @staticmethod
    def _run_pair(seed, *, bench="mcf", cores=2, on_sae="count",
                  memo_capacity=None, hash_algorithm="splitmix"):
        from repro.common.config import SystemConfig
        from repro.hierarchy.simulator import run_mix
        from repro.trace.mixes import homogeneous

        system = SystemConfig(
            cores=cores,
            l1d_geometry=CacheGeometry(sets=4, ways=4),
            l2_geometry=CacheGeometry(sets=16, ways=8),
            llc_geometry=CacheGeometry(sets=64, ways=16),
        )
        cfg = dict(sets_per_skew=16, rng_seed=7, hash_algorithm=hash_algorithm)
        if memo_capacity is not None:
            cfg["memo_capacity"] = memo_capacity
        results = []
        for specialize in (False, True):
            llc = MayaCache(MayaConfig(**cfg), on_sae=on_sae)
            r = run_mix(
                llc, homogeneous(bench, cores), system, specialize=specialize,
                accesses_per_core=600, warmup_accesses=200, seed=seed,
                trace_cache=False,
            )
            results.append((llc, r))
        assert results[1][1].specialize_info["replay"] == "opstream-scalar"
        return results

    @pytest.mark.parametrize("seed", [1, 2, 3, 23, 1009])
    def test_seed_sweep_bit_identical(self, seed):
        (llc_g, r_g), (llc_r, r_r) = self._run_pair(seed)
        assert vars(llc_r.stats) == vars(llc_g.stats)
        assert r_r.ipcs == r_g.ipcs
        assert r_r.llc_mpki == r_g.llc_mpki

    @pytest.mark.parametrize("bench", ["lbm", "omnetpp"])
    def test_workload_sweep_bit_identical(self, bench):
        (llc_g, r_g), (llc_r, r_r) = self._run_pair(11, bench=bench)
        assert vars(llc_r.stats) == vars(llc_g.stats)
        assert r_r.ipcs == r_g.ipcs

    def test_tiny_memo_sweep_bit_identical(self):
        # Constant memo overflows: the precomputed side table backs
        # most of the replay's misses and must stay invisible.
        (llc_g, r_g), (llc_r, r_r) = self._run_pair(5, memo_capacity=32)
        info = llc_r.tags.randomizer.cache_info()
        assert info.size == info.capacity < info.misses  # it overflowed
        assert vars(llc_r.stats) == vars(llc_g.stats)
        assert r_r.ipcs == r_g.ipcs
