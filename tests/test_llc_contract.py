"""Interface contract tests: every LLC design, same semantics.

Each design is exercised through the shared :class:`repro.llc.LLCache`
surface; these tests pin down the behaviours the hierarchy, the attack
harnesses, and the experiments all rely on.
"""

import random

import pytest

from repro.cache.line import ACC_EVICTED_DIRTY, first_access
from repro.cache.set_assoc import SetAssociativeCache
from repro.common.codegen import template_source
from repro.common.config import CacheGeometry, MayaConfig, MirageConfig
from repro.common.errors import ConfigurationError
from repro.core import MayaCache
from repro.hierarchy.simulator import run_mix
from repro.hierarchy.system import CacheHierarchy
from repro.llc import (
    BaselineLLC,
    CeaserCache,
    FlexiblePartitionedLLC,
    FullyAssociativeCache,
    LLCache,
    MirageCache,
    SetPartitionedLLC,
    WayPartitionedLLC,
    make_ceaser_s,
    make_scatter_cache,
)
from repro.llc.interface import access_lines, access_step, supports_rekey, sweep_info
from repro.reference import (
    AccessFastAdapter,
    ReferenceFullyAssociativeCache,
    ReferenceMayaCache,
    ReferenceMirageCache,
    ReferenceSetAssociativeCache,
    ReferenceSkewedRandomizedCache,
)
from repro.trace.mixes import homogeneous

GEO = CacheGeometry(sets=32, ways=16)


def fresh_designs():
    return {
        "baseline": BaselineLLC(GEO, seed=1),
        "fully_assoc": FullyAssociativeCache(GEO.lines, seed=1),
        "ceaser": CeaserCache(GEO, remap_period=10**9, hash_algorithm="splitmix", seed=1),
        "ceaser_s": make_ceaser_s(GEO, remap_period=None, seed=1),
        "scatter": make_scatter_cache(GEO, seed=1),
        "mirage": MirageCache(MirageConfig(sets_per_skew=32, rng_seed=1, hash_algorithm="splitmix")),
        "maya": MayaCache(MayaConfig(sets_per_skew=32, rng_seed=1, hash_algorithm="splitmix")),
        "dawg": WayPartitionedLLC(GEO, domains=4, seed=1),
        "coloring": SetPartitionedLLC(GEO, domains=4, seed=1),
        # BCE-like: 16, 8, 4 and 4 sets, which fill GEO's 32 exactly.
        "bce": FlexiblePartitionedLLC(GEO, domains=4, demand_weights=(4, 2, 1, 1), min_sets=4,
                                      seed=1),
    }


ALL = list(fresh_designs())


def install(llc, addr, **kwargs):
    """Install with data on any design (two touches for Maya)."""
    llc.access(addr, **kwargs)
    llc.access(addr, **kwargs)


@pytest.mark.parametrize("name", ALL)
class TestContract:
    def test_miss_then_contains(self, name):
        llc = fresh_designs()[name]
        assert not llc.contains(0x123)
        install(llc, 0x123)
        assert llc.contains(0x123)

    def test_hit_after_install(self, name):
        llc = fresh_designs()[name]
        install(llc, 0x123)
        assert llc.access(0x123).hit

    def test_invalidate_removes(self, name):
        llc = fresh_designs()[name]
        install(llc, 0x123)
        llc.invalidate(0x123)
        assert not llc.contains(0x123)

    def test_invalidate_dirty_returns_writeback(self, name):
        llc = fresh_designs()[name]
        install(llc, 0x123, is_write=True)
        evicted = llc.invalidate(0x123)
        assert evicted is not None and evicted.dirty

    def test_invalidate_missing_is_none(self, name):
        llc = fresh_designs()[name]
        assert llc.invalidate(0x9999) is None

    def test_flush_all_empties(self, name):
        llc = fresh_designs()[name]
        for addr in range(8):
            install(llc, addr)
        assert llc.flush_all() > 0
        assert llc.occupancy == 0
        for addr in range(8):
            assert not llc.contains(addr)

    def test_occupancy_by_core_sums(self, name):
        llc = fresh_designs()[name]
        rng = random.Random(0)
        for _ in range(60):
            install(llc, rng.randrange(4000), core_id=rng.randrange(4))
        assert sum(llc.occupancy_by_core().values()) == llc.occupancy

    def test_stats_accounting_consistent(self, name):
        # The counters match the accesses this test drives and the hits
        # access() reports; accesses and demand_accesses derive from them.
        llc = fresh_designs()[name]
        rng = random.Random(0)
        hits = writebacks = demand_hits = 0
        for _ in range(500):
            line_addr = rng.randrange(2000)
            is_write = rng.random() < 0.2
            is_writeback = rng.random() < 0.2
            hit = llc.access(
                line_addr, is_write=is_write, is_writeback=is_writeback,
                core_id=rng.randrange(4),
            ).hit
            hits += hit
            writebacks += is_writeback
            demand_hits += hit and not is_writeback
        stats = llc.stats
        assert (stats.hits, stats.misses) == (hits, 500 - hits)
        assert stats.writebacks_received == writebacks
        assert stats.demand_hits == demand_hits
        assert (stats.accesses, stats.demand_accesses) == (500, 500 - writebacks)
        assert 0 < demand_hits < hits < 500 and writebacks

    def test_extra_latency_reported(self, name):
        llc = fresh_designs()[name]
        assert llc.extra_lookup_latency >= 0
        if name in ("mirage", "maya"):
            assert llc.extra_lookup_latency == 4
        if name in ("ceaser", "ceaser_s", "scatter"):
            assert llc.extra_lookup_latency == 3
        # access() reports extra_latency, and the hierarchy charges
        # extra_lookup_latency: they must agree on a miss and on a hit
        # (three touches make a data hit on Maya too).
        miss = llc.access(0x123)
        llc.access(0x123)
        hit = llc.access(0x123)
        assert not miss.hit and hit.hit
        assert miss.extra_latency == llc.extra_lookup_latency
        assert hit.extra_latency == llc.extra_lookup_latency

    def test_access_fast_publishes_the_dirty_victim(self, name):
        # The hierarchy writes a dirty victim back to DRAM from the
        # design's victim_* fields, read right after the step.
        llc = fresh_designs()[name]
        rng = random.Random(2)
        owner = {}
        dirty_evictions = 0
        for addr in range(1, 3000):
            core = rng.randrange(4)
            flags = llc.access_fast(addr, False, core, True, core)
            # CEASER's array holds (and evicts) encrypted addresses.
            owner[llc._encrypt(addr) if name == "ceaser" else addr] = core
            if flags & ACC_EVICTED_DIRTY:
                dirty_evictions += 1
                assert owner.get(llc.victim_addr) == llc.victim_core == llc.victim_sdid
        assert dirty_evictions > 0

    def test_occupancy_bounded_by_capacity(self, name):
        llc = fresh_designs()[name]
        rng = random.Random(1)
        for _ in range(3000):
            llc.access(rng.randrange(10_000), is_writeback=True, core_id=rng.randrange(4))
        capacity = GEO.lines
        if name == "maya":
            capacity = llc.config.data_entries
        assert llc.occupancy <= capacity


# -- the bulk probe: missing() is the contains() filter ---------------------


def probe_designs():
    """The campaign's seven designs, the partitioned LLCs (which keep
    ``LLCache.missing``'s default) and the references that subclass
    ``LLCache``."""
    designs = fresh_designs()
    designs.update(
        ref_ceaser_s=ReferenceSkewedRandomizedCache(
            GEO, use_sdid_in_hash=False, seed=1, hash_algorithm="splitmix"
        ),
        ref_scatter=ReferenceSkewedRandomizedCache(GEO, seed=1, hash_algorithm="splitmix"),
        ref_mirage=ReferenceMirageCache(
            MirageConfig(sets_per_skew=32, rng_seed=1, hash_algorithm="splitmix")
        ),
        ref_fully_assoc=ReferenceFullyAssociativeCache(GEO.lines, seed=1),
    )
    return designs


def contains_filter(llc, lines, sdid):
    return [line for line in lines if not llc.contains(line, sdid)]


def outcome(call):
    """What a probe call returns, or the error it raises."""
    try:
        return "returned", call()
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return "raised", type(exc), str(exc)


@pytest.mark.parametrize("name", list(probe_designs()))
def test_missing_agrees_with_contains(name):
    """``missing(lines, sdid)`` must equal the per-line ``contains``
    filter, in order and with repeats, after a fuzzed stream in two
    SDIDs that leaves Maya tags at priority 0, a rekey (CEASER's remap)
    and a flush; an SDID out of range must fail the same way both ways."""
    llc = probe_designs()[name]
    rng = random.Random(5)
    touched = []

    def burst(count):
        for _ in range(count):
            line, sdid = rng.randrange(1500), rng.randrange(2)
            touched.append(line)
            # One touch installs only a priority-0 tag on Maya.
            for _ in range(1 if rng.random() < 0.4 else 2):
                llc.access(line, is_write=rng.random() < 0.1, core_id=sdid, sdid=sdid)

    def check():
        lines = touched[-400:] + [rng.randrange(4000) for _ in range(100)] + touched[-50:]
        for sdid in (0, 1):
            assert llc.missing(lines, sdid) == contains_filter(llc, lines, sdid)
        return lines

    burst(600)
    lines = check()
    if name == "maya":
        tag_only = [line for line in lines if llc.contains_tag(line) and not llc.contains(line)]
        assert tag_only, "the stream left no priority-0 tag to probe"
    if supports_rekey(llc):
        llc.rekey()
        burst(300)
        check()
    llc.flush_all()
    assert llc.missing(lines, 0) == lines
    burst(300)
    lines = check()
    assert 0 < len(llc.missing(lines, 0)) < len(lines)

    bad = 1 << 16
    got = outcome(lambda: llc.missing(lines, bad))
    assert got == outcome(lambda: contains_filter(llc, lines, bad))
    if name in ("ceaser_s", "scatter", "mirage", "maya", "fully_assoc"):
        assert got[0] == "raised"


# -- the step protocol, written once ------------------------------------------

PARTITIONED = ("dawg", "coloring", "bce")
#: The designs with a generated step of their own.
STEPPED = [name for name in ALL if name not in PARTITIONED]


@pytest.mark.parametrize("name", STEPPED)
def test_fresh_design_sweeps_inline(name):
    """No specialization: ``access_step`` binds a fresh design's steps
    itself, so the sweep kernel inlines the generated step."""
    llc = fresh_designs()[name]
    assert type(llc).access_fast is first_access
    assert "access_fast" not in vars(llc)
    before = sweep_info()
    sweep, reason = access_lines(llc)
    assert reason is None
    assert sweep_info()["inline"] - before["inline"] == 1
    step = vars(llc)["access_fast"]
    assert template_source(step) is not None
    assert access_step(llc) is step
    if name == "baseline":
        assert vars(llc._cache)["access_fast"] is step
    if name == "ceaser":
        assert template_source(vars(llc._cache)["access_fast"]) is not None
    sweep(list(range(40)), 40, 2, 0, 0)
    assert llc.stats.accesses == 80


@pytest.mark.parametrize("name", PARTITIONED)
def test_partitioned_routers_take_the_call_form(name):
    """A router picks a slice per access, so there is no one step to
    inline: the sweep calls it, and says why."""
    llc = fresh_designs()[name]
    sweep, reason = access_lines(llc)
    assert reason == "access_fast (_PartitionedBase.access_fast) is not a generated step"
    sweep(list(range(40)), 40, 2, 0, 0)
    assert llc.stats.accesses == 80
    assert "access_fast" in vars(llc._slices[0])  # core 0's slice bound its step


#: The SDID width each design's object ``access`` accepts (``None``: any).
SDID_BITS = dict(
    {name: None for name in ("baseline", "ceaser") + PARTITIONED},
    mirage=16, ceaser_s=16, scatter=16, fully_assoc=16,
    maya=MayaConfig().sdid_bits,
)


@pytest.mark.parametrize("name", ALL)
def test_access_rejects_sdids_the_design_cannot_hold(name):
    llc = fresh_designs()[name]
    bits = SDID_BITS[name]
    assert llc.sdid_bits == bits
    if bits is None:
        llc.access(0x40, sdid=1 << 20)
        return
    llc.access(0x40, sdid=(1 << bits) - 1)
    with pytest.raises(ConfigurationError, match=f"does not fit {bits} bits"):
        llc.access(0x41, sdid=1 << bits)


def drop_designs():
    """Every LLC design, the set-associative array and each reference twin."""
    designs = probe_designs()
    designs.update(
        array=SetAssociativeCache(GEO, seed=1),
        ref_array=ReferenceSetAssociativeCache(GEO, seed=1),
        ref_maya=ReferenceMayaCache(
            MayaConfig(sets_per_skew=32, rng_seed=1, hash_algorithm="splitmix")
        ),
    )
    return designs


@pytest.mark.parametrize("name", list(drop_designs()))
def test_maintenance_drops_are_not_interference(name):
    """Interference counts a fill that displaced another core's line; an
    invalidation or a flush fills nothing, so it never counts."""
    llc = drop_designs()[name]
    for line in range(10):
        llc.access(line, is_write=True, core_id=0)
    assert llc.stats.evictions == 0
    assert llc.invalidate(3) is not None
    llc.flush_all()
    assert llc.stats.evictions == 10
    assert llc.stats.interference_evictions == 0


# -- the mapping: two stated facts, the rest derived -------------------------

#: What ``supports_rekey`` answered for each design, array and twin
#: before the randomizer became the one fact it reads.
SUPPORTS_REKEY = dict(
    {name: False for name in ("baseline", "fully_assoc", "array", "ref_array", "ref_fully_assoc")
     + PARTITIONED},
    **{name: True for name in ("ceaser", "ceaser_s", "scatter", "mirage", "maya",
                               "ref_ceaser_s", "ref_scatter", "ref_mirage", "ref_maya")},
)


@pytest.mark.parametrize("name", list(drop_designs()))
def test_supports_rekey_reads_the_randomizer(name):
    llc = drop_designs()[name]
    assert supports_rekey(llc) is SUPPORTS_REKEY[name]
    if isinstance(llc, LLCache):
        assert (llc.index_randomizer is not None) is SUPPORTS_REKEY[name]


#: The designs and twins whose ``rekey`` is the shared one.
SHARED_REKEY = ["ceaser", "ceaser_s", "scatter", "mirage", "maya", "ref_ceaser_s", "ref_scatter"]


@pytest.mark.parametrize("name", SHARED_REKEY)
def test_rekey_flushes_rekeys_and_counts(name):
    llc = probe_designs()[name]
    for line in range(40):
        install(llc, line, core_id=line % 2, sdid=line % 2)
    assert llc.occupancy > 0
    rand = llc.index_randomizer
    before = rand.key_fingerprint()
    llc.rekey()
    assert llc.occupancy == 0
    assert not any(llc.contains(line, line % 2) for line in range(40))
    assert rand.key_fingerprint() != before
    assert llc.remaps == 1


@pytest.mark.parametrize(
    "name", [name for name in probe_designs() if not SUPPORTS_REKEY[name]]
)
def test_rekey_without_a_randomizer_raises(name):
    llc = probe_designs()[name]
    install(llc, 0x123)
    with pytest.raises(TypeError, match="has no mapping keys to refresh"):
        llc.rekey()
    assert llc.contains(0x123)


@pytest.mark.parametrize("name", [name for name, bits in SDID_BITS.items() if bits is not None])
def test_probes_reject_sdids_the_design_cannot_hold(name):
    """``contains``, ``missing`` and ``invalidate`` refuse an SDID wider
    than the design's width with the error ``access`` raises."""
    llc = fresh_designs()[name]
    install(llc, 0x40)
    for bad in (1 << SDID_BITS[name], -1):
        expected = outcome(lambda: llc.access(0x40, sdid=bad))
        assert expected[0] == "raised" and expected[1] is ConfigurationError
        assert outcome(lambda: llc.contains(0x40, bad)) == expected
        assert outcome(lambda: llc.missing([0x40, 0x41], bad)) == expected
        assert outcome(lambda: llc.invalidate(0x40, bad)) == expected
    assert llc.contains(0x40)


#: ``run_mix`` designs with a memo-counting randomizer, and their twins
#: behind the ``access_fast`` adapter.
RANDOMIZED = {
    "mirage": lambda: MirageCache(
        MirageConfig(sets_per_skew=32, rng_seed=1, hash_algorithm="splitmix")),
    "scatter": lambda: make_scatter_cache(GEO, seed=1),
    "ceaser_s": lambda: make_ceaser_s(GEO, remap_period=None, seed=1),
    "ref_mirage": lambda: AccessFastAdapter(ReferenceMirageCache(
        MirageConfig(sets_per_skew=32, rng_seed=1, hash_algorithm="splitmix"))),
    "ref_scatter": lambda: AccessFastAdapter(
        ReferenceSkewedRandomizedCache(GEO, seed=1, hash_algorithm="prince")),
    "ref_ceaser_s": lambda: AccessFastAdapter(ReferenceSkewedRandomizedCache(
        GEO, use_sdid_in_hash=False, seed=1, hash_algorithm="prince")),
}


@pytest.mark.parametrize("name", sorted(RANDOMIZED))
def test_run_mix_reports_the_randomizer_hit_rate(name, tiny_system, monkeypatch):
    """The randomizer's memo counters over the measured window - from the
    warm-up's stats reset to the end of the run - reach the result."""
    llc = RANDOMIZED[name]()
    rand = llc.index_randomizer
    at_reset = []
    reset_stats = CacheHierarchy.reset_stats

    def recording_reset(hierarchy):
        info = rand.cache_info()
        at_reset.append((info.hits, info.misses))
        reset_stats(hierarchy)

    monkeypatch.setattr(CacheHierarchy, "reset_stats", recording_reset)
    result = run_mix(llc, homogeneous("mcf", 2), tiny_system,
                     accesses_per_core=2000, warmup_accesses=1000, seed=1)
    [(hits0, misses0)] = at_reset
    info = rand.cache_info()
    hits, misses = info.hits - hits0, info.misses - misses0
    assert hits > 0 and misses > 0
    assert (llc.stats.randomizer_hits, llc.stats.randomizer_misses) == (hits, misses)
    assert result.llc_randomizer_hit_rate == hits / (hits + misses)
