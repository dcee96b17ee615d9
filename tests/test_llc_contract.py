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
from repro.llc import (
    BaselineLLC,
    CeaserCache,
    FlexiblePartitionedLLC,
    FullyAssociativeCache,
    MirageCache,
    SetPartitionedLLC,
    WayPartitionedLLC,
    make_ceaser_s,
    make_scatter_cache,
)
from repro.llc.interface import access_lines, access_step, supports_rekey, sweep_info
from repro.reference import (
    ReferenceFullyAssociativeCache,
    ReferenceMayaCache,
    ReferenceMirageCache,
    ReferenceSetAssociativeCache,
    ReferenceSkewedRandomizedCache,
)

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
        llc = fresh_designs()[name]
        rng = random.Random(0)
        for _ in range(500):
            llc.access(
                rng.randrange(2000),
                is_write=rng.random() < 0.2,
                is_writeback=rng.random() < 0.2,
                core_id=rng.randrange(4),
            )
        stats = llc.stats
        assert stats.hits + stats.misses == stats.accesses
        assert stats.demand_accesses + stats.writebacks_received == stats.accesses
        assert stats.demand_hits <= stats.demand_accesses

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
