"""Seeded fuzz differential: each generated step vs its reference.

Every packed design with a state machine has one fast implementation,
a step rendered per configuration: :mod:`repro.core.maya_step`,
:mod:`repro.llc.mirage_step`, :mod:`repro.llc.skewed_step` (CEASER-S
and Scatter-Cache), :mod:`repro.llc.ceaser_step`,
:mod:`repro.llc.fully_assoc_step` and :mod:`repro.cache.set_assoc_step`
(the baseline and CEASER's inner array).  The contract is
*bit-identity* with the object-model reference
(:mod:`repro.reference`): for any access stream, the installed step
must produce exactly the per-access results,
:class:`~repro.cache.stats.CacheStats` and occupancy the reference
does - including across mid-stream ``rekey()`` / ``flush_all()``
(which mutate the bound columns in place) and SAE storms (which route
through the rare-path methods).  The references have no
``access_fast``, so both sides run through ``access()``, which on the
packed side calls the installed step.  CEASER has no object model of
its own: its oracle is the wrapper protocol written out call by call
(``_ObjectCeaser``) around the reference set-associative cache behind
:class:`~repro.reference.AccessFastAdapter`, which gives that cache the
packed array's ``access_fast`` protocol.  The PRINCE rows cover
the steps' cipher call-outs: a skewed step's mapping miss and every
CEASER encryption.

Placement is compared too: where each resident line sits, sampled
before every flush and rekey and at the end.  Mirage's skew pick does
not show in access results until an SAE, which these streams almost
never cause.

Marker ``specialize``; run with ``-m specialize``.
"""

import dataclasses
import random
import textwrap

import pytest

from repro.cache.line import ACC_EVICTED, ACC_HIT
from repro.common import codegen
from repro.common.codegen import _draw
from repro.common.config import CacheGeometry, MayaConfig, MirageConfig
from repro.common.rng import derive_seed
from repro.core.maya_cache import MayaCache
from repro.engine.specialize import apply_specialization
from repro.llc.baseline import BaselineLLC
from repro.llc.ceaser import CeaserCache
from repro.llc.fully_assoc import FullyAssociativeCache
from repro.llc.interface import supports_rekey
from repro.llc.mirage import MirageCache
from repro.llc.skewed import SkewedRandomizedCache
from repro.reference import (
    AccessFastAdapter,
    ReferenceFullyAssociativeCache,
    ReferenceMayaCache,
    ReferenceMirageCache,
    ReferenceSetAssociativeCache,
    ReferenceSkewedRandomizedCache,
)

pytestmark = pytest.mark.specialize

GEOMETRY = CacheGeometry(sets=32, ways=8)


def _maya(seed, on_sae="count", make=MayaCache):
    return make(
        MayaConfig(sets_per_skew=16, rng_seed=seed, hash_algorithm="splitmix"),
        on_sae=on_sae,
    )


def _mirage(seed, make=MirageCache):
    return make(MirageConfig(sets_per_skew=16, rng_seed=seed, hash_algorithm="splitmix"))


def _ceaser(seed, policy, algorithm="splitmix"):
    return CeaserCache(
        GEOMETRY, remap_period=60, seed=seed, hash_algorithm=algorithm, policy=policy
    )


class _ObjectCeaser(CeaserCache):
    """CEASER's protocol written out call by call: encrypt, run the
    inner array, mirror its victim, count the fill toward the remap."""

    def access_fast(self, line_addr, is_write=False, core_id=0, is_writeback=False, sdid=0):
        cache = self._cache
        flags = cache.access_fast(
            self.index_randomizer.encrypt_address(line_addr), is_write, core_id, is_writeback, sdid
        )
        if flags & ACC_HIT:
            return flags
        if flags & ACC_EVICTED:
            self.victim_addr = cache.victim_addr
            self.victim_core = cache.victim_core
            self.victim_sdid = cache.victim_sdid
            self.victim_reused = cache.victim_reused
        self._fills_since_remap += 1
        if self._fills_since_remap >= self.remap_period:
            self.rekey()
        return flags


def _reference_ceaser(seed, policy, algorithm="splitmix"):
    """CEASER's oracle: :class:`_ObjectCeaser` over the reference array
    (same derived seed)."""
    llc = _ObjectCeaser(
        GEOMETRY, remap_period=60, seed=seed, hash_algorithm=algorithm, policy=policy
    )
    llc._cache = AccessFastAdapter(
        ReferenceSetAssociativeCache(GEOMETRY, policy=policy, seed=derive_seed(seed, 12))
    )
    llc.stats = llc._cache.stats
    return llc


def _skewed(seed, sdid_in_hash, remap_period, algorithm="splitmix",
            make=SkewedRandomizedCache):
    return make(
        GEOMETRY, use_sdid_in_hash=sdid_in_hash, remap_period=remap_period,
        seed=seed, hash_algorithm=algorithm,
    )


#: name -> builder(seed, policy).
DESIGNS = {
    "baseline": lambda seed, policy: BaselineLLC(GEOMETRY, policy=policy, seed=seed),
    "ceaser": _ceaser,
    "ceaser_prince": lambda seed, policy: _ceaser(seed, policy, "prince"),
    "ceaser_s": lambda seed, policy: _skewed(seed, False, 60),
    "scatter": lambda seed, policy: _skewed(seed, True, None),
    "scatter_prince": lambda seed, policy: _skewed(seed, True, 60, "prince"),
    "mirage": lambda seed, policy: _mirage(seed),
    "maya": lambda seed, policy: _maya(seed),
    "maya_rekey_on_sae": lambda seed, policy: _maya(seed, on_sae="rekey"),
    "fully_assoc": lambda seed, policy: FullyAssociativeCache(192, seed=seed),
}

#: Every design's object-model reference: name -> builder(seed, policy).
REFERENCE_ORACLES = {
    "baseline": lambda seed, policy: ReferenceSetAssociativeCache(
        GEOMETRY, policy=policy, seed=seed
    ),
    "ceaser": _reference_ceaser,
    "ceaser_prince": lambda seed, policy: _reference_ceaser(seed, policy, "prince"),
    "ceaser_s": lambda seed, policy: _skewed(
        seed, False, 60, make=ReferenceSkewedRandomizedCache
    ),
    "scatter": lambda seed, policy: _skewed(seed, True, None, make=ReferenceSkewedRandomizedCache),
    "scatter_prince": lambda seed, policy: _skewed(
        seed, True, 60, "prince", make=ReferenceSkewedRandomizedCache
    ),
    "mirage": lambda seed, policy: _mirage(seed, make=ReferenceMirageCache),
    "maya": lambda seed, policy: _maya(seed, make=ReferenceMayaCache),
    "maya_rekey_on_sae": lambda seed, policy: _maya(
        seed, on_sae="rekey", make=ReferenceMayaCache
    ),
    "fully_assoc": lambda seed, policy: ReferenceFullyAssociativeCache(192, seed=seed),
}

#: The sweep: every design, with the packed-replacement designs crossed
#: against every replacement policy the step renders an arm for.
COMBOS = (
    [("baseline", p) for p in ("lru", "random", "srrip", "brrip")]
    + [("ceaser", p) for p in ("lru", "random", "srrip")]
    + [
        ("ceaser_prince", "lru"),
        ("ceaser_s", None),
        ("scatter", None),
        ("scatter_prince", None),
        ("mirage", None),
        ("maya", None),
        ("maya_rekey_on_sae", None),
        ("fully_assoc", None),
    ]
)


def placement(llc):
    """Where each resident line sits: line -> flat slot for the
    set-associative arrays, (line, SDID) -> slot for the rest (the
    packed location maps key ``line << 16 | sdid``, the reference ones
    a tuple; the reference skewed array stores ``(skew, set, way)``)."""
    if hasattr(llc, "_cache") or isinstance(llc, ReferenceSetAssociativeCache):
        return dict(getattr(llc, "_cache", llc)._where)
    where = llc.tags._where if hasattr(llc, "tags") else llc._where
    if isinstance(llc, ReferenceSkewedRandomizedCache):
        sets, ways = llc.sets_per_skew, llc.ways_per_skew
        where = {key: (skew * sets + s) * ways + w for key, (skew, s, w) in where.items()}
    return {
        key if isinstance(key, tuple) else (key >> 16, key & 0xFFFF): slot
        for key, slot in where.items()
    }


def fuzz_events(seed, length=1500, addr_space=4096, cores=4, sdids=2):
    """A reproducible adversarial event stream.

    Mostly a hot/cold access mix (reuse + capacity pressure), salted
    with rare whole-cache events: ``flush`` (drop everything),
    ``rekey`` (fresh mapping keys mid-stream), and SAE storms - tight
    bursts of cold installs that overflow sets in the small geometries
    above and force the designs through their SAE handling.
    """
    rng = random.Random(seed)
    hot = [rng.randrange(addr_space) for _ in range(64)]
    events = []
    while len(events) < length:
        roll = rng.random()
        if roll < 0.004:
            events.append(("flush",))
        elif roll < 0.010:
            events.append(("rekey",))
        elif roll < 0.030:  # SAE storm
            events.extend(
                ("access", rng.getrandbits(26), False, rng.randrange(cores),
                 False, rng.randrange(sdids))
                for _ in range(24)
            )
        else:
            addr = rng.choice(hot) if rng.random() < 0.55 else rng.randrange(addr_space)
            kind = rng.random()
            events.append(
                ("access", addr, kind < 0.2, rng.randrange(cores),
                 0.2 <= kind < 0.3, rng.randrange(sdids))
            )
    return events


def drive(llc, events, place=None):
    """Run the event stream through ``access``; returns the full trail.

    The trail records each :class:`AccessResult` and every flush count.
    With ``place``, it also records ``place(llc)`` before every flush
    and rekey and at the end.
    """
    trail = []
    for event in events:
        if event[0] in ("flush", "rekey") and place is not None:
            trail.append(("placement", place(llc)))
        if event[0] == "flush":
            trail.append(("flush", llc.flush_all()))
            continue
        if event[0] == "rekey":
            if supports_rekey(llc):
                llc.rekey()
            trail.append(("rekey",))
            continue
        _, addr, is_write, core, is_wb, sdid = event
        trail.append(llc.access(addr, is_write, core, is_wb, sdid))
    if place is not None:
        trail.append(("placement", place(llc)))
    return trail


def occupancy_snapshot(llc):
    snap = {"occupancy": llc.occupancy, "by_core": llc.occupancy_by_core()}
    if hasattr(llc, "occupancy_by_domain"):
        snap["by_domain"] = llc.occupancy_by_domain()
    return snap


@pytest.mark.parametrize(
    "design,policy", COMBOS, ids=[f"{d}-{p or 'default'}" for d, p in COMBOS]
)
@pytest.mark.parametrize("stream_seed", [11, 202])
def test_specialized_bit_identical(design, policy, stream_seed):
    """The installed step and its oracle must match event-for-event."""
    events = fuzz_events(stream_seed * 1000 + len(design))
    oracle = REFERENCE_ORACLES[design](42, policy)
    specialized = DESIGNS[design](42, policy)
    spec, info = apply_specialization(specialized)
    try:
        assert info["llc"] == type(specialized).__name__, info["llc_reason"]
        oracle_trail = drive(oracle, events, placement)
        specialized_trail = drive(specialized, events, placement)
    finally:
        spec.release()

    assert specialized_trail == oracle_trail
    assert dataclasses.asdict(specialized.stats) == dataclasses.asdict(oracle.stats)
    assert occupancy_snapshot(specialized) == occupancy_snapshot(oracle)
    # The stream must actually have exercised the whole-cache events
    # and (for the secure designs) set-associative evictions.
    assert any(e[0] == "flush" for e in events)
    assert any(e[0] == "rekey" for e in events)
    if design in ("maya", "maya_rekey_on_sae"):
        assert oracle.stats.saes > 0 or oracle.stats.tag_evictions > 0
    if design == "mirage":
        # Mirage's extra tags make SAEs astronomically rare by design;
        # capacity pressure shows up as global evictions instead.
        assert oracle.stats.evictions > 0


@pytest.mark.parametrize(
    "design", ["baseline", "ceaser", "ceaser_s", "scatter", "mirage", "maya", "fully_assoc"]
)
def test_release_restores_the_binder(design):
    """``release()`` must put the class's ``access_fast`` back: the
    binder that renders the step on first use."""
    llc = DESIGNS[design](7, "lru" if design in ("baseline", "ceaser") else None)
    owners = [llc] + ([llc._cache] if hasattr(llc, "_cache") else [])
    before = [vars(owner).get("access_fast") for owner in owners]
    spec, info = apply_specialization(llc)
    assert info["llc"] == type(llc).__name__
    assert "access_fast" in vars(getattr(llc, "_cache", llc))
    spec.release()
    assert [vars(owner).get("access_fast") for owner in owners] == before


#: Draw bounds: 1, powers of two and their neighbours (a bound just past
#: a power of two rejects the most draws), the bench's priority-0 cap + 1
#: (3073) and data-store size (6144), and a 21-bit bound.
DRAW_BOUNDS = (1, 2, 3, 7, 8, 9, 63, 64, 65, 3073, 6144, 2**20 + 1)


@pytest.mark.parametrize("seed", [0, 7, 20241017])
@pytest.mark.parametrize("n", DRAW_BOUNDS)
def test_inlined_draw_matches_stdlib(n, seed):
    """The generated Maya and Mirage steps draw through ``codegen._draw``,
    which relies on ``Random._randbelow(n)`` and ``randrange(n)`` being
    the ``getrandbits(n.bit_length())`` rejection loop.  Pin that
    contract on every Python the suite runs on, for a literal bound and
    for a bound read from a variable."""
    source = (
        "def literal(getrandbits):\n"
        + textwrap.indent(_draw("r", n, "getrandbits"), "    ")
        + "    return r\n"
        + "def variable(getrandbits, n):\n"
        + textwrap.indent(_draw("r", "n", "getrandbits"), "    ")
        + "    return r\n"
    )
    namespace = {}
    exec(source, namespace)
    draws = 300
    streams = [random.Random(seed) for _ in range(4)]
    literal = [namespace["literal"](streams[0].getrandbits) for _ in range(draws)]
    variable = [namespace["variable"](streams[1].getrandbits, n) for _ in range(draws)]
    randbelow = [streams[2]._randbelow(n) for _ in range(draws)]
    randrange = [streams[3].randrange(n) for _ in range(draws)]
    assert literal == variable == randbelow == randrange
    assert len({s.getrandbits(64) for s in streams}) == 1  # same bits consumed


def test_fingerprint_covers_data_store_size(monkeypatch):
    """Two Maya configs that share ways, sets and priority-0 cap but not
    the data-store size (the data eviction's draw bound, a literal in
    the generated step) must compile twice, and each step must match
    the reference."""
    monkeypatch.setattr(codegen, "_code_cache", {})
    before = codegen.specialize_cache_info().compiles
    events = fuzz_events(4242)
    for base, reuse, invalid in ((6, 3, 6), (5, 3, 7)):
        config = MayaConfig(
            sets_per_skew=16, base_ways_per_skew=base, reuse_ways_per_skew=reuse,
            invalid_ways_per_skew=invalid, rng_seed=9, hash_algorithm="splitmix",
        )
        reference = ReferenceMayaCache(config)
        specialized = MayaCache(config)
        spec, info = apply_specialization(specialized)
        try:
            assert info["llc"] == "MayaCache", info["llc_reason"]
            reference_trail = drive(reference, events)
            specialized_trail = drive(specialized, events)
        finally:
            spec.release()
        assert specialized_trail == reference_trail
        assert dataclasses.asdict(specialized.stats) == dataclasses.asdict(reference.stats)
        assert reference.stats.evictions > 0
    assert codegen.specialize_cache_info().compiles - before == 2
