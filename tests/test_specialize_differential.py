"""Seeded fuzz differential: specialized codegen vs the generic engine.

``repro.engine.specialize`` compiles per-config ``access_fast`` step
functions with constants inlined and policy branches pruned.  The
contract is *bit-identity*: for any design and any access stream, the
specialized step must produce exactly the per-access flags, victim
protocol fields, and :class:`~repro.cache.stats.CacheStats` the generic
engine does - including across mid-stream ``rekey()`` / ``flush_all()``
(which mutate the bound columns in place) and SAE storms (which route
through the delegated rare-path methods).

These tests drive two identically-seeded instances of each design -
one generic, one with :func:`apply_specialization` installed - through
the same randomized event stream and fail on the first divergence.
Designs without a specialized template (skewed, fully-associative) run
through the same harness to pin down that applying/releasing a
specialization is a safe no-op for them.

Marker ``specialize``; run with ``-m specialize``.
"""

import dataclasses
import random

import pytest

from repro.cache.line import ACC_EVICTED
from repro.common.config import CacheGeometry, MayaConfig, MirageConfig
from repro.core.maya_cache import MayaCache
from repro.engine.specialize import apply_specialization
from repro.llc.baseline import BaselineLLC
from repro.llc.ceaser import CeaserCache
from repro.llc.fully_assoc import FullyAssociativeCache
from repro.llc.interface import supports_rekey
from repro.llc.mirage import MirageCache
from repro.llc.skewed import SkewedRandomizedCache

pytestmark = pytest.mark.specialize

GEOMETRY = CacheGeometry(sets=32, ways=8)


def _maya(seed, on_sae="count"):
    return MayaCache(
        MayaConfig(sets_per_skew=16, rng_seed=seed, hash_algorithm="splitmix"),
        on_sae=on_sae,
    )


#: name -> (builder(seed, policy), expect_specialized)
DESIGNS = {
    "baseline": (lambda seed, policy: BaselineLLC(GEOMETRY, policy=policy, seed=seed), True),
    "ceaser": (
        lambda seed, policy: CeaserCache(
            GEOMETRY, remap_period=900, seed=seed,
            hash_algorithm="splitmix", policy=policy,
        ),
        True,
    ),
    "ceaser_s": (
        lambda seed, policy: SkewedRandomizedCache(
            GEOMETRY, use_sdid_in_hash=False, remap_period=700,
            seed=seed, hash_algorithm="splitmix",
        ),
        False,  # packed access_fast step, but no template to specialize it
    ),
    "scatter": (
        lambda seed, policy: SkewedRandomizedCache(
            GEOMETRY, use_sdid_in_hash=True, remap_period=None,
            seed=seed, hash_algorithm="splitmix",
        ),
        False,
    ),
    "mirage": (
        lambda seed, policy: MirageCache(
            MirageConfig(sets_per_skew=16, rng_seed=seed, hash_algorithm="splitmix")
        ),
        True,
    ),
    "maya": (lambda seed, policy: _maya(seed), True),
    "maya_rekey_on_sae": (lambda seed, policy: _maya(seed, on_sae="rekey"), True),
    "fully_assoc": (lambda seed, policy: FullyAssociativeCache(192, seed=seed), False),
}

#: The sweep: every design, with the packed-replacement designs crossed
#: against every replacement policy the codegen has a template for.
COMBOS = (
    [("baseline", p) for p in ("lru", "random", "srrip", "brrip", "drrip")]
    + [("ceaser", p) for p in ("lru", "random", "srrip")]
    + [
        ("ceaser_s", None),
        ("scatter", None),
        ("mirage", None),
        ("maya", None),
        ("maya_rekey_on_sae", None),
        ("fully_assoc", None),
    ]
)


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


def drive(llc, events):
    """Run the event stream; returns the full per-event outcome trail.

    Packed designs go through ``access_fast`` (the attribute the
    specialization shadows) and record the raw ``ACC_*`` flags plus the
    victim protocol fields; object-model designs go through ``access``
    and record the :class:`AccessResult` fields.  Re-reads the
    ``access_fast`` attribute every iteration on purpose: a design
    whose rare path swaps the step mid-stream must keep dispatching
    like the hierarchy drive loop does.
    """
    trail = []
    for event in events:
        if event[0] == "flush":
            trail.append(("flush", llc.flush_all()))
            continue
        if event[0] == "rekey":
            if supports_rekey(llc):
                llc.rekey()
            trail.append(("rekey",))
            continue
        _, addr, is_write, core, is_wb, sdid = event
        step = getattr(llc, "access_fast", None)
        if step is not None:
            flags = step(addr, is_write, core, is_wb, sdid)
            if flags & ACC_EVICTED:
                trail.append(
                    (flags, llc.victim_addr, llc.victim_core,
                     llc.victim_sdid, llc.victim_reused)
                )
            else:
                trail.append(flags)
        else:
            result = llc.access(addr, is_write, core, is_wb, sdid)
            evicted = result.evicted
            trail.append(
                (
                    result.hit, result.tag_hit, result.sae,
                    None if evicted is None
                    else (evicted.line_addr, evicted.dirty, evicted.core_id),
                )
            )
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
    """Specialized and generic runs must match event-for-event."""
    build, expect_specialized = DESIGNS[design]
    events = fuzz_events(stream_seed * 1000 + len(design))

    generic = build(42, policy)
    specialized = build(42, policy)
    spec, info = apply_specialization(specialized)
    try:
        if expect_specialized:
            assert info["llc"] == type(specialized).__name__, info["llc_reason"]
        else:
            assert info["llc"] is None and info["llc_reason"]
        generic_trail = drive(generic, events)
        specialized_trail = drive(specialized, events)
    finally:
        spec.release()

    assert specialized_trail == generic_trail
    assert dataclasses.asdict(specialized.stats) == dataclasses.asdict(generic.stats)
    assert occupancy_snapshot(specialized) == occupancy_snapshot(generic)
    # The stream must actually have exercised the whole-cache events
    # and (for the secure designs) set-associative evictions.
    assert any(e[0] == "flush" for e in events)
    assert any(e[0] == "rekey" for e in events)
    if design in ("maya", "maya_rekey_on_sae"):
        assert generic.stats.saes > 0 or generic.stats.tag_evictions > 0
    if design == "mirage":
        # Mirage's extra tags make SAEs astronomically rare by design;
        # capacity pressure shows up as global evictions instead.
        assert generic.stats.evictions > 0


def test_release_restores_generic_step():
    """``release()`` must put the original bound method back."""
    llc = _maya(7)
    original = llc.access_fast
    spec, info = apply_specialization(llc)
    assert info["llc"] == "MayaCache"
    assert llc.access_fast is not original
    spec.release()
    assert llc.access_fast == original
