"""The attack harnesses' sweep kernel and the premap hook.

``repro.llc.interface.access_lines`` binds one generated sweep kernel
per attacker around the design's installed step: the step's body
inline for a library design's generated step, a call per touch for
anything else.  ``LLCache.premap`` loads a randomized design's side
table for a batch of lines in one pass.  These tests check which form
each design takes, hold both forms to the loop the harnesses ran over
the bound step (through CEASER remaps, rekeys, Mirage SAEs and memo
capacity evictions), hold premap to a run without it, check that the
op-stream replay's precompute loads only keys the design's step looks
up, and check the renderer's refusals.
"""

import random
from array import array

import pytest

from repro.common import codegen
from repro.common.config import CacheGeometry, MayaConfig, MirageConfig
from repro.core.maya_cache import MayaCache
from repro.crypto.randomizer import IndexRandomizer
from repro.engine import vector
from repro.engine.specialize import Specialization, specialize_llc
from repro.hierarchy.simulator import run_mix
from repro.llc.baseline import BaselineLLC
from repro.llc.ceaser import CeaserCache
from repro.llc.fully_assoc import FullyAssociativeCache
from repro.llc.interface import access_lines, supports_rekey, sweep_info
from repro.llc.mirage import MirageCache
from repro.llc.skewed import SkewedRandomizedCache
from repro.reference import (
    AccessFastAdapter,
    ReferenceFullyAssociativeCache,
    ReferenceMirageCache,
    ReferenceSkewedRandomizedCache,
)
from repro.security import campaign
from repro.harness.runner import summary_dict
from repro.service.jobs import cache_delta, cache_snapshot
from repro.trace.mixes import homogeneous

from .test_replay_kernel import INLINED, _synthetic_step

GEO = CacheGeometry(sets=16, ways=8)

#: Every library design, as the campaign builds them, plus PRINCE rows.
DESIGNS = {
    "baseline": lambda: BaselineLLC(GEO, policy="lru", seed=3),
    "ceaser": lambda: CeaserCache(GEO, remap_period=10**9, seed=3, hash_algorithm="splitmix"),
    "ceaser_s": lambda: SkewedRandomizedCache(
        GEO, use_sdid_in_hash=False, seed=3, hash_algorithm="splitmix"),
    "scatter": lambda: SkewedRandomizedCache(GEO, seed=3, hash_algorithm="splitmix"),
    "mirage": lambda: MirageCache(
        MirageConfig(sets_per_skew=16, rng_seed=3, hash_algorithm="splitmix")),
    "maya": lambda: MayaCache(MayaConfig(sets_per_skew=16, rng_seed=3, hash_algorithm="splitmix")),
    "fully_assoc": lambda: FullyAssociativeCache(128, seed=3),
    "maya-prince": lambda: MayaCache(
        MayaConfig(sets_per_skew=16, rng_seed=3, hash_algorithm="prince")),
    "scatter-prince": lambda: SkewedRandomizedCache(GEO, seed=3, hash_algorithm="prince"),
}

#: The hazards a sweep must carry through, on top of every design.
HAZARDS = dict(DESIGNS, **{
    # 50 fills per epoch: the sweeps below remap mid-sweep.
    "ceaser-remap": lambda: CeaserCache(GEO, remap_period=50, seed=3, hash_algorithm="splitmix"),
    "mirage-sae-count": lambda: MirageCache(MirageConfig(
        sets_per_skew=8, base_ways_per_skew=4, extra_ways_per_skew=0, rng_seed=5,
        hash_algorithm="splitmix")),
    "maya-sae-rekey": lambda: MayaCache(MayaConfig(
        sets_per_skew=4, base_ways_per_skew=2, reuse_ways_per_skew=1, invalid_ways_per_skew=0,
        rng_seed=5, hash_algorithm="splitmix"), on_sae="rekey"),
    "maya-memo-capacity": lambda: MayaCache(MayaConfig(
        sets_per_skew=16, rng_seed=3, hash_algorithm="splitmix", memo_capacity=64)),
})

#: Reference models behind the ``access_fast`` protocol: the call form.
REFERENCES = {
    "reference-mirage": lambda: AccessFastAdapter(ReferenceMirageCache(
        MirageConfig(sets_per_skew=16, rng_seed=3, hash_algorithm="splitmix"))),
    "reference-scatter": lambda: AccessFastAdapter(
        ReferenceSkewedRandomizedCache(GEO, seed=3, hash_algorithm="splitmix")),
    "reference-fully-assoc": lambda: AccessFastAdapter(ReferenceFullyAssociativeCache(128, seed=3)),
}

#: The randomized designs whose steps read the side table premap loads.
PREMAPPED = ("ceaser_s", "scatter", "mirage", "maya", "maya-prince", "scatter-prince",
             "maya-memo-capacity")


@pytest.fixture()
def spec():
    """Installs designs' steps as a campaign cell does; released after."""
    spec = Specialization()
    yield spec
    spec.release()


def _built(make, spec):
    llc = make()
    specialize_llc(llc, spec)
    return llc


def _wrapped(llc, calls=None):
    """Install a pass-through around ``llc``'s step, as the bench tracer
    does: the kernel then calls the step once per touch."""
    step = llc.access_fast

    def wrapper(*args):
        if calls is not None:
            calls.append(args)
        return step(*args)

    llc.access_fast = wrapper
    return llc


def _loop_sweep(llc):
    """The oracle: the loop the harnesses ran over the bound step."""
    step = llc.access_fast

    def sweep(lines, block, passes, core_id, sdid):
        for first in range(0, len(lines), block):
            chunk = lines[first:first + block]
            for _ in range(passes):
                for line in chunk:
                    step(line, False, core_id, False, sdid)

    return sweep


#: (block, passes, core, sdid) of each sweep in :func:`_drive`, with the
#: slice of the batch it loads; a rekey runs between the third and the
#: fourth where the design has one.
PLAN = (
    (slice(None), None, 2, 0, 0),  # prime: two sweeps of the whole batch
    (slice(0, 40), 1, 2, 0, 1),  # double-touch installs in the other domain
    (slice(None), 64, 2, 2, 0),  # double-touched blocks, core 2
    (slice(None, None, 3), None, 1, 1, 1),  # victim reads
    (slice(0, 0), 1, 2, 0, 0),  # nothing to load
)


def _drive(llc, sweep, seed=11, premap=False):
    """A harness-shaped sequence of sweeps over ``llc``; returns the
    number of touches made."""
    rng = random.Random(seed)
    batch = [0x6000_0000 + rng.randrange(1 << 24) for _ in range(300)]
    touches = 0
    for n, (part, block, passes, core, sdid) in enumerate(PLAN):
        if n == 3 and supports_rekey(llc):
            llc.rekey()
        lines = batch[part]
        if premap:
            llc.premap(lines, sdid)
        sweep(lines, block or len(lines) or 1, passes, core, sdid)
        if premap:
            llc.drop_premap()
        touches += passes * len(lines)
    return touches


_PRIMITIVE = (int, float, str, bool, bytes, type(None))


def state(llc):
    """Everything a sweep can change, copied: counters, columns,
    location maps, victim fields, RNG states and the mapping memo in
    order, gathered from ``llc`` and the objects it holds."""
    seen = set()
    out = {}

    def walk(obj, path):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        for name, value in sorted(vars(obj).items()):
            key = f"{path}.{name}"
            if isinstance(value, random.Random):
                out[key] = value.getstate()
            elif isinstance(value, dict):
                out[key] = list(value.items())
            elif isinstance(value, (bytearray, array)):
                out[key] = bytes(value)
            elif isinstance(value, (list, tuple)):
                if all(isinstance(x, _PRIMITIVE) for x in value):
                    out[key] = list(value)
            elif isinstance(value, _PRIMITIVE):
                out[key] = value
            elif hasattr(value, "__dict__") and not callable(value):
                walk(value, key)

    walk(llc, "llc")
    return out


class TestFormTaken:
    """Which op form each design's sweep takes, and where that is reported."""

    @pytest.mark.parametrize("design", sorted(HAZARDS))
    def test_library_designs_inline_their_step(self, spec, design):
        llc = _built(HAZARDS[design], spec)
        before = sweep_info()
        sweep, reason = access_lines(llc)
        assert reason is None
        filename = sweep.__code__.co_filename
        assert filename.startswith("<specialized:sweep:(") and "inline:" in filename
        after = sweep_info()
        assert (after["inline"] - before["inline"], after["call"] - before["call"]) == (1, 0)

    @pytest.mark.parametrize("design", sorted(REFERENCES))
    def test_reference_twins_take_the_call_form_with_a_reason(self, design):
        llc = REFERENCES[design]()
        before = sweep_info()
        sweep, reason = access_lines(llc)
        assert reason == "access_fast (AccessFastAdapter.access_fast) is not a generated step"
        assert sweep.__code__.co_filename == "<specialized:sweep:('call',)>"
        assert sweep_info()["call"] - before["call"] == 1
        assert _drive(llc, sweep) > 0
        assert llc.stats.accesses > 0

    def test_a_wrapped_step_is_called_once_per_touch(self, spec):
        calls = []
        llc = _wrapped(_built(DESIGNS["maya"], spec), calls)
        sweep, reason = access_lines(llc)
        assert "is not a generated step" in reason
        touches = _drive(llc, sweep)
        assert len(calls) == touches == llc.stats.accesses > 0
        # The prime sweeps the batch twice; the installs touch each line twice.
        assert calls[0] == calls[300] == (calls[0][0], False, 0, False, 0)
        assert calls[600] == calls[601] == (calls[600][0], False, 0, False, 1)

    def test_counts_reach_the_summary_and_the_worker_caches(self, spec):
        """The ``sweeps`` layer: in the ``--json`` summary, and in the
        per-job deltas a pool worker reports to ``/status``."""
        before = cache_snapshot()
        access_lines(_built(DESIGNS["baseline"], spec))
        access_lines(REFERENCES["reference-mirage"]())
        snapshot = cache_snapshot()
        assert snapshot["sweeps"] == sweep_info()
        assert "memory_hits" not in snapshot["sweeps"]
        assert summary_dict([], 1, 0.0)["caches"]["sweeps"] == sweep_info()
        assert cache_delta(before, snapshot)["sweeps"] == {"inline": 1, "call": 1}

    def test_one_compile_per_step_configuration(self, spec):
        access_lines(_built(DESIGNS["fully_assoc"], spec))
        compiles = codegen.specialize_cache_info().compiles
        access_lines(_built(DESIGNS["fully_assoc"], spec))
        assert codegen.specialize_cache_info().compiles == compiles

    @pytest.mark.security
    def test_every_campaign_cell_inlines_every_sweep(self):
        for key in campaign.shard_keys(seed=7, quick=True):
            before = sweep_info()
            campaign.run_shard(key, seed=7, quick=True)
            after = sweep_info()
            assert after["call"] == before["call"], key
            assert after["inline"] > before["inline"], key


@pytest.mark.specialize
class TestFormsAgree:
    """The inline and call forms against the loop over the bound step."""

    @pytest.mark.parametrize("design", sorted(HAZARDS))
    def test_both_forms_match_the_loop(self, spec, design):
        runs = {}
        for form in ("loop", "inline", "call"):
            llc = _built(HAZARDS[design], spec)
            if form == "loop":
                touches = _drive(llc, _loop_sweep(llc))
            else:
                if form == "call":
                    _wrapped(llc)
                sweep, reason = access_lines(llc)
                assert (reason is None) == (form == "inline")
                touches = _drive(llc, sweep)
            assert touches == llc.stats.accesses
            runs[form] = (llc, state(llc))
        assert runs["inline"][1] == runs["loop"][1]
        assert runs["call"][1] == runs["loop"][1]
        llc = runs["inline"][0]
        if design == "ceaser-remap":
            assert llc.remaps > 1
        if "sae" in design:
            assert llc.stats.saes > 0
        if design == "maya-memo-capacity":
            info = llc.index_randomizer.cache_info()
            assert info.size == info.capacity < info.misses


@pytest.mark.specialize
class TestPremap:
    """premap loads a side table the steps read only on a counted memo
    miss: nothing observable moves."""

    @pytest.mark.parametrize("design", PREMAPPED)
    def test_premap_is_neutral(self, spec, design):
        runs = []
        for premap in (False, True):
            llc = _built(HAZARDS[design], spec)
            sweep, _ = access_lines(llc)
            rand = llc.index_randomizer
            if premap:
                assert llc.premap([0x6000_0000, 0x6000_0001], 0) > 0
                llc.drop_premap()
                assert rand.cache_info().precomputed == 0
            _drive(llc, sweep, premap=premap)
            info = rand.cache_info()
            runs.append((list(rand._memo.items()), info.hits, info.misses, state(llc)))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("algorithm", ["splitmix", "prince"])
    def test_premapped_entries_are_the_lookups_own(self, algorithm):
        """Every entry premap loads equals what the lookup computes."""
        rand = IndexRandomizer(2, 64, seed=5, algorithm=algorithm)
        lines = [0x6000_0000 + 37 * i for i in range(50)]
        assert rand.premap(lines, 3) == len(lines)
        table = dict(rand._precomputed)
        for line in lines:
            assert rand._unpack(table[(line << 16) | 3]) == rand.compute_indices(line, 3)
        assert rand.cache_info().misses == 0  # nothing looked up yet

    def test_ceaser_keeps_the_default(self, spec):
        llc = _built(DESIGNS["ceaser"], spec)
        assert llc.premap([1, 2, 3], 0) == 0
        assert llc.index_randomizer.cache_info().precomputed == 0

    def test_skewed_designs_key_by_their_hash_sdid(self, spec):
        for design, sdid in (("ceaser_s", 0), ("scatter", 1)):
            llc = _built(DESIGNS[design], spec)
            llc.premap([5, 6], 1)
            assert sorted(llc.index_randomizer._precomputed) == [(5 << 16) | sdid, (6 << 16) | sdid]


class _RecordingTable(dict):
    """A side table that records every key loaded into it or looked up in it."""

    def __init__(self):
        super().__init__()
        self.loaded = set()
        self.looked_up = set()

    def __setitem__(self, key, value):
        self.loaded.add(key)
        super().__setitem__(key, value)

    def update(self, pairs):
        pairs = list(pairs)
        self.loaded.update(key for key, _ in pairs)
        super().update(pairs)

    def get(self, key, default=None):
        self.looked_up.add(key)
        return super().get(key, default)


#: The replayed designs, plus CEASER and CEASER-S under PRINCE, which
#: ``run_mix`` translates ahead of time by their hash SDID rule.
SIDE_TABLE = dict(INLINED, **{
    "ceaser-prince": lambda system: CeaserCache(
        system.llc_geometry, remap_period=10**9, seed=3, hash_algorithm="prince"),
    "ceaser_s-prince": lambda system: SkewedRandomizedCache(
        system.llc_geometry, use_sdid_in_hash=False, seed=3, hash_algorithm="prince"),
})


class TestReplayPrecompute:
    """``run_mix`` - its ahead-of-time translation and the replay's
    precompute - loads only keys the step looks up."""

    @pytest.fixture(autouse=True)
    def _replay(self, drives):
        with drives.replay():
            yield

    @pytest.mark.parametrize("design", sorted(SIDE_TABLE))
    def test_every_precomputed_key_is_looked_up(self, tiny_system, monkeypatch, design):
        llc = SIDE_TABLE[design](tiny_system)
        rand = getattr(llc, "index_randomizer", None)
        if rand is not None:
            rand._precomputed = _RecordingTable()
        loaded = []
        precompute = vector.VectorReplay.precompute_indices

        def recording_precompute(replay):
            installed = precompute(replay)
            loaded.append((installed, set(rand._precomputed) if rand is not None else set()))
            return installed

        monkeypatch.setattr(vector.VectorReplay, "precompute_indices", recording_precompute)
        result = run_mix(llc, homogeneous("mcf", 2), tiny_system,
                         accesses_per_core=800, warmup_accesses=300, seed=11)
        assert result.specialize_info["replay"] == "opstream-scalar"
        [(installed, keys)] = loaded
        if rand is None:
            assert installed == 0
            return
        table = rand._precomputed
        # The end state: everything the run loaded was looked up.
        assert keys <= table.loaded <= table.looked_up
        if design.startswith("ceaser-") or design == "ceaser":
            assert installed == 0 and not table.loaded and not table.looked_up
        else:
            assert keys
            if design.startswith("ceaser_s"):
                assert {key & 0xFFFF for key in table.loaded} == {0}


def _synthetic(name, body):
    """An object whose installed step is rendered from ``body``."""
    step, target = _synthetic_step(f"sweep-{name}", body)
    target.access_fast = step
    return target


class TestRenderGuard:
    """A body the sweep's op slot cannot hold takes the call form, and
    says why."""

    @pytest.mark.parametrize("name, body, reason", [
        ("loop-return", "for i in range(3):\n    if i == line_addr:\n        return 1\nreturn 0\n",
         "the step's body has a return inside a loop"),
        ("sweep-local", "chunk = line_addr\nreturn 0\n",
         "the step's body assigns kernel-local chunk"),
        ("parameter", "core_id = 1\nreturn 0\n", "the step's body assigns kernel-local core_id"),
    ])
    def test_refused_bodies_take_the_call_form(self, name, body, reason):
        target = _synthetic(name, body)
        before = sweep_info()
        sweep, why = access_lines(target)
        assert why.startswith(reason)
        assert sweep_info()["call"] - before["call"] == 1
        sweep([1, 2, 3], 2, 2, 0, 0)
        assert target.stats.accesses == 6

    def test_verdicts_are_per_kernel(self):
        """``chunk`` is the sweep's own local, not the replay's: the same
        step inlines into the replay kernel."""
        target = _synthetic("sweep-local", "chunk = line_addr\nreturn 0\n")
        assert access_lines(target)[1] is not None
        assert vector._bind_kernel(target.access_fast, True)[1] is None

    def test_an_accepted_body_runs_inline_as_it_runs_called(self):
        body = "if line_addr & 1:\n    return 1\nst.accesses += 10\n"
        counts = []
        for form in ("inline", "call"):
            target = _synthetic("accepted", body)
            if form == "call":
                step = target.access_fast
                target.access_fast = lambda *args: step(*args)
            sweep, why = access_lines(target)
            assert (why is None) == (form == "inline")
            sweep([1, 2, 3, 4, 5], 2, 3, 0, 0)
            counts.append(target.stats.accesses)
        # 15 touches, 6 of them even lines.
        assert counts == [15 + 60, 15 + 60]
