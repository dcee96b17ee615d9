"""The op-stream replay's generated kernel and its two op renderings.

``repro.engine.vector`` builds one replay kernel per step
configuration.  Its op slot is the design's step body, inlined, when
the installed ``access_fast`` is a library design's generated step, and
a call to ``access_fast`` otherwise; the DRAM model's ``now=None`` rule
is inlined when the model runs ``DramModel.access`` itself and called
otherwise.  These tests check which form each run takes, hold the two
renderings to each other, hold the inlined DRAM rule to
``DramModel.access``, and check that the renderer refuses a body it
cannot inline.
"""

import contextlib
import random
import textwrap

import pytest

from repro.common import codegen
from repro.common.config import MayaConfig, MirageConfig
from repro.core.maya_cache import MayaCache
from repro.engine import vector
from repro.engine.specialize import Specialization
from repro.hierarchy.dram import DramModel, runs_own_access
from repro.hierarchy.simulator import run_mix
from repro.hierarchy.system import CacheHierarchy
from repro.llc.mirage import MirageCache
from repro.reference import AccessFastAdapter, ReferenceMayaCache, ReferenceMirageCache
from repro.service.jobs import cache_snapshot
from repro.trace.mixes import homogeneous

from .test_compiled_replay import MAYA, MIRAGE, REPLAYED, tag_placement

#: The library designs whose installed ``access_fast`` is a generated step.
INLINED = {
    "maya-splitmix": REPLAYED["maya"],
    "maya-prince": lambda system: MayaCache(MayaConfig(
        sets_per_skew=16, rng_seed=7, hash_algorithm="prince")),
    "mirage-splitmix": REPLAYED["mirage-splitmix"],
    "mirage-prince": REPLAYED["mirage-prince"],
    "baseline": REPLAYED["baseline"],
    "ceaser_s": REPLAYED["ceaser_s"],
    "scatter-prince": REPLAYED["scatter-prince"],
    "ceaser": REPLAYED["ceaser"],
    "fully_assoc": REPLAYED["fully_assoc"],
}

#: LLCs whose ``access_fast`` is no generated step: the call form.
CALLED = {
    "way-partitioned": REPLAYED["way-partitioned"],
    "set-partitioned": REPLAYED["set-partitioned"],
    "flex-partitioned": REPLAYED["flex-partitioned"],
    "reference-maya": lambda system: AccessFastAdapter(ReferenceMayaCache(MayaConfig(**MAYA))),
    "reference-mirage": lambda system: AccessFastAdapter(
        ReferenceMirageCache(MirageConfig(**MIRAGE))),
}

SAE = dict(sets_per_skew=4, base_ways_per_skew=2, reuse_ways_per_skew=1,
           invalid_ways_per_skew=0, rng_seed=5, hash_algorithm="splitmix")

#: Every design with a generated step, plus the hazards the replay
#: tests cover: SAE storms under the count and rekey policies, rekeys
#: under PRINCE, CEASER(-S) remaps and memo-capacity evictions.
HAZARDS = dict(INLINED, **{
    "maya-sae-count": lambda system: MayaCache(MayaConfig(**SAE)),
    "maya-sae-rekey": lambda system: MayaCache(MayaConfig(**SAE), on_sae="rekey"),
    "maya-sae-rekey-prince": lambda system: MayaCache(
        MayaConfig(**dict(SAE, hash_algorithm="prince")), on_sae="rekey"),
    "mirage-sae-count": lambda system: MirageCache(MirageConfig(
        sets_per_skew=8, base_ways_per_skew=4, extra_ways_per_skew=0, rng_seed=5,
        hash_algorithm="splitmix")),
    "maya-memo-capacity": lambda system: MayaCache(MayaConfig(memo_capacity=64, **MAYA)),
})


@pytest.fixture()
def system(tiny_system):
    return tiny_system


@pytest.fixture(autouse=True)
def _replay(drives):
    """Every run here takes the replay, also under ``--per-access-drive``."""
    with drives.replay():
        yield


def _run(system, make, bench="mcf", **kwargs):
    """One replayed run; returns ``(llc, result, dram)``."""
    drams = []
    init = CacheHierarchy.__init__

    def recording_init(self, *args, **kw):
        init(self, *args, **kw)
        drams.append(self.dram)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CacheHierarchy, "__init__", recording_init)
        llc = make(system)
        result = run_mix(llc, homogeneous(bench, 2), system, **dict(
            dict(accesses_per_core=800, warmup_accesses=300, seed=11), **kwargs))
    assert result.specialize_info["replay"] == "opstream-scalar", result.specialize_info
    return llc, result, drams[0]


@contextlib.contextmanager
def call_form(calls=None):
    """Wrap every installed step and ``DramModel.access`` in a
    pass-through, as the bench tracer does: the kernel calls both."""
    install = Specialization._install
    access = DramModel.access

    def wrapping_install(spec, obj, attr, value):
        if attr == "access_fast":
            step = value

            def value(*args):
                if calls is not None:
                    calls.append(args)
                return step(*args)
        install(spec, obj, attr, value)

    def dram_access(self, *args):
        return access(self, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Specialization, "_install", wrapping_install)
        patch.setattr(DramModel, "access", dram_access)
        yield


def outcome(llc, result, dram):
    """Everything the two renderings must agree on."""
    return (
        vars(llc.stats),
        (dram.reads, dram.writes, dram.row_hits, dram.row_misses),
        [c.cycles for c in result.cores],
        [c.instructions for c in result.cores],
        tag_placement(llc),
    )


class TestKernelTaken:
    """Which op form each run takes, and where that is reported."""

    @pytest.mark.parametrize("design", sorted(INLINED))
    def test_library_designs_inline_their_step(self, system, design):
        _, result, dram = _run(system, INLINED[design])
        info = result.engine_info
        assert (info["kernel"], info["kernel_reason"], info["kernel_dram"]) == (
            "inline", None, "inline")
        assert info["scalar_ops"] > 0
        assert dram.reads > 0

    @pytest.mark.parametrize("design", sorted(CALLED))
    def test_other_llcs_take_the_call_form_with_a_reason(self, system, design):
        _, result, _ = _run(system, CALLED[design])
        info = result.engine_info
        assert info["kernel"] == "call"
        assert "is not a generated step" in info["kernel_reason"]
        assert info["kernel_dram"] == "inline"

    def test_a_wrapped_step_is_called_once_per_op(self, system):
        calls = []
        with call_form(calls):
            _, result, _ = _run(system, INLINED["maya-splitmix"])
        assert result.engine_info["kernel"] == "call"
        assert "is not a generated step" in result.engine_info["kernel_reason"]
        assert len(calls) == result.engine_info["scalar_ops"] > 0

    def test_a_patched_dram_access_is_still_called(self, system, monkeypatch):
        access = DramModel.access
        calls = []

        def counting_access(self, *args):
            calls.append(args)
            return access(self, *args)

        monkeypatch.setattr(DramModel, "access", counting_access)
        _, result, dram = _run(system, INLINED["mirage-splitmix"])
        assert not runs_own_access(dram)
        assert result.engine_info["kernel"] == "inline"
        assert result.engine_info["kernel_dram"] == "call"
        # reset_stats() between the phases clears the counters, not the calls.
        assert len(calls) > dram.reads + dram.writes > 0

    def test_process_counters_count_replays_by_form(self, system):
        before = vector.kernel_info()
        _run(system, INLINED["baseline"])
        _run(system, CALLED["way-partitioned"])
        after = vector.kernel_info()
        assert after["inline"] - before["inline"] == 1
        assert after["call"] - before["call"] == 1
        snapshot = cache_snapshot()
        assert snapshot["kernels"] == after
        assert "memory_hits" not in snapshot["kernels"]

    def test_one_compile_per_step_configuration(self, system):
        _run(system, INLINED["fully_assoc"])
        compiles = codegen.specialize_cache_info().compiles
        _run(system, INLINED["fully_assoc"])
        assert codegen.specialize_cache_info().compiles == compiles


@pytest.mark.specialize
class TestRenderingsAgree:
    """The inline and call renderings on the same config and op streams."""

    @pytest.mark.parametrize("bench", ["mcf", "lbm"])
    @pytest.mark.parametrize("design", sorted(HAZARDS))
    def test_inline_matches_call(self, system, design, bench):
        inline = _run(system, HAZARDS[design], bench)
        with call_form():
            called = _run(system, HAZARDS[design], bench)
        assert inline[1].engine_info["kernel"] == "inline"
        assert inline[1].engine_info["kernel_dram"] == "inline"
        assert called[1].engine_info["kernel"] == "call"
        assert called[1].engine_info["kernel_dram"] == "call"
        assert outcome(*inline) == outcome(*called)
        assert inline[2].row_hits and inline[2].row_misses
        if "sae" in design:
            assert inline[0].stats.saes > 0
        if "rekey" in design:
            assert inline[0].tags.randomizer.epoch > 1
        if design == "maya-memo-capacity":
            info = inline[0].tags.randomizer.cache_info()
            assert info.size == info.capacity < info.misses

    def test_dram_rule_matches_dram_access(self):
        """The inlined DRAM rule against ``DramModel.access`` over a
        seeded read/write stream: latencies' hit/miss split, counters
        and open rows."""
        rng = random.Random(31)
        stream = [(rng.randrange(1 << 14) + (rng.randrange(4) << 30), rng.random() < 0.3)
                  for _ in range(20_000)]
        called = DramModel()
        latencies = [(called.access(a, w, None), w) for a, w in stream]
        expected = [lat == called._row_hit_cycles for lat, w in latencies if not w]
        source = (
            "def run(dram, stream):\n"
            + textwrap.indent(DramModel.KERNEL_BIND, "    ")
            + "    hits = []\n"
            "    try:\n"
            "        for line_addr, is_write in stream:\n"
            "            if is_write:\n"
            + textwrap.indent(DramModel.KERNEL_WRITE, " " * 16)
            + "            else:\n"
            + textwrap.indent(DramModel.KERNEL_READ, " " * 16)
            + "                hits.append(hit)\n"
            "    finally:\n"
            + textwrap.indent(DramModel.KERNEL_FLUSH, " " * 8)
            + "    return hits\n"
        )
        namespace = {}
        exec(compile(source, "<dram-rule>", "exec"), namespace)
        inlined = DramModel()
        assert namespace["run"](inlined, stream) == expected
        counters = ("reads", "writes", "row_hits", "row_misses")
        assert [getattr(inlined, n) for n in counters] == [getattr(called, n) for n in counters]
        assert inlined._open_rows == called._open_rows
        assert called.row_hits and called.row_misses and called.writes


_GUARDED = '''\
def _bind(target, SimulationError, SetAssociativeEviction):
    st = target.stats

    def access_fast(line_addr, is_write=False, core_id=0, is_writeback=False, sdid=0):
        st.accesses += 1
{BODY}
    return access_fast
'''


def _synthetic_step(name, body):
    """A generated step rendered from ``_GUARDED``, and its target."""

    class Target:
        stats = type("Stats", (), {"accesses": 0})()

    code = codegen.compiled_template(
        "kernel-guard-test", (name,),
        lambda: _GUARDED.format(BODY=textwrap.indent(body, " " * 8)),
    )
    target = Target()
    return codegen.bind_template(code, target), target


class TestRenderGuard:
    """A body the op slot cannot hold takes the call form, with a reason."""

    @pytest.mark.parametrize("name, body, reason", [
        ("loop-return", "for i in range(3):\n    if i == line_addr:\n        return 1\nreturn 0\n",
         "a return inside a loop"),
        ("kernel-local", "heap = []\nreturn 0\n", "assigns kernel-local heap"),
        ("parameter", "sdid = 0\nreturn 0\n", "assigns kernel-local sdid"),
        ("nonlocal", "nonlocal target\ntarget = None\nreturn 0\n", "a Nonlocal statement"),
    ])
    def test_refused_bodies_take_the_call_form(self, name, body, reason):
        step, _ = _synthetic_step(name, body)
        kernel, why = vector._bind_kernel(step, True)
        assert reason in why
        assert kernel.__code__.co_filename.startswith("<specialized:replay:('call',")

    def test_an_accepted_body_runs_inline_as_it_runs_called(self):
        """A generated step that is no library design's inlines too; each
        return ends only its op, and one phase over three ops - a hit, a
        writeback, a demand miss - ends where the call form ends."""
        body = "if is_writeback:\n    return 0\nif line_addr & 1:\n    return 1\nreturn 2\n"
        runs = []
        for dram_inline in (True, False):
            step, target = _synthetic_step("accepted", body)
            if dram_inline:
                kernel, why = vector._bind_kernel(step, True)
                assert why is None
                assert "inline:kernel-guard-test" in kernel.__code__.co_filename
            else:
                kernel, why = vector._bind_kernel(lambda *args: step(*args), False)
                assert "is not a generated step" in why
            dram = DramModel()
            clocks = [0.0]
            # One core: two op-bearing accesses, ops [0, 2) and [2, 3).
            kernel(
                [0], [0], [0], [([5, 7], [2, 3], bytearray([2, 0, 2]), [3, 4, 6], 2)],
                clocks, 1, 1.0, 10, 20, None, step, dram,
            )
            runs.append((clocks, target.stats.accesses,
                         (dram.reads, dram.writes, dram.row_hits, dram.row_misses)))
        # (5 + 0) + (7 + a row miss's 20) grid units, one core bit.
        assert runs[0] == runs[1] == ([32.0], 3, (1, 0, 0, 1))
