import sys
import types

import pytest

import tracing


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def _by_name(tracer):
    return {span["name"]: span for span in tracer.spans}


def test_self_time_of_nested_and_adjacent_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    root = tracer.begin("root")
    clock.now = 10
    with tracer.span("a"):
        clock.now = 40
    with tracer.span("b"):  # adjacent to "a"
        clock.now = 50
        with tracer.span("b.inner"):
            clock.now = 60
        clock.now = 70
    clock.now = 100
    tracer.end(root)

    spans = _by_name(tracer)
    assert spans["root"]["self"] == 100 - 30 - 30
    assert spans["a"]["self"] == 30
    assert spans["b"]["self"] == 30 - 10
    assert spans["b.inner"]["self"] == 10
    assert spans["b.inner"]["parent"] == spans["b"]["id"]
    assert spans["a"]["parent"] == spans["b"]["parent"] == spans["root"]["id"]


def test_counters_attach_to_the_enclosing_span_and_nest():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def leaf():
        clock.now += 3

    counted_leaf = tracer.counted(leaf, "leaf")

    def outer():
        clock.now += 5
        counted_leaf()

    counted_outer = tracer.counted(outer, "outer")
    with tracer.span("job"):
        clock.now += 1
        counted_outer()
        counted_outer()
        counted_leaf()
        clock.now += 1

    job = _by_name(tracer)["job"]
    assert job["counters"]["outer"] == [2, 16, 10]
    assert job["counters"]["leaf"] == [3, 9, 9]
    # The span's self time excludes every counted call made inside it.
    assert job["end"] - job["start"] == 21
    assert job["self"] == 21 - 16 - 3


def test_span_closes_when_the_call_raises():
    tracer = tracing.Tracer(FakeClock())

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.spanned(boom, "boom")()
    with tracer.span("job"):
        with pytest.raises(KeyError):
            tracer.counted(boom, "boom.counted")()
    assert [s["name"] for s in tracer.spans] == ["boom", "job"]
    assert tracer.spans[1]["counters"]["boom.counted"][0] == 1
    assert tracer.current() is None


def test_out_of_order_close_is_refused():
    tracer = tracing.Tracer(FakeClock())
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_job_view_shares():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    tracer.job = "j"
    with tracer.span(tracing.ROOT):
        with tracer.span("layer"):
            clock.now += 30
            tracer.counted(lambda: setattr(clock, "now", clock.now + 10), "step")()
        clock.now += 60
    view = tracing.JobView(tracer.spans, {"trace": {"compiles": 2}})
    assert view.wall_ns == 100
    assert view.share("layer") == pytest.approx(0.4)
    assert view.self_share("layer") == pytest.approx(0.3)
    assert view.calls("step") == 1
    assert view.counter_self_share("step") == pytest.approx(0.1)
    assert view.root_self_ns == 60
    assert view.cache("trace", "compiles") == 2
    assert view.cache("store", "maps") == 0


def test_job_view_without_setup_drops_setup_subtrees():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    tracer.job = "j"

    def tick(ns):
        return lambda: setattr(clock, "now", clock.now + ns)

    with tracer.span(tracing.ROOT):
        with tracer.span("harness.execute_unit"):
            clock.now += 10
            with tracer.span("engine.opstream_for"):
                clock.now += 20
                with tracer.span("trace.compile_workload"):  # set-up inside set-up
                    clock.now += 5
                tracer.counted(tick(5), "cache.access_fast")()
            with tracer.span("hierarchy.run_mix"):
                clock.now += 30
                tracer.counted(tick(10), "llc.access_fast")()
        clock.now += 25

    full = tracing.JobView(tracer.spans, {})
    warm = tracing.JobView(tracer.spans, {}, without_setup=True)
    assert full.wall_ns == 105
    assert full.share("engine.opstream_for") == pytest.approx(30 / 105)
    assert full.calls("cache.access_fast") == 1
    assert warm.wall_ns == 105 - 30
    assert warm.durations["harness.execute_unit"] == [80 - 30]
    assert "engine.opstream_for" not in warm.inclusive
    assert "trace.compile_workload" not in warm.inclusive
    assert warm.calls("cache.access_fast") == 0
    assert warm.calls("llc.access_fast") == 1
    assert warm.share("hierarchy.run_mix") == pytest.approx(40 / 75)
    assert warm.self_share("harness.execute_unit") == pytest.approx(10 / 75)
    assert warm.root_self_ns == full.root_self_ns == 25


def test_patches_rebind_everywhere_and_undo():
    def original():
        return "original"

    def replacement():
        return "replacement"

    home = types.ModuleType("repro._bench_patch_home")
    home.fn = original
    copy = types.ModuleType("repro._bench_patch_copy")
    copy.alias = original
    sys.modules[home.__name__] = home
    sys.modules[copy.__name__] = copy
    try:
        patches = tracing.Patches()
        patches.rebind(original, replacement)
        assert home.fn is replacement and copy.alias is replacement
        patches.undo()
        assert home.fn is original and copy.alias is original
    finally:
        del sys.modules[home.__name__]
        del sys.modules[copy.__name__]


def test_patches_restore_inherited_attributes():
    class Base:
        def step(self):
            return "base"

    class Child(Base):
        pass

    patches = tracing.Patches()
    patches.set(Child, "step", lambda self: "patched")
    assert Child().step() == "patched"
    patches.undo()
    assert "step" not in vars(Child)
    assert Child().step() == "base"


def test_install_traces_run_mix_without_changing_its_result(tmp_path, monkeypatch):
    for env in ("REPRO_TRACE_CACHE", "REPRO_TRANSLATED_CACHE", "REPRO_OPSTREAM_CACHE",
                "REPRO_SPECIALIZE_CACHE"):
        monkeypatch.setenv(env, str(tmp_path / env.lower()))
    from repro.core.maya_cache import MayaCache
    from repro.harness.presets import experiment_maya, experiment_system
    from repro.hierarchy import simulator
    from repro.llc.baseline import BaselineLLC
    from repro.trace.mixes import homogeneous

    system = experiment_system(cores=2, llc_sets=64)
    mix = homogeneous("mcf", 2)

    def run(make_llc):
        return simulator.run_mix(make_llc(), mix, system, accesses_per_core=600,
                                 warmup_accesses=300, seed=3)

    designs = {
        "maya": lambda: MayaCache(experiment_maya(llc_sets=64, seed=3)),
        "baseline": lambda: BaselineLLC(system.llc_geometry),
    }
    plain = {name: run(make) for name, make in designs.items()}
    original_run_mix = simulator.run_mix

    tracer = tracing.Tracer()
    tracer.job = "t"
    patches = tracing.install(tracer)
    try:
        with tracer.span(tracing.ROOT):
            traced = {name: run(make) for name, make in designs.items()}
    finally:
        patches.undo()

    assert simulator.run_mix is original_run_mix
    for name in designs:
        assert traced[name].llc_mpki == plain[name].llc_mpki
    view = tracing.JobView(tracer.spans, {})
    assert len(view.durations["hierarchy.run_mix"]) == 2
    # Maya replays its op streams through the specialized step; the
    # baseline goes through the per-access hierarchy drive.
    assert view.calls("llc.access_fast") > 0
    assert view.calls("hierarchy.access") == 2 * (600 + 300)
    assert view.note("replay_ops") > 0
    assert view.root_self_ns / view.wall_ns < 0.05
