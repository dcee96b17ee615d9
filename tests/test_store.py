"""The zero-copy mmap artifact store (repro.store).

Load-bearing properties:

* **Gating** - the store maps on little-endian hosts and nowhere
  else; no environment variable switches it (tests pin a path by
  patching :func:`repro.store.mmap_enabled`).
* **Registry** - repeat opens of the same ``(path, key)`` are served by
  one map; an ``os.replace`` by a concurrent writer is detected through
  the file identity and mapped fresh while live views keep serving the
  old inode's bytes.
* **Zero copy** - a disk load under mmap hands out ``memoryview``
  columns over the map (no heap materialization); the heap fallback
  hands out plain ``array``/``bytearray`` columns and never maps.
* **Non-writeable views** - every ``columns_numpy()`` ndarray is
  read-only, whether the backing columns are heap or mapped.
* **Parity** - a full ``run_mix`` over cache-loaded artifacts produces
  bit-identical statistics with the store on and off, and a sharded
  grid drained by ``--jobs`` workers writes the same canonical results
  bytes either way (the heap path is the differential oracle).
* **Floors** - warm mapped loads are at least 5x faster than heap
  loads, and workers that map one artifact together pay for one copy
  of it, less than heap workers pay for theirs.
"""

import json
import os
import subprocess
import sys
import time
from array import array

import pytest

from repro import store
from repro.common.config import CacheGeometry
from repro.core.maya_cache import MayaCache
from repro.engine import opstream
from repro.harness import runner
from repro.hierarchy.simulator import run_mix
from repro.trace import compiled, translated
from repro.trace.compiled import TRACES, CompiledTrace, compile_workload
from repro.trace.mixes import homogeneous
from repro.trace.record import MemoryAccess

pytestmark = pytest.mark.store

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: The real load-path gate, captured at collection, before ``pytest
#: --heap-loads`` patches it for the session.
MMAP_ENABLED = store.mmap_enabled


@pytest.fixture(autouse=True)
def clean_store():
    """A fresh registry and zeroed counters around every test."""
    store.clear_registry()
    store.reset_store_stats()
    yield
    store.clear_registry()
    store.reset_store_stats()


CACHES = (compiled.TRACES, translated.TRANSLATIONS, opstream.STREAMS)


@pytest.fixture()
def cache_dirs(tmp_path, monkeypatch):
    """A private artifact directory, clean memos and counters.

    All three artifact kinds land under ``tmp_path``.  The store is
    pinned ON so these tests stay meaningful when the whole suite runs
    with ``--heap-loads`` (CI's heap-oracle pass); tests that want the
    heap path pin it themselves.
    """
    monkeypatch.setattr(store, "mmap_enabled", lambda: True)
    monkeypatch.setenv(store.CACHE_ENV, str(tmp_path))
    for cache in CACHES:
        cache.clear_memory()
        cache.reset_stats()
    yield tmp_path
    for cache in CACHES:
        cache.clear_memory()
        cache.reset_stats()


def write_artifact(path, key, lines=40, stride=5):
    """Serialize a small valid trace under ``key`` at ``path``."""
    trace = CompiledTrace.from_records(
        [MemoryAccess(a * stride, a % 3 == 0) for a in range(lines)]
    )
    path.write_bytes(TRACES.encode(key, trace))
    return trace


class TestGate:
    def test_little_endian_hosts_map_whatever_the_environment(self, monkeypatch):
        # No environment variable picks the load path: REPRO_MMAP=0 is
        # ignored.
        monkeypatch.setattr(store.sys, "byteorder", "little")
        monkeypatch.setenv("REPRO_MMAP", "0")
        assert MMAP_ENABLED()

    def test_big_endian_hosts_use_the_heap_path(self, monkeypatch):
        # Zero-copy casts of the little-endian file columns would be
        # wrong on a big-endian host, so the store must refuse there.
        monkeypatch.setattr(store.sys, "byteorder", "big")
        assert not MMAP_ENABLED()


class TestRegistry:
    def test_missing_file_is_an_ordinary_miss(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            store.map_artifact(tmp_path / "nope.ctrace", "k")
        info = store.store_cache_info()
        assert (info.maps, info.map_errors) == (0, 0)

    def test_empty_file_raises_value_error(self, tmp_path):
        # mmap rejects zero-length files; every artifact has a header,
        # so an empty file is necessarily corrupt (the caches treat the
        # ValueError exactly like a parse failure).
        path = tmp_path / "empty.ctrace"
        path.write_bytes(b"")
        with pytest.raises(ValueError):
            store.map_artifact(path, "k")

    def test_repeat_opens_share_one_map(self, tmp_path):
        path = tmp_path / "a.ctrace"
        write_artifact(path, "k")
        first = store.map_artifact(path, "k")
        second = store.map_artifact(path, "k")
        assert second is first
        info = store.store_cache_info()
        assert (info.maps, info.map_reuses) == (1, 1)
        assert info.mapped_bytes == path.stat().st_size
        assert store.registry_size() == 1
        assert store.mapped_bytes_current() == path.stat().st_size

    def test_distinct_keys_map_separately(self, tmp_path):
        path = tmp_path / "a.ctrace"
        write_artifact(path, "k1")
        store.map_artifact(path, "k1")
        store.map_artifact(path, "k2")
        assert store.store_cache_info().maps == 2
        assert store.registry_size() == 2

    def test_replace_evicts_and_remaps(self, tmp_path):
        path = tmp_path / "a.ctrace"
        write_artifact(path, "k", lines=40)
        old = store.map_artifact(path, "k")
        pinned = old.view()[:]  # a live reader's column view
        old_bytes = bytes(pinned)
        tmp = path.with_name("a.new")
        write_artifact(tmp, "k", lines=60)  # different content + size
        os.replace(tmp, path)
        new = store.map_artifact(path, "k")
        assert new is not old
        info = store.store_cache_info()
        assert (info.maps, info.evictions) == (2, 1)
        # The new map serves the new inode; the evicted map's pages
        # survive for the pinned view (the inode lives while mapped).
        assert bytes(new.view()) == path.read_bytes()
        assert bytes(pinned) == old_bytes
        pinned.release()

    def test_in_place_rewrite_is_detected(self, tmp_path):
        # Tests corrupt files with write_bytes() (same inode): identity
        # gating must catch size/mtime changes, not just new inodes.
        path = tmp_path / "a.ctrace"
        write_artifact(path, "k", lines=40)
        store.map_artifact(path, "k")
        write_artifact(path, "k", lines=60)
        new = store.map_artifact(path, "k")
        assert bytes(new.view()) == path.read_bytes()
        assert store.store_cache_info().evictions == 1

    def test_discard_drops_the_entry(self, tmp_path):
        path = tmp_path / "a.ctrace"
        write_artifact(path, "k")
        store.map_artifact(path, "k")
        store.discard(path, "k")
        assert store.registry_size() == 0
        assert store.store_cache_info().evictions == 1
        store.discard(path, "k")  # idempotent on an absent entry
        assert store.store_cache_info().evictions == 1
        store.map_artifact(path, "k")
        assert store.store_cache_info().maps == 2

    def test_clear_registry_reports_pinned_maps(self, tmp_path):
        path = tmp_path / "a.ctrace"
        write_artifact(path, "k")
        artifact = store.map_artifact(path, "k")
        column = artifact.view()[8:16]  # an exported slice pins the map
        assert store.clear_registry() == 1
        assert store.registry_size() == 0
        assert len(bytes(column)) == 8  # the pinned pages stay readable
        column.release()

    def test_validated_flag_survives_reuse(self, tmp_path):
        path = tmp_path / "a.ctrace"
        write_artifact(path, "k")
        first = store.map_artifact(path, "k")
        assert not first.validated
        first.validated = True  # the owning cache's CRC check passed
        assert store.map_artifact(path, "k").validated


class TestZeroCopyLoads:
    KW = dict(workload="mcf", llc_lines=512, length=120, seed=31)

    def test_disk_load_hands_out_mapped_views(self, cache_dirs):
        compile_workload(**self.KW)
        TRACES.clear_memory()
        loaded = compile_workload(**self.KW)
        assert isinstance(loaded.line_addrs, memoryview)
        assert isinstance(loaded.write_flags, memoryview)
        assert isinstance(loaded.gaps, memoryview)
        assert store.store_cache_info().maps == 1
        # A second fresh load reuses the map and skips the CRC rescan.
        TRACES.clear_memory()
        again = compile_workload(**self.KW)
        assert again == loaded
        info = store.store_cache_info()
        assert (info.maps, info.map_reuses) == (1, 1)

    def test_heap_mode_never_maps(self, cache_dirs, monkeypatch):
        monkeypatch.setattr(store, "mmap_enabled", lambda: False)
        compile_workload(**self.KW)
        TRACES.clear_memory()
        loaded = compile_workload(**self.KW)
        assert isinstance(loaded.line_addrs, array)
        assert isinstance(loaded.write_flags, bytearray)
        assert store.store_cache_info().maps == 0

    def test_mapped_and_heap_loads_are_equal(self, cache_dirs, monkeypatch):
        compile_workload(**self.KW)
        TRACES.clear_memory()
        mapped = compile_workload(**self.KW)
        monkeypatch.setattr(store, "mmap_enabled", lambda: False)
        TRACES.clear_memory()
        heap = compile_workload(**self.KW)
        assert mapped == heap
        assert list(mapped.records()) == list(heap.records())


class TestNonWriteableColumns:
    """Satellite regression: every columns_numpy() view is read-only."""

    def _assert_readonly(self, views):
        for view in views:
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0] = 1

    def test_trace_views(self, cache_dirs):
        built = compile_workload("mcf", 512, 100, seed=32)
        TRACES.clear_memory()
        mapped = compile_workload("mcf", 512, 100, seed=32)
        for trace in (built, mapped):
            self._assert_readonly(trace.columns_numpy())

    def test_translated_views(self, cache_dirs):
        from repro.crypto.randomizer import IndexRandomizer

        rand = IndexRandomizer(2, 512, seed=7, algorithm="splitmix")
        trace = compile_workload("mcf", 512, 80, seed=33)
        built = translated.translate_trace(rand, trace)
        translated.TRANSLATIONS.clear_memory()
        mapped = translated.translate_trace(rand, trace)
        for t in (built, mapped):
            addrs, columns = t.columns_numpy()
            self._assert_readonly((addrs,) + columns)

    def test_opstream_views(self, cache_dirs):
        trace = compile_workload("mcf", 512, 80, seed=34)
        kwargs = dict(
            offset=0,
            l1_geometry=CacheGeometry(sets=4, ways=4),
            l2_geometry=CacheGeometry(sets=16, ways=8),
            prefetcher=(2, 2, 3),
        )
        built = opstream.opstream_for(trace, "store-test-key", **kwargs)
        opstream.STREAMS.clear_memory()
        mapped = opstream.opstream_for(trace, "store-test-key", **kwargs)
        assert isinstance(mapped.op_addrs, memoryview)  # really a disk hit
        for stream in (built, mapped):
            self._assert_readonly(stream.columns_numpy())


class TestRunMixParity:
    """The heap path is the differential oracle: bit-identical results."""

    def _run(self, system, small_maya):
        llc = MayaCache(small_maya)
        result = run_mix(
            llc, homogeneous("mcf", 2), system,
            accesses_per_core=600, warmup_accesses=300, seed=11,
        )
        return llc, result

    def _clear_memos(self):
        for cache in CACHES:
            cache.clear_memory()

    def test_mmap_and_heap_runs_bit_identical(
        self, cache_dirs, tiny_system, small_maya, monkeypatch
    ):
        llc_cold, r_cold = self._run(tiny_system, small_maya)  # populates disk
        self._clear_memos()
        store.clear_registry()
        store.reset_store_stats()
        llc_map, r_map = self._run(tiny_system, small_maya)  # mmap reload
        assert store.store_cache_info().maps > 0
        maps_after = store.store_cache_info().maps
        monkeypatch.setattr(store, "mmap_enabled", lambda: False)
        self._clear_memos()
        llc_heap, r_heap = self._run(tiny_system, small_maya)  # heap reload
        assert store.store_cache_info().maps == maps_after  # no new maps
        for llc, result in ((llc_map, r_map), (llc_heap, r_heap)):
            assert vars(llc.stats) == vars(llc_cold.stats)
            assert [c.instructions for c in result.cores] == [
                c.instructions for c in r_cold.cores
            ]
            assert [c.cycles for c in result.cores] == [c.cycles for c in r_cold.cores]
            assert result.ipcs == r_cold.ipcs
            assert result.llc_mpki == r_cold.llc_mpki

    def test_jobs_grid_results_identical_across_load_paths(
        self, cache_dirs, monkeypatch, sharded_grid
    ):
        # A small sharded grid drained by --jobs workers on a warm
        # directory.  The forked workers start with empty memos, so
        # they load every artifact from disk, through the load path
        # they inherit; the canonical results bytes must equal the
        # serial run's on both paths.
        serial = runner.run_tasks(sharded_grid, jobs=1)  # warms the directory
        assert list(cache_dirs.glob("*.ctrace"))
        self._clear_memos()
        store.clear_registry()
        expected = json.dumps(runner.results_dict(serial), indent=2)
        files = {path: path.stat().st_ino for path in cache_dirs.iterdir()}
        for mapped in (True, False):
            monkeypatch.setattr(store, "mmap_enabled", lambda: mapped)
            results = runner.run_tasks(sharded_grid, jobs=2)
            assert results[0].ok, results[0].error
            assert results[0].shards == 3
            assert json.dumps(runner.results_dict(results), indent=2) == expected
        # No worker rebuilt (and so rewrote) an artifact: all were loads.
        assert {path: path.stat().st_ino for path in cache_dirs.iterdir()} == files


class TestAccountingIntegration:
    def test_cache_snapshot_includes_the_store_layer(self):
        from repro.service.jobs import CACHE_LAYERS, cache_snapshot

        assert "store" in CACHE_LAYERS
        snapshot = cache_snapshot()
        assert set(snapshot["store"]) == set(store.StoreCacheInfo._fields)

    def test_cache_delta_attributes_store_activity(self, tmp_path):
        from repro.service.jobs import cache_delta, cache_snapshot

        before = cache_snapshot()
        path = tmp_path / "a.ctrace"
        write_artifact(path, "k")
        store.map_artifact(path, "k")
        store.map_artifact(path, "k")
        delta = cache_delta(before, cache_snapshot())
        assert delta["store"]["maps"] == 1
        assert delta["store"]["map_reuses"] == 1
        assert delta["store"]["mapped_bytes"] == path.stat().st_size

    def test_memory_info_gauges(self, tmp_path):
        info = store.memory_info()
        assert info["peak_rss_kb"] > 0
        assert info["mapped_bytes"] == 0
        path = tmp_path / "a.ctrace"
        write_artifact(path, "k")
        store.map_artifact(path, "k")
        assert store.memory_info()["mapped_bytes"] == path.stat().st_size

    def test_proportional_rss_parses_or_degrades(self):
        pss = store.proportional_rss_kb()
        if sys.platform.startswith("linux") and os.path.exists(
            "/proc/self/smaps_rollup"
        ):
            assert pss is not None and pss > 0
        else:
            assert pss is None


#: The floors' artifact: one compiled ``mcf`` trace of 100k records
#: (1.3 MB on disk), big enough that a load's cost is the column bytes.
BIG_TRACE = ("mcf", 8192, 100_000, 7)

#: A worker for the sharing test.  Each step waits for a line on stdin,
#: so every sibling is up before any loads and has loaded before any
#: measures: load ``BIG_TRACE`` off the disk cache through the path the
#: first argument names; report the growth of the process's PSS over
#: the load and the ``Pss``/``Rss`` of its mappings of the file the
#: second argument names (``null`` when unmapped); hold the trace until
#: stdin closes.
SHARING_WORKER = """\
import json, sys
from repro import store
from repro.trace import compiled
mapped, path = sys.argv[1] == "mmap", sys.argv[2]
store.mmap_enabled = lambda: mapped
workload, llc_lines, length, seed = json.loads(sys.argv[3])
print("UP", flush=True)
sys.stdin.readline()
before = store.proportional_rss_kb()
trace = compiled.compile_workload(workload, llc_lines, length, seed=seed)
assert compiled.TRACES.info().builds == 0, "the worker compiled instead of loading"
print("LOADED", flush=True)
sys.stdin.readline()
growth = store.proportional_rss_kb() - before
mapping, inside = None, False
with open("/proc/self/smaps") as fh:
    for line in fh:
        field, _, rest = line.partition(" ")
        if not field.endswith(":"):
            inside = line.rstrip("\\n").endswith(" " + path)
            if inside and mapping is None:
                mapping = {"Pss:": 0, "Rss:": 0}
        elif inside and field in ("Pss:", "Rss:"):
            mapping[field] += int(rest.split()[0])
print(json.dumps({"growth_kb": growth, "mapping": mapping}), flush=True)
sys.stdin.readline()
"""


@pytest.mark.perf
class TestFloors:
    """What the mmap store must pay for itself, against the heap path."""

    def _no_build(self):
        raise AssertionError("the trace was rebuilt instead of loaded")

    def test_warm_mapped_loads_are_five_times_faster_than_heap_loads(
        self, cache_dirs, monkeypatch
    ):
        workload, llc_lines, length, seed = BIG_TRACE
        compile_workload(workload, llc_lines, length, seed=seed)  # onto the disk
        key = compiled.trace_key(workload, llc_lines, seed, length)
        best = {}
        for mapped in (True, False):
            monkeypatch.setattr(store, "mmap_enabled", lambda: mapped)
            TRACES.clear_memory()
            TRACES.get(key, self._no_build)  # a mapped load validates the CRC once
            seconds = []
            for _ in range(20):
                TRACES.clear_memory()
                start = time.perf_counter()
                trace = TRACES.get(key, self._no_build)
                seconds.append(time.perf_counter() - start)
            assert isinstance(trace.line_addrs, memoryview) == mapped
            best[mapped] = min(seconds)
        ratio = best[False] / best[True]
        assert ratio >= 5.0, (
            f"a warm mapped load took {best[True] * 1e6:.0f} us against "
            f"{best[False] * 1e6:.0f} us on the heap: {ratio:.1f}x < 5x"
        )

    def test_mapped_workers_share_one_copy(self, cache_dirs):
        if not os.path.exists("/proc/self/smaps") or store.proportional_rss_kb() is None:
            pytest.skip("/proc smaps PSS is unavailable on this host")
        workload, llc_lines, length, seed = BIG_TRACE
        compile_workload(workload, llc_lines, length, seed=seed)  # onto the disk
        key = compiled.trace_key(workload, llc_lines, seed, length)
        path = os.path.realpath(TRACES.path(store.cache_dir(), key))
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        workers = 3
        reports = {}
        for mode in ("mmap", "heap"):
            procs = [
                subprocess.Popen(
                    [sys.executable, "-c", SHARING_WORKER, mode, path, json.dumps(BIG_TRACE)],
                    env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                )
                for _ in range(workers)
            ]
            try:
                for step in ("UP", "LOADED"):
                    for proc in procs:
                        assert proc.stdout.readline().strip() == step, "a worker died"
                    for proc in procs:
                        proc.stdin.write("next\n")
                        proc.stdin.flush()
                reports[mode] = [json.loads(proc.stdout.readline()) for proc in procs]
            finally:
                for proc in procs:
                    proc.stdin.close()
                    proc.wait(timeout=30.0)
        mappings = [r["mapping"] for r in reports["mmap"]]
        assert None not in mappings, "a mapped worker does not map the artifact"
        assert [r["mapping"] for r in reports["heap"]] == [None] * workers
        # Shared page-cache pages bill each mapper Rss / workers, so the
        # mapping's own Pss lines add up to one copy, whatever the
        # allocator does; heap workers each hold a copy of their own.
        assert sum(m["Pss:"] for m in mappings) <= max(m["Rss:"] for m in mappings)
        growth = {mode: sum(r["growth_kb"] for r in reports[mode]) for mode in reports}
        assert growth["mmap"] < growth["heap"], (
            f"loading the artifact grew {workers} mapped workers' PSS by "
            f"{growth['mmap']} KiB, {workers} heap workers' by {growth['heap']} KiB"
        )
