"""The compiled-trace kind of the artifact cache: keys, format, fallbacks.

The cache is a pure performance layer: every trace it serves must be
element-wise identical to what the synthetic generators produce, any
on-disk corruption must degrade to a regenerate (never a crash or a
wrong trace), and the content key must change whenever any input that
shapes the stream changes.  ``tests/test_artifact_cache.py`` runs the
cache mechanics for every artifact kind; these tests drive the trace
kind through :func:`compile_workload`.
"""

import itertools
import logging

import pytest

from repro import store
from repro.common.errors import TraceError
from repro.trace import compiled
from repro.trace.compiled import TRACES, CompiledTrace, compile_workload, trace_key
from repro.trace.record import MemoryAccess
from repro.trace.workloads import get_workload


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    """A private on-disk cache + clean counters/memo for one test."""
    directory = tmp_path / "tc"
    monkeypatch.setenv(store.CACHE_ENV, str(directory))
    TRACES.clear_memory()
    TRACES.reset_stats()
    yield directory
    TRACES.clear_memory()
    TRACES.reset_stats()


def generated_records(workload, llc_lines, length, seed):
    spec = get_workload(workload)
    return list(itertools.islice(spec.stream(llc_lines, seed=seed), length))


class TestMemoryAccessHash:
    def test_hash_agrees_with_eq(self):
        # Regression: MemoryAccess defined __eq__ without __hash__,
        # which made records unhashable (dataclass sets __hash__ to
        # None) and broke set-based dedup in the trace compiler.
        a, b = MemoryAccess(5, True, 3), MemoryAccess(5, True, 3)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert len({a, MemoryAccess(5, False, 3), MemoryAccess(6, True, 3)}) == 3

    def test_usable_as_dict_key(self):
        counts = {}
        for access in [MemoryAccess(1), MemoryAccess(2), MemoryAccess(1)]:
            counts[access] = counts.get(access, 0) + 1
        assert counts[MemoryAccess(1)] == 2


class TestCompiledTrace:
    def test_matches_generator_element_wise(self, cache_dir):
        for workload in ("mcf", "lbm", "gcc"):
            records = generated_records(workload, 512, 300, seed=9)
            trace = compile_workload(workload, 512, 300, seed=9)
            assert [
                (a, w != 0, g)
                for a, w, g in zip(trace.line_addrs, trace.write_flags, trace.gaps)
            ] == [(r.line_addr, r.is_write, r.gap) for r in records]
            assert list(trace.records()) == records

    def test_unique_helpers(self):
        trace = CompiledTrace.from_records(
            [MemoryAccess(1), MemoryAccess(2, True), MemoryAccess(1)]
        )
        assert sorted(trace.unique_lines()) == [1, 2]
        assert sorted(trace.unique_lines(offset=10)) == [11, 12]
        assert trace.unique_records() == {
            MemoryAccess(1), MemoryAccess(2, True), MemoryAccess(1)
        }

    def test_from_records_rejects_short_stream(self):
        with pytest.raises(TraceError, match="ended after 2 of 5"):
            CompiledTrace.from_records([MemoryAccess(1), MemoryAccess(2)], count=5)

    def test_roundtrip_and_key_check(self):
        trace = CompiledTrace.from_records(generated_records("mcf", 256, 64, seed=1))
        blob = TRACES.encode("some-key", trace)
        assert TRACES.decode(blob, "some-key", copy=True, validate=True) == trace
        with pytest.raises(TraceError, match="key mismatch"):
            TRACES.decode(blob, "other-key", copy=True, validate=True)


class TestCacheLayers:
    def test_memory_then_disk_hits(self, cache_dir):
        kwargs = dict(workload="mcf", llc_lines=512, length=200, seed=4)
        first = compile_workload(**kwargs)
        assert TRACES.info().builds == 1
        assert TRACES.path(cache_dir, trace_key("mcf", 512, 4, 200)).exists()

        assert compile_workload(**kwargs) == first
        assert TRACES.info().memory_hits == 1

        TRACES.clear_memory()  # simulate a fresh process
        assert compile_workload(**kwargs) == first
        info = TRACES.info()
        assert (info.disk_hits, info.builds) == (1, 1)
        assert info.hit_rate == pytest.approx(2 / 3)

    def test_corrupt_file_regenerates_with_warning(self, cache_dir, caplog):
        kwargs = dict(workload="mcf", llc_lines=512, length=150, seed=2)
        first = compile_workload(**kwargs)
        path = TRACES.path(cache_dir, trace_key("mcf", 512, 2, 150))
        path.write_bytes(b"garbage not a trace at all")
        TRACES.clear_memory()
        with caplog.at_level(logging.WARNING, logger="repro.store"):
            again = compile_workload(**kwargs)
        assert again == first
        assert TRACES.info().disk_errors == 1
        assert any("corrupt" in r.message for r in caplog.records)
        # The bad file was deleted and replaced by the regenerated one.
        assert TRACES.decode(
            path.read_bytes(), trace_key("mcf", 512, 2, 150), copy=True, validate=True
        ) == first

    def test_truncated_file_regenerates(self, cache_dir, caplog):
        kwargs = dict(workload="lbm", llc_lines=256, length=120, seed=3)
        first = compile_workload(**kwargs)
        path = TRACES.path(cache_dir, trace_key("lbm", 256, 3, 120))
        path.write_bytes(path.read_bytes()[:-25])  # chop columns + CRC
        TRACES.clear_memory()
        with caplog.at_level(logging.WARNING, logger="repro.store"):
            assert compile_workload(**kwargs) == first
        assert TRACES.info().disk_errors == 1

    def test_use_cache_false_bypasses_both_layers(self, cache_dir):
        kwargs = dict(workload="mcf", llc_lines=512, length=100, seed=5)
        a = compile_workload(use_cache=False, **kwargs)
        b = compile_workload(use_cache=False, **kwargs)
        assert a == b
        assert TRACES.info().builds == 2
        assert not cache_dir.exists()  # nothing was ever written

    def test_env_disable_skips_disk(self, tmp_path, monkeypatch):
        for token in ("0", "off", "NONE"):
            monkeypatch.setenv(store.CACHE_ENV, token)
            assert store.cache_dir() is None
        TRACES.clear_memory()
        TRACES.reset_stats()
        compile_workload("mcf", 512, 80, seed=6)
        compile_workload("mcf", 512, 80, seed=6)
        assert TRACES.info().builds == 2  # no layer was consulted

    def test_env_path_relocates_disk(self, tmp_path, monkeypatch):
        target = tmp_path / "elsewhere"
        monkeypatch.setenv(store.CACHE_ENV, str(target))
        assert store.cache_dir() == target
        TRACES.clear_memory()
        compile_workload("mcf", 512, 90, seed=8)
        assert len(list(target.glob("*.ctrace"))) == 1


class TestMmapStore:
    """Writer/reader races and corruption under the mmap artifact store.

    Marked ``store`` so the CI service-smoke job can select the mmap
    layer's coverage directly; the scenarios also run in the default
    suite.
    """

    pytestmark = pytest.mark.store

    def test_replace_while_mapped_serves_old_content(self, cache_dir, monkeypatch):
        # A process holding a mapped trace must keep serving the content
        # it validated even after another process os.replace()s the
        # cache file: the old inode stays mapped.
        import os

        monkeypatch.setenv(store.MMAP_ENV, "1")
        kwargs = dict(workload="mcf", llc_lines=512, length=150, seed=21)
        key = trace_key("mcf", 512, 21, 150)
        first = compile_workload(**kwargs)
        TRACES.clear_memory()
        mapped = compile_workload(**kwargs)  # disk hit: mmap-backed columns
        assert TRACES.info().disk_hits == 1
        path = TRACES.path(cache_dir, key)
        other = CompiledTrace.from_records(
            generated_records("lbm", 512, 150, seed=3)
        )
        tmp = path.with_name(path.name + ".race")
        tmp.write_bytes(TRACES.encode(key, other))
        os.replace(tmp, path)
        # The reader that mapped before the replace still sees its data...
        assert mapped == first
        # ...while a fresh load detects the new inode and serves it.
        TRACES.clear_memory()
        again = compile_workload(**kwargs)
        assert again == other
        assert again != first
        # The stale reader keeps its view; nothing crashed, and both
        # loads were disk hits (no regenerate in between).
        assert mapped == first
        assert TRACES.info().disk_hits == 2

    @pytest.mark.parametrize("mmap_mode", ["1", "0"])
    def test_corruption_handled_identically(
        self, cache_dir, caplog, monkeypatch, mmap_mode
    ):
        # Truncated/garbage files must warn-and-regenerate the same way
        # whether the loader maps or heap-reads (REPRO_MMAP oracle).
        monkeypatch.setenv(store.MMAP_ENV, mmap_mode)
        kwargs = dict(workload="mcf", llc_lines=512, length=130, seed=22)
        first = compile_workload(**kwargs)
        path = TRACES.path(cache_dir, trace_key("mcf", 512, 22, 130))
        for junk in (b"\x00" * 16, path.read_bytes()[:-20], b""):
            path.write_bytes(junk)
            TRACES.clear_memory()
            errors_before = TRACES.info().disk_errors
            with caplog.at_level(logging.WARNING, logger="repro.store"):
                assert compile_workload(**kwargs) == first
            assert TRACES.info().disk_errors == errors_before + 1
        assert any("corrupt" in r.message for r in caplog.records)
        # The regenerated file is served cleanly again.
        TRACES.clear_memory()
        assert compile_workload(**kwargs) == first

    def test_heap_fallback_loads_plain_columns(self, cache_dir, monkeypatch):
        from array import array

        monkeypatch.setenv(store.MMAP_ENV, "0")
        kwargs = dict(workload="mcf", llc_lines=512, length=90, seed=23)
        compile_workload(**kwargs)
        TRACES.clear_memory()
        loaded = compile_workload(**kwargs)
        assert isinstance(loaded.line_addrs, array)
        assert isinstance(loaded.write_flags, bytearray)


class TestKeySensitivity:
    def test_every_input_changes_the_key(self):
        base = trace_key("mcf", 512, 7, 1000)
        variants = [
            trace_key("lbm", 512, 7, 1000),
            trace_key("mcf", 1024, 7, 1000),
            trace_key("mcf", 512, 8, 1000),
            trace_key("mcf", 512, None, 1000),
            trace_key("mcf", 512, 7, 1001),
        ]
        assert len({base, *variants}) == len(variants) + 1

    def test_generator_version_invalidates(self, cache_dir, monkeypatch):
        old_key = trace_key("mcf", 512, 7, 100)
        monkeypatch.setattr(compiled, "GENERATOR_VERSION", 2)
        new_key = trace_key("mcf", 512, 7, 100)
        assert new_key != old_key
        # A trace cached under the old version is not served for the new.
        compile_workload("mcf", 512, 100, seed=7)
        assert TRACES.path(cache_dir, new_key).exists()
        assert not TRACES.path(cache_dir, old_key).exists()

    def test_distinct_keys_get_distinct_files(self, cache_dir):
        compile_workload("mcf", 512, 100, seed=1)
        compile_workload("mcf", 512, 100, seed=2)
        assert len(list(cache_dir.glob("*.ctrace"))) == 2


class TestCliFlag:
    def test_no_trace_cache_exports_env(self, monkeypatch, capsys):
        from repro.harness import cli

        monkeypatch.setenv(store.CACHE_ENV, "somewhere")
        assert cli.main(["list", "--no-trace-cache"]) == 0
        import os

        assert os.environ[store.CACHE_ENV] == "0"
        assert store.cache_dir() is None
