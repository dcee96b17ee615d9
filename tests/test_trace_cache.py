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

    def test_from_records_rejects_short_stream(self):
        with pytest.raises(TraceError, match="ended after 2 of 5"):
            CompiledTrace.from_records([MemoryAccess(1), MemoryAccess(2)], count=5)

class TestMmapStore:
    """The heap path, the mmap store's oracle, on a compiled trace.

    ``tests/test_artifact_cache.py`` runs the layers, the corruption
    path and the writer/reader race for every kind on both load paths.
    """

    pytestmark = pytest.mark.store

    def test_heap_fallback_loads_plain_columns(self, cache_dir, monkeypatch):
        from array import array

        monkeypatch.setattr(store, "mmap_enabled", lambda: False)
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
