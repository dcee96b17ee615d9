"""One artifact cache, every artifact kind, every failure mode.

:class:`repro.store.ArtifactCache` owns the memo, the disk files, the
mmap/heap load choice, the corrupt -> warn -> discard -> rebuild path
and the atomic write for compiled traces, translated index columns and
op streams alike.  Every case here runs once per kind, through the
kind's own entry point (``compile_workload``, ``translate_trace``,
``opstream_for``), so no kind can drift from the others.

Faults are injected by monkeypatching, not ``chmod``: the suite may run
as root, and a read-only directory does not refuse root's writes.
"""

import errno
import logging
import os
import pathlib
from array import array
from typing import Any, Callable, NamedTuple

import pytest

from repro import store
from repro.common.config import CacheGeometry
from repro.common.errors import TraceError
from repro.core.maya_cache import MayaCache
from repro.crypto.randomizer import IndexRandomizer
from repro.engine.opstream import STREAMS, OpStream, build_opstream, opstream_for, opstream_key
from repro.hierarchy import simulator
from repro.hierarchy.simulator import run_mix
from repro.trace.compiled import TRACES, CompiledTrace, compile_workload, trace_key
from repro.trace.mixes import homogeneous
from repro.trace.record import MemoryAccess
from repro.trace.translated import TRANSLATIONS, TranslatedTrace, translate_trace, translated_key
from repro.trace.workloads import get_workload

pytestmark = pytest.mark.store

CACHES = (TRACES, TRANSLATIONS, STREAMS)
KINDS = ("trace", "translated", "opstream")

L1 = CacheGeometry(sets=4, ways=4)
L2 = CacheGeometry(sets=16, ways=8)
PREFETCHER = (2, 2, 3)


class Kind(NamedTuple):
    """One artifact kind as the tests drive it."""

    cache: store.ArtifactCache
    key: str
    #: The kind's entry point: ``load() -> artifact``.
    load: Callable[[], Any]
    #: A different valid artifact of the same kind (built uncached).
    other: Any


def generated(workload, length=120, seed=3) -> CompiledTrace:
    """A compiled trace straight from the generator (no cache counters)."""
    stream = get_workload(workload).stream(512, seed=seed)
    return CompiledTrace.from_records(stream, length)


def make_kind(name: str) -> Kind:
    if name == "trace":
        return Kind(
            TRACES,
            trace_key("mcf", 512, 3, 120),
            lambda: compile_workload("mcf", 512, 120, seed=3),
            generated("lbm"),
        )
    if name == "translated":
        rand = IndexRandomizer(2, 512, seed=7, algorithm="splitmix")
        source = CompiledTrace.from_records([MemoryAccess(a * 3) for a in range(60)])
        shifted = array("Q", sorted(source.unique_lines(1 << 20)))
        return Kind(
            TRANSLATIONS,
            translated_key(array("Q", sorted(source.unique_lines())), rand, 0),
            lambda: translate_trace(rand, source),
            TranslatedTrace(shifted, rand.translate(shifted, 0)),
        )
    source = generated("mcf")
    return Kind(
        STREAMS,
        opstream_key("artifact-test", 0, L1, L2, PREFETCHER),
        lambda: opstream_for(source, "artifact-test", 0, L1, L2, PREFETCHER),
        build_opstream(generated("lbm"), 0, L1, L2, PREFETCHER),
    )


def reset_caches() -> None:
    for cache in CACHES:
        cache.clear_memory()
        cache.reset_stats()
    store.clear_registry()
    store.reset_store_stats()


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    """A private artifact directory (not yet created), clean counters."""
    directory = tmp_path / "cache"
    monkeypatch.setenv(store.CACHE_ENV, str(directory))
    reset_caches()
    yield directory
    reset_caches()


@pytest.fixture(params=KINDS)
def kind(request) -> Kind:
    return make_kind(request.param)


@pytest.fixture(params=["mmap", "heap"])
def load_path(request, monkeypatch):
    """Pin the mmap store or its heap oracle for one test."""
    monkeypatch.setattr(store, "mmap_enabled", lambda: request.param == "mmap")
    return request.param


def messages(caplog):
    return [r.getMessage() for r in caplog.records if r.name == "repro.store"]


# -- the two layers ----------------------------------------------------------


class TestLayers:
    def test_memory_then_disk_hits(self, kind, cache_dir, load_path):
        # Both load paths count the same stats.
        first = kind.load()
        assert kind.cache.info().builds == 1
        assert kind.cache.path(cache_dir, kind.key).exists()
        assert kind.load() is first
        assert kind.cache.info().memory_hits == 1
        kind.cache.clear_memory()  # a fresh process
        assert kind.load() == first
        info = kind.cache.info()
        assert (info.memory_hits, info.disk_hits, info.builds, info.disk_errors) == (1, 1, 1, 0)
        assert info.hit_rate == pytest.approx(2 / 3)
        assert info.build_seconds > 0.0

    def test_disk_load_column_types(self, kind, cache_dir, load_path):
        # Mapped loads hand out zero-copy views over the map; heap loads
        # hand out plain arrays and never map.
        kind.load()
        kind.cache.clear_memory()
        _, columns = kind.cache.pack(kind.load())
        assert kind.cache.info().disk_hits == 1
        expected = (memoryview,) if load_path == "mmap" else (array, bytearray)
        assert columns and all(isinstance(column, expected) for column in columns)
        assert (store.store_cache_info().maps > 0) == (load_path == "mmap")

    def test_all_kinds_share_one_directory(self, cache_dir):
        for name in KINDS:
            make_kind(name).load()
        assert sorted(p.suffix for p in cache_dir.iterdir()) == [".ctrace", ".ops", ".tix"]

    def test_memo_evicts_least_recently_used(self, cache_dir):
        small = store.ArtifactCache(
            "trace", TRACES.magic, TRACES.header, TRACES.suffix, 2,
            TRACES.layout, TRACES.pack, TRACES.unpack,
        )
        trace = generated("mcf", length=10)
        for key in ("a", "b", "a", "c"):  # the hit on "a" leaves "b" least recent
            small.get(key, lambda: trace)
        assert (small.info().memory_hits, small.info().builds) == (1, 3)
        for path in cache_dir.iterdir():
            path.unlink()  # only the memo can serve now
        small.get("a", lambda: trace)
        small.get("c", lambda: trace)
        assert (small.info().memory_hits, small.info().builds) == (3, 3)
        small.get("b", lambda: trace)
        assert small.info().builds == 4

    @pytest.mark.parametrize("setting", ["0", "off", "NONE", "False", " disabled "])
    def test_bypass_skips_both_layers(self, kind, cache_dir, monkeypatch, setting):
        # REPRO_TRACE_CACHE is the one switch that turns the cache off.
        monkeypatch.setenv(store.CACHE_ENV, setting)
        assert store.cache_dir() is None
        kind.load()
        kind.load()
        info = kind.cache.info()
        assert (info.memory_hits, info.disk_hits, info.builds) == (0, 0, 2)
        assert not cache_dir.exists()

    def test_default_directory(self, monkeypatch):
        for value in (None, "", "  "):
            if value is None:
                monkeypatch.delenv(store.CACHE_ENV, raising=False)
            else:
                monkeypatch.setenv(store.CACHE_ENV, value)
            assert str(store.cache_dir()) == store.DEFAULT_CACHE_DIR


# -- the file envelope -------------------------------------------------------

#: The on-disk format, byte for byte: files already in users' caches (and
#: CI's restored cache directory) must keep loading.
GOLDEN = {
    "trace": (
        CompiledTrace(array("Q", [1, 2**40, 7]), bytearray([0, 1, 0]), array("I", [3, 0, 9])),
        "4d41594143544331010003000000000000006b0100000000000000000000000001000007"
        "00000000000000000100030000000000000009000000a72ade92",
    ),
    "translated": (
        TranslatedTrace(array("Q", [5, 9]), [array("I", [1, 2]), array("I", [3, 4])]),
        "4d4159415449583101000202000000000000006b05000000000000000900000000000000"
        "01000000020000000300000004000000e09c4d25",
    ),
    "opstream": (
        OpStream(bytearray([0, 2]), bytearray([0, 1]), bytearray([2]), array("Q", [77])),
        "4d4159414f5053310100020000000000000001000000000000006b00020001024d000000"
        "00000000084c4bdb",
    ),
}


class TestEnvelope:
    @pytest.mark.parametrize("name", KINDS)
    def test_format_is_unchanged(self, name):
        artifact, golden = GOLDEN[name]
        cache = make_kind(name).cache
        assert cache.encode("k", artifact).hex() == golden
        assert cache.decode(bytes.fromhex(golden), "k", copy=True, validate=True) == artifact

    def test_roundtrip_and_key_mismatch(self, kind):
        artifact = kind.other
        blob = kind.cache.encode("some-key", artifact)
        for copy in (True, False):
            assert kind.cache.decode(blob, "some-key", copy=copy, validate=True) == artifact
        with pytest.raises(TraceError, match="key mismatch"):
            kind.cache.decode(blob, "other-key", copy=True, validate=True)


def _resized_columns(blob: bytes, delta: int) -> bytes:
    """Drop or append column bytes but keep a valid CRC, so only the
    length check can fail."""
    payload = blob[8:-4]
    payload = payload[:delta] if delta < 0 else payload + b"\x00" * delta
    return blob[:8] + payload + store._CRC.pack(store.zlib.crc32(payload) & 0xFFFFFFFF)


#: ``name -> (corrupt(valid file bytes, kind) -> bad bytes, expected reason)``.
CORRUPTIONS = {
    "garbage": (lambda blob, kind: b"garbage, not an artifact at all", "bad magic"),
    "zeros": (lambda blob, kind: b"\x00" * 64, "bad magic"),
    "empty": (lambda blob, kind: b"", None),  # mmap refuses it before parsing
    "bad-magic": (lambda blob, kind: b"XXXXXXXX" + blob[8:], "bad magic"),
    "short-header": (lambda blob, kind: blob[:10], "truncated header"),
    "short-columns": (lambda blob, kind: _resized_columns(blob, -3), "truncated columns"),
    "long-columns": (lambda blob, kind: _resized_columns(blob, 3), "truncated columns"),
    "flipped-crc": (lambda blob, kind: blob[:-1] + bytes([blob[-1] ^ 1]), "CRC mismatch"),
    "other-key": (lambda blob, kind: kind.cache.encode("other-key", kind.other), "key mismatch"),
}


class TestCorruption:
    @pytest.mark.parametrize("corruption", list(CORRUPTIONS))
    def test_corrupt_file_is_rebuilt(self, kind, cache_dir, load_path, caplog, corruption):
        corrupt, reason = CORRUPTIONS[corruption]
        first = kind.load()
        path = kind.cache.path(cache_dir, kind.key)
        original = path.read_bytes()
        path.write_bytes(corrupt(original, kind))
        kind.cache.clear_memory()
        with caplog.at_level(logging.WARNING, logger="repro.store"):
            again = kind.load()
        assert again == first
        info = kind.cache.info()
        assert (info.disk_errors, info.disk_hits, info.builds) == (1, 0, 2)
        (message,) = messages(caplog)
        assert "corrupt" in message
        if reason is not None:
            assert reason in message
        assert path.read_bytes() == original

    def test_replace_under_a_mapped_reader(self, kind, cache_dir, monkeypatch):
        # A reader holding mapped columns keeps the content it validated
        # after a concurrent writer os.replace()s the file; the next load
        # maps the new inode.
        monkeypatch.setattr(store, "mmap_enabled", lambda: True)
        first = kind.load()
        kind.cache.clear_memory()
        mapped = kind.load()
        assert store.store_cache_info().maps == 1
        path = kind.cache.path(cache_dir, kind.key)
        tmp = path.with_name(path.name + ".race")
        tmp.write_bytes(kind.cache.encode(kind.key, kind.other))
        os.replace(tmp, path)
        assert mapped == first
        kind.cache.clear_memory()
        again = kind.load()
        assert again == kind.other
        assert again != first
        assert mapped == first
        info = kind.cache.info()
        assert (info.disk_hits, info.disk_errors) == (2, 0)


# -- OS failures -------------------------------------------------------------


class TestOsFailures:
    @pytest.mark.parametrize("code", [errno.EACCES, errno.ENOSPC], ids=["EACCES", "ENOSPC"])
    def test_write_failure_leaves_nothing_behind(self, kind, cache_dir, monkeypatch, caplog, code):
        def half_write(self, data):
            with open(self, "wb") as fh:
                fh.write(data[: len(data) // 2])
            raise OSError(code, os.strerror(code), str(self))

        monkeypatch.setattr(pathlib.Path, "write_bytes", half_write)
        with caplog.at_level(logging.WARNING, logger="repro.store"):
            first = kind.load()
        info = kind.cache.info()
        assert (info.builds, info.disk_errors) == (1, 1)
        (message,) = messages(caplog)
        assert "cannot write" in message
        assert list(cache_dir.iterdir()) == []  # no artifact, no temp file
        assert kind.load() is first  # the memo still serves it
        assert kind.cache.info().memory_hits == 1

    def test_read_failure_rebuilds(self, kind, cache_dir, load_path, monkeypatch, caplog):
        first = kind.load()
        kind.cache.clear_memory()

        def refuse(*args, **kwargs):
            raise PermissionError(errno.EACCES, "Permission denied")

        with monkeypatch.context() as patch:
            patch.setattr(os, "open", refuse)
            patch.setattr(pathlib.Path, "read_bytes", refuse)
            with caplog.at_level(logging.WARNING, logger="repro.store"):
                again = kind.load()
        assert again == first
        info = kind.cache.info()
        assert (info.disk_errors, info.disk_hits, info.builds) == (1, 0, 2)
        (message,) = messages(caplog)
        assert "cannot read" in message


# -- REPRO_TRACE_CACHE=0 ---------------------------------------------------------


def test_disabled_cache_writes_nothing(tmp_path, monkeypatch, drives, tiny_system, small_maya):
    """``REPRO_TRACE_CACHE=0`` must keep every artifact kind - and the
    generated code - off the disk."""
    monkeypatch.chdir(tmp_path)
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    monkeypatch.setenv(store.CACHE_ENV, "0")
    # Translation forced on for splitmix, so the translated kind runs too.
    monkeypatch.setattr(simulator, "PRETRANSLATED", frozenset({"prince", "splitmix"}))
    with drives.replay():
        result = run_mix(
            MayaCache(small_maya), homogeneous("mcf", 2), tiny_system,
            accesses_per_core=300, warmup_accesses=150, seed=5,
        )
    assert result.specialize_info["replay"] == "opstream-scalar"
    assert list(tmp_path.iterdir()) == []


def test_disabled_cache_reaches_jobs_workers(tmp_path, monkeypatch, sharded_grid):
    """The switch lives in the environment, so forked ``--jobs`` workers
    see it too: a sharded grid drained by them writes nothing."""
    from repro.harness import runner

    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(store.CACHE_ENV, "0")
    (result,) = runner.run_tasks(sharded_grid, jobs=2)
    assert result.ok, result.error
    assert result.shards == 3
    assert list(tmp_path.iterdir()) == []
