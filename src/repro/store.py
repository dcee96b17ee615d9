"""The content-keyed artifact cache and its zero-copy mmap store.

Three artifacts derived from the simulated mixes are cached: compiled
traces (:mod:`repro.trace.compiled`), translated index columns
(:mod:`repro.trace.translated`) and per-core op streams
(:mod:`repro.engine.opstream`).  Each module declares one
:class:`ArtifactCache` - its magic, header, file suffix, memo capacity
and column layout - and this module owns everything else:

* **One directory.**  Every kind's files sit side by side under
  :func:`cache_dir` (``results/.trace_cache/`` by default).
  :data:`CACHE_ENV` relocates it, or disables every kind's memo and
  disk layer with ``0 / off / none / false / disabled``.
* **One file envelope.**  Magic, a ``struct`` header whose first field
  is the key length, the UTF-8 content key, the packed little-endian
  columns, and a trailing CRC-32 of everything after the magic.
* **Two layers.**  A per-process LRU memo over the disk files, with
  one counter type (:class:`ArtifactCacheInfo`) per kind.
* **One failure path.**  A corrupt file is logged, dropped from the
  map registry, unlinked and rebuilt; unreadable or unwritable files
  are logged and counted.  None of them is ever fatal.
* **One write protocol.**  A per-process temp file, then
  ``os.replace``, so readers only ever see whole files.

Disk loads go through the mmap store on little-endian hosts.  Reading
files with ``read()`` + ``array.frombytes`` gives each process a
private heap copy - N identical copies across the resident service
workers, ``--jobs`` workers, and bench trials.  Mapping them instead
works like this:

* :func:`map_artifact` opens a cache file read-only and ``mmap``\\ s it
  (``ACCESS_READ`` — ``MAP_SHARED`` + ``PROT_READ`` on POSIX), so the OS
  page cache is the single physical copy shared by every process that
  maps the same file.
* :meth:`ArtifactCache.decode` validates magic/CRC *against the mapped
  bytes* (``zlib.crc32`` accepts any buffer) and slices ``memoryview``
  columns straight out of the map — no heap materialization at all.
  The buffer protocol refcounts for us: every exported column view
  keeps the map alive, and the map keeps the mapped pages alive, even
  after the file is unlinked or ``os.replace``\\ d (the old inode stays
  mapped; readers keep serving the content they validated).
* A per-process registry keyed by ``(absolute path, content key)``
  deduplicates repeat opens.  Reuse is gated on the file's current
  ``(device, inode, size, mtime_ns)`` identity, so an ``os.replace`` by
  a concurrent writer is detected and mapped fresh, while the stale
  entry is dropped (its pages survive for any live views).

Big-endian hosts take the heap path instead (:func:`mmap_enabled`),
where zero-copy casts of the little-endian file columns would be wrong.
The heap path is also the map layer's differential oracle: the test
suite pins it by patching :func:`mmap_enabled` (``pytest
--heap-loads`` for a whole session), and stats and MPKI fingerprints
are bit-identical either way.

Counters (:func:`store_cache_info`) are monotonic so the service's
``cache_delta`` accounting can attribute per-job store activity, and
:func:`mapped_bytes_current` / :func:`peak_rss_kb` feed the ``/status``
per-worker memory report.
"""

from __future__ import annotations

import hashlib
import logging
import mmap
import os
import pathlib
import struct
import sys
import time
import zlib
from array import array
from collections import OrderedDict
from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple, Union

from .common.errors import TraceError

logger = logging.getLogger(__name__)

#: Environment override for the artifact-cache directory: a path, or one
#: of ``0 / off / none / false / disabled`` to bypass every kind's memo
#: and disk layer (forked ``--jobs`` workers inherit it).  The one
#: switch that turns the cache off.
CACHE_ENV = "REPRO_TRACE_CACHE"

#: Default artifact-cache location (relative to the working directory).
DEFAULT_CACHE_DIR = os.path.join("results", ".trace_cache")

_DISABLED_VALUES = frozenset(("0", "off", "none", "false", "disabled"))


def cache_dir() -> Optional[pathlib.Path]:
    """The artifact-cache directory, or ``None`` when caching is off.

    :data:`CACHE_ENV` wins when set to a path or a disable token;
    otherwise :data:`DEFAULT_CACHE_DIR`.  Checked per call, so tests and
    subprocesses can flip the variable at any time.
    """
    raw = (os.environ.get(CACHE_ENV) or "").strip()
    if not raw:
        return pathlib.Path(DEFAULT_CACHE_DIR)
    if raw.lower() in _DISABLED_VALUES:
        return None
    return pathlib.Path(raw)


def mmap_enabled() -> bool:
    """Whether cache loads should go through the mmap store.

    Big-endian hosts use the heap path: the cache files are
    little-endian and a zero-copy ``memoryview.cast`` cannot byteswap.
    Looked up per load, so tests can pin either path by patching it.
    """
    return sys.byteorder == "little"


class MappedArtifact:
    """One read-only mapped cache file plus its registry identity.

    ``view()`` hands out a ``memoryview`` over the whole map; slices of
    it (the column views the caches export) hold the map — and therefore
    the mapped inode — alive through the buffer protocol.  ``validated``
    is set by the owning cache after the first successful magic/CRC
    check: the inode's bytes are immutable under the caches' atomic
    write protocol (tmp file + ``os.replace``), so revalidating a reused
    map would only re-scan bytes that cannot have changed.
    """

    __slots__ = ("path", "key", "size", "ident", "validated", "_map", "_view")

    def __init__(self, path: str, key: str, ident: Tuple[int, int, int, int], mapped: mmap.mmap):
        self.path = path
        self.key = key
        self.ident = ident
        self.size = ident[2]
        self.validated = False
        self._map = mapped
        self._view: Optional[memoryview] = None

    def view(self) -> memoryview:
        """A zero-copy read-only view over the whole mapped file."""
        if self._view is None:
            self._view = memoryview(self._map)
        return self._view

    def close(self) -> bool:
        """Try to unmap now; ``False`` if exported views still pin it.

        Failure is benign — the map is dropped from the registry either
        way and the garbage collector unmaps it once the last column
        view dies.
        """
        try:
            if self._view is not None:
                self._view.release()
                self._view = None
            self._map.close()
            return True
        except BufferError:
            return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MappedArtifact(path={self.path!r}, size={self.size}, validated={self.validated})"


class StoreCacheInfo(NamedTuple):
    """Monotonic counters of the per-process map registry."""

    #: Files newly mapped (registry misses that reached ``mmap``).
    maps: int
    #: Registry hits: a repeat open served by an existing map.
    map_reuses: int
    #: Maps dropped (corrupt file, or replaced by a concurrent writer).
    evictions: int
    #: OS-level failures while mapping (not corruption; not missing files).
    map_errors: int
    #: Cumulative bytes newly mapped (monotonic; see
    #: :func:`mapped_bytes_current` for the live gauge).
    mapped_bytes: int
    #: Seconds spent in ``open`` + ``mmap`` for new maps.
    map_seconds: float


_stats = {
    "maps": 0,
    "map_reuses": 0,
    "evictions": 0,
    "map_errors": 0,
    "mapped_bytes": 0,
    "map_seconds": 0.0,
}

#: The per-process map registry: ``(absolute path, content key)`` ->
#: :class:`MappedArtifact`.  One entry per distinct artifact; repeat
#: opens are deduplicated against it.
_registry: Dict[Tuple[str, str], MappedArtifact] = {}


def store_cache_info() -> StoreCacheInfo:
    """Snapshot of the process-wide store counters."""
    return StoreCacheInfo(**_stats)


def reset_store_stats() -> None:
    """Zero the process-wide store counters (tests)."""
    for name in _stats:
        _stats[name] = 0.0 if isinstance(_stats[name], float) else 0


def registry_size() -> int:
    """Number of live maps in this process's registry."""
    return len(_registry)


def mapped_bytes_current() -> int:
    """Bytes currently mapped through the registry (a gauge, not a
    counter): the per-process virtual footprint whose physical pages are
    shared machine-wide through the page cache."""
    return sum(entry.size for entry in _registry.values())


def map_artifact(path: Union[str, pathlib.Path], key: str) -> MappedArtifact:
    """Map ``path`` read-only, deduplicated by ``(path, key)``.

    Raises ``FileNotFoundError`` for a plain cache miss, ``OSError`` for
    OS-level failures, and ``ValueError`` for files ``mmap`` rejects
    (empty — necessarily corrupt, since every artifact has a header).
    Reuse requires the file's ``(dev, inode, size, mtime_ns)`` identity
    to match the mapped one; a mismatch (a writer ``os.replace``\\ d the
    file) evicts the stale entry and maps the new inode.
    """
    apath = os.path.abspath(os.fspath(path))
    registry_key = (apath, key)
    st = os.stat(apath)  # FileNotFoundError propagates: an ordinary miss
    ident = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)
    entry = _registry.get(registry_key)
    if entry is not None:
        if entry.ident == ident:
            _stats["map_reuses"] += 1
            return entry
        _evict(registry_key, entry)
    start = time.perf_counter()
    try:
        fd = os.open(apath, os.O_RDONLY)
        try:
            mapped = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
        finally:
            os.close(fd)
    except ValueError:
        raise
    except OSError:
        _stats["map_errors"] += 1
        raise
    entry = MappedArtifact(apath, key, ident, mapped)
    _registry[registry_key] = entry
    _stats["maps"] += 1
    _stats["mapped_bytes"] += st.st_size
    _stats["map_seconds"] += time.perf_counter() - start
    return entry


def discard(path: Union[str, pathlib.Path], key: str) -> None:
    """Drop the registry entry for ``(path, key)`` (corrupt artifact).

    Live column views keep the old pages readable; the next
    :func:`map_artifact` for the path maps whatever the rebuilt file
    contains.
    """
    registry_key = (os.path.abspath(os.fspath(path)), key)
    entry = _registry.get(registry_key)
    if entry is not None:
        _evict(registry_key, entry)


def _evict(registry_key: Tuple[str, str], entry: MappedArtifact) -> None:
    del _registry[registry_key]
    _stats["evictions"] += 1
    entry.close()


def clear_registry() -> int:
    """Drop every map (tests; cache-directory teardown).

    Returns how many entries could not be unmapped immediately because
    column views still reference them (they unmap at GC time).
    """
    pinned = 0
    while _registry:
        _, entry = _registry.popitem()
        if not entry.close():
            pinned += 1
    return pinned


# -- the artifact cache -----------------------------------------------------

_CRC = struct.Struct("<I")


def column_bytes(column) -> bytes:
    """Column bytes in little-endian order regardless of host endianness.

    ``column`` is an ``array``, a ``bytearray``, or a typed
    ``memoryview`` (a zero-copy column handed out by the mmap store,
    whose backing file is already little-endian — mapped columns only
    exist on little-endian hosts).
    """
    if sys.byteorder == "big" and getattr(column, "itemsize", 1) > 1:
        column = array(column.typecode, column)
        column.byteswap()
    return bytes(column)


def _column_from_bytes(typecode: str, blob) -> array:
    """Heap column from little-endian bytes (any buffer; one copy)."""
    column = array(typecode)
    column.frombytes(blob)
    if sys.byteorder == "big":
        column.byteswap()
    return column


class ArtifactCacheInfo(NamedTuple):
    """Counters of one artifact kind's two-layer cache (process-wide)."""

    memory_hits: int
    disk_hits: int
    builds: int
    disk_errors: int
    build_seconds: float
    load_seconds: float

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.builds
        return self.hits / total if total else 0.0


#: ``pack(artifact) -> (header fields after the key length, columns)``.
Pack = Callable[[Any], Tuple[Tuple[int, ...], Sequence[Any]]]
#: ``layout(*header fields) -> ((typecode, count), ...)`` per column.
Layout = Callable[..., Sequence[Tuple[str, int]]]


class ArtifactCache:
    """A content-keyed, two-layer cache for one kind of packed artifact.

    ``kind`` names the artifact in log messages.  A file is ``magic``,
    then ``header`` (a ``struct.Struct`` whose first field is the key
    length and whose other fields come from ``pack``), the UTF-8 key,
    the columns, and a CRC-32 of everything after the magic.  ``layout``
    maps the header fields back to each column's typecode and length:
    ``"B"`` columns load as ``bytearray``, the others as ``array`` on
    the heap path, and every column as a ``memoryview`` over the map on
    the mmap path.  ``unpack`` builds the artifact from those columns.
    Files are named by a digest of the key plus ``suffix``; the memo
    holds at most ``memo_capacity`` artifacts.
    """

    def __init__(
        self,
        kind: str,
        magic: bytes,
        header: struct.Struct,
        suffix: str,
        memo_capacity: int,
        layout: Layout,
        pack: Pack,
        unpack: Callable[[list], Any],
    ):
        self.kind = kind
        self.magic = magic
        self.header = header
        self.suffix = suffix
        self.memo_capacity = memo_capacity
        self.layout = layout
        self.pack = pack
        self.unpack = unpack
        self._memo: "OrderedDict[str, Any]" = OrderedDict()
        self._stats: Dict[str, float] = {}
        self.reset_stats()

    # -- the two layers ----------------------------------------------------

    def get(self, key: str, build: Callable[[], Any]):
        """The artifact for ``key``: memo, then disk, then ``build()``.

        A disabled :func:`cache_dir` bypasses both layers: the artifact
        is built and nothing is remembered or written.
        """
        directory = cache_dir()
        if directory is None:
            return self._build(build)
        artifact = self._memo.get(key)
        if artifact is not None:
            self._memo.move_to_end(key)
            self._stats["memory_hits"] += 1
            return artifact
        artifact = self._load(directory, key)
        if artifact is not None:
            self._stats["disk_hits"] += 1
        else:
            artifact = self._build(build)
            self._store(directory, key, artifact)
        self._memo[key] = artifact
        while len(self._memo) > self.memo_capacity:
            self._memo.popitem(last=False)
        return artifact

    def _build(self, build: Callable[[], Any]):
        start = time.perf_counter()
        artifact = build()
        self._stats["builds"] += 1
        self._stats["build_seconds"] += time.perf_counter() - start
        return artifact

    def _load(self, directory: pathlib.Path, key: str):
        """Load ``key`` from ``directory``; any failure degrades to a miss.

        With the mmap store enabled the file is mapped read-only and the
        columns are zero-copy views over the shared map; otherwise the
        heap path reads and copies.  Both paths count the same stats
        and fail the same way.
        """
        path = self.path(directory, key)
        start = time.perf_counter()
        try:
            if mmap_enabled():
                mapped = map_artifact(path, key)
                artifact = self.decode(
                    mapped.view(), key, copy=False, validate=not mapped.validated
                )
                mapped.validated = True
            else:
                artifact = self.decode(path.read_bytes(), key, copy=True, validate=True)
        except FileNotFoundError:
            return None
        except OSError as exc:
            self._stats["disk_errors"] += 1
            logger.warning("%s cache: cannot read %s (%s); rebuilding", self.kind, path, exc)
            return None
        except (TraceError, struct.error, ValueError) as exc:
            # ValueError includes mmap's refusal of an empty file.
            self._stats["disk_errors"] += 1
            logger.warning("%s cache: %s is corrupt (%s); rebuilding", self.kind, path, exc)
            discard(path, key)
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self._stats["load_seconds"] += time.perf_counter() - start
        return artifact

    def _store(self, directory: pathlib.Path, key: str, artifact) -> None:
        """Atomically persist ``artifact``; failures are counted, not fatal."""
        path = self.path(directory, key)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        try:
            directory.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(self.encode(key, artifact))
            os.replace(tmp, path)
        except OSError as exc:
            self._stats["disk_errors"] += 1
            logger.warning("%s cache: cannot write %s (%s)", self.kind, path, exc)
            try:
                tmp.unlink()
            except OSError:
                pass

    def path(self, directory: Union[str, pathlib.Path], key: str) -> pathlib.Path:
        """Cache file for ``key``: SHA-256 of the key plus the kind's suffix."""
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:40]
        return pathlib.Path(directory) / f"{digest}{self.suffix}"

    # -- the file envelope -------------------------------------------------

    def encode(self, key: str, artifact) -> bytes:
        """Serialize ``artifact`` with ``key`` embedded for verification."""
        key_bytes = key.encode("utf-8")
        if len(key_bytes) > 0xFFFF:
            raise TraceError(f"cache key too long ({len(key_bytes)} bytes)")
        fields, columns = self.pack(artifact)
        try:
            head = self.header.pack(len(key_bytes), *fields)
        except struct.error as exc:
            raise TraceError(f"{self.kind} header out of range: {exc}") from exc
        payload = b"".join((head, key_bytes, *map(column_bytes, columns)))
        return self.magic + payload + _CRC.pack(zlib.crc32(payload) & 0xFFFFFFFF)

    def decode(self, buf, key: str, *, copy: bool, validate: bool):
        """Parse an artifact out of any buffer.

        Raises :class:`~repro.common.errors.TraceError` on any
        corruption: bad magic, truncation, CRC mismatch, or a file
        written for another key.  ``copy=True`` materializes the columns
        on the heap (one copy); ``copy=False`` hands back zero-copy
        ``memoryview`` casts over ``buf`` — the mmap store's path, where
        the views pin the map alive.  ``validate=False`` skips the CRC
        scan (only safe when the same mapped bytes already passed it
        once); the magic, key and length checks always run.
        """
        view = buf if isinstance(buf, memoryview) else memoryview(buf)
        if view.format != "B":
            view = view.cast("B")
        magic = self.magic
        size = view.nbytes
        if bytes(view[: len(magic)]) != magic:
            raise TraceError(f"bad magic {bytes(view[:len(magic)])!r}")
        if size < len(magic) + self.header.size + _CRC.size:
            raise TraceError("truncated header")
        payload = view[len(magic) : size - _CRC.size]
        if validate:
            crc = _CRC.unpack_from(view, size - _CRC.size)[0]
            if crc != (zlib.crc32(payload) & 0xFFFFFFFF):
                raise TraceError("CRC mismatch (corrupt cache file)")
        key_len, *fields = self.header.unpack_from(payload)
        cursor = self.header.size
        found = bytes(payload[cursor : cursor + key_len]).decode("utf-8", errors="replace")
        if found != key:
            raise TraceError(f"key mismatch: file has {found!r}")
        cursor += key_len
        layout = [(typecode, count * array(typecode).itemsize)
                  for typecode, count in self.layout(*fields)]
        expected = cursor + sum(nbytes for _, nbytes in layout)
        if payload.nbytes != expected:
            raise TraceError(f"truncated columns: {payload.nbytes} bytes, expected {expected}")
        heap = copy or sys.byteorder == "big"
        columns = []
        for typecode, nbytes in layout:
            column = payload[cursor : cursor + nbytes]
            cursor += nbytes
            if typecode == "B":
                columns.append(bytearray(column) if heap else column)
            else:
                columns.append(
                    _column_from_bytes(typecode, column) if heap else column.cast(typecode)
                )
        return self.unpack(columns)

    # -- accounting --------------------------------------------------------

    def info(self) -> ArtifactCacheInfo:
        """Snapshot of this kind's process-wide counters."""
        return ArtifactCacheInfo(**self._stats)

    def reset_stats(self) -> None:
        """Zero this kind's counters."""
        self._stats.update(
            memory_hits=0, disk_hits=0, builds=0, disk_errors=0,
            build_seconds=0.0, load_seconds=0.0,
        )

    def clear_memory(self) -> None:
        """Drop every memoized artifact (tests; a fresh process)."""
        self._memo.clear()


# -- process memory accounting (service /status, bench v9) ------------------


def peak_rss_kb() -> int:
    """This process's peak resident set size in KiB (0 if unknown)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS
        peak //= 1024
    return int(peak)


def proportional_rss_kb() -> Optional[int]:
    """This process's PSS in KiB from ``/proc`` (``None`` if unavailable).

    PSS divides each shared physical page by the number of processes
    mapping it, so — unlike RSS, which bills every mapper the full page —
    it shows the mmap store's N-way sharing directly.  Linux-only.
    """
    try:
        with open("/proc/self/smaps_rollup", "rb") as fh:
            for line in fh:
                if line.startswith(b"Pss:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        return None
    return None


def memory_info() -> dict:
    """Per-process memory gauges for the service's ``/status`` report."""
    return {
        "peak_rss_kb": peak_rss_kb(),
        "mapped_bytes": mapped_bytes_current(),
        "maps": _stats["maps"],
        "map_reuses": _stats["map_reuses"],
    }
