"""Compiled packed traces, cached by content key.

The simulators consume access streams; the synthetic generators in
:mod:`repro.trace.synthetic` produce them lazily, which is flexible but
slow on the hot path: every access costs a generator-frame resume, two
RNG draws, and a fresh :class:`~repro.trace.record.MemoryAccess`
allocation - and every bench trial or experiment shard regenerates the
identical stream from scratch.

A :class:`CompiledTrace` materializes a finite prefix of a stream into
packed parallel columns:

* ``line_addrs`` - ``array('Q')`` of line addresses,
* ``write_flags`` - ``bytearray`` (1 = write),
* ``gaps`` - ``array('I')`` of non-memory instruction gaps,

which the batched drive loop in
:func:`repro.hierarchy.simulator.run_mix` replays with plain integer
indexing - no per-access object construction at all.

:func:`compile_workload` caches compiled traces in :data:`TRACES`, an
:class:`~repro.store.ArtifactCache` (in-memory LRU memo over ``.ctrace``
files in the shared artifact directory, ``results/.trace_cache/`` by
default; ``REPRO_TRACE_CACHE`` relocates or disables it).  The content
key - workload name, LLC line count, seed, length, and
:data:`GENERATOR_VERSION` - changes with every input that shapes the
stream, so a stale entry can never be served.  A corrupt cache file is
logged, deleted, and the trace regenerated.

The generators remain the oracle: ``tests/test_trace_cache.py`` holds
each compiled trace equal to its generator's records, element for
element.
"""

from __future__ import annotations

import struct
from array import array
from itertools import islice
from typing import Iterable, Iterator, Optional

from .. import store
from ..common.errors import TraceError
from .record import MemoryAccess
from .workloads import get_workload

#: Version of the synthetic-trace generators.  Bump whenever
#: :mod:`repro.trace.synthetic` or :mod:`repro.trace.workloads` change
#: the produced streams; every cached trace is invalidated because the
#: version is part of the content key.
GENERATOR_VERSION = 1


class CompiledTrace:
    """A finite access stream compiled to packed parallel columns."""

    __slots__ = ("line_addrs", "write_flags", "gaps")

    def __init__(self, line_addrs: array, write_flags: bytearray, gaps: array):
        if not (len(line_addrs) == len(write_flags) == len(gaps)):
            raise TraceError(
                f"column lengths differ: {len(line_addrs)} addrs, "
                f"{len(write_flags)} flags, {len(gaps)} gaps"
            )
        self.line_addrs = line_addrs
        self.write_flags = write_flags
        self.gaps = gaps

    def __len__(self) -> int:
        return len(self.line_addrs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CompiledTrace)
            and self.line_addrs == other.line_addrs
            and self.write_flags == other.write_flags
            and self.gaps == other.gaps
        )

    @classmethod
    def from_records(
        cls, records: Iterable[MemoryAccess], count: Optional[int] = None
    ) -> "CompiledTrace":
        """Compile ``count`` records (or all of a finite iterable)."""
        addrs = array("Q")
        flags = bytearray()
        gaps = array("I")
        add_addr, add_flag, add_gap = addrs.append, flags.append, gaps.append
        source = records if count is None else islice(records, count)
        for access in source:
            add_addr(access.line_addr)
            add_flag(1 if access.is_write else 0)
            add_gap(access.gap)
        if count is not None and len(addrs) < count:
            raise TraceError(f"stream ended after {len(addrs)} of {count} records")
        return cls(addrs, flags, gaps)

    def records(self) -> Iterator[MemoryAccess]:
        """Re-materialize the records (interop with the object API)."""
        for addr, flag, gap in zip(self.line_addrs, self.write_flags, self.gaps):
            yield MemoryAccess(addr, flag != 0, gap)

    def unique_lines(self, offset: int = 0) -> array:
        """Distinct line addresses (shifted by ``offset``) as ``array('Q')``.

        This is the address set
        :func:`repro.trace.translated.translate_trace` pushes through
        the randomizer's batch cipher kernel ahead of the timed loop.
        """
        if offset:
            return array("Q", {addr + offset for addr in self.line_addrs})
        return array("Q", set(self.line_addrs))

    def columns_numpy(self):
        """The three columns as zero-copy numpy views.

        Returns ``(line_addrs, write_flags, gaps)`` as ``uint64`` /
        ``uint8`` / ``uint32`` ndarrays sharing memory with the packed
        columns (``np.frombuffer`` over the buffer protocol — no copy).
        The views are explicitly non-writeable: writes would corrupt the
        trace (and, under the mmap store, the shared map).  The
        op-stream replay (:mod:`repro.engine.vector`) consumes these
        directly.
        """
        import numpy as np

        views = (
            np.frombuffer(self.line_addrs, dtype=np.uint64),
            np.frombuffer(self.write_flags, dtype=np.uint8),
            np.frombuffer(self.gaps, dtype=np.uint32),
        )
        for view in views:
            view.flags.writeable = False
        return views


def trace_key(workload: str, llc_lines: int, seed: Optional[int], length: int) -> str:
    """The full content key for one compiled workload trace."""
    return f"{workload}|llc={llc_lines}|seed={seed}|len={length}|gen={GENERATOR_VERSION}"


#: The compiled-trace cache.  File format: magic, ``<HQ`` header (key
#: length, record count), the UTF-8 key, the three columns, CRC-32.  The
#: memo holds well over the distinct (workload, seed, length)
#: combinations a full fig9 sweep keeps alive per worker process.
TRACES = store.ArtifactCache(
    "trace",
    magic=b"MAYACTC1",
    header=struct.Struct("<HQ"),
    suffix=".ctrace",
    memo_capacity=64,
    layout=lambda count: (("Q", count), ("B", count), ("I", count)),
    pack=lambda t: ((len(t),), (t.line_addrs, t.write_flags, t.gaps)),
    unpack=lambda columns: CompiledTrace(*columns),
)


def compile_workload(
    workload: str,
    llc_lines: int,
    length: int,
    seed: Optional[int] = None,
) -> CompiledTrace:
    """Compile ``length`` accesses of a named workload, cached in
    :data:`TRACES`."""
    if length < 0:
        raise TraceError(f"trace length cannot be negative, got {length}")

    def build() -> CompiledTrace:
        stream = get_workload(workload).stream(llc_lines, seed=seed)
        return CompiledTrace.from_records(stream, length)

    return TRACES.get(trace_key(workload, llc_lines, seed, length), build)
