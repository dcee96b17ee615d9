"""Per-core LLC op streams: stage 1 of the op-stream replay.

The key structural fact behind :mod:`repro.engine.vector`: a core's
private levels (L1D, L2, stride prefetcher) are a deterministic
function of that core's own access stream alone.  Nothing the LLC or
DRAM returns feeds back into them - ``CacheHierarchy._compile_access``
consults the LLC only *after* the private levels have decided, and the
latency it returns never alters private-level state.  So the whole
private hierarchy can be pre-simulated per core, off the
inter-core-interleaved critical path, leaving a compressed stream of
just the operations that touch shared state:

* ``OP_WB`` - a dirty L2 victim written back to the LLC,
* ``OP_PF`` - a prefetch fill that missed L2 (a demand-read-shaped LLC
  access whose DRAM read charges no latency),
* ``OP_DEMAND`` - the demand access itself reaching the LLC (charges
  DRAM latency over the MLP factor on a miss).

Per access the stream stores a *latency class* (0 = L1 hit, 1 = L2
hit, 2 = LLC reached) and the ops in the exact order the scalar closure
would have issued them; accesses with no ops (the overwhelming
majority after L1/L2 filtering) collapse into precomputed static clock
advances at replay time.  The op stream is independent of the LLC
design and of how cores interleave, so one build serves every LLC and
every trial of a bench run.

:func:`build_opstream` is one loop over the packed trace columns that
keeps only the private state the stream depends on: each set's
resident lines in LRU order with their dirty bits, and the
prefetcher's three ints.  An insertion-ordered dict per set is exact
because the builder never invalidates or flushes a private line (see
its docstring).  ``tests/test_opstream_oracle.py`` holds the streams
equal, column for column, to ones recorded from
``CacheHierarchy.access`` over every workload.

:func:`opstream_for` caches streams in :data:`STREAMS`, an
:class:`~repro.store.ArtifactCache` whose ``.ops`` files share the
artifact directory with the compiled traces they derive from
(``REPRO_TRACE_CACHE`` relocates or disables every kind at once).  The
content key is the trace content key x private-level geometry x
prefetcher parameters x stream offset x :data:`OPSTREAM_VERSION`.
Corrupt files degrade to a rebuild.
"""

from __future__ import annotations

import struct
from array import array
from typing import NamedTuple, Optional, Tuple

from .. import store
from ..common.config import CacheGeometry
from ..common.errors import TraceError
from ..trace.compiled import CompiledTrace

#: LLC-op kinds (byte values in the packed kind column).
OP_WB = 0
OP_PF = 1
OP_DEMAND = 2

#: Bump whenever the private-level replica below changes the produced
#: streams; part of the content key, so stale cache entries become
#: unreachable.
OPSTREAM_VERSION = 1


class OpStream(NamedTuple):
    """One core's compressed LLC-op stream over a compiled trace."""

    #: Per-access latency class: 0 L1 hit, 1 L2 hit, 2 LLC reached.
    lat_class: bytearray
    #: Per-access count of LLC/DRAM ops (0 for the silent majority).
    op_counts: bytearray
    #: Packed op kinds (``OP_*``), concatenated in access order.
    op_kinds: bytearray
    #: Packed op line addresses (absolute, offset already applied).
    op_addrs: array

    def columns_numpy(self):
        """The four columns as zero-copy, non-writeable numpy views.

        Returns ``(lat_class, op_counts, op_kinds, op_addrs)`` as
        ``uint8`` / ``uint8`` / ``uint8`` / ``uint64`` ndarrays sharing
        memory with the packed columns.  The op-stream replay
        (:mod:`repro.engine.vector`) consumes these directly; writes
        would corrupt the stream (and, under the mmap store, the
        shared map), so the views are read-only.
        """
        import numpy as np

        views = (
            np.frombuffer(self.lat_class, dtype=np.uint8),
            np.frombuffer(self.op_counts, dtype=np.uint8),
            np.frombuffer(self.op_kinds, dtype=np.uint8),
            np.frombuffer(self.op_addrs, dtype=np.uint64),
        )
        for view in views:
            view.flags.writeable = False
        return views


def opstream_key(
    trace_content_key: str,
    offset: int,
    l1_geometry: CacheGeometry,
    l2_geometry: CacheGeometry,
    prefetcher: Optional[Tuple[int, int, int]],
) -> str:
    """Full content key: everything the builder's output depends on."""
    pf = "none" if prefetcher is None else ",".join(str(p) for p in prefetcher)
    return (
        f"{trace_content_key}|off={offset}"
        f"|l1={l1_geometry.sets}x{l1_geometry.ways}"
        f"|l2={l2_geometry.sets}x{l2_geometry.ways}"
        f"|pf={pf}|ops={OPSTREAM_VERSION}"
    )


#: The op-stream cache.  File format: magic, ``<HQQ`` header (key
#: length, access count, op count), the UTF-8 key, four columns
#: (latency classes, per-access op counts, op kinds, op addresses),
#: CRC-32.  A full bench run touches 8 cores x a handful of (workload,
#: seed) combinations.
STREAMS = store.ArtifactCache(
    "opstream",
    magic=b"MAYAOPS1",
    header=struct.Struct("<HQQ"),
    suffix=".ops",
    memo_capacity=32,
    layout=lambda n, m: (("B", n), ("B", n), ("B", m), ("Q", m)),
    pack=lambda s: ((len(s.lat_class), len(s.op_kinds)), s),
    unpack=lambda columns: OpStream(*columns),
)


# -- the stage-1 builder ---------------------------------------------------


def build_opstream(
    trace: CompiledTrace,
    offset: int,
    l1_geometry: CacheGeometry,
    l2_geometry: CacheGeometry,
    prefetcher: Optional[Tuple[int, int, int]],
) -> OpStream:
    """Pre-simulate one core's private levels over its whole trace.

    One loop over the packed trace columns replays the private-level
    portion of ``CacheHierarchy._compile_access`` (with its
    ``_prefetch`` and writeback helpers) for one core in isolation, in
    the same access order and with the same prefetcher state machine,
    recording every LLC/DRAM interaction instead of performing it.

    Each private set is an insertion-ordered dict mapping a resident
    line to its dirty bit: a touch pops the line and re-inserts it, a
    fill inserts it, and a full set's victim is its first key.  That is
    exactly ``SetAssociativeCache``'s packed LRU here because this
    builder never invalidates or flushes a private line: a line leaves a
    set only as the victim of the fill that replaces it, so "the set has
    an invalid way" is ``len(set) < ways``, and packed LRU's victim - the
    unique minimum of a clock that every touch and fill advances - is
    the set's least recently touched line, its first key.
    ``tests/test_opstream_oracle.py`` rebuilds the streams from
    ``CacheHierarchy.access`` over a recording LLC and compares them
    column for column.

    ``prefetcher`` is ``(degree, confidence_threshold, max_confidence)``
    or ``None`` when prefetching is disabled.
    """
    l1_ways = l1_geometry.ways
    l1_mask = l1_geometry.sets - 1
    l1_sets = [{} for _ in range(l1_geometry.sets)]
    l2_ways = l2_geometry.ways
    l2_mask = l2_geometry.sets - 1
    l2_sets = [{} for _ in range(l2_geometry.sets)]
    prefetching = prefetcher is not None
    if prefetching:
        pf_degree, pf_threshold, pf_max = prefetcher
    # StridePrefetcher's state (last line, last stride, confidence).
    last = -1
    last_stride = 0
    conf = 0
    writes = trace.write_flags
    n = len(writes)
    lat_class = bytearray(n)
    op_counts = bytearray(n)
    op_kinds = bytearray()
    op_addrs = array("Q")
    kinds_append = op_kinds.append
    addrs_append = op_addrs.append

    for i, a in enumerate(trace.line_addrs):
        a += offset
        ops_before = len(op_kinds)
        # L1 demand access; a dirty victim is written back to L2.
        s1 = l1_sets[a & l1_mask]
        dirty = s1.pop(a, -1)
        l1_hit = dirty >= 0
        if l1_hit:
            s1[a] = dirty | writes[i]
        else:
            if len(s1) == l1_ways:
                for victim in s1:
                    break
                if s1.pop(victim):
                    s2 = l2_sets[victim & l2_mask]
                    if s2.pop(victim, -1) < 0 and len(s2) == l2_ways:
                        for v2 in s2:
                            break
                        if s2.pop(v2):
                            kinds_append(OP_WB)
                            addrs_append(v2)
                    s2[victim] = 1
            s1[a] = writes[i]
        if prefetching:
            # StridePrefetcher.observe(), as inlined in the hierarchy.
            if last < 0:
                last = a
            else:
                stride = a - last
                if stride != 0 and stride == last_stride:
                    conf += 1
                    if conf > pf_max:
                        conf = pf_max
                else:
                    conf -= 1
                    if conf < 0:
                        conf = 0
                    last_stride = stride
                last = a
                if conf >= pf_threshold and last_stride != 0:
                    target = a
                    for _ in range(pf_degree):
                        target += last_stride
                        if target < 0:
                            continue
                        # CacheHierarchy._prefetch: a line already in L1
                        # is left untouched; otherwise fill L1 (dirty
                        # victim to L2), then touch or fill L2.
                        t1 = l1_sets[target & l1_mask]
                        if target in t1:
                            continue
                        if len(t1) == l1_ways:
                            for victim in t1:
                                break
                            if t1.pop(victim):
                                s2 = l2_sets[victim & l2_mask]
                                if s2.pop(victim, -1) < 0 and len(s2) == l2_ways:
                                    for v2 in s2:
                                        break
                                    if s2.pop(v2):
                                        kinds_append(OP_WB)
                                        addrs_append(v2)
                                s2[victim] = 1
                        t1[target] = 0
                        s2 = l2_sets[target & l2_mask]
                        dirty = s2.pop(target, -1)
                        if dirty >= 0:
                            s2[target] = dirty
                        else:
                            if len(s2) == l2_ways:
                                for v2 in s2:
                                    break
                                if s2.pop(v2):
                                    kinds_append(OP_WB)
                                    addrs_append(v2)
                            s2[target] = 0
                            kinds_append(OP_PF)
                            addrs_append(target)
        if not l1_hit:
            # L2 demand access; a miss reaches the LLC.
            s2 = l2_sets[a & l2_mask]
            dirty = s2.pop(a, -1)
            if dirty >= 0:
                s2[a] = dirty
                lat_class[i] = 1
            else:
                if len(s2) == l2_ways:
                    for v2 in s2:
                        break
                    if s2.pop(v2):
                        kinds_append(OP_WB)
                        addrs_append(v2)
                s2[a] = 0
                lat_class[i] = 2
                kinds_append(OP_DEMAND)
                addrs_append(a)
        count = len(op_kinds) - ops_before
        if count:
            if count > 255:
                raise TraceError(f"access {i} produced {count} LLC ops (> 255)")
            op_counts[i] = count
    return OpStream(lat_class, op_counts, op_kinds, op_addrs)


def opstream_for(
    trace: CompiledTrace,
    trace_content_key: str,
    offset: int,
    l1_geometry: CacheGeometry,
    l2_geometry: CacheGeometry,
    prefetcher: Optional[Tuple[int, int, int]],
) -> OpStream:
    """:func:`build_opstream`, cached in :data:`STREAMS`."""
    key = opstream_key(trace_content_key, offset, l1_geometry, l2_geometry, prefetcher)
    return STREAMS.get(
        key, lambda: build_opstream(trace, offset, l1_geometry, l2_geometry, prefetcher)
    )
