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
from ..cache.line import ACC_EVICTED_DIRTY, ACC_HIT
from ..cache.set_assoc import SetAssociativeCache
from ..common.config import CacheGeometry
from ..common.errors import TraceError
from ..hierarchy.prefetcher import StridePrefetcher
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

    Faithful transcription of the private-level portion of
    ``CacheHierarchy._compile_access`` (plus its ``_prefetch`` and
    writeback helpers) for one core in isolation: identical access
    order, identical inlined prefetcher state machine, identical L1/L2
    eviction behaviour - differing only in that every LLC/DRAM
    interaction is *recorded* instead of performed.  The scalar engine
    over the same trace issues exactly these ops in exactly this
    per-core order (``tests/test_differential_engines.py`` holds the
    end-to-end results bit-identical).

    ``prefetcher`` is ``(degree, confidence_threshold, max_confidence)``
    or ``None`` when prefetching is disabled.
    """
    l1 = SetAssociativeCache(l1_geometry, policy="lru", name="OPS-L1D")
    l2 = SetAssociativeCache(l2_geometry, policy="lru", name="OPS-L2")
    pf = StridePrefetcher(*prefetcher) if prefetcher is not None else None
    addrs = trace.line_addrs
    writes = trace.write_flags
    n = len(addrs)
    lat_class = bytearray(n)
    op_counts = bytearray(n)
    op_kinds = bytearray()
    op_addrs = array("Q")
    kinds_append = op_kinds.append
    addrs_append = op_addrs.append
    l1_access = l1.access_fast
    l2_access = l2.access_fast
    l1_where = l1._where
    if pf is not None:
        pf_threshold = pf.confidence_threshold
        pf_max = pf.max_confidence
        pf_degree = pf.degree

    for i in range(n):
        a = addrs[i] + offset
        ops_before = len(op_kinds)
        f1 = l1_access(a, writes[i] != 0, 0)
        if f1 & ACC_EVICTED_DIRTY:
            fwb = l2_access(l1.victim_addr, False, 0, True)
            if fwb & ACC_EVICTED_DIRTY:
                kinds_append(OP_WB)
                addrs_append(l2.victim_addr)
        if pf is not None:
            # StridePrefetcher.observe() inlined exactly as in the
            # hierarchy closure (same state updates, same issue order).
            last = pf._last_addr
            if last < 0:
                pf._last_addr = a
            else:
                stride = a - last
                if stride != 0 and stride == pf._last_stride:
                    conf = pf._confidence + 1
                    if conf > pf_max:
                        conf = pf_max
                else:
                    conf = pf._confidence - 1
                    if conf < 0:
                        conf = 0
                    pf._last_stride = stride
                pf._confidence = conf
                pf._last_addr = a
                stride = pf._last_stride
                if conf >= pf_threshold and stride != 0:
                    issued = 0
                    target = a
                    for _ in range(pf_degree):
                        target += stride
                        if target >= 0:
                            issued += 1
                            # CacheHierarchy._prefetch, recorded form.
                            if target not in l1_where:
                                fp1 = l1_access(target, False, 0)
                                if fp1 & ACC_EVICTED_DIRTY:
                                    fwb = l2_access(l1.victim_addr, False, 0, True)
                                    if fwb & ACC_EVICTED_DIRTY:
                                        kinds_append(OP_WB)
                                        addrs_append(l2.victim_addr)
                                fp2 = l2_access(target, False, 0)
                                if fp2 & ACC_EVICTED_DIRTY:
                                    kinds_append(OP_WB)
                                    addrs_append(l2.victim_addr)
                                if not fp2 & ACC_HIT:
                                    kinds_append(OP_PF)
                                    addrs_append(target)
                    pf.issued += issued
        if f1 & ACC_HIT:
            count = len(op_kinds) - ops_before
            if count:
                if count > 255:
                    raise TraceError(f"access {i} produced {count} LLC ops (> 255)")
                op_counts[i] = count
            continue
        f2 = l2_access(a, False, 0)
        if f2 & ACC_EVICTED_DIRTY:
            kinds_append(OP_WB)
            addrs_append(l2.victim_addr)
        if f2 & ACC_HIT:
            lat_class[i] = 1
        else:
            lat_class[i] = 2
            kinds_append(OP_DEMAND)
            addrs_append(a)
        count = len(op_kinds) - ops_before
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
    use_cache: bool = True,
) -> OpStream:
    """:func:`build_opstream`, cached in :data:`STREAMS`;
    ``use_cache=False`` bypasses both cache layers."""
    key = opstream_key(trace_content_key, offset, l1_geometry, l2_geometry, prefetcher)
    return STREAMS.get(
        key,
        lambda: build_opstream(trace, offset, l1_geometry, l2_geometry, prefetcher),
        use_cache,
    )
