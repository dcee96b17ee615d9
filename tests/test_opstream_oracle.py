"""The op-stream builder against the hierarchy it pre-simulates.

:func:`repro.engine.opstream.build_opstream` runs one core's private
L1/L2/stride prefetcher as a fused loop of its own, with dict-per-set
LRU state instead of :class:`~repro.cache.set_assoc.SetAssociativeCache`
objects.  The oracle here rebuilds the same stream from
``CacheHierarchy.access`` - the per-access drive's demand path, packed
caches and all - over an LLC stub that records every access it is
handed and always misses:

* a writeback is ``OP_WB``, a read of the demand line ``OP_DEMAND``,
  any other read ``OP_PF``;
* the latency ``access`` returns gives the class (L1 hit, L2 hit, LLC
  reached).

Both must agree column for column on every workload, at the bench's
512-set system and the default one, with prefetch on and off, at a
nonzero core offset.  Marker ``specialize``; run with
``-m specialize``.
"""

import functools
from array import array

import pytest

from repro.common.config import SystemConfig
from repro.engine.opstream import OP_DEMAND, OP_PF, OP_WB, OpStream, build_opstream
from repro.harness.presets import experiment_system
from repro.hierarchy.prefetcher import StridePrefetcher
from repro.hierarchy.system import CacheHierarchy
from repro.trace.compiled import compile_workload
from repro.trace.workloads import WORKLOADS

pytestmark = pytest.mark.specialize

RECORDS = 2000
#: Traces are compiled at the bench's 512-set LLC scale for both systems.
TRACE_LLC_LINES = 512 * 16
CORE = 3
#: ``run_mix``'s region offset for ``CORE``.
OFFSET = CORE * ((1 << 34) + 997)

SYSTEMS = {"512-sets": experiment_system(8, 512), "default": SystemConfig()}


class RecordingLLC:
    """An LLC stub that logs ``(is_writeback, line)`` and always misses."""

    extra_lookup_latency = 0
    victim_addr = 0

    def __init__(self):
        self.log = []

    def access_fast(self, line_addr, is_write=False, core_id=0, is_writeback=False, sdid=0):
        self.log.append((is_writeback, line_addr))
        return 0


@functools.lru_cache(maxsize=None)
def _trace(workload):
    return compile_workload(workload, TRACE_LLC_LINES, RECORDS, seed=7)


def oracle_stream(trace, offset, config, enable_prefetch) -> OpStream:
    """The op stream of ``CacheHierarchy.access`` over a recording LLC."""
    llc = RecordingLLC()
    access = CacheHierarchy(llc, config, enable_prefetch=enable_prefetch).access
    lat = config.latencies
    l1_hit = float(lat.l1_cycles)
    l2_hit = l1_hit + lat.l2_cycles
    log = llc.log
    lat_class = bytearray()
    op_counts = bytearray()
    op_kinds = bytearray()
    op_addrs = array("Q")
    for line, write in zip(trace.line_addrs, trace.write_flags):
        line += offset
        start = len(log)
        latency = access(CORE, line, write != 0)
        lat_class.append(0 if latency == l1_hit else 1 if latency == l2_hit else 2)
        op_counts.append(len(log) - start)
        for is_writeback, addr in log[start:]:
            op_kinds.append(OP_WB if is_writeback else OP_DEMAND if addr == line else OP_PF)
            op_addrs.append(addr)
    return OpStream(lat_class, op_counts, op_kinds, op_addrs)


@pytest.mark.parametrize("prefetch", [True, False], ids=["pf", "nopf"])
@pytest.mark.parametrize("system", sorted(SYSTEMS))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_build_opstream_matches_hierarchy(workload, system, prefetch):
    config = SYSTEMS[system]
    trace = _trace(workload)
    probe = StridePrefetcher()
    prefetcher = (probe.degree, probe.confidence_threshold, probe.max_confidence)
    built = build_opstream(
        trace, OFFSET, config.l1d_geometry, config.l2_geometry,
        prefetcher if prefetch else None,
    )
    expected = oracle_stream(trace, OFFSET, config, prefetch)
    for name, got, want in zip(OpStream._fields, built, expected):
        assert got == want, f"{name} differs"
    assert built.op_kinds, "no LLC ops: the comparison would be vacuous"
