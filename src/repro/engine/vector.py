"""The op-stream replay: ``run_mix``'s default drive (stage 2).

Replays a mix over any LLC with an ``access_fast`` step in two stages.
Stage 1 (:mod:`repro.engine.opstream`) pre-simulates each core's
private levels and compresses the trace into per-access latency
classes plus the ordered LLC/DRAM op stream.  Stage 2 - this module -
replays *only the op-bearing accesses* through a k-way merge identical
in ordering to the per-access drive loop, advancing each core's clock
over op-free runs with precomputed exact integer sums, and runs every
op through the LLC's own ``access_fast`` step (the design's generated
step, which ``run_mix`` installs through :mod:`repro.engine.specialize`).

**Why the results are bit-identical to the per-access drive:**

* *Order.*  The per-access loop pops ``(clock, core)`` tuples from a
  heap; per core the clock sequence is strictly increasing (every
  access costs >= the L1 latency), so the pop order is exactly the
  k-way merge of the per-core sequences with ties broken by core id.
  Accesses without LLC/DRAM ops touch no shared state, so removing
  them from the heap - while giving the remaining entries the exact
  issue clocks the per-access loop would compute - preserves the
  global order of every operation that *does* touch shared state.
* *Clocks.*  Under the default timing constants every per-access
  advance is a dyadic rational (multiple of 2^-2) and the total clock
  stays far below 2^53 times that grid, so float addition never rounds
  and is therefore associative: integer partial sums on that grid and
  their differences equal the per-access left-to-right fold bit for
  bit.  :func:`_timing_exact` verifies these preconditions against the
  actual config and declines the replay when they fail.
* *State.*  Each op executes the same ``access_fast`` step and the
  same DRAM model calls the per-access drive would make, on the same
  live objects, in the same order.  Hazards (SAEs, rekeys,
  mapping-memo capacity evictions) need no special handling: there is
  no batched state to invalidate.  An ``on_sae="raise"`` SAE leaves
  the step at the same op with the same LLC state on either drive;
  the run then returns no result, so its partial clocks are never read.

*Memory.*  Per phase the replay holds two int lists per core - the
advance after each op-bearing access and the op-column offset its ops
end at - and walks the op stream's ``op_kinds``/``op_addrs`` columns by
offset, so no per-op Python object outlives its access and nothing
outlives the run.

``create_vector_replay`` returns ``(None, reason)`` whenever a
precondition fails; ``run_mix`` then keeps the per-access drive and
records the reason in ``MixResult.specialize_info``.
"""

from __future__ import annotations

import heapq
import sys
from typing import List, Optional, Tuple

import numpy as np

from ..common.errors import TraceError
from ..crypto.randomizer import splitmix_indices
from ..trace.compiled import trace_key
from .opstream import opstream_for


def _dyadic_grid_bits(value: float) -> Optional[int]:
    """log2 of the denominator of ``value``, or ``None`` if too fine.

    Every float is a dyadic rational; what matters for exactness is the
    grid: all increments must share a coarse 2^-g grid so their partial
    sums stay exactly representable.
    """
    den = float(value).as_integer_ratio()[1]
    bits = den.bit_length() - 1
    return bits if bits <= 20 else None


def _timing_exact(base_cpi: float, base_lats, dram_lats, mlp: float, traces) -> Optional[int]:
    """Grid bits ``g`` such that every clock increment is an exact
    multiple of ``2**-g`` and all partial sums stay below ``2**52``
    grid units, or ``None`` when no such grid exists.

    On success the replay runs its clocks as *integers* in grid units
    (exactly the per-access drive's float arithmetic, which never
    rounds under these preconditions); on failure ``run_mix`` keeps the
    per-access drive.
    """
    values = [base_cpi]
    values.extend(float(v) for v in base_lats)
    for v in dram_lats:
        quotient = float(v) / mlp
        if quotient * mlp != float(v):
            return None
        values.append(quotient)
    grid = 0
    for v in values:
        bits = _dyadic_grid_bits(v)
        if bits is None:
            return None
        grid = max(grid, bits)
    # gap * base_cpi must multiply exactly: gaps are uint32, so the
    # numerator of base_cpi must leave headroom under 2^53.
    if abs(float(base_cpi).as_integer_ratio()[0]) >= 1 << 21:
        return None
    # Total clock magnitude: sums of 2^-grid multiples are exact while
    # they stay below 2^(52-grid) (one guard bit of margin).
    worst_static = max(values[1:]) if len(values) > 1 else 0.0
    for t in traces:
        gap_sum = int(t.columns_numpy()[2].sum(dtype=np.int64))
        bound = gap_sum * base_cpi + len(t.gaps) * (worst_static + 1.0)
        if bound * (1 << grid) >= float(1 << 52):
            return None
    return grid


class VectorReplay:
    """Stage-2 replay state for one ``run_mix`` invocation.

    Constructed by :func:`create_vector_replay`; its
    :meth:`phase_scalar` is a drop-in replacement for the per-access
    ``phase(per_core)`` closure in ``run_mix`` (same
    ``clocks``/``instructions`` contract, warm-up then measurement).
    """

    def __init__(
        self,
        llc,
        dram,
        cores: int,
        base_cpi: float,
        base_lat_table,
        mlp: float,
        grid: int,
        streams,
        traces,
        clocks: List[float],
        instructions: List[int],
    ):
        self._llc = llc
        self._dram = dram
        self._cores = cores
        self._clocks = clocks
        self._instructions = instructions
        self._pos = [0] * cores
        self.info = {
            "engine": "scalar",
            "replay": "opstream-scalar",
            "numpy": np.__version__,
            "scalar_ops": 0,
        }
        # Integer clock domain: _timing_exact proved every increment is
        # an exact multiple of 2^-grid with all sums below 2^52 grid
        # units, so the replay runs clocks as ints (identical values to
        # the per-access drive's float fold, which never rounds either).
        # Heap keys pack the core id into the low bits, preserving the
        # per-access heap's (clock, core) tie-break with plain int
        # compares.
        scale = 1 << grid
        self._scale = scale
        self._inv_scale = 1.0 / scale
        self._cshift = max((cores - 1).bit_length(), 1)
        self._rh_i = int((float(dram._row_hit_cycles) / mlp) * scale)
        self._rm_i = int((float(dram._row_miss_cycles) / mlp) * scale)
        self._lat_rh = float(dram._row_hit_cycles)
        cpi_i = int(base_cpi * scale)
        lat_i = np.rint(base_lat_table * scale).astype(np.int64)
        # Per-core precomputed columns over the whole trace: exclusive
        # prefix sums of static clock advances (grid units) and of
        # instruction gaps, op-bearing access indices and op offsets,
        # plus the op kind/address columns the replay walks by offset.
        self._ext = []
        self._gext = []
        self._op_idx = []
        self._op_off = []
        self._oaddrs_np = []
        self._op_kinds = []
        self._op_addrs = []
        for trace, stream in zip(traces, streams):
            gaps_np = trace.columns_numpy()[2]
            n = len(gaps_np)
            # Read-only views (possibly straight over a shared mmap of
            # the cache file); every derived column below is a fresh
            # array, nothing writes through them.
            lat_np, counts_np, _, oaddrs_np = stream.columns_numpy()
            static = gaps_np.astype(np.int64) * cpi_i + lat_i[lat_np]
            ext = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(static, out=ext[1:])
            gext = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(gaps_np, dtype=np.int64, out=gext[1:])
            op_off = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts_np, dtype=np.int64, out=op_off[1:])
            self._ext.append(ext)
            self._gext.append(gext)
            self._op_idx.append(np.flatnonzero(counts_np))
            self._op_off.append(op_off)
            self._oaddrs_np.append(oaddrs_np)
            self._op_kinds.append(stream.op_kinds)
            self._op_addrs.append(stream.op_addrs)

    # -- batch set-index precompute ---------------------------------------

    def precompute_indices(self) -> int:
        """Batch-derive set indices for every address the replay can touch.

        The install paths consult the randomizer's precomputed side
        table only *after* counting the memo miss, so pre-filling it is
        observably free - and it moves the per-miss index derivation off
        the replay loop.  Splitmix mode runs the
        :func:`~repro.crypto.randomizer.splitmix_indices` batch kernel
        and installs the columns with ``load_packed``; PRINCE mode goes
        through ``bulk_map`` (the fused-table cipher kernel), which also
        skips addresses the ``run_mix`` pretranslation already covered.
        Designs without an ``index_randomizer`` (the set-indexed
        baseline) have nothing to fill.  Returns the number of entries
        installed.
        """
        rand = getattr(self._llc, "index_randomizer", None)
        if rand is None:
            return 0
        installed = 0
        for core, oaddrs in enumerate(self._oaddrs_np):
            if not len(oaddrs):
                continue
            unique = np.unique(oaddrs)
            if rand.algorithm == "splitmix":
                columns = splitmix_indices(unique, rand._mix_keys, rand.index_bits, sdid=core)
                installed += rand.load_packed(unique, columns, sdid=core)
            else:
                installed += rand.bulk_map(unique, sdid=core)
        return installed

    # -- per-phase runs -----------------------------------------------------

    def _runs(self, c: int, start: int, end: int):
        """Core ``c``'s op-bearing accesses among [start, end).

        Returns ``None`` when the window has no shared-state ops, else
        ``(lead, advs, ends, first)``: the grid-unit advance from the
        window start to the first op-bearing access, per-access
        advances to the next op-bearing access (or the window end), the
        op-column offset each access's ops end at, and the offset its
        first op starts at.  The ops of consecutive op-bearing accesses
        are adjacent in the op columns, so the replay walks them by
        offset and no per-op object outlives its access.
        """
        idx_all = self._op_idx[c]
        lo = int(np.searchsorted(idx_all, start))
        hi = int(np.searchsorted(idx_all, end))
        if lo == hi:
            return None
        k = idx_all[lo:hi]
        ext = self._ext[c]
        bounds = np.empty(len(k) + 1, dtype=np.int64)
        bounds[:-1] = k
        bounds[-1] = end
        advs = (ext[bounds[1:]] - ext[bounds[:-1]]).tolist()
        lead = int(ext[k[0]] - ext[start])
        off = self._op_off[c]
        return lead, advs, off[k + 1].tolist(), int(off[k[0]])

    # -- the replay loop --------------------------------------------------

    def phase_scalar(self, per_core: int) -> None:
        """One time-ordered phase executing every op through the live
        ``llc.access_fast`` step (plus the DRAM model).

        Advances every core's position/instruction counters, applies
        the whole-window static advance for cores with no shared-state
        ops, then merges the op-bearing accesses of the rest in the
        per-access drive's order (same packed-key heap, same integer
        clock grid).  Each op runs the cache's own step - the design's
        generated step where it has one - so the serial LLC state
        machine runs end to end while the private levels replay from
        the cached op streams.
        """
        count = max(1, per_core)
        cores = self._cores
        clocks = self._clocks
        scale = self._scale
        inv_scale = self._inv_scale
        cshift = self._cshift
        jpos = [0] * cores
        opos = [0] * cores
        adv_c: List[Optional[list]] = [None] * cores
        end_c: List[Optional[list]] = [None] * cores
        limit_c = [0] * cores
        heap = []
        for c in range(cores):
            start = self._pos[c]
            end = start + count
            self._pos[c] = end
            gext = self._gext[c]
            self._instructions[c] += int(gext[end] - gext[start]) + count
            runs = self._runs(c, start, end)
            if runs is None:
                # No shared-state ops this phase: the whole window is
                # one exact static advance.
                ext = self._ext[c]
                clocks[c] = clocks[c] + int(ext[end] - ext[start]) * inv_scale
                continue
            lead, adv_c[c], end_c[c], opos[c] = runs
            limit_c[c] = len(adv_c[c])
            heap.append(((int(clocks[c] * scale) + lead) << cshift) | c)
        heapq.heapify(heap)
        heappop, heappush = heapq.heappop, heapq.heappush
        cmask = (1 << cshift) - 1
        llc = self._llc
        access_fast = llc.access_fast
        dram_access = self._dram.access
        rh_i = self._rh_i
        rm_i = self._rm_i
        lat_rh = self._lat_rh
        op_kinds = self._op_kinds
        op_addrs = self._op_addrs
        n_ops = 0
        while heap:
            hk = heappop(heap)
            c = hk & cmask
            j = jpos[c]
            o = opos[c]
            advs = adv_c[c]
            ends = end_c[c]
            kinds = op_kinds[c]
            addrs = op_addrs[c]
            limit = limit_c[c]
            while True:
                d = 0
                e = ends[j]
                n_ops += e - o
                while o < e:
                    kind = kinds[o]
                    a = addrs[o]
                    o += 1
                    if kind:
                        flags = access_fast(a, False, c, False, c)
                        if flags & 4:  # ACC_EVICTED_DIRTY
                            dram_access(llc.victim_addr, True, None)
                        if not flags & 1:  # ACC_HIT
                            lat = dram_access(a, False, None)
                            if kind == 2:
                                # Reads return exactly the row-hit or
                                # row-miss cycles.
                                d += rh_i if lat == lat_rh else rm_i
                    else:
                        flags = access_fast(a, False, c, True, c)
                        if flags & 4:
                            dram_access(llc.victim_addr, True, None)
                nk = hk + ((advs[j] + d) << cshift)
                j += 1
                if j < limit:
                    if not heap or nk < heap[0]:
                        hk = nk
                        continue
                    jpos[c] = j
                    opos[c] = o
                    heappush(heap, nk)
                else:
                    clocks[c] = (nk >> cshift) * inv_scale
                break
        self.info["scalar_ops"] += n_ops


def create_vector_replay(
    llc,
    hierarchy,
    config,
    mix,
    traces,
    seed,
    region: int,
    clocks: List[float],
    instructions: List[int],
    model_bandwidth: bool,
    enable_prefetch: bool,
) -> Tuple[Optional[VectorReplay], str]:
    """Build a :class:`VectorReplay`, or explain why it cannot run.

    Every gate below names a precondition the replay relies on; failing
    any of them returns ``(None, reason)`` and ``run_mix`` keeps the
    per-access drive, recording the reason in
    ``MixResult.specialize_info``.
    """
    from ..common.rng import derive_seed

    # Only the LLC and DRAM stay live, driven through the
    # ``access_fast`` step protocol (which the hierarchy requires),
    # whose constant lookup latency folds into the static clock
    # advances.
    if sys.byteorder != "little":
        return None, "big-endian host (packed columns are little-endian)"
    if model_bandwidth:
        # Each queued read's delay, divided by the MLP factor, adds a
        # fractional clock bit: no fixed integer grid holds the clocks.
        return None, "model_bandwidth=True needs per-access DRAM clocks"
    lat = config.latencies
    llc_fast = lat.llc_cycles + llc.extra_lookup_latency
    base_lats = [
        float(lat.l1_cycles),
        float(lat.l1_cycles + lat.l2_cycles),
        float(lat.l1_cycles + lat.l2_cycles + llc_fast),
    ]
    dram = hierarchy.dram
    dram_lats = [float(dram._row_hit_cycles), float(dram._row_miss_cycles)]
    mlp = hierarchy.mlp_factor
    grid = _timing_exact(config.base_cpi, base_lats, dram_lats, mlp, traces)
    if grid is None:
        return None, "timing constants do not admit exact float summation"
    llc_lines = config.llc_geometry.lines
    length = len(traces[0]) if traces else 0
    prefetcher = None
    if enable_prefetch:
        probe = hierarchy.prefetchers[0]
        prefetcher = (probe.degree, probe.confidence_threshold, probe.max_confidence)
    streams = []
    try:
        for core_id, bench in enumerate(mix.assignments):
            streams.append(
                opstream_for(
                    traces[core_id],
                    trace_key(bench, llc_lines, derive_seed(seed, 100 + core_id), length),
                    core_id * region,
                    config.l1d_geometry,
                    config.l2_geometry,
                    prefetcher,
                )
            )
    except TraceError as exc:
        return None, f"op-stream build failed: {exc}"
    replay = VectorReplay(
        llc,
        dram,
        mix.cores,
        config.base_cpi,
        np.asarray(base_lats, dtype=np.float64),
        mlp,
        grid,
        streams,
        traces,
        clocks,
        instructions,
    )
    replay.precompute_indices()
    return replay, "ok"
