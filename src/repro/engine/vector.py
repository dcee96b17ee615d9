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

**The kernel.**  The merge loop is generated code: one template
(:data:`_KERNEL`), compiled once per step configuration per process,
with one op slot that :func:`repro.common.codegen.bind_kernel` renders
in one of two forms (the attack harnesses' sweep kernel,
:func:`repro.llc.interface.access_lines`, renders through the same
function):

* *inline* - when the installed ``access_fast`` is a library design's
  generated step, the slot is that step's body, taken from the source
  codegen compiled the step from.  Each ``return X`` becomes
  ``flags = X`` and an exit from the op, and the kernel binds the
  values the step's closure binds (for the baseline, its inner array's
  columns; CEASER's body keeps its call into the inner array's step).
  A body with a ``return`` inside a loop, or one that assigns or reads
  a name the kernel itself uses, is refused and takes the call form.
* *call* - anything else installed as ``access_fast`` (the partitioned
  LLCs' slice router, a reference model behind ``AccessFastAdapter``,
  a wrapper) is called once per op.

The DRAM model gets the same two forms: a model running
``DramModel.access`` itself renders its ``now=None`` rule inline from
the snippets next to that method (:mod:`repro.hierarchy.dram`), and a
replaced ``access`` is called.  ``engine_info`` names the op form taken
(``kernel``, with ``kernel_reason`` for the call form) and the DRAM
form (``kernel_dram``); :func:`kernel_info` counts the kernels taken in
this process.

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
* *Inlining.*  The inline form runs the step's own statements with the
  same argument values, on the same bound objects, in the same order
  as the call; a ``return`` only ends the op.  The inline DRAM rule is
  ``DramModel.access``'s ``now=None`` path statement for statement; a
  DRAM write's address is unused when ``now`` is None, so the inline
  write only counts it.  The DRAM counters are kernel locals added to
  the model in a ``finally`` at the end of each phase, so a step that
  raises mid-phase leaves the model counted as a call would have.

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

import functools
import heapq
import sys
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from ..common import codegen
from ..common.errors import TraceError
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


# -- the replay kernel ------------------------------------------------------

# One phase of the merge: pop the core with the smallest packed
# (clock, core) key, run the ops of its op-bearing accesses, and keep
# that core while its next key still beats the heap's top; else swap
# it for the top in one ``heapreplace`` (keys are distinct, so the pop
# order is the same as a push then a pop).  ``{OP}`` sets ``flags``
# (ACC literals: HIT=1, EVICTED|DIRTY=4) for the op at ``line_addr``;
# the DRAM read sets ``hit``.  Op kinds: 0 writeback, 1 prefetch,
# 2 demand read (repro.engine.opstream.OP_*); a demand read's DRAM
# latency is exactly the row-hit or the row-miss cycles.
_KERNEL = '''\
# Generated by repro.engine.vector; do not edit.
# kind=replay op={OP_FORM} dram={DRAM_FORM}
import heapq


def _bind(bound, SimulationError, SetAssociativeEviction):
{BINDINGS}
    def replay_kernel(heap, jpos, opos, runs, clocks, cshift, inv_scale, rh_i, rm_i,
                      replay_llc, access_fast, dram):
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        cmask = (1 << cshift) - 1
        is_write = False
{DRAM_BIND}
        try:
            hk = heappop(heap) if heap else -1
            while hk >= 0:
                c = hk & cmask
                j = jpos[c]
                o = opos[c]
                advs, ends, kinds, addrs, limit = runs[c]
                core_id = sdid = c
                while True:
                    d = 0
                    e = ends[j]
                    while o < e:
                        kind = kinds[o]
                        line_addr = addrs[o]
                        o += 1
                        is_writeback = not kind
{OP}
                        if flags & 4:
{DRAM_WRITE}
                        if kind and not flags & 1:
{DRAM_READ}
                            if kind == 2:
                                d += rh_i if hit else rm_i
                    nk = hk + ((advs[j] + d) << cshift)
                    j += 1
                    if j < limit:
                        if not heap or nk < heap[0]:
                            hk = nk
                            continue
                        jpos[c] = j
                        opos[c] = o
                        hk = heapreplace(heap, nk)
                    else:
                        clocks[c] = (nk >> cshift) * inv_scale
                        hk = heappop(heap) if heap else -1
                    break
        finally:
{DRAM_FLUSH}

    return replay_kernel
'''

#: The DRAM slots' call form: the model's ``access`` with ``now=None``.
_DRAM_CALLS = {
    "BIND": "dram_access = dram.access\nlat_rh = float(dram._row_hit_cycles)\n",
    "READ": "hit = dram_access(line_addr, False, None) == lat_rh\n",
    "WRITE": "dram_access(replay_llc.victim_addr, True, None)\n",
    "FLUSH": "pass\n",
}

#: Process counters of the kernels taken, by op form.
_KERNELS = {"inline": 0, "call": 0}


def kernel_info() -> Dict[str, int]:
    """How many replays took each op form in this process."""
    return dict(_KERNELS)


def _dram_slots(inline: bool) -> Dict[str, str]:
    if not inline:
        return _DRAM_CALLS
    from ..hierarchy.dram import DramModel

    return {
        "BIND": DramModel.KERNEL_BIND,
        "READ": DramModel.KERNEL_READ,
        "WRITE": DramModel.KERNEL_WRITE,
        "FLUSH": DramModel.KERNEL_FLUSH,
    }


def _render_kernel(op: str, op_form: str, bindings: Tuple[str, ...], dram_inline: bool) -> str:
    dram = _dram_slots(dram_inline)
    indent = codegen._indent
    return _KERNEL.format(
        OP_FORM=op_form,
        DRAM_FORM="inline" if dram_inline else "call",
        BINDINGS="".join(f"    {name} = bound[{name!r}]\n" for name in bindings),
        OP=indent(op, 24),
        DRAM_BIND=indent(dram["BIND"], 8),
        DRAM_WRITE=indent(dram["WRITE"], 28),
        DRAM_READ=indent(dram["READ"], 28),
        DRAM_FLUSH=indent(dram["FLUSH"], 12),
    )


@functools.lru_cache(maxsize=None)
def _kernel_names() -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """The names the kernel binds, and every name it binds or reads,
    outside the op slot, under either DRAM form."""
    return codegen.kernel_names(*(
        _render_kernel(codegen.CALL_OP, "call", (), dram_inline) for dram_inline in (False, True)
    ))


def _bind_kernel(access_fast, dram_inline: bool) -> Tuple[object, Optional[str]]:
    """The replay kernel for ``access_fast``, and the reason it calls
    the step rather than inlining it (``None`` when it inlines)."""
    return codegen.bind_kernel(
        "replay",
        access_fast,
        lambda op, op_form, bindings: _render_kernel(op, op_form, bindings, dram_inline),
        _kernel_names(),
        (dram_inline,),
    )


class VectorReplay:
    """Stage-2 replay state for one ``run_mix`` invocation.

    Constructed by :func:`create_vector_replay`; its
    :meth:`phase_scalar` is a drop-in replacement for the per-access
    ``phase(per_core)`` closure in ``run_mix`` (same
    ``clocks``/``instructions`` contract, warm-up then measurement).
    The kernel is chosen once, from the ``access_fast`` installed on
    the LLC and the DRAM model's ``access`` at construction.
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
        from ..hierarchy.dram import runs_own_access

        self._llc = llc
        self._dram = dram
        self._cores = cores
        self._clocks = clocks
        self._instructions = instructions
        self._pos = [0] * cores
        self._access_fast = llc.access_fast
        dram_inline = runs_own_access(dram)
        self._kernel, reason = _bind_kernel(self._access_fast, dram_inline)
        form = "call" if reason else "inline"
        _KERNELS[form] += 1
        self.info = {
            "engine": "scalar",
            "replay": "opstream-scalar",
            "numpy": np.__version__,
            "scalar_ops": 0,
            "kernel": form,
            "kernel_reason": reason,
            "kernel_dram": "inline" if dram_inline else "call",
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

        Each core's distinct op addresses go to the design's
        :meth:`~repro.llc.interface.LLCache.premap` under the core's
        SDID, which loads the randomizer's side table keyed by the SDID
        the design's hash uses, in one numpy pass (splitmix) or through
        the cipher batch kernel (PRINCE, which also skips addresses the
        ``run_mix`` pretranslation already covered).  The install paths
        consult that table only *after* counting the memo miss, so
        pre-filling it is observably free - and it moves the per-miss
        index derivation off the replay loop.  A design that derives no
        indices through a side table (the set-indexed baseline, CEASER,
        the references) loads nothing.  Returns the number of entries
        installed.
        """
        if self._llc.index_randomizer is None:
            return 0
        installed = 0
        for core, oaddrs in enumerate(self._oaddrs_np):
            if len(oaddrs):
                installed += self._llc.premap(np.unique(oaddrs), core)
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

    # -- one phase ----------------------------------------------------------

    def phase_scalar(self, per_core: int) -> None:
        """One time-ordered phase executing every op through the LLC's
        step (plus the DRAM model), in the replay kernel.

        Advances every core's position/instruction counters, applies
        the whole-window static advance for cores with no shared-state
        ops, then hands the op-bearing accesses of the rest to the
        kernel, which merges them in the per-access drive's order (same
        packed-key heap, same integer clock grid) and runs each op
        through the design's step, inline or called.
        """
        count = max(1, per_core)
        cores = self._cores
        clocks = self._clocks
        scale = self._scale
        inv_scale = self._inv_scale
        cshift = self._cshift
        jpos = [0] * cores
        opos = [0] * cores
        runs_c: List[Optional[tuple]] = [None] * cores
        heap = []
        n_ops = 0
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
            lead, advs, ends, opos[c] = runs
            runs_c[c] = (advs, ends, self._op_kinds[c], self._op_addrs[c], len(advs))
            n_ops += ends[-1] - opos[c]
            heap.append(((int(clocks[c] * scale) + lead) << cshift) | c)
        heapq.heapify(heap)
        self._kernel(
            heap, jpos, opos, runs_c, clocks, cshift, inv_scale, self._rh_i, self._rm_i,
            self._llc, self._access_fast, self._dram,
        )
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
