"""Trace-driven multi-core simulation and the weighted-speedup metric.

``run_mix`` drives one workload mix through a hierarchy: every core
gets its own (rebased) access stream, cores interleave in simulated
time order - the core with the smallest local clock issues next, so a
core slowed by misses naturally issues fewer accesses, exactly the
coupling that creates inter-core LLC interference - and statistics are
collected after a warm-up phase, following the paper's methodology
(200M warm-up + 200M measured instructions per core, scaled down).

Every run replays :class:`~repro.trace.compiled.CompiledTrace` packed
columns, and the run picks its drive: the op-stream replay
(:mod:`repro.engine.vector`), where the private levels come from
cached per-core op streams and only the LLC/DRAM ops are replayed,
unless the replay declines an input it cannot replay exactly; only
then does the per-access drive loop (:func:`_drive_compiled`) walk
every access through the hierarchy.  Both run each design's one
generated step and produce bit-identical results; the test suite keeps
the per-access loop as the replay's differential oracle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..common.config import SystemConfig
from ..common.rng import derive_seed
from ..engine import vector
from ..engine.specialize import apply_specialization
from ..llc.interface import LLCache
from ..trace.compiled import compile_workload
from ..trace.mixes import Mix
from ..trace.translated import translate_trace
from .system import CacheHierarchy


@dataclass
class CoreResult:
    """Per-core outcome of a simulation."""

    benchmark: str
    instructions: int
    cycles: float

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


@dataclass
class MixResult:
    """Outcome of one mix on one LLC design."""

    mix_name: str
    cores: List[CoreResult]
    llc_mpki: float
    llc_dead_fraction: float
    llc_interference_fraction: float
    llc_saes: int
    llc_tag_only_hits: int
    #: Randomizer mapping-cache hit rate over the measured window
    #: (0.0 for designs without a randomizer/mapping cache).
    llc_randomizer_hit_rate: float = 0.0
    #: Always ``"scalar"``, the only engine; kept for existing readers.
    engine: str = "scalar"
    #: Op-stream replay counters (numpy version, ``scalar_ops``: the
    #: LLC ops replayed) and the replay kernel taken (``kernel``:
    #: ``"inline"`` or ``"call"``, ``kernel_reason`` for the call form,
    #: ``kernel_dram`` for the DRAM model's form) when the replay drove
    #: the run, else ``None``.  Diagnostic only.
    engine_info: Optional[dict] = None
    #: Drive provenance (:mod:`repro.engine.specialize`), a dict: the
    #: design whose step was installed on the LLC (``llc``, or the
    #: ``llc_reason`` it has none) and the ``replay`` taken
    #: (``"opstream-scalar"``, or ``None`` with the ``replay_reason``
    #: it declined).  Diagnostic only - never part of canonical results.
    specialize_info: dict = field(default_factory=dict)

    @property
    def total_instructions(self) -> int:
        return sum(c.instructions for c in self.cores)

    @property
    def ipcs(self) -> List[float]:
        return [c.ipc for c in self.cores]


def _drive_compiled(
    hierarchy_access,
    columns: List[tuple],
    positions: List[int],
    clocks: List[float],
    instructions: List[int],
    base_cpi: float,
    per_core: int,
    model_bandwidth: bool,
) -> None:
    """One time-ordered phase over packed columns (the batched loop).

    Replays ``per_core`` records per core with plain integer indexing:
    no generator resumes, no ``MemoryAccess`` construction, bound
    methods hoisted out of the loop.  ``positions`` carries each core's
    cursor across phases (warm-up then measurement).
    """
    cores = range(len(columns))
    limits = [positions[c] + per_core for c in cores]
    heap = [(clocks[c], c) for c in cores]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    while heap:
        _, c = heappop(heap)
        addrs, writes, gaps, offset = columns[c]
        i = positions[c]
        latency = hierarchy_access(
            c, addrs[i] + offset, writes[i] != 0, clocks[c] if model_bandwidth else None
        )
        gap = gaps[i]
        clock = clocks[c] + gap * base_cpi + latency
        clocks[c] = clock
        instructions[c] += gap + 1
        positions[c] = i = i + 1
        if i < limits[c]:
            heappush(heap, (clock, c))


#: The randomizer algorithms whose mappings ``run_mix`` translates ahead
#: of time: PRINCE's per-miss cipher pass dominates a cold trial, while
#: the splitmix mixer is cheaper than the side-table consult.
PRETRANSLATED = frozenset({"prince"})


def _pretranslate(llc, traces, region: int) -> None:
    """Ahead-of-time index translation of every line ``traces`` can touch.

    Each core's distinct lines go through the randomizer's batch cipher
    kernel in one numpy pass, and the per-skew index columns are
    installed in its side table, keyed by the SDID the design's hash
    uses for that core (:meth:`~repro.llc.interface.LLCache.hash_sdid`)
    - the table :meth:`~repro.llc.interface.LLCache.premap` loads.  The
    columns persist in the on-disk translated-trace cache, keyed by
    address-set content x key fingerprint x SDID, so warm trials skip
    the cipher.  Nothing is translated for a design whose hash SDID is
    ``None`` (its steps read no side table) or whose randomizer is not
    in :data:`PRETRANSLATED`.  From the first ``rekey()`` (e.g. an
    SAE-triggered remap) the side table is dropped with the old keys
    and lookups fall back to the live randomizer.
    """
    randomizer = llc.index_randomizer
    if randomizer is None or randomizer.algorithm not in PRETRANSLATED:
        return
    for core_id, trace in enumerate(traces):
        sdid = llc.hash_sdid(core_id)
        if sdid is None:
            return
        translated = translate_trace(randomizer, trace, sdid=sdid, offset=core_id * region)
        randomizer.load_packed(translated.line_addrs, translated.columns, sdid=sdid)


def run_mix(
    llc: LLCache,
    mix: Mix,
    config: Optional[SystemConfig] = None,
    accesses_per_core: int = 20_000,
    warmup_accesses: int = 10_000,
    seed: Optional[int] = None,
    enable_prefetch: bool = True,
    model_bandwidth: bool = False,
) -> MixResult:
    """Simulate ``mix`` over ``llc``; returns per-core IPCs + LLC stats.

    The per-core address spaces are disjoint (each core's stream is
    rebased into its own region), so all sharing happens through cache
    capacity, which is the effect under study.  ``model_bandwidth``
    turns on DRAM channel-occupancy queueing (cores' clocks feed the
    controller), which matters for bandwidth-bound streaming mixes.

    Compiled traces, translated index columns and op streams come from
    the artifact cache (:class:`repro.store.ArtifactCache`);
    ``REPRO_TRACE_CACHE=0`` turns it off, so every artifact this call
    needs is rebuilt and nothing is kept.

    Before the run, the LLC's mappings are translated ahead of time
    (:func:`_pretranslate`) when that pays.  Results and memo counters
    are unchanged either way.

    The run picks its drive.  It takes the op-stream replay
    (:mod:`repro.engine.vector`): the private levels come from the
    cached per-core op streams, which do not depend on the LLC design,
    and every LLC-bearing op runs the design's own ``access_fast`` step
    in the per-access drive's order.  The replay declines only inputs
    it cannot replay exactly - ``model_bandwidth=True``, timing
    constants off a fixed integer clock grid, a failed op-stream build,
    a big-endian host - and only then does the per-access drive loop
    run.  Results are bit-identical either way (the test suite holds
    the replay to that loop); the drive taken - ``replay``, or the
    ``replay_reason`` it declined - lands in
    ``MixResult.specialize_info``, and the replay's counters in
    ``MixResult.engine_info``, never in canonical results.

    Both drives run each design's one generated step.  The LLC's step
    is installed through a releasable ``Specialization`` after the
    hierarchy is built, and the private levels bind theirs on first
    access; the run drops every one of them when it ends, also when it
    raises, so it hands the caller's LLC back as it was built and
    leaves no reference cycle behind.
    """
    engine_info: Optional[dict] = None
    config = config or SystemConfig(cores=mix.cores)
    if config.cores < mix.cores:
        raise ValueError(f"mix {mix.name} needs {mix.cores} cores, config has {config.cores}")
    hierarchy = CacheHierarchy(llc, config, enable_prefetch=enable_prefetch)
    specialization, specialize_info = apply_specialization(llc)
    cores = mix.cores
    clocks = [0.0] * cores
    instructions = [0] * cores
    try:
        llc_lines = config.llc_geometry.lines
        # Per-core regions are huge (no overlap) and deliberately not a
        # multiple of any set count, so different cores' identical access
        # patterns land on different baseline sets - as distinct physical
        # allocations would.
        region = (1 << 34) + 997
        base_cpi = config.base_cpi
        # The measurement phase issues max(1, accesses_per_core) records
        # per core (the drive loop steps each core at least once), so the
        # compiled trace must cover exactly that many plus warm-up.
        length = warmup_accesses + max(1, accesses_per_core)
        traces = [
            compile_workload(
                bench,
                llc_lines,
                length,
                seed=derive_seed(seed, 100 + core_id),
            )
            for core_id, bench in enumerate(mix.assignments)
        ]
        _pretranslate(llc, traces, region)

        # The replay runs every op through the LLC's own ``access_fast``
        # step while the private levels come from the pre-simulated op
        # streams.  Looked up on its module at call time, so a test can
        # make it decline and hold the replay to the per-access drive.
        replay, reason = vector.create_vector_replay(
            llc, hierarchy, config, mix, traces, seed, region,
            clocks, instructions, model_bandwidth, enable_prefetch,
        )
        if replay is not None:
            specialize_info["replay"] = "opstream-scalar"
            specialize_info["replay_reason"] = None
            engine_info = replay.info
            phase = replay.phase_scalar
        else:
            specialize_info["replay"] = None
            specialize_info["replay_reason"] = reason
            hierarchy_access = hierarchy.access  # bound once; hot loop below
            columns: List[tuple] = [
                (trace.line_addrs, trace.write_flags, trace.gaps, core_id * region)
                for core_id, trace in enumerate(traces)
            ]
            positions = [0] * cores

            def phase(per_core: int) -> None:
                _drive_compiled(
                    hierarchy_access, columns, positions, clocks, instructions,
                    base_cpi, per_core, model_bandwidth,
                )

        # Warm-up: run every core for `warmup_accesses`, time-ordered.
        if warmup_accesses > 0:
            phase(warmup_accesses)

        # Reset statistics and clocks, keep cache contents (warm caches).
        hierarchy.reset_stats()
        clocks[:] = [0.0] * cores
        instructions[:] = [0] * cores

        phase(accesses_per_core)

        llc.refresh_mapping_cache_stats()
    finally:
        # Drop the installed step functions, also when the run raised:
        # the generated closures hold references back to their caches,
        # and dropping the instance bindings keeps per-trial bench loops
        # refcount-clean and hands the caller's LLC back as it was built
        # (a later access binds the same step again).
        specialization.release()
        # The hierarchy is done; break its compiled-access reference
        # cycle and drop the private levels' self-bound steps, so this
        # trial's working set (mapping memos, trace columns, tag state)
        # frees by refcount when the caller drops `llc` instead of piling
        # up for the cyclic GC across a bench trial loop.
        hierarchy.release()
    stats = llc.stats
    total_instructions = sum(instructions)
    core_results = [
        CoreResult(
            benchmark=mix.assignments[c], instructions=instructions[c], cycles=clocks[c]
        )
        for c in range(cores)
    ]
    return MixResult(
        mix_name=mix.name,
        cores=core_results,
        llc_mpki=stats.mpki(total_instructions) if total_instructions else 0.0,
        llc_dead_fraction=stats.dead_block_fraction,
        llc_interference_fraction=stats.interference_fraction,
        llc_saes=stats.saes,
        llc_tag_only_hits=stats.tag_only_hits,
        llc_randomizer_hit_rate=stats.randomizer_hit_rate,
        engine_info=engine_info,
        specialize_info=specialize_info,
    )


def weighted_speedup(shared_ipcs: Sequence[float], alone_ipcs: Sequence[float]) -> float:
    """Snavely & Tullsen weighted speedup: sum of IPC_shared / IPC_alone."""
    if len(shared_ipcs) != len(alone_ipcs):
        raise ValueError("need one alone-IPC per core")
    if any(ipc <= 0 for ipc in alone_ipcs):
        raise ValueError("alone IPCs must be positive")
    return sum(s / a for s, a in zip(shared_ipcs, alone_ipcs))


def normalized_weighted_speedup(
    design: MixResult, baseline: MixResult, alone_ipcs: Optional[Sequence[float]] = None
) -> float:
    """Design weighted speedup normalized to the baseline's (Figs. 9-10).

    When ``alone_ipcs`` is omitted the baseline mix's own per-core IPCs
    serve as the alone reference, which cancels in the ratio for
    homogeneous mixes and is a close proxy for heterogeneous ones.
    """
    reference = list(alone_ipcs) if alone_ipcs is not None else baseline.ipcs
    return weighted_speedup(design.ipcs, reference) / weighted_speedup(baseline.ipcs, reference)
