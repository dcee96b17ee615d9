"""The multi-core cache hierarchy.

Per core: an L1D and an L2 (LRU, non-inclusive).  Shared: any
:class:`~repro.llc.interface.LLCache` design and the DRAM model.  The
demand path charges latency level by level (Table V values); dirty
evictions ripple down as posted writebacks that cost no demand latency.

The timing model is *stall accounting*, not cycle-accurate OoO: each
access's latency is divided by an MLP factor that stands in for the
overlap an out-of-order core extracts.  This preserves exactly what the
paper's comparisons measure - relative miss counts times relative
latencies - at Python-friendly speed (see DESIGN.md "Substitutions").

The demand path runs on the allocation-free ``access_fast`` protocol
(``ACC_*`` flag ints + ``victim_*`` fields) end to end when the LLC
design provides it; designs that only implement the object
:class:`~repro.cache.line.AccessResult` API (and may charge a
*variable* ``extra_latency``) are driven through it unchanged.
"""

from __future__ import annotations

from typing import List, Optional

from ..cache.line import ACC_EVICTED, ACC_EVICTED_DIRTY, ACC_HIT
from ..cache.set_assoc import SetAssociativeCache
from ..common.config import SystemConfig
from ..llc.interface import LLCache
from .directory import CoherenceDirectory
from .dram import DramModel
from .prefetcher import StridePrefetcher
from .tlb import TlbHierarchy


class CacheHierarchy:
    """L1D + L2 per core over a shared LLC and DRAM."""

    def __init__(
        self,
        llc: LLCache,
        config: Optional[SystemConfig] = None,
        enable_prefetch: bool = True,
        enable_tlb: bool = False,
        enable_coherence: bool = False,
        mlp_factor: float = 2.0,
    ):
        """``enable_tlb`` adds Table V's two-level TLB in front of every
        demand access.  Translation latency is identical across LLC
        designs, so the comparative experiments leave it off by
        default; switch it on for absolute-IPC studies.

        ``enable_coherence`` activates the MOESI directory over the
        private levels: cross-core writes invalidate other cores'
        copies and reads downgrade modified owners.  The standard
        experiments run disjoint per-core address spaces where the
        directory never fires; shared-memory scenarios need it."""
        self.config = config or SystemConfig()
        self.llc = llc
        # Engines exposing access_fast promise a *constant*
        # extra_lookup_latency, so the fast path can charge it without
        # materializing an AccessResult.  Anything else goes through
        # the object API and its per-access extra_latency.
        self._fast_llc = hasattr(llc, "access_fast")
        if mlp_factor < 1.0:
            raise ValueError("MLP factor cannot be below 1 (no negative overlap)")
        self.mlp_factor = mlp_factor
        cores = self.config.cores
        self.l1 : List[SetAssociativeCache] = [
            SetAssociativeCache(self.config.l1d_geometry, policy="lru", name=f"L1D[{c}]")
            for c in range(cores)
        ]
        self.l2: List[SetAssociativeCache] = [
            SetAssociativeCache(self.config.l2_geometry, policy="lru", name=f"L2[{c}]")
            for c in range(cores)
        ]
        self.prefetchers: List[Optional[StridePrefetcher]] = [
            StridePrefetcher() if enable_prefetch else None for _ in range(cores)
        ]
        self.tlbs: List[Optional[TlbHierarchy]] = [
            TlbHierarchy() if enable_tlb else None for _ in range(cores)
        ]
        self.directory: Optional[CoherenceDirectory] = (
            CoherenceDirectory(cores) if enable_coherence else None
        )
        self.dram = DramModel(self.config.dram)
        # Per-level latency constants, hoisted off the config dataclass
        # (read on every access).
        lat = self.config.latencies
        self._l1_cycles = float(lat.l1_cycles)
        self._l2_cycles = lat.l2_cycles
        self._llc_cycles = lat.llc_cycles
        # The demand path is compiled into a closure: every collaborator
        # lives in a closure cell instead of behind a self.X attribute
        # chain, which removes ~15 attribute loads per access.  The
        # hierarchy is immutable after construction (nothing rebinds
        # self.llc / self.l1 / ...), so the captured references stay
        # authoritative; the differential and hierarchy tests pin the
        # behaviour.
        self.access = self._compile_access()

    # -- demand path -----------------------------------------------------------

    def _compile_access(self):
        """Build ``access(core_id, line_addr, is_write, now)``.

        One demand access; returns the core-visible latency in cycles.
        ``now`` (the issuing core's clock) enables the DRAM bandwidth
        model; left as ``None``, memory bandwidth is unmodelled.
        """
        l1s = self.l1
        l2s = self.l2
        prefetchers = self.prefetchers
        tlbs = self.tlbs
        directory = self.directory
        llc = self.llc
        fast_llc = self._fast_llc
        dram_access = self.dram.access
        l1_cycles = self._l1_cycles
        l2_cycles = self._l2_cycles
        llc_cycles = self._llc_cycles
        # access_fast engines promise a constant extra lookup latency,
        # so it folds into the per-level charge once.
        llc_fast_cycles = llc_cycles + (llc.extra_lookup_latency if fast_llc else 0)
        mlp_factor = self.mlp_factor
        writeback_to_l2 = self._writeback_to_l2
        writeback_to_llc = self._writeback_to_llc
        prefetch_fill = self._prefetch
        coherence_actions = self._coherence_actions
        note_private_eviction = self._note_private_eviction
        spill_to_dram = self._spill_to_dram

        def access(core_id, line_addr, is_write=False, now=None):
            latency = l1_cycles
            tlb = tlbs[core_id]
            if tlb is not None:
                latency += tlb.translate(line_addr)
            if directory is not None:
                coherence_actions(core_id, line_addr, is_write, now)
            l1 = l1s[core_id]
            f1 = l1.access_fast(line_addr, is_write, core_id)
            if f1 & ACC_EVICTED:
                v1_addr = l1.victim_addr
                if f1 & ACC_EVICTED_DIRTY:
                    writeback_to_l2(core_id, v1_addr, now)
                if directory is not None:
                    note_private_eviction(core_id, v1_addr)
            # Train on the demand stream (as PC-indexed IPCP effectively
            # does); issuing is cheap because already-resident targets
            # short-circuit in _prefetch.  StridePrefetcher.observe() is
            # inlined here - one call per demand access - with identical
            # state updates and prefetch order.
            prefetcher = prefetchers[core_id]
            if prefetcher is not None:
                last = prefetcher._last_addr
                if last < 0:
                    prefetcher._last_addr = line_addr
                else:
                    stride = line_addr - last
                    if stride != 0 and stride == prefetcher._last_stride:
                        conf = prefetcher._confidence + 1
                        if conf > prefetcher.max_confidence:
                            conf = prefetcher.max_confidence
                    else:
                        conf = prefetcher._confidence - 1
                        if conf < 0:
                            conf = 0
                        prefetcher._last_stride = stride
                    prefetcher._confidence = conf
                    prefetcher._last_addr = line_addr
                    stride = prefetcher._last_stride
                    if conf >= prefetcher.confidence_threshold and stride != 0:
                        issued = 0
                        target = line_addr
                        for _ in range(prefetcher.degree):
                            target += stride
                            if target >= 0:
                                issued += 1
                                prefetch_fill(core_id, target, now)
                        prefetcher.issued += issued
            if f1 & ACC_HIT:
                return latency

            latency += l2_cycles
            l2 = l2s[core_id]
            f2 = l2.access_fast(line_addr, False, core_id)
            if f2 & ACC_EVICTED:
                v2_addr = l2.victim_addr
                if f2 & ACC_EVICTED_DIRTY:
                    writeback_to_llc(core_id, v2_addr, now)
                if directory is not None:
                    note_private_eviction(core_id, v2_addr)
            if f2 & ACC_HIT:
                return latency

            if fast_llc:
                f3 = llc.access_fast(line_addr, False, core_id, False, core_id)
                latency += llc_fast_cycles
                if f3 & ACC_EVICTED_DIRTY:
                    dram_access(llc.victim_addr, True, now)
                if not f3 & ACC_HIT:
                    latency += dram_access(line_addr, False, now) / mlp_factor
                return latency
            r3 = llc.access(line_addr, core_id=core_id, sdid=core_id)
            latency += llc_cycles + r3.extra_latency
            spill_to_dram(r3.evicted, now)
            if not r3.hit:
                latency += dram_access(line_addr, False, now) / mlp_factor
            return latency

        return access

    def _prefetch(self, core_id: int, line_addr: int, now: Optional[float] = None) -> None:
        """Prefetch into L1/L2 (no latency charged; fills are real)."""
        l1 = self.l1[core_id]
        if line_addr in l1._where:  # contains(), sans the call (hot path)
            return
        f1 = l1.access_fast(line_addr, False, core_id)
        if f1 & ACC_EVICTED_DIRTY:
            self._writeback_to_l2(core_id, l1.victim_addr, now)
        l2 = self.l2[core_id]
        f2 = l2.access_fast(line_addr, False, core_id)
        if f2 & ACC_EVICTED_DIRTY:
            self._writeback_to_llc(core_id, l2.victim_addr, now)
        if not f2 & ACC_HIT:
            llc = self.llc
            if self._fast_llc:
                f3 = llc.access_fast(line_addr, False, core_id, False, core_id)
                if f3 & ACC_EVICTED_DIRTY:
                    self.dram.access(llc.victim_addr, True, now)
                if not f3 & ACC_HIT:
                    self.dram.access(line_addr, False, now)
            else:
                r3 = llc.access(line_addr, core_id=core_id, sdid=core_id)
                self._spill_to_dram(r3.evicted, now)
                if not r3.hit:
                    self.dram.access(line_addr, now=now)

    # -- coherence ----------------------------------------------------------------

    def _coherence_actions(self, core_id: int, line_addr: int, is_write: bool, now) -> None:
        """Apply directory protocol actions before the private lookup.

        Invalidation and downgrade both drop the remote private copies
        (a functional simplification of downgrade-to-shared); dirty
        copies are written back to the LLC so no data is lost.
        """
        directory = self.directory
        actions = (
            directory.on_write(core_id, line_addr)
            if is_write
            else directory.on_read(core_id, line_addr)
        )
        targets = list(actions.invalidate)
        if actions.downgrade is not None:
            targets.append(actions.downgrade)
        for other in targets:
            for level in (self.l1[other], self.l2[other]):
                evicted = level.invalidate(line_addr)
                if evicted is not None and evicted.dirty:
                    self._writeback_to_llc(other, evicted.line_addr, now)
            directory.on_eviction(other, line_addr)
        if is_write:
            # Re-register the writer (invalidate path cleared others only).
            directory.on_write(core_id, line_addr)

    def _note_private_eviction(self, core_id: int, line_addr: int) -> None:
        """Tell the directory when a core has lost all private copies."""
        if not self.l1[core_id].contains(line_addr) and not self.l2[core_id].contains(line_addr):
            self.directory.on_eviction(core_id, line_addr)

    # -- writeback propagation ---------------------------------------------------

    def _writeback_to_l2(self, core_id: int, line_addr: int, now: Optional[float] = None) -> None:
        l2 = self.l2[core_id]
        f = l2.access_fast(line_addr, False, core_id, True)
        if f & ACC_EVICTED_DIRTY:
            self._writeback_to_llc(core_id, l2.victim_addr, now)

    def _writeback_to_llc(self, core_id: int, line_addr: int, now: Optional[float] = None) -> None:
        llc = self.llc
        if self._fast_llc:
            f = llc.access_fast(line_addr, False, core_id, True, core_id)
            if f & ACC_EVICTED_DIRTY:
                self.dram.access(llc.victim_addr, True, now)
            return
        r = llc.access(line_addr, core_id=core_id, is_writeback=True, sdid=core_id)
        self._spill_to_dram(r.evicted, now)

    def _spill_to_dram(self, evicted, now: Optional[float] = None) -> None:
        if evicted is not None and evicted.dirty:
            self.dram.access(evicted.line_addr, is_write=True, now=now)

    # -- maintenance ------------------------------------------------------------

    def release(self) -> None:
        """Break the compiled-access and private-step reference cycles.

        ``access`` closes over bound methods of this hierarchy, and each
        private L1/L2 array bound its generated step, which closes over
        the array, on itself at its first access; without this the
        hierarchy could only be reclaimed by the cyclic garbage
        collector.  Drivers that build many hierarchies in one process
        (the bench trial loop) call this when done so each one frees by
        refcount instead of accreting until a gen-2 collection; the GC
        pauses otherwise grow with the number of retired trials and skew
        per-trial timings.  The hierarchy must not be accessed again.
        """
        self.access = None
        for cache in self.l1 + self.l2:
            cache.__dict__.pop("access_fast", None)

    def reset_stats(self) -> None:
        """Zero all statistics (after warm-up) without touching contents."""
        for cache in self.l1 + self.l2:
            cache.stats.reset()
        for tlb in self.tlbs:
            if tlb is not None:
                tlb.reset_stats()
        if hasattr(self.llc, "reset_stats"):
            self.llc.reset_stats()
        else:
            self.llc.stats.reset()
        self.dram.reset_stats()
