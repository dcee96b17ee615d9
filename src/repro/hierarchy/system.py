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
(``ACC_*`` flag ints + ``victim_*`` fields) end to end, so the LLC
must provide that step and a constant ``extra_lookup_latency``; every
design in :mod:`repro.llc` and :mod:`repro.core` does.
"""

from __future__ import annotations

from typing import List, Optional

from ..cache.line import ACC_EVICTED_DIRTY, ACC_HIT
from ..cache.set_assoc import SetAssociativeCache
from ..common.config import SystemConfig
from ..common.errors import ConfigurationError
from ..llc.interface import LLCache
from .dram import DramModel
from .prefetcher import StridePrefetcher


class CacheHierarchy:
    """L1D + L2 per core over a shared LLC and DRAM."""

    def __init__(
        self,
        llc: LLCache,
        config: Optional[SystemConfig] = None,
        enable_prefetch: bool = True,
        mlp_factor: float = 2.0,
    ):
        self.config = config or SystemConfig()
        if not hasattr(llc, "access_fast"):
            raise ConfigurationError(
                f"{type(llc).__name__} has no access_fast step; the hierarchy "
                "drives the LLC through the access_fast protocol only"
            )
        self.llc = llc
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
        llc = self.llc
        dram_access = self.dram.access
        l1_cycles = self._l1_cycles
        l2_cycles = self._l2_cycles
        # access_fast engines promise a constant extra lookup latency,
        # so it folds into the per-level charge once.
        llc_fast_cycles = self._llc_cycles + llc.extra_lookup_latency
        mlp_factor = self.mlp_factor
        writeback_to_l2 = self._writeback_to_l2
        writeback_to_llc = self._writeback_to_llc
        prefetch_fill = self._prefetch

        def access(core_id, line_addr, is_write=False, now=None):
            latency = l1_cycles
            l1 = l1s[core_id]
            f1 = l1.access_fast(line_addr, is_write, core_id)
            if f1 & ACC_EVICTED_DIRTY:
                writeback_to_l2(core_id, l1.victim_addr, now)
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
            if f2 & ACC_EVICTED_DIRTY:
                writeback_to_llc(core_id, l2.victim_addr, now)
            if f2 & ACC_HIT:
                return latency

            f3 = llc.access_fast(line_addr, False, core_id, False, core_id)
            latency += llc_fast_cycles
            if f3 & ACC_EVICTED_DIRTY:
                dram_access(llc.victim_addr, True, now)
            if not f3 & ACC_HIT:
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
            f3 = llc.access_fast(line_addr, False, core_id, False, core_id)
            if f3 & ACC_EVICTED_DIRTY:
                self.dram.access(llc.victim_addr, True, now)
            if not f3 & ACC_HIT:
                self.dram.access(line_addr, False, now)

    # -- writeback propagation ---------------------------------------------------

    def _writeback_to_l2(self, core_id: int, line_addr: int, now: Optional[float] = None) -> None:
        l2 = self.l2[core_id]
        f = l2.access_fast(line_addr, False, core_id, True)
        if f & ACC_EVICTED_DIRTY:
            self._writeback_to_llc(core_id, l2.victim_addr, now)

    def _writeback_to_llc(self, core_id: int, line_addr: int, now: Optional[float] = None) -> None:
        llc = self.llc
        f = llc.access_fast(line_addr, False, core_id, True, core_id)
        if f & ACC_EVICTED_DIRTY:
            self.dram.access(llc.victim_addr, True, now)

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
        self.llc.reset_stats()
        self.dram.reset_stats()
