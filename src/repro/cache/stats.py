"""Statistics collected by every cache model.

A single :class:`CacheStats` instance is embedded in each cache; the
experiment harness reads these counters to compute MPKI, hit rates,
dead-block fractions (Fig. 1), and inter-core interference (Section
V-B's explanation of Maya's wins).

Each access is counted once, by the one rule
:meth:`CacheStats.record_access` states: a hit or a miss, and a
writeback or a demand hit.  The generated steps render that rule inline
from its twins beside it, :meth:`CacheStats.step_hit` (with the step's
own marks on the hit line in its writeback and demand arms) and
``CacheStats.STEP_MISS`` (and an eviction from
:data:`repro.cache.line.STEP_EVICT`), so no step writes its own.
``accesses`` and ``demand_accesses`` are derived from those counters,
not counted.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass


@dataclass
class CacheStats:
    """Raw event counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    demand_hits: int = 0
    writebacks_received: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    dead_evictions: int = 0
    #: Evictions where the victim belonged to a different core than the filler.
    interference_evictions: int = 0
    #: Maya: hits on a priority-0 tag (promotion; data miss).
    tag_only_hits: int = 0
    #: Secure designs: set-associative evictions observed.
    saes: int = 0
    #: Global random tag evictions (Maya).
    tag_evictions: int = 0
    #: Randomizer mapping-cache hits/misses (line->set lookups that
    #: skipped / paid the cipher) over the measured window, folded in
    #: from the design's randomizer by
    #: :meth:`~repro.llc.interface.LLCache.refresh_mapping_cache_stats`.
    randomizer_hits: int = 0
    randomizer_misses: int = 0

    def record_access(self, hit: bool, is_writeback: bool) -> None:
        """Count one access: a hit or a miss, and a received writeback
        or, on a hit, a demand hit."""
        if hit:
            self.hits += 1
            if is_writeback:
                self.writebacks_received += 1
            else:
                self.demand_hits += 1
        else:
            self.misses += 1
            if is_writeback:
                self.writebacks_received += 1

    # ``record_access`` as statements, for the generated steps, which
    # render them with their stats object bound as ``st``:
    # ``step_hit()`` is ``record_access(True, is_writeback)`` and
    # ``STEP_MISS`` ``record_access(False, is_writeback)``.
    @staticmethod
    def step_hit(writeback: str = "", demand: str = "") -> str:
        """``record_access(True, is_writeback)`` as statements, with the
        step's own marks on the hit line rendered into its two arms:
        ``writeback`` after a writeback's count, ``demand`` after a
        demand hit's (each statements at column 0), so a hit tests
        ``is_writeback`` once."""
        return (
            "st.hits += 1\n"
            "if is_writeback:\n"
            "    st.writebacks_received += 1\n"
            + textwrap.indent(writeback, "    ")
            + "else:\n"
            "    st.demand_hits += 1\n"
            + textwrap.indent(demand, "    ")
        )

    STEP_MISS = """\
st.misses += 1
if is_writeback:
    st.writebacks_received += 1
"""

    def record_eviction(self, *, dirty: bool, was_reused: bool, cross_core: bool) -> None:
        self.evictions += 1
        if dirty:
            self.dirty_evictions += 1
        if not was_reused:
            self.dead_evictions += 1
        if cross_core:
            self.interference_evictions += 1

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def demand_accesses(self) -> int:
        return self.accesses - self.writebacks_received

    @property
    def hit_rate(self) -> float:
        """Overall hit rate (0 when no accesses yet)."""
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def demand_hit_rate(self) -> float:
        return self.demand_hits / self.demand_accesses if self.demand_accesses else 0.0

    @property
    def demand_misses(self) -> int:
        return self.demand_accesses - self.demand_hits

    @property
    def dead_block_fraction(self) -> float:
        """Fraction of evicted blocks never reused (Fig. 1 metric)."""
        return self.dead_evictions / self.evictions if self.evictions else 0.0

    @property
    def interference_fraction(self) -> float:
        return self.interference_evictions / self.evictions if self.evictions else 0.0

    @property
    def randomizer_hit_rate(self) -> float:
        """Mapping-cache hit rate (0 when the design has no randomizer)."""
        total = self.randomizer_hits + self.randomizer_misses
        return self.randomizer_hits / total if total else 0.0

    def reset(self) -> None:
        """Zero every counter (used after cache warm-up)."""
        for name in vars(self):
            setattr(self, name, 0)

    def mpki(self, instructions: int) -> float:
        """Demand misses per kilo-instruction."""
        if instructions <= 0:
            raise ValueError("instruction count must be positive")
        return 1000.0 * self.demand_misses / instructions
