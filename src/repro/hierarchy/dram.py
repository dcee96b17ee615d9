"""Open-page DRAM timing model.

A deliberately small model of the paper's DDR4-3200 configuration
(Table V): per-bank open rows with a row-hit / row-miss latency split.
The hierarchy only needs a credible latency distribution - queueing and
scheduling are out of scope (and affect all LLC designs identically).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..common.bitops import log2_exact
from ..common.config import DramConfig
from ..common.addr import DEFAULT_LINE_BYTES


class DramModel:
    """Row-buffer-aware DRAM latency model."""

    def __init__(self, config: Optional[DramConfig] = None, line_bytes: int = DEFAULT_LINE_BYTES):
        self.config = config or DramConfig()
        self._lines_per_row_shift = log2_exact(self.config.row_buffer_bytes // line_bytes)
        # Scalars hoisted off the config dataclass (read on every access).
        self._row_hit_cycles = self.config.row_hit_cycles
        self._row_miss_cycles = self.config.row_miss_cycles
        self._service_cycles = self.config.service_cycles
        self._banks = self.config.banks
        self._open_rows: Dict[int, int] = {}
        self._busy_until = 0.0
        self.reads = 0
        self.writes = 0
        self.row_hits = 0
        self.row_misses = 0
        self.queue_cycles = 0.0

    def access(self, line_addr: int, is_write: bool = False, now: Optional[float] = None) -> float:
        """Serve one request; returns its latency in CPU cycles.

        Writes are drained from the controller's write queue between
        read bursts (standard read-priority scheduling), so they are
        counted but do not perturb the row state that reads observe,
        and their latency is never on the demand path.

        When the caller supplies ``now`` (its local clock), a single
        channel-occupancy model applies: each transfer holds the
        channel for ``service_cycles``, and requests arriving while it
        is busy queue.  With ``now=None`` bandwidth is unmodelled
        (infinite), the pre-existing behaviour.
        """
        queue_delay = 0.0
        if now is not None:
            queue_delay = max(0.0, self._busy_until - now)
            self._busy_until = max(self._busy_until, now) + self._service_cycles
            self.queue_cycles += queue_delay
        if is_write:
            self.writes += 1
            return self._row_miss_cycles + queue_delay
        row = line_addr >> self._lines_per_row_shift
        bank = row % self._banks
        open_rows = self._open_rows
        hit = open_rows.get(bank) == row
        open_rows[bank] = row
        self.reads += 1
        if hit:
            self.row_hits += 1
            return self._row_hit_cycles + queue_delay
        self.row_misses += 1
        return self._row_miss_cycles + queue_delay

    # ``access(line_addr, is_write, None)`` as statements, for the
    # op-stream replay's generated kernel (:mod:`repro.engine.vector`),
    # which renders them inline when the model runs this class's own
    # ``access`` (:func:`runs_own_access`).  ``KERNEL_BIND`` runs once per
    # phase; the read rule sets ``hit`` for the op at ``line_addr``; a
    # write only counts, since its address is unused without ``now``.
    # The counters are kernel locals that ``KERNEL_FLUSH`` adds to the
    # model in a ``finally`` at the end of the phase.
    KERNEL_BIND = """\
dram_open_rows = dram._open_rows
dram_open_rows_get = dram_open_rows.get
dram_row_shift = dram._lines_per_row_shift
dram_banks = dram._banks
dram_reads = dram_writes = dram_row_hits = dram_row_misses = 0
"""
    KERNEL_READ = """\
row = line_addr >> dram_row_shift
bank = row % dram_banks
hit = dram_open_rows_get(bank) == row
dram_open_rows[bank] = row
dram_reads += 1
if hit:
    dram_row_hits += 1
else:
    dram_row_misses += 1
"""
    KERNEL_WRITE = "dram_writes += 1\n"
    KERNEL_FLUSH = """\
dram.reads += dram_reads
dram.writes += dram_writes
dram.row_hits += dram_row_hits
dram.row_misses += dram_row_misses
"""

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0

    def reset_stats(self) -> None:
        self.reads = self.writes = self.row_hits = self.row_misses = 0
        self.queue_cycles = 0.0


_OWN_ACCESS = DramModel.access


def runs_own_access(dram) -> bool:
    """Whether ``dram.access`` is :meth:`DramModel.access` itself.

    False once a subclass, a class patch or an instance attribute
    replaces it; the replay kernel then calls it instead of rendering
    the ``KERNEL_*`` snippets.
    """
    return type(dram).access is _OWN_ACCESS and "access" not in vars(dram)
