"""A true fully-associative cache with random replacement.

The reference point the secure designs approximate: any line can live
anywhere, the victim is uniformly random, so an eviction leaks nothing
about addresses.  Impractical to build at LLC sizes (the paper's
motivation); here it serves as the security yardstick for the
occupancy-attack comparison (Fig. 8) and as a teaching example.

Resident lines are packed columns (address, SDID, core, dirty and
reused bits) over slots ``0 .. occupancy - 1``; an eviction moves the
last slot into the hole (swap-remove).  The per-access protocol lives
in :mod:`repro.llc.fully_assoc_step`, which renders it per capacity
over these columns; :meth:`FullyAssociativeCache.access_fast` binds
that step on first use (``ACC_*`` flag protocol, victim published via
the ``victim_*`` fields).  This module keeps the swap-remove drop and
flush; the probe surface comes from
:class:`~repro.llc.interface.MappedLLCache`.  Behaviour - RNG draw
order and every statistics counter included - is bit-identical to the
object-model reference in ``repro.reference.fully_assoc`` (enforced by
the differential tests).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..cache.line import drop_victim, first_access
from ..cache.stats import CacheStats
from ..common.addr import SDID_SHIFT
from ..common.errors import SimulationError
from ..common.rng import make_rng
from .fully_assoc_step import fully_assoc_step
from .interface import MappedLLCache


class FullyAssociativeCache(MappedLLCache):
    """Fully-associative, random-replacement cache of ``capacity_lines``."""

    extra_lookup_latency = 0
    sdid_bits = SDID_SHIFT

    def __init__(self, capacity_lines: int, seed: Optional[int] = None):
        if capacity_lines <= 0:
            raise SimulationError("capacity must be positive")
        self.capacity_lines = capacity_lines
        self._rng = make_rng(seed)
        self._size = 0
        self._addr = [0] * capacity_lines
        self._sdid = [0] * capacity_lines
        self._core = [-1] * capacity_lines
        self._dirty = bytearray(capacity_lines)
        self._reused = bytearray(capacity_lines)
        #: packed (line_addr << SDID_SHIFT | sdid) -> slot.
        self._where: Dict[int, int] = {}
        self.stats = CacheStats()

    #: One access with no allocation; returns ``ACC_*`` flags.  Binds
    #: the generated step on first use.
    access_fast = first_access

    def fresh_steps(self):
        """The one fresh generated step (:func:`~repro.llc.fully_assoc_step.fully_assoc_step`)."""
        return [(self, fully_assoc_step(self))]

    def _drop(self, pos: int) -> int:
        addr = self._addr[pos]
        sd = self._sdid[pos]
        flags = drop_victim(self, addr, self._core[pos], sd, self._dirty[pos], self._reused[pos])
        last = self._size - 1
        self._size = last
        del self._where[(addr << SDID_SHIFT) | sd]
        if pos < last:
            # Swap-remove: the last slot fills the hole.
            moved_addr = self._addr[last]
            moved_sdid = self._sdid[last]
            self._addr[pos] = moved_addr
            self._sdid[pos] = moved_sdid
            self._core[pos] = self._core[last]
            self._dirty[pos] = self._dirty[last]
            self._reused[pos] = self._reused[last]
            self._where[(moved_addr << SDID_SHIFT) | moved_sdid] = pos
        return flags

    def flush_all(self) -> int:
        count = self._size
        while self._size:
            self._drop(self._size - 1)
        return count

    @property
    def occupancy(self) -> int:
        return self._size
