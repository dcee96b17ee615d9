"""The interface every LLC design in this library implements.

The hierarchy simulator, the attack harnesses, and the experiment
runner only touch this surface, so baseline / CEASER / Scatter-Cache /
Mirage / Maya / partitioned designs are interchangeable.

The protocol around a design's generated step is written once, here
and in :mod:`repro.cache.line`.  A design names its fresh
``(owner, step)`` pairs in ``fresh_steps()`` and takes the shared
first-use binder (:func:`repro.cache.line.first_access`) as its
class-level ``access_fast``; :class:`LLCache` supplies the object
:meth:`~LLCache.access` around the step (with the design's
:attr:`~LLCache.sdid_bits` check) and the ``victim_*`` defaults.
Maintenance drops publish and count their victims through
:func:`repro.cache.line.drop_victim`.

A design states two facts about its mapping, and :class:`LLCache`
derives the rest from them once: its keyed randomizer,
:attr:`~LLCache.index_randomizer` (``None`` for a conventionally
indexed design), and the SDID its hash mixes in,
:meth:`~LLCache.hash_sdid`.  From them come the batch mapping ahead of
a load (:meth:`~LLCache.premap`, :meth:`~LLCache.drop_premap`), the
one key refresh (:meth:`~LLCache.rekey`, :func:`supports_rekey`), and
the randomizer's memo counters in the design's statistics over the
measured window (:meth:`~LLCache.reset_stats`,
:meth:`~LLCache.refresh_mapping_cache_stats`).  A design whose resident
lines sit in one location map keyed by ``hash_sdid`` subclasses
:class:`MappedLLCache`, which derives ``contains``, ``missing``,
``invalidate`` and ``occupancy_by_core`` from the map.

The attack harnesses load lines in bulk through :func:`access_lines`:
a generated sweep kernel around the design's step (:func:`access_step`
binds a fresh design's steps first), which runs the step's body inline
for a library design's generated step and calls any other step - the
partitioned routers', a reference model's - once per touch.  They
derive a fresh batch's set mappings in one pass first
(:meth:`LLCache.premap`) and drop them once the batch is installed
(:meth:`LLCache.drop_premap`).
"""

from __future__ import annotations

import abc
import functools
from typing import TYPE_CHECKING, Dict, FrozenSet, Optional, Tuple

from ..cache.line import (
    ACC_EVICTED,
    AccessResult,
    EvictedLine,
    access_result,
    bind_steps,
    first_access,
    victim_line,
)
from ..cache.stats import CacheStats
from ..common import codegen
from ..common.addr import SDID_SHIFT, sdid_error

if TYPE_CHECKING:
    from ..crypto.randomizer import IndexRandomizer, MappingCacheInfo


class LLCache(abc.ABC):
    """Abstract last-level cache.

    Concrete designs expose:

    * :attr:`stats` - a :class:`~repro.cache.stats.CacheStats`,
    * :attr:`extra_lookup_latency` - additional cycles per lookup
      beyond the baseline LLC latency (0 for the baseline; 4 for the
      randomized decoupled designs, Section III-C),
    * ``access_fast`` - the allocation-free step (``ACC_*`` flags,
      victim in the ``victim_*`` fields) that :meth:`access` wraps; a
      library design takes :func:`~repro.cache.line.first_access` and
      names its steps in ``fresh_steps()``,
    * :attr:`index_randomizer` and :meth:`hash_sdid` - the two facts
      about its mapping that the rest of this class derives from.
    """

    extra_lookup_latency: int = 0
    stats: CacheStats
    #: The SDID width :meth:`access` accepts, or ``None`` for a design
    #: that takes any SDID.
    sdid_bits: Optional[int] = None
    #: The design's keyed :class:`~repro.crypto.randomizer.IndexRandomizer`,
    #: set in ``__init__`` by Maya, Mirage, CEASER-S/Scatter-Cache and
    #: CEASER; ``None`` for a conventionally indexed design, which has
    #: no keys to refresh.
    index_randomizer: Optional["IndexRandomizer"] = None
    #: Key refreshes so far, and fills since the last one (what a
    #: remapping step counts toward its period); :meth:`rekey` keeps both.
    remaps = 0
    _fills_since_remap = 0
    #: The randomizer's memo ``(hits, misses)`` at the last
    #: :meth:`reset_stats`, so ``stats.randomizer_*`` cover the measured
    #: window only.
    _randomizer_base = (0, 0)

    # Victim fields of the access_fast protocol (valid until the next
    # access after a result with ACC_EVICTED set).
    victim_addr = 0
    victim_core = -1
    victim_sdid = 0
    victim_reused = False

    def access(
        self,
        line_addr: int,
        is_write: bool = False,
        core_id: int = 0,
        is_writeback: bool = False,
        sdid: int = 0,
    ) -> AccessResult:
        """Perform one access, filling on miss.

        Boundary wrapper over the design's ``access_fast`` step
        returning the historical :class:`AccessResult` dataclass with
        the design's :attr:`extra_lookup_latency`.  Unlike the step, it
        rejects an SDID wider than :attr:`sdid_bits`.
        """
        self._check_sdid(sdid)
        flags = self.access_fast(line_addr, is_write, core_id, is_writeback, sdid)
        return access_result(self, flags, self.extra_lookup_latency)

    def _check_sdid(self, sdid: int) -> None:
        """Reject an SDID wider than :attr:`sdid_bits`."""
        bits = self.sdid_bits
        if bits is not None and sdid >> bits:
            raise sdid_error(sdid, bits)

    @abc.abstractmethod
    def invalidate(self, line_addr: int, sdid: int = 0) -> Optional[EvictedLine]:
        """Flush one line (clflush); returns writeback info if dirty."""

    @abc.abstractmethod
    def flush_all(self) -> int:
        """Drop every resident line; returns how many were dropped."""

    @abc.abstractmethod
    def contains(self, line_addr: int, sdid: int = 0) -> bool:
        """Is the line resident with data (a timing-visible hit)?"""

    @property
    @abc.abstractmethod
    def occupancy(self) -> int:
        """Number of valid data-holding entries."""

    @abc.abstractmethod
    def occupancy_by_core(self) -> Dict[int, int]:
        """Data occupancy keyed by owning core (occupancy attacks)."""

    # -- attacker-facing probe surface -------------------------------------
    #
    # The attack harnesses (repro.security.attacks, repro.security.campaign)
    # drive every design through contains, missing, premap and rekey plus
    # the helpers below (loads go through access_lines or access_step), so
    # a new design is attackable the moment it implements the ABC.

    def missing(self, lines, sdid: int = 0) -> list:
        """The lines of ``lines`` not resident for ``sdid``, in order.

        The attacker's bulk probe: one call per scan instead of one
        :meth:`contains` call per line.  This default is exactly
        ``[line for line in lines if not contains(line, sdid)]``; the
        packed designs override it with one pass over their location
        map (:class:`MappedLLCache`), and must raise what
        :meth:`contains` raises.
        """
        contains = self.contains
        return [line for line in lines if not contains(line, sdid)]

    # -- the mapping: two stated facts, the rest derived --------------------

    def hash_sdid(self, sdid: int) -> Optional[int]:
        """The SDID the design's hash mixes in for an access in ``sdid``.

        This default is the access's own SDID: Maya, Mirage and
        Scatter-Cache map each domain apart.  CEASER-S maps every domain
        as ``0``, and CEASER says ``None``: its step encrypts inline and
        never reads the randomizer's side table.  It is also the SDID
        lane of a location map's keys (:class:`MappedLLCache`).
        :meth:`premap` and ``run_mix``'s ahead-of-time translation key
        the side table by it.
        """
        return sdid

    def premap(self, lines, sdid: int = 0) -> int:
        """Derive the set mappings of ``lines`` for ``sdid`` ahead of their loads.

        A randomized design loads its randomizer's side table in one
        batch pass (:meth:`repro.crypto.randomizer.IndexRandomizer.premap`),
        keyed by :meth:`hash_sdid`, so a load that misses the mapping
        memo reads its mapping there instead of computing it.  The miss
        is still counted and the memo filled in the same order, so
        premapping changes no statistic, placement or random draw.
        Returns the number of entries loaded: none for a design without
        an :attr:`index_randomizer` or whose :meth:`hash_sdid` is ``None``.
        """
        rand = self.index_randomizer
        hash_sdid = self.hash_sdid(sdid)
        if rand is None or hash_sdid is None:
            return 0
        return rand.premap(lines, hash_sdid)

    def drop_premap(self) -> None:
        """Drop what :meth:`premap` loaded, once its lines are installed:
        the randomizer's side table (``clear_precomputed``)."""
        rand = self.index_randomizer
        if rand is not None:
            rand.clear_precomputed()

    def rekey(self) -> None:
        """Refresh the mapping keys: flush, re-key the randomizer, restart
        the fill count toward the next remap and count the remap.

        The one key refresh: the campaign's rekey periods, Maya's
        ``on_sae="rekey"`` and the CEASER and CEASER-S epoch remaps run
        it.  The flush counts each dropped dirty line in
        ``dirty_evictions`` but writes nothing to DRAM (the epoch model's
        simplification).  The randomizer re-keys in place, so a bound
        step stays valid.  Raises :class:`TypeError` on a design without
        an :attr:`index_randomizer`.
        """
        rand = self.index_randomizer
        if rand is None:
            raise TypeError(f"{type(self).__name__} has no mapping keys to refresh")
        self.flush_all()
        rand.rekey()
        self._fills_since_remap = 0
        self.remaps += 1

    def reset_stats(self) -> None:
        """Zero the statistics after warm-up without touching contents;
        the randomizer's memo counters start their window here too."""
        self.stats.reset()
        rand = self.index_randomizer
        if rand is not None:
            info = rand.cache_info()
            self._randomizer_base = (info.hits, info.misses)

    def refresh_mapping_cache_stats(self) -> Optional["MappingCacheInfo"]:
        """Pull the randomizer's mapping-cache counters into ``stats``.

        ``stats.randomizer_hits`` / ``stats.randomizer_misses`` become
        the deltas since the last :meth:`reset_stats`.  Returns the raw
        :class:`~repro.crypto.randomizer.MappingCacheInfo`, or ``None``
        for a design without an :attr:`index_randomizer`.
        """
        rand = self.index_randomizer
        if rand is None:
            return None
        info = rand.cache_info()
        hits, misses = self._randomizer_base
        self.stats.randomizer_hits = info.hits - hits
        self.stats.randomizer_misses = info.misses - misses
        return info


class MappedLLCache(LLCache):
    """An :class:`LLCache` whose resident lines sit in one location map.

    A subclass keeps ``_where``, the map from each resident line's
    packed key ``(line_addr << SDID_SHIFT) | hash_sdid(sdid)`` to its
    slot, ``_core``, each slot's owning core, and ``_drop(slot)``,
    which drops a resident line through
    :func:`~repro.cache.line.drop_victim` and returns the ``ACC_*``
    flags.  This class derives the probe surface from them:
    :meth:`contains`, :meth:`missing`, :meth:`invalidate` and
    :meth:`occupancy_by_core`, each rejecting an SDID the design cannot
    hold with the error :meth:`~LLCache.access` raises.  Mirage,
    CEASER-S/Scatter-Cache and the fully-associative cache take all
    four; Maya, whose map is its tag store's, takes ``invalidate`` and
    keeps its priority-1 rule for the other three.
    """

    _where: Dict[int, int]
    _core: list

    @abc.abstractmethod
    def _drop(self, slot: int) -> int:
        """Drop the resident line in ``slot``; returns its ``ACC_*`` flags."""

    def _lane(self, sdid: int) -> int:
        """The SDID lane of ``sdid``'s location-map keys, after the
        check :meth:`~LLCache.access` makes."""
        self._check_sdid(sdid)
        return self.hash_sdid(sdid)

    def _key(self, line_addr: int, sdid: int) -> int:
        """The location-map key of ``line_addr`` in ``sdid``."""
        return (line_addr << SDID_SHIFT) | self._lane(sdid)

    def contains(self, line_addr: int, sdid: int = 0) -> bool:
        return self._key(line_addr, sdid) in self._where

    def missing(self, lines, sdid: int = 0) -> list:
        lane = self._lane(sdid)
        where = self._where
        return [line for line in lines if ((line << SDID_SHIFT) | lane) not in where]

    def invalidate(self, line_addr: int, sdid: int = 0) -> Optional[EvictedLine]:
        slot = self._where.get(self._key(line_addr, sdid))
        if slot is None:
            return None
        flags = self._drop(slot)
        return victim_line(self, flags) if flags & ACC_EVICTED else None

    def occupancy_by_core(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        core = self._core
        for slot in self._where.values():
            counts[core[slot]] = counts.get(core[slot], 0) + 1
        return counts


def attack_capacity(llc) -> int:
    """Timing-visible data capacity of any design, in lines.

    Decoupled designs report their data-store entries, the fully
    associative model its ``capacity_lines``, and conventional arrays
    ``sets * ways``.
    """
    config = getattr(llc, "config", None)
    if config is not None and hasattr(config, "data_entries"):
        return config.data_entries
    if hasattr(llc, "capacity_lines"):
        return llc.capacity_lines
    geometry = getattr(llc, "geometry", None)
    if geometry is not None:
        return geometry.sets * geometry.ways
    raise TypeError(f"cannot derive an attack capacity for {type(llc).__name__}")


def access_step(llc):
    """The design's cheapest access call: ``access_fast`` if it has one.

    Every design in :mod:`repro.llc` and :mod:`repro.core` has the
    step; the object-model references in :mod:`repro.reference` do not
    and fall back to the object :meth:`LLCache.access`.  Both take the
    same positional ``(line, is_write, core, is_writeback, sdid)``, so
    a caller binds the result once and calls it positionally, ignoring
    what it returns (flags or an :class:`AccessResult`);
    :func:`access_lines` wraps it for loads in bulk.  A design that has
    not bound its steps yet binds them here
    (:func:`~repro.cache.line.bind_steps`), so the caller gets the
    generated step rather than the first-use binder.  Bind it after any
    specialization, which replaces ``access_fast`` per instance.
    """
    step = getattr(llc, "access_fast", None)
    if step is None:
        return llc.access
    if getattr(step, "__func__", None) is first_access:
        return bind_steps(llc)
    return step


# One touch per line per pass over each block of ``block`` lines, as a
# read of ``core_id`` in ``sdid``: the loop the harnesses ran over the
# bound step.  ``{OP}`` is the step's body or a call to it.
_SWEEP = '''\
# Generated by repro.llc.interface; do not edit.
# kind=sweep op={OP_FORM}


def _bind(bound, SimulationError, SetAssociativeEviction):
{BINDINGS}
    def sweep(lines, block, passes, core_id, sdid):
        is_write = False
        is_writeback = False
        for first in range(0, len(lines), block):
            chunk = lines[first:first + block]
            for repeat in range(passes):
                for line_addr in chunk:
{OP}

    return sweep
'''

#: Process counters of the sweep kernels bound, by op form.
_SWEEPS = {"inline": 0, "call": 0}


def sweep_info() -> Dict[str, int]:
    """How many sweep kernels took each op form in this process."""
    return dict(_SWEEPS)


def _render_sweep(op: str, op_form: str, bindings: Tuple[str, ...]) -> str:
    if op_form == "call":
        bindings = ("access_fast",)  # the step, as codegen.bind_kernel binds it
    return _SWEEP.format(
        OP_FORM=op_form,
        BINDINGS="".join(f"    {name} = bound[{name!r}]\n" for name in bindings),
        OP=codegen._indent(op, 20),
    )


@functools.lru_cache(maxsize=None)
def _sweep_names() -> Tuple[FrozenSet[str], FrozenSet[str]]:
    return codegen.kernel_names(_render_sweep(codegen.CALL_OP, "call", ()))


def access_lines(llc):
    """The design's bulk load, ``sweep(lines, block, passes, core_id, sdid)``,
    and the reason it calls the step rather than inlining it.

    ``sweep`` walks ``lines`` in blocks of ``block`` lines (``block >=
    1``) and touches every line of a block once per pass, in order, as
    a read of ``core_id`` in ``sdid``: ``passes=2`` with ``block=1`` is
    a double-touch install per line, with ``block=len(lines)`` two
    sweeps of the whole list.  It is a generated kernel around the
    step :func:`access_step` returns (:func:`repro.common.codegen.bind_kernel`):
    for a library design's generated step it runs the step's body
    inline, on the objects the step's closure binds, and the reason is
    ``None``; any other step - a reference model's ``access``, a
    wrapper - is called once per touch.  Either way the design sees the
    calls the loop would have made, in the same order.  The code
    compiles once per step configuration per process; the kernel holds
    the design's columns, so bind it per attacker, after any
    specialization, and let it go with the attacker.
    :func:`sweep_info` counts the kernels bound per form.
    """
    kernel, reason = codegen.bind_kernel("sweep", access_step(llc), _render_sweep, _sweep_names())
    _SWEEPS["call" if reason else "inline"] += 1
    return kernel, reason


def supports_rekey(llc) -> bool:
    """Does ``llc`` have mapping keys to refresh (:meth:`LLCache.rekey`)?

    A design does when it has an :attr:`~LLCache.index_randomizer`.  An
    object outside the :class:`LLCache` family - the Maya object model
    in :mod:`repro.reference.maya`, a wrapper - does when its class
    defines a ``rekey`` (an attribute a wrapper forwards does not count).
    """
    if isinstance(llc, LLCache):
        return llc.index_randomizer is not None
    return hasattr(type(llc), "rekey")
