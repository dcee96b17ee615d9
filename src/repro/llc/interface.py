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
:attr:`~LLCache.sdid_bits` check), the ``victim_*`` defaults, and
:meth:`~LLCache.premap`, keyed by the one SDID rule a design states
(:meth:`~LLCache.hash_sdid`).  Maintenance drops publish and count
their victims through :func:`repro.cache.line.drop_victim`.

The attack harnesses load lines in bulk through :func:`access_lines`:
a generated sweep kernel around the design's step (:func:`access_step`
binds a fresh design's steps first), which runs the step's body inline
for a library design's generated step and calls any other step - the
partitioned routers', a reference model's - once per touch.  They
derive a fresh batch's set mappings in one pass first
(:meth:`LLCache.premap`) and drop them once the batch is installed
(:func:`drop_premap`).
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

from ..cache.line import AccessResult, EvictedLine, access_result, bind_steps, first_access
from ..cache.stats import CacheStats
from ..common import codegen
from ..common.addr import sdid_error


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
      names its steps in ``fresh_steps()``.
    """

    extra_lookup_latency: int = 0
    stats: CacheStats
    #: The SDID width :meth:`access` accepts, or ``None`` for a design
    #: that takes any SDID.
    sdid_bits: Optional[int] = None

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
        bits = self.sdid_bits
        if bits is not None and sdid >> bits:
            raise sdid_error(sdid, bits)
        flags = self.access_fast(line_addr, is_write, core_id, is_writeback, sdid)
        return access_result(self, flags, self.extra_lookup_latency)

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
        map, and must raise what :meth:`contains` raises.
        """
        contains = self.contains
        return [line for line in lines if not contains(line, sdid)]

    def hash_sdid(self, sdid: int) -> Optional[int]:
        """The SDID the design's hash mixes in for an access in ``sdid``.

        ``None`` (this default) for a design whose steps never read its
        randomizer's side table: the set-indexed baseline, CEASER
        (whose step encrypts inline), the fully-associative cache and
        the partitioned designs.  :meth:`premap` and ``run_mix``'s
        ahead-of-time translation key the side table by it.
        """
        return None

    def premap(self, lines, sdid: int = 0) -> int:
        """Derive the set mappings of ``lines`` for ``sdid`` ahead of their loads.

        A randomized design loads its randomizer's side table in one
        batch pass (:meth:`repro.crypto.randomizer.IndexRandomizer.premap`),
        keyed by :meth:`hash_sdid`, so a load that misses the mapping
        memo reads its mapping there instead of computing it.  The miss
        is still counted and the memo filled in the same order, so
        premapping changes no statistic, placement or random draw.
        Returns the number of entries loaded: none for a design whose
        :meth:`hash_sdid` is ``None``.
        """
        hash_sdid = self.hash_sdid(sdid)
        if hash_sdid is None:
            return 0
        return self.index_randomizer.premap(lines, hash_sdid)

    def rekey(self) -> None:
        """Refresh the design's mapping keys, if it has any.

        The base implementation is a no-op: a conventionally indexed
        cache has no keys to refresh.  Randomized designs override this
        (Maya/Mirage flush + draw fresh keys; CEASER-style designs
        alias their epoch remap), so campaign code can sweep rekey
        periods without per-design branches.
        """


@dataclass(frozen=True)
class ProbeSurface:
    """What one design exposes to an attacker, uniformly.

    Built by :func:`probe_surface`; the campaign runner uses it to size
    priming footprints and decide which attack variants apply.
    """

    capacity_lines: int  #: data entries an attacker can hope to occupy
    index_public: bool  #: can the attacker compute set indices from addresses?
    supports_rekey: bool  #: does :meth:`LLCache.rekey` change the mapping?


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


def drop_premap(llc) -> None:
    """Drop what :meth:`LLCache.premap` loaded, once its lines are
    installed: the side table of the design's ``index_randomizer``
    (``clear_precomputed``), if it has one."""
    rand = getattr(llc, "index_randomizer", None)
    if rand is not None:
        rand.clear_precomputed()


def supports_rekey(llc) -> bool:
    """Does ``llc`` have a real key refresh (not the base no-op)?"""
    rekey = getattr(type(llc), "rekey", None)
    return rekey is not None and rekey is not LLCache.rekey


def design_rekey(llc) -> None:
    """Invoke the design's key refresh; raises if it has none."""
    if not supports_rekey(llc):
        raise TypeError(f"{type(llc).__name__} has no mapping keys to refresh")
    llc.rekey()


def probe_surface(llc) -> ProbeSurface:
    """The uniform attacker-facing description of one design."""
    return ProbeSurface(
        capacity_lines=attack_capacity(llc),
        index_public=hasattr(llc, "set_index"),
        supports_rekey=supports_rekey(llc),
    )
