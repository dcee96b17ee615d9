"""The interface every LLC design in this library implements.

The hierarchy simulator, the attack harnesses, and the experiment
runner only touch this surface, so baseline / CEASER / Scatter-Cache /
Mirage / Maya / partitioned designs are interchangeable.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional

from ..cache.line import AccessResult, EvictedLine
from ..cache.stats import CacheStats


class LLCache(abc.ABC):
    """Abstract last-level cache.

    Concrete designs expose:

    * :attr:`stats` - a :class:`~repro.cache.stats.CacheStats`,
    * :attr:`extra_lookup_latency` - additional cycles per lookup
      beyond the baseline LLC latency (0 for the baseline; 4 for the
      randomized decoupled designs, Section III-C).
    """

    extra_lookup_latency: int = 0
    stats: CacheStats

    @abc.abstractmethod
    def access(
        self,
        line_addr: int,
        is_write: bool = False,
        core_id: int = 0,
        is_writeback: bool = False,
        sdid: int = 0,
    ) -> AccessResult:
        """Perform one access, filling on miss."""

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
    # drive every design through contains, missing and rekey plus the
    # helpers below (loads go through access_step), so a new design is
    # attackable the moment it implements the ABC.

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

    Duck-typed so it also covers :class:`~repro.core.maya_cache.MayaCache`,
    which implements the LLC surface without subclassing the ABC:
    decoupled designs report their data-store entries, the fully
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
    attack harnesses
    bind the result once and call it positionally; they ignore what it
    returns (flags or an :class:`AccessResult`).  Bind it after any
    specialization, which replaces ``access_fast`` per instance.
    """
    step = getattr(llc, "access_fast", None)
    return step if step is not None else llc.access


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
