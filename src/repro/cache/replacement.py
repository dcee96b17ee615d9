"""Replacement policies for set-associative caches.

The baseline LLC uses SRRIP (Table V); the private levels use LRU; the
secure designs use random replacement.  Policies operate on the list of
:class:`~repro.cache.line.CacheLine` objects forming one set and keep
their per-line state in ``CacheLine.repl_state`` so a policy can be
swapped without touching the cache array.
"""

from __future__ import annotations

import abc
from typing import List, Optional

from ..common.rng import make_rng
from .line import CacheLine


class ReplacementPolicy(abc.ABC):
    """Interface every replacement policy implements."""

    @abc.abstractmethod
    def on_hit(self, cache_set: List[CacheLine], way: int) -> None:
        """Update state after a hit on ``way``."""

    @abc.abstractmethod
    def on_fill(self, cache_set: List[CacheLine], way: int) -> None:
        """Update state after filling ``way``."""

    @abc.abstractmethod
    def victim(self, cache_set: List[CacheLine]) -> int:
        """Choose the way to evict (only called when the set is full)."""

    def find_invalid(self, cache_set: List[CacheLine]) -> Optional[int]:
        """Index of an invalid way if one exists, else ``None``."""
        for way, line in enumerate(cache_set):
            if not line.valid:
                return way
        return None


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used via a monotonically increasing timestamp."""

    def __init__(self) -> None:
        self._clock = 0

    def _touch(self, cache_set: List[CacheLine], way: int) -> None:
        self._clock += 1
        cache_set[way].repl_state = self._clock

    def on_hit(self, cache_set: List[CacheLine], way: int) -> None:
        self._touch(cache_set, way)

    def on_fill(self, cache_set: List[CacheLine], way: int) -> None:
        self._touch(cache_set, way)

    def victim(self, cache_set: List[CacheLine]) -> int:
        return min(range(len(cache_set)), key=lambda w: cache_set[w].repl_state)


class RandomPolicy(ReplacementPolicy):
    """Uniformly random victim selection (deterministic seed)."""

    def __init__(self, seed: Optional[int] = None) -> None:
        self._rng = make_rng(seed)

    def on_hit(self, cache_set: List[CacheLine], way: int) -> None:
        pass

    def on_fill(self, cache_set: List[CacheLine], way: int) -> None:
        pass

    def victim(self, cache_set: List[CacheLine]) -> int:
        return self._rng.randrange(len(cache_set))


class SRRIPPolicy(ReplacementPolicy):
    """Static re-reference interval prediction (Jaleel et al., ISCA'10).

    2-bit RRPV per line: fills insert at ``max - 1`` ("long"), hits
    promote to 0 ("near-immediate"), victims are lines at ``max``
    (aging every line until one reaches it).
    """

    def __init__(self, rrpv_bits: int = 2) -> None:
        if rrpv_bits < 1:
            raise ValueError("RRPV needs at least one bit")
        self._max = (1 << rrpv_bits) - 1

    def on_hit(self, cache_set: List[CacheLine], way: int) -> None:
        cache_set[way].repl_state = 0

    def on_fill(self, cache_set: List[CacheLine], way: int) -> None:
        cache_set[way].repl_state = self._max - 1

    def victim(self, cache_set: List[CacheLine]) -> int:
        while True:
            for way, line in enumerate(cache_set):
                if line.repl_state >= self._max:
                    return way
            for line in cache_set:
                line.repl_state += 1


class BRRIPPolicy(SRRIPPolicy):
    """Bimodal RRIP: most fills insert at distant RRPV (thrash-resistant)."""

    def __init__(self, rrpv_bits: int = 2, long_probability: float = 1 / 32, seed: Optional[int] = None) -> None:
        super().__init__(rrpv_bits)
        if not 0.0 <= long_probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self._long_probability = long_probability
        self._rng = make_rng(seed)

    def on_fill(self, cache_set: List[CacheLine], way: int) -> None:
        if self._rng.random() < self._long_probability:
            cache_set[way].repl_state = self._max - 1
        else:
            cache_set[way].repl_state = self._max


_POLICIES = {
    "lru": LRUPolicy,
    "random": RandomPolicy,
    "srrip": SRRIPPolicy,
    "brrip": BRRIPPolicy,
}


def make_policy(name: str, seed: Optional[int] = None) -> ReplacementPolicy:
    """Construct a policy by name (``lru``, ``random``, ``srrip``, ``brrip``)."""
    try:
        cls = _POLICIES[name.lower()]
    except KeyError:
        raise ValueError(f"unknown replacement policy {name!r}; options: {sorted(_POLICIES)}") from None
    if name.lower() in ("random", "brrip"):
        return cls(seed=seed)
    return cls()


# ---------------------------------------------------------------------------
# Packed policies: the struct-of-arrays engine's counterparts.
#
# The packed :class:`~repro.cache.set_assoc.SetAssociativeCache` keeps
# per-line replacement state in one flat list column instead of
# ``CacheLine.repl_state``.  Its generated step
# (:mod:`repro.cache.set_assoc_step`) inlines the LRU, random, SRRIP and
# BRRIP arms; a packed policy holds only the state those arms read
# (clock, RNG, RRPV bound, long probability).  Each arm is
# draw-for-draw and decision-for-decision identical to its object-model
# namesake above (the differential tests enforce this); the object
# policies stay untouched because the reference engine and direct
# policy-level tests still drive them with ``CacheLine`` lists.
# ---------------------------------------------------------------------------


class PackedLRUPolicy:
    """LRU state: the monotone clock the generated step advances on
    every hit and fill (the victim is the first minimum of the set)."""

    def __init__(self) -> None:
        self._clock = 0


class PackedRandomPolicy:
    """Random-victim state: the seeded RNG the generated step draws
    each victim from (one ``randrange(ways)`` per eviction)."""

    def __init__(self, seed: Optional[int] = None) -> None:
        self._rng = make_rng(seed)


class PackedSRRIPPolicy:
    """SRRIP state: the RRPV bound (the RRPVs live in the column)."""

    def __init__(self, rrpv_bits: int = 2) -> None:
        if rrpv_bits < 1:
            raise ValueError("RRPV needs at least one bit")
        self._max = (1 << rrpv_bits) - 1


class PackedBRRIPPolicy(PackedSRRIPPolicy):
    """Bimodal RRIP state: the seeded RNG the generated step draws once
    per fill, as the object twin does, and the long-insert probability."""

    def __init__(self, rrpv_bits: int = 2, long_probability: float = 1 / 32, seed: Optional[int] = None) -> None:
        super().__init__(rrpv_bits)
        if not 0.0 <= long_probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self._long_probability = long_probability
        self._rng = make_rng(seed)


_PACKED_POLICIES = {
    "lru": PackedLRUPolicy,
    "random": PackedRandomPolicy,
    "srrip": PackedSRRIPPolicy,
    "brrip": PackedBRRIPPolicy,
}


def make_packed_policy(name: str, seed: Optional[int] = None):
    """Construct a packed policy by name (same names as :func:`make_policy`)."""
    try:
        cls = _PACKED_POLICIES[name.lower()]
    except KeyError:
        raise ValueError(f"unknown replacement policy {name!r}; options: {sorted(_PACKED_POLICIES)}") from None
    if name.lower() in ("random", "brrip"):
        return cls(seed=seed)
    return cls()
