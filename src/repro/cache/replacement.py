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


class DRRIPPolicy(SRRIPPolicy):
    """Dynamic RRIP via set dueling (Jaleel et al., ISCA'10).

    A sample of sets is dedicated to always-SRRIP and always-BRRIP
    "leader" behaviour; a saturating PSEL counter tracks which leader
    misses less and follower sets copy the winner.  Sets are identified
    by first-seen order (deterministic under our seeded simulations),
    with every ``dueling_period``-th distinct set becoming a leader,
    alternating between the two teams.
    """

    def __init__(
        self,
        rrpv_bits: int = 2,
        long_probability: float = 1 / 32,
        dueling_period: int = 32,
        psel_bits: int = 10,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(rrpv_bits)
        self._brrip = BRRIPPolicy(rrpv_bits, long_probability, seed=seed)
        self._dueling_period = dueling_period
        self._psel_max = (1 << psel_bits) - 1
        self._psel = self._psel_max // 2
        #: id(set) -> "srrip" | "brrip" | "follower"
        self._roles: dict = {}
        self._seen = 0

    def _role_of(self, cache_set: List[CacheLine]) -> str:
        key = id(cache_set)
        role = self._roles.get(key)
        if role is None:
            slot = self._seen % (2 * self._dueling_period)
            if slot == 0:
                role = "srrip"
            elif slot == self._dueling_period:
                role = "brrip"
            else:
                role = "follower"
            self._roles[key] = role
            self._seen += 1
        return role

    def on_fill(self, cache_set: List[CacheLine], way: int) -> None:
        role = self._role_of(cache_set)
        if role == "srrip":
            # A fill in a leader set records a miss for its team.
            self._psel = min(self._psel_max, self._psel + 1)
            super().on_fill(cache_set, way)
        elif role == "brrip":
            self._psel = max(0, self._psel - 1)
            self._brrip.on_fill(cache_set, way)
        elif self._psel <= self._psel_max // 2:
            super().on_fill(cache_set, way)  # SRRIP team is winning
        else:
            self._brrip.on_fill(cache_set, way)

    @property
    def winning_team(self) -> str:
        """Which insertion policy follower sets currently use."""
        return "srrip" if self._psel <= self._psel_max // 2 else "brrip"


_POLICIES = {
    "lru": LRUPolicy,
    "random": RandomPolicy,
    "srrip": SRRIPPolicy,
    "brrip": BRRIPPolicy,
    "drrip": DRRIPPolicy,
}


def make_policy(name: str, seed: Optional[int] = None) -> ReplacementPolicy:
    """Construct a policy by name (``lru``, ``random``, ``srrip``, ``brrip``)."""
    try:
        cls = _POLICIES[name.lower()]
    except KeyError:
        raise ValueError(f"unknown replacement policy {name!r}; options: {sorted(_POLICIES)}") from None
    if name.lower() in ("random", "brrip", "drrip"):
        return cls(seed=seed)
    return cls()


# ---------------------------------------------------------------------------
# Packed policies: the struct-of-arrays engine's counterparts.
#
# The packed :class:`~repro.cache.set_assoc.SetAssociativeCache` keeps
# per-line replacement state in one flat list column instead of
# ``CacheLine.repl_state``.  Its generated step
# (:mod:`repro.cache.set_assoc_step`) inlines the LRU, random, SRRIP and
# BRRIP arms and reads their state here (clock, RNG, RRPV bound, long
# probability); the DRRIP arm calls DRRIP's hooks, which take (column,
# flat index) arguments and reuse SRRIP's and BRRIP's.  Each packed
# policy is draw-for-draw and decision-for-decision identical to its
# object-model namesake above (the differential tests enforce this);
# the object policies stay untouched because the reference engine and
# direct policy-level tests still drive them with ``CacheLine`` lists.
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
    """SRRIP over the packed column (RRPVs live in the column)."""

    def __init__(self, rrpv_bits: int = 2) -> None:
        if rrpv_bits < 1:
            raise ValueError("RRPV needs at least one bit")
        self._max = (1 << rrpv_bits) - 1

    def on_hit(self, repl, idx: int) -> None:
        repl[idx] = 0

    def on_fill(self, repl, base: int, ways: int, idx: int) -> None:
        repl[idx] = self._max - 1

    def victim(self, repl, base: int, ways: int) -> int:
        # RRPVs never exceed self._max, so the object policy's
        # scan-then-age-all rounds collapse to one jump: age every line
        # by (max - highest RRPV) and take the first line that was at
        # the highest RRPV - identical victim and identical final RRPVs.
        window = repl[base : base + ways]
        m = max(window)
        delta = self._max - m
        if delta > 0:
            for i in range(base, base + ways):
                repl[i] += delta
        return base + window.index(m)


class PackedBRRIPPolicy(PackedSRRIPPolicy):
    """Bimodal RRIP: one ``rng.random()`` draw per fill, as the object twin."""

    def __init__(self, rrpv_bits: int = 2, long_probability: float = 1 / 32, seed: Optional[int] = None) -> None:
        super().__init__(rrpv_bits)
        if not 0.0 <= long_probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self._long_probability = long_probability
        self._rng = make_rng(seed)

    def on_fill(self, repl, base: int, ways: int, idx: int) -> None:
        if self._rng.random() < self._long_probability:
            repl[idx] = self._max - 1
        else:
            repl[idx] = self._max


class PackedDRRIPPolicy(PackedSRRIPPolicy):
    """Set-dueling DRRIP over the packed column.

    Roles are keyed by the set's base index in the flat column instead
    of ``id(cache_set)``; first-seen order - and therefore leader
    assignment, PSEL trajectory, and every BRRIP draw - is identical to
    the object policy under the same access sequence.
    """

    def __init__(
        self,
        rrpv_bits: int = 2,
        long_probability: float = 1 / 32,
        dueling_period: int = 32,
        psel_bits: int = 10,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(rrpv_bits)
        self._brrip = PackedBRRIPPolicy(rrpv_bits, long_probability, seed=seed)
        self._dueling_period = dueling_period
        self._psel_max = (1 << psel_bits) - 1
        self._psel = self._psel_max // 2
        #: set base index -> "srrip" | "brrip" | "follower"
        self._roles: dict = {}
        self._seen = 0

    def _role_of(self, base: int) -> str:
        role = self._roles.get(base)
        if role is None:
            slot = self._seen % (2 * self._dueling_period)
            if slot == 0:
                role = "srrip"
            elif slot == self._dueling_period:
                role = "brrip"
            else:
                role = "follower"
            self._roles[base] = role
            self._seen += 1
        return role

    def on_fill(self, repl, base: int, ways: int, idx: int) -> None:
        role = self._role_of(base)
        if role == "srrip":
            self._psel = min(self._psel_max, self._psel + 1)
            super().on_fill(repl, base, ways, idx)
        elif role == "brrip":
            self._psel = max(0, self._psel - 1)
            self._brrip.on_fill(repl, base, ways, idx)
        elif self._psel <= self._psel_max // 2:
            super().on_fill(repl, base, ways, idx)
        else:
            self._brrip.on_fill(repl, base, ways, idx)

    @property
    def winning_team(self) -> str:
        """Which insertion policy follower sets currently use."""
        return "srrip" if self._psel <= self._psel_max // 2 else "brrip"


_PACKED_POLICIES = {
    "lru": PackedLRUPolicy,
    "random": PackedRandomPolicy,
    "srrip": PackedSRRIPPolicy,
    "brrip": PackedBRRIPPolicy,
    "drrip": PackedDRRIPPolicy,
}


def make_packed_policy(name: str, seed: Optional[int] = None):
    """Construct a packed policy by name (same names as :func:`make_policy`)."""
    try:
        cls = _PACKED_POLICIES[name.lower()]
    except KeyError:
        raise ValueError(f"unknown replacement policy {name!r}; options: {sorted(_PACKED_POLICIES)}") from None
    if name.lower() in ("random", "brrip", "drrip"):
        return cls(seed=seed)
    return cls()
