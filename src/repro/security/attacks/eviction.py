"""Eviction-set (conflict) attacks and why Maya defeats them.

Two harnesses:

* :func:`targeting_advantage` - the quantitative core of the paper's
  security claim.  The attacker fills ``k`` lines chosen to conflict
  with a victim line and measures how much likelier the victim's
  eviction became compared with ``k`` arbitrary fills.  On the
  baseline, a 16-line eviction set evicts the victim with probability
  ~1 (advantage ~ capacity/associativity); on Maya/Mirage every
  eviction is a *global random* choice, so targeting buys exactly
  nothing (advantage ~ 1).

* :func:`construct_eviction_set` - classic group-testing reduction of
  a candidate pool to a minimal eviction set, driven only by the
  eviction *oracle* (prime, access victim, re-probe).  Succeeds against
  the baseline (and CEASER within one remap epoch); against Maya/Mirage
  it fails: no candidate subset ever evicts the victim reliably.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ...common.rng import derive_seed, make_rng
from ...llc.interface import LLCache, access_step

ATTACKER_SDID = 0
VICTIM_SDID = 1
_ATTACKER_BASE = 0x6000_0000


def _install(step, line: int, sdid: int) -> None:
    """Install with data (twice, so reuse-filtered designs allocate).

    ``step`` is the design's :func:`~repro.llc.interface.access_step`.
    """
    step(line, False, 0, False, sdid)
    step(line, False, 0, False, sdid)


@dataclass
class TargetingResult:
    """Victim eviction probability with targeted vs random fills."""

    targeted_eviction_rate: float
    random_eviction_rate: float

    @property
    def advantage(self) -> float:
        """>> 1 means conflicts are addressable (attackable); ~1 means not."""
        floor = max(self.random_eviction_rate, 1e-6)
        return self.targeted_eviction_rate / floor


def conflicting_lines(llc: LLCache, victim: int, count: int, rng) -> List[int]:
    """Lines that collide with the victim as seen by the *attacker*.

    For a conventionally indexed cache the attacker can compute set
    indices from addresses (``set_index``); randomized designs expose
    no such map, so the attacker falls back to same-stride guesses -
    which is precisely why targeting stops working.
    """
    if hasattr(llc, "set_index"):
        target_set = llc.set_index(victim)
        lines = []
        candidate = _ATTACKER_BASE + rng.randrange(1 << 16)
        while len(lines) < count:
            if llc.set_index(candidate) == target_set:
                lines.append(candidate)
            candidate += 1
        return lines
    sets = getattr(llc, "sets_per_skew", None) or getattr(
        getattr(llc, "config", None), "sets_per_skew", 4096
    )
    return [victim + (i + 1) * sets for i in range(count)]


#: Backward-compatible private alias (pre-campaign callers).
_conflicting_lines = conflicting_lines


def targeting_advantage(
    llc: LLCache,
    fills: int = 64,
    trials: int = 200,
    seed: Optional[int] = None,
) -> TargetingResult:
    """Measure the attacker's targeting advantage on one LLC design."""
    rng = make_rng(derive_seed(seed, 0xE71))
    step = access_step(llc)
    victim = 0x7FFF_0000
    hits = {"targeted": 0, "random": 0}
    for trial in range(trials):
        for mode in ("targeted", "random"):
            llc.flush_all()
            _install(step, victim, VICTIM_SDID)
            if mode == "targeted":
                lines = _conflicting_lines(llc, victim, fills, rng)
            else:
                lines = [_ATTACKER_BASE + rng.randrange(1 << 24) for _ in range(fills)]
            for line in lines:
                _install(step, line, ATTACKER_SDID)
            if not llc.contains(victim, sdid=VICTIM_SDID):
                hits[mode] += 1
    return TargetingResult(
        targeted_eviction_rate=hits["targeted"] / trials,
        random_eviction_rate=hits["random"] / trials,
    )


@dataclass
class EvictionSetResult:
    """Outcome of the group-testing construction."""

    found: bool
    eviction_set: List[int]
    oracle_queries: int


def _evicts(llc: LLCache, candidate_set: List[int], victim: int) -> bool:
    """Eviction oracle: prime victim, fill candidates, re-probe victim."""
    step = access_step(llc)
    llc.flush_all()
    _install(step, victim, VICTIM_SDID)
    for line in candidate_set:
        _install(step, line, ATTACKER_SDID)
    return not llc.contains(victim, sdid=VICTIM_SDID)


def construct_eviction_set(
    llc: LLCache,
    victim: int = 0x7FFF_0000,
    pool_size: int = 2048,
    target_size: int = 16,
    max_queries: int = 400,
    confirm: int = 3,
    seed: Optional[int] = None,
) -> EvictionSetResult:
    """Group-testing eviction-set construction against any LLC design.

    Repeatedly drops random chunks from the candidate pool, keeping any
    reduction that still evicts the victim (`confirm` times, to reject
    random-eviction false positives).  Returns failure when the pool
    itself does not reliably evict the victim - the Maya/Mirage case.
    """
    rng = make_rng(derive_seed(seed, 0x5E7))
    pool = [_ATTACKER_BASE + rng.randrange(1 << 24) for _ in range(pool_size)]
    queries = 0

    def oracle(candidate: List[int]) -> bool:
        nonlocal queries
        queries += 1
        return _evicts(llc, candidate, victim)

    # The pool must evict the victim *consistently* to be reducible.
    if not all(oracle(pool) for _ in range(confirm)):
        return EvictionSetResult(found=False, eviction_set=[], oracle_queries=queries)

    while len(pool) > target_size and queries < max_queries:
        chunk = max(1, len(pool) // 8)
        drop_at = rng.randrange(len(pool) - chunk + 1)
        candidate = pool[:drop_at] + pool[drop_at + chunk:]
        if all(oracle(candidate) for _ in range(confirm)):
            pool = candidate
    found = len(pool) <= target_size and all(oracle(pool) for _ in range(confirm))
    return EvictionSetResult(found=found, eviction_set=pool if found else [], oracle_queries=queries)
