"""LLC occupancy attack (Section IV-D, Fig. 8).

The attacker cannot build eviction sets against Maya, but *occupancy*
remains observable on any shared cache (even fully associative): the
attacker primes the LLC with its own lines, lets the victim run one
operation, then probes how many of its lines survived.  The number of
evicted attacker lines is the victim's cache footprint - a key-dependent
signal for both victim models.

Following cacheFX's methodology, the attack measures *how many victim
operations* are needed to distinguish two keys: occupancy samples are
collected alternately under key A and key B, and a Welch t-test decides
when the two sample sets separate.  Fig. 8 reports this count
normalized to a fully associative cache; the paper's expectation is

* 16-way set-associative: noticeably *easier* (fewer encryptions,
  normalized < 1) because set conflicts add per-set signal,
* Maya: statistically indistinguishable from fully associative
  (normalized ~ 0.99).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import math

from ...common.errors import AttackError
from ...common.rng import derive_seed, make_rng
from ...llc.interface import LLCache, access_lines

#: Security domains used by the harness.
ATTACKER_SDID = 0
VICTIM_SDID = 1


@dataclass
class OccupancyAttackResult:
    """Outcome of one distinguishing experiment."""

    operations: int  # victim operations consumed (both keys combined)
    distinguished: bool
    mean_a: float
    mean_b: float


class OccupancyAttacker:
    """Prime / victim-op / probe occupancy measurement loop."""

    def __init__(
        self,
        llc: LLCache,
        attacker_lines: int,
        seed: Optional[int] = None,
    ):
        if attacker_lines <= 0:
            raise AttackError("the attacker needs a positive priming footprint")
        self.llc = llc
        self._rng = make_rng(derive_seed(seed, 0xA77))
        base = 0x4000_0000
        self._lines = [base + i for i in range(attacker_lines)]
        self._sweep, _ = access_lines(llc)

    #: Lines per priming block.  Reuse-filtered designs (Maya) evict a
    #: random priority-0 tag per install, so a tag must be re-touched
    #: soon after install to be promoted before its tag is recycled;
    #: small double-touched blocks achieve that (the strategy a real
    #: attacker would discover).
    PRIME_BLOCK = 64
    #: Repair passes re-touching still-missing lines after the sweep.
    PRIME_REPAIR_PASSES = 3

    def prime(self) -> None:
        """Fill the cache with the attacker's lines.

        Block-wise double-touch sweeps install data even on
        reuse-filtered designs, then repair passes re-install lines the
        priming itself churned out.
        """
        sweep = self._sweep
        sweep(self._lines, self.PRIME_BLOCK, 2, 0, ATTACKER_SDID)
        for _ in range(self.PRIME_REPAIR_PASSES):
            missing = self.llc.missing(self._lines, ATTACKER_SDID)
            if not missing:
                break
            sweep(missing, 1, 2, 0, ATTACKER_SDID)

    def probe(self) -> int:
        """Count attacker lines evicted since priming (the occupancy signal)."""
        return len(self.llc.missing(self._lines, ATTACKER_SDID))

    def measure_once(self, victim_accesses: List[int]) -> int:
        """One sample: prime, run the victim's accesses, probe."""
        self.prime()
        self._sweep(victim_accesses, len(victim_accesses) or 1, 1, 1, VICTIM_SDID)
        return self.probe()


def welch_t(samples_a: List[float], samples_b: List[float]) -> float:
    """Welch's t statistic (0 when either variance collapses to zero)."""
    na, nb = len(samples_a), len(samples_b)
    if na < 2 or nb < 2:
        return 0.0
    mean_a = sum(samples_a) / na
    mean_b = sum(samples_b) / nb
    var_a = sum((x - mean_a) ** 2 for x in samples_a) / (na - 1)
    var_b = sum((x - mean_b) ** 2 for x in samples_b) / (nb - 1)
    denom = math.sqrt(var_a / na + var_b / nb)
    if denom == 0.0:
        return math.inf if mean_a != mean_b else 0.0
    return (mean_a - mean_b) / denom


def operations_to_distinguish(
    llc: LLCache,
    victim_a_factory: Callable[[], object],
    victim_b_factory: Callable[[], object],
    attacker_lines: int,
    max_operations: int = 4000,
    t_threshold: float = 4.5,
    min_samples: int = 8,
    seed: Optional[int] = None,
) -> OccupancyAttackResult:
    """Victim operations needed before the t-test separates the keys.

    ``victim_*_factory`` build fresh victims exposing
    ``encryption_accesses()``; alternating samples keeps cache drift
    symmetric between the two keys.
    """
    attacker = OccupancyAttacker(llc, attacker_lines, seed=seed)
    victim_a = victim_a_factory()
    victim_b = victim_b_factory()
    samples_a: List[float] = []
    samples_b: List[float] = []
    operations = 0
    while operations < max_operations:
        samples_a.append(attacker.measure_once(victim_a.encryption_accesses()))
        samples_b.append(attacker.measure_once(victim_b.encryption_accesses()))
        operations += 2
        if len(samples_a) >= min_samples and abs(welch_t(samples_a, samples_b)) >= t_threshold:
            return OccupancyAttackResult(
                operations=operations,
                distinguished=True,
                mean_a=sum(samples_a) / len(samples_a),
                mean_b=sum(samples_b) / len(samples_b),
            )
    return OccupancyAttackResult(
        operations=operations,
        distinguished=False,
        mean_a=sum(samples_a) / len(samples_a) if samples_a else 0.0,
        mean_b=sum(samples_b) / len(samples_b) if samples_b else 0.0,
    )
