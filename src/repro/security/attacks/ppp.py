"""Prime+Prune+Probe eviction-set construction (Song et al., S&P'21).

The attack that broke CEASER-S and Scatter-Cache: against a randomized
cache the attacker cannot compute conflicts from addresses, but it can
*observe* them.  Each round:

* **Prime** - load a batch of candidate lines;
* **Prune**  - re-probe the batch, discarding lines the priming itself
  evicted, until the survivors are all simultaneously resident (a
  self-consistent prime);
* **Probe** - trigger one victim access, then re-probe the survivors:
  any line that vanished conflicted with the victim *in the current
  mapping* and joins the eviction set under construction.

On a conventionally indexed or skew-randomized cache the caught lines
are true conflicts, so the set converges and verifies.  On Maya/Mirage
every eviction is a global random choice: the "caught" lines are
uniform noise, the set never verifies, and the attacker burns its whole
budget - which is exactly the paper's security claim, now measured as a
construction *cost* on the live simulator.

All costs are counted in attacker operations (loads and probes), never
wall-clock, so campaign scorecards are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ...common.rng import derive_seed, make_rng
from ...llc.interface import access_lines, attack_capacity
from .eviction import attacker_lines

ATTACKER_SDID = 0
VICTIM_SDID = 1
_DEFAULT_VICTIM = 0x7FFF_0000


@dataclass
class PPPResult:
    """Outcome and cost of one Prime+Prune+Probe campaign."""

    found: bool
    eviction_set: List[int]
    rounds: int
    prune_passes: int
    accesses: int  #: attacker loads issued (prime + prune + verify)
    probes: int  #: residency probes issued

    @property
    def construction_cost(self) -> int:
        """Total attacker operations - the scorecard's 'time' axis."""
        return self.accesses + self.probes


class _Attacker:
    """Operation counters around the design's sweep kernel and bulk probe."""

    def __init__(self, llc):
        self.llc = llc
        self._sweep, _ = access_lines(llc)
        self._missing = llc.missing
        self.accesses = 0
        self.probes = 0

    def sweep(self, lines: List[int], passes: int = 1) -> None:
        """Load every line once per pass, in order, as the attacker."""
        self._sweep(lines, len(lines) or 1, passes, 0, ATTACKER_SDID)
        self.accesses += passes * len(lines)

    def install(self, lines: List[int], sdid: int) -> None:
        """Double-touch install of each line in turn, so reuse-filtered
        designs allocate data."""
        self._sweep(lines, 1, 2, 0, sdid)
        self.accesses += 2 * len(lines)

    def missing(self, lines: List[int], sdid: int = ATTACKER_SDID) -> List[int]:
        """Probe every line; the ones no longer resident, in order."""
        self.probes += len(lines)
        return self._missing(lines, sdid)


def prime_prune_probe(
    llc,
    victim: int = _DEFAULT_VICTIM,
    target_size: int = 8,
    batch_size: Optional[int] = None,
    max_rounds: int = 32,
    prune_rounds: int = 6,
    confirm: int = 3,
    rekey_every: Optional[int] = None,
    seed: Optional[int] = None,
) -> PPPResult:
    """Run the PPP construction against any design on the probe surface.

    ``batch_size`` defaults to the design's data capacity (one full
    priming per round).  ``rekey_every`` rekeys the design every that
    many rounds mid-attack - the defender's countermeasure; the
    attacker's accumulated set goes stale and construction degrades.
    The final set is accepted only if it evicts a freshly installed
    victim ``confirm`` times in a row.
    """
    rng = make_rng(derive_seed(seed, 0x999))
    attacker = _Attacker(llc)
    if batch_size is None:
        # Twice the capacity: after pruning, every set is full with
        # high probability, so each victim install displaces a survivor.
        batch_size = 2 * attack_capacity(llc)
    eviction_set: List[int] = []
    members = set()
    prune_passes = 0
    rounds = 0
    found = False

    for round_no in range(max_rounds):
        rounds += 1
        if rekey_every and round_no and round_no % rekey_every == 0:
            llc.rekey()
        llc.flush_all()
        batch = attacker_lines(rng, batch_size)
        # Prime: double-touch sweeps so reuse-filtered designs allocate.
        # The fresh batch's mappings are derived in one pass beforehand
        # and dropped once it is installed.
        llc.premap(batch, ATTACKER_SDID)
        attacker.sweep(batch, passes=2)
        llc.drop_premap()
        # Prune until the survivors are simultaneously resident.
        survivors = batch
        for _ in range(prune_rounds):
            prune_passes += 1
            gone = set(attacker.missing(survivors))
            if not gone:
                break
            survivors = [line for line in survivors if line not in gone]
            attacker.sweep(survivors)
        # Probe: one victim install, then catch what it displaced.
        attacker.install([victim], VICTIM_SDID)
        caught = attacker.missing(survivors)
        for line in caught:
            if line not in members:
                members.add(line)
                eviction_set.append(line)
        if len(eviction_set) >= target_size:
            if _verify(attacker, eviction_set[: target_size * 2], victim, confirm):
                found = True
                break
            # A full-size set that does not verify means the "caught"
            # lines were random evictions, not conflicts (the
            # Maya/Mirage signature).  A real attacker starts over.
            eviction_set.clear()
            members.clear()

    return PPPResult(
        found=found,
        eviction_set=eviction_set if found else [],
        rounds=rounds,
        prune_passes=prune_passes,
        accesses=attacker.accesses,
        probes=attacker.probes,
    )


def _verify(attacker: _Attacker, candidate: List[int], victim: int, confirm: int) -> bool:
    """Does the constructed set evict a fresh victim ``confirm`` times?"""
    for _ in range(confirm):
        attacker.llc.flush_all()
        attacker.install([victim], VICTIM_SDID)
        attacker.install(candidate, ATTACKER_SDID)
        if not attacker.missing([victim], VICTIM_SDID):
            return False
    return True
