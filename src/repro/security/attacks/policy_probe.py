"""Replacement-policy leakage probe, optionally under periodic rekeying.

A one-line Prime+Probe channel distilled to its decision problem: the
attacker primes the victim's set with ``ways`` conflicting lines and
later checks whether its *first-primed* line survived.  Under LRU (and
SRRIP after one aging sweep) a victim install always claims that
oldest line, so the probe decodes one victim bit per trial with
accuracy ~1.0.  Random replacement caps the attacker at
``0.5 + 1/(2*ways)``; Maya's global random evictions remove the
set-targeting entirely and push accuracy to coin-flip.

The probe runs against a *warm* (full) cache: on a random-eviction
design an install into a half-empty cache claims a free slot and the
channel looks artificially quiet, so the harness first fills the cache
with filler lines, as any co-resident workload would.

The attacker's conflict set is computed **once**, from whatever
mapping knowledge the design exposes at attack start (a solved
``set_index`` map, or stride guesses).  Rekeying the design mid-sweep
invalidates that knowledge without telling the attacker - so accuracy
as a function of the rekey period is the defender's knob, and the
campaign scorecard plots exactly that curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ...common.rng import derive_seed, make_rng
from ...llc.interface import access_lines, attack_capacity
from .eviction import ATTACKER_SDID, VICTIM_SDID, _install, conflicting_lines

_DEFAULT_VICTIM = 0x7FFF_0000
_FILLER_BASE = 0x5000_0000
#: Filler lines per double-touch block (the OccupancyAttacker idiom:
#: reuse-filtered designs recycle un-retouched priority-0 tags, so a
#: line must be re-touched soon after install to keep its data).
_WARM_BLOCK = 64


@dataclass
class PolicyProbeResult:
    """Per-trial decode accuracy of the one-line probe channel."""

    trials: int
    correct: int
    rekeys: int
    accesses: int
    probes: int

    @property
    def accuracy(self) -> float:
        return self.correct / self.trials if self.trials else 0.0


def _warm(llc, sweep, fillers: List[int], lines: List[int]) -> int:
    """Fill the cache with filler lines through the design's sweep
    kernel (:func:`~repro.llc.interface.access_lines`), having derived
    the mappings of the fillers and the conflict lines in one pass;
    returns accesses issued."""
    llc.premap(fillers + lines, ATTACKER_SDID)
    sweep(fillers, _WARM_BLOCK, 2, 2, ATTACKER_SDID)
    return 2 * len(fillers)


def replacement_leakage(
    llc,
    ways: int,
    victim: int = _DEFAULT_VICTIM,
    trials: int = 60,
    rekey_every: Optional[int] = None,
    seed: Optional[int] = None,
) -> PolicyProbeResult:
    """Decode accuracy of the one-line probe against ``llc``.

    Each trial: re-prime the ``ways`` conflict lines in order, have the
    victim access its line with probability 1/2, then probe the
    first-primed line - evicted means "victim ran".  ``rekey_every``
    rekeys the design every that many trials (re-warming afterwards,
    since the epoch model flushes); the attacker's conflict set
    (derived once, up front) silently goes stale.
    """
    rng = make_rng(derive_seed(seed, 0xA11))
    lines: List[int] = conflicting_lines(llc, victim, ways, rng)
    canary = lines[0]
    fillers = [_FILLER_BASE + i for i in range(attack_capacity(llc))]
    sweep, _ = access_lines(llc)
    accesses = _warm(llc, sweep, fillers, lines)
    # Balanced victim schedule: exactly half the trials run the victim,
    # so a signal-free channel scores 0.5 instead of the class-imbalance
    # noise a per-trial coin flip would add.
    schedule = [True] * (trials // 2) + [False] * (trials - trials // 2)
    rng.shuffle(schedule)
    correct = 0
    rekeys = 0
    probes = 0
    for trial in range(trials):
        if rekey_every and trial and trial % rekey_every == 0:
            llc.rekey()
            rekeys += 1
            accesses += _warm(llc, sweep, fillers, lines)
        _install(sweep, lines, ATTACKER_SDID)
        accesses += 2 * len(lines)
        # The conflict lines are installed: whatever premap loaded is too.
        llc.drop_premap()
        victim_ran = schedule[trial]
        if victim_ran:
            _install(sweep, [victim], VICTIM_SDID)
            accesses += 2
        probes += 1
        guess = not llc.contains(canary, sdid=ATTACKER_SDID)
        if guess == victim_ran:
            correct += 1
        # Expel the victim's line so the next trial's install misses
        # again (the per-trial reset a real attacker gets from the
        # victim's own working set churn).
        llc.invalidate(victim, sdid=VICTIM_SDID)
    return PolicyProbeResult(
        trials=trials,
        correct=correct,
        rekeys=rekeys,
        accesses=accesses,
        probes=probes,
    )
