"""Fig. 8: occupancy-attack difficulty, normalized to fully associative.

Number of victim operations an occupancy attacker needs to distinguish
two keys (AES T-table and modular exponentiation victims), on a 16-way
set-associative cache, the Maya cache, and a fully associative cache
with random replacement.  Paper shape: the 16-way cache is noticeably
*easier* to attack (normalized < 1: 0.85 for AES, 0.63 for modexp),
while Maya sits at the fully-associative level (~0.996 / 0.992) -
i.e. Maya does not make occupancy attacks easier.

Each trial installs its design's generated step through a releasable
``Specialization``, as a campaign cell does, so the attacker's sweep
kernel runs the step's body inline.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from typing import Callable, Dict, List

from ...common.config import CacheGeometry, MayaConfig
from ...common.rng import derive_seed
from ...core import MayaCache
from ...engine.specialize import Specialization, specialize_llc
from ...llc import BaselineLLC, FullyAssociativeCache
from ...security.attacks import operations_to_distinguish
from ...security.victims import AESVictim, ModExpVictim, aes_key_pair, modexp_key_pair
from ..formatting import render_table

#: Scaled cache for the attack loop: 1024-line baseline (64 sets x 16).
ATTACK_SETS = 64


def _designs(seed: int):
    """(name, factory, attacker priming lines) per compared design."""
    maya_cfg = MayaConfig(sets_per_skew=ATTACK_SETS, rng_seed=seed, hash_algorithm="splitmix")
    return (
        ("16-way", lambda: BaselineLLC(CacheGeometry(sets=ATTACK_SETS, ways=16), policy="lru"), ATTACK_SETS * 16),
        ("Maya", lambda: MayaCache(maya_cfg), maya_cfg.data_entries),
        ("FullyAssoc", lambda: FullyAssociativeCache(ATTACK_SETS * 16), ATTACK_SETS * 16),
    )


@dataclass
class AttackRow:
    victim: str
    design: str
    median_operations: float
    normalized_to_fa: float


def run(
    trials: int = 3,
    max_operations: int = 4_000,
    seed: int = 7,
) -> List[AttackRow]:
    """Median operations-to-distinguish per (victim, design)."""
    victims: Dict[str, Callable[[int], tuple]] = {
        "AES": lambda s: _aes_victims(s),
        "ModExp": lambda s: _modexp_victims(s),
    }
    rows: List[AttackRow] = []
    for victim_name, victim_builder in victims.items():
        per_design: Dict[str, float] = {}
        for design_name, factory, attacker_lines in _designs(seed):
            samples = []
            for trial in range(trials):
                make_a, make_b = victim_builder(derive_seed(seed, trial))
                llc = factory()
                spec = Specialization()
                specialize_llc(llc, spec)
                try:
                    result = operations_to_distinguish(
                        llc,
                        make_a,
                        make_b,
                        attacker_lines=attacker_lines,
                        max_operations=max_operations,
                        seed=derive_seed(seed, 100 + trial),
                    )
                finally:
                    spec.release()
                samples.append(result.operations)
            per_design[design_name] = median(samples)
        fa = per_design["FullyAssoc"]
        for design_name, ops in per_design.items():
            rows.append(
                AttackRow(
                    victim=victim_name,
                    design=design_name,
                    median_operations=ops,
                    normalized_to_fa=ops / fa if fa else float("nan"),
                )
            )
    return rows


def _aes_victims(seed: int):
    key_a, key_b = aes_key_pair(seed=seed)
    return (lambda: AESVictim(key_a, seed=seed), lambda: AESVictim(key_b, seed=seed + 1))


def _modexp_victims(seed: int):
    key_a, key_b = modexp_key_pair(seed=seed)
    return (lambda: ModExpVictim(key_a, seed=seed), lambda: ModExpVictim(key_b, seed=seed + 1))


def report(rows: List[AttackRow]) -> str:
    return render_table(
        ("victim", "design", "median ops", "normalized to FA"),
        [(r.victim, r.design, f"{r.median_operations:.0f}", f"{r.normalized_to_fa:.2f}") for r in rows],
    )
