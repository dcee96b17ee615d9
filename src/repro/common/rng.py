"""Deterministic random-number management.

Every stochastic component in the library (random replacement, global
random evictions, bucket-and-balls throws, synthetic workloads, attack
harnesses) draws from an explicitly seeded generator so that every
experiment in EXPERIMENTS.md is exactly reproducible.

We use :class:`random.Random` rather than numpy generators for the
cache-simulator hot paths (single scalar draws are faster and allocation
free).
"""

from __future__ import annotations

import random
from typing import Optional

#: Library-wide default seed; chosen arbitrarily and fixed forever.
DEFAULT_SEED = 0x3A7A  # "maya"


def make_rng(seed: Optional[int] = None) -> random.Random:
    """Return a seeded :class:`random.Random`.

    ``None`` maps to :data:`DEFAULT_SEED` - the library never uses
    OS entropy, so two runs with the same configuration produce
    identical statistics.
    """
    return random.Random(DEFAULT_SEED if seed is None else seed)


def derive_seed(base: Optional[int], stream: int) -> int:
    """Derive an independent child seed for sub-component ``stream``.

    Uses SplitMix64-style mixing so that adjacent streams are
    uncorrelated even for adjacent base seeds.
    """
    x = ((DEFAULT_SEED if base is None else base) + 0x9E3779B97F4A7C15 * (stream + 1)) & (2**64 - 1)
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
    return (x ^ (x >> 31)) & (2**63 - 1)
