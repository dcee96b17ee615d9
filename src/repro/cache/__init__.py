"""Generic cache substrate: lines, replacement, set-associative arrays."""

from .line import AccessResult, CacheLine, CoherenceState, EvictedLine
from .opt import opt_hit_rate, policy_gap_report, set_associative_opt_hit_rate
from .replacement import (
    BRRIPPolicy,
    LRUPolicy,
    RandomPolicy,
    ReplacementPolicy,
    SRRIPPolicy,
    make_policy,
)
from .set_assoc import SetAssociativeCache
from .stats import CacheStats

__all__ = [
    "AccessResult",
    "BRRIPPolicy",
    "CacheLine",
    "CacheStats",
    "CoherenceState",
    "EvictedLine",
    "LRUPolicy",
    "RandomPolicy",
    "ReplacementPolicy",
    "SRRIPPolicy",
    "SetAssociativeCache",
    "make_policy",
    "opt_hit_rate",
    "policy_gap_report",
    "set_associative_opt_hit_rate",
]
