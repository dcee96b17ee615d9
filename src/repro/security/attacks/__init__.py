"""Attack harnesses: eviction sets, occupancy, probes, and traffic."""

from .eviction import (
    EvictionSetResult,
    TargetingResult,
    conflicting_lines,
    construct_eviction_set,
    targeting_advantage,
)
from .fingerprint import FingerprintResult, fingerprint_accuracy, occupancy_trace
from .flush import FlushReloadResult, flush_reload_accuracy
from .occupancy import (
    OccupancyAttacker,
    OccupancyAttackResult,
    operations_to_distinguish,
    welch_t,
)
from .policy_probe import PolicyProbeResult, replacement_leakage
from .ppp import PPPResult, prime_prune_probe
from .traffic import RecordingLLC, eviction_storm_ops, prime_probe_ops, replay

__all__ = [
    "EvictionSetResult",
    "FingerprintResult",
    "FlushReloadResult",
    "OccupancyAttackResult",
    "OccupancyAttacker",
    "PPPResult",
    "PolicyProbeResult",
    "RecordingLLC",
    "TargetingResult",
    "conflicting_lines",
    "construct_eviction_set",
    "eviction_storm_ops",
    "fingerprint_accuracy",
    "flush_reload_accuracy",
    "occupancy_trace",
    "operations_to_distinguish",
    "prime_probe_ops",
    "prime_prune_probe",
    "replacement_leakage",
    "replay",
    "targeting_advantage",
    "welch_t",
]
