"""Multi-core hierarchy: cores, prefetcher, DRAM, trace-driven simulator."""

from .dram import DramModel
from .prefetcher import StridePrefetcher
from .simulator import (
    CoreResult,
    MixResult,
    normalized_weighted_speedup,
    run_mix,
    weighted_speedup,
)
from .system import CacheHierarchy

__all__ = [
    "CacheHierarchy",
    "CoreResult",
    "DramModel",
    "MixResult",
    "StridePrefetcher",
    "normalized_weighted_speedup",
    "run_mix",
    "weighted_speedup",
]
