"""Last-level cache designs: baseline, randomized, and partitioned."""

from .baseline import BaselineLLC
from .ceaser import CeaserCache
from .fully_assoc import FullyAssociativeCache
from .interface import LLCache
from .mirage import MirageCache
from .partitioned import FlexiblePartitionedLLC, SetPartitionedLLC, WayPartitionedLLC
from .skewed import SkewedRandomizedCache, make_ceaser_s, make_scatter_cache

__all__ = [
    "BaselineLLC",
    "CeaserCache",
    "FlexiblePartitionedLLC",
    "FullyAssociativeCache",
    "LLCache",
    "MirageCache",
    "SetPartitionedLLC",
    "SkewedRandomizedCache",
    "WayPartitionedLLC",
    "make_ceaser_s",
    "make_scatter_cache",
]
