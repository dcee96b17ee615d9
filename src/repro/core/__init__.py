"""The paper's primary contribution: the Maya cache design."""

from .data_store import NO_TAG, DataEntry, DataStore
from .maya_cache import SECURE_LOOKUP_EXTRA_CYCLES, MayaCache
from .tag_store import NO_DATA, SkewedTagStore, TagState

__all__ = [
    "NO_DATA",
    "NO_TAG",
    "SECURE_LOOKUP_EXTRA_CYCLES",
    "DataEntry",
    "DataStore",
    "MayaCache",
    "SkewedTagStore",
    "TagState",
]
