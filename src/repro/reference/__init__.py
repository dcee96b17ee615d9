"""Object-model reference engines for differential testing.

The packed struct-of-arrays engines in ``repro.cache`` / ``repro.core``
/ ``repro.llc`` are the production simulators; this package retains the
pre-SoA object-model implementations verbatim (one dataclass per cache
line / tag / data entry).  The differential test layer drives a packed
engine and its reference twin with identical access streams and
requires *bit-identical* statistics, eviction streams, and RNG draw
order - any divergence is a bug in the packed rewrite.

The only intentional deviation from history: the reference tag store
carries the same deterministic ``random_priority0`` index-shift fix as
the packed one (the historical rejection loop made the RNG draw count
data-dependent, which no oracle can reproduce draw-for-draw).
"""

from .data_store import DataStore as ReferenceDataStore
from .fully_assoc import FullyAssociativeCache as ReferenceFullyAssociativeCache
from .maya import MayaCache as ReferenceMayaCache
from .mirage import MirageCache as ReferenceMirageCache
from .prince import ScalarPrince
from .set_assoc import SetAssociativeCache as ReferenceSetAssociativeCache
from .skewed import SkewedRandomizedCache as ReferenceSkewedRandomizedCache
from .tag_store import SkewedTagStore as ReferenceSkewedTagStore

__all__ = [
    "ReferenceDataStore",
    "ReferenceFullyAssociativeCache",
    "ReferenceMayaCache",
    "ReferenceMirageCache",
    "ReferenceSetAssociativeCache",
    "ReferenceSkewedRandomizedCache",
    "ReferenceSkewedTagStore",
    "ScalarPrince",
]
