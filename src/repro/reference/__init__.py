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
the generated Maya step (``repro.core.maya_step``; the historical
rejection loop made the RNG draw count data-dependent, which no oracle
can reproduce draw-for-draw).  For Maya this package is the only
differential oracle: the generated step is its one fast
implementation.

The reference models keep the object ``access()`` API only, which
:class:`~repro.hierarchy.system.CacheHierarchy` does not drive;
:class:`AccessFastAdapter` puts one behind the ``access_fast`` step
protocol so ``run_mix`` can drive a reference twin end to end.
"""

from ..cache.line import ACC_EVICTED, ACC_EVICTED_DIRTY, ACC_HIT, ACC_SAE, ACC_TAG_HIT
from .data_store import DataStore as ReferenceDataStore
from .fully_assoc import FullyAssociativeCache as ReferenceFullyAssociativeCache
from .maya import MayaCache as ReferenceMayaCache
from .mirage import MirageCache as ReferenceMirageCache
from .prince import ScalarPrince
from .set_assoc import SetAssociativeCache as ReferenceSetAssociativeCache
from .skewed import SkewedRandomizedCache as ReferenceSkewedRandomizedCache
from .tag_store import SkewedTagStore as ReferenceSkewedTagStore


class AccessFastAdapter:
    """An object-model reference behind the ``access_fast`` protocol.

    Each step calls the model's ``access()`` and turns its
    :class:`~repro.cache.line.AccessResult` into ``ACC_*`` flags plus
    the ``victim_*`` fields; every other attribute (``stats``,
    ``extra_lookup_latency``, ``premap``, ...) reads through to the
    model.  The adapter answers the three mapping reads ``run_mix``
    makes of an LLC (:attr:`index_randomizer`, :meth:`reset_stats`,
    :meth:`refresh_mapping_cache_stats`) for a model that lacks them:
    the set-associative array has none of the three, and the Maya
    object model keeps its randomizer in its tag store.
    """

    def __init__(self, model):
        self.model = model
        self.victim_addr = 0
        self.victim_core = -1
        self.victim_sdid = 0
        self.victim_reused = False

    def __getattr__(self, name):
        return getattr(self.model, name)

    @property
    def index_randomizer(self):
        """The model's randomizer, or ``None`` for a model without one."""
        return getattr(self.model, "index_randomizer", None)

    def reset_stats(self) -> None:
        """The model's ``reset_stats``, or a reset of its statistics."""
        reset = getattr(self.model, "reset_stats", None)
        if reset is None:
            self.model.stats.reset()
        else:
            reset()

    def refresh_mapping_cache_stats(self):
        """The model's ``refresh_mapping_cache_stats``, or nothing."""
        refresh = getattr(self.model, "refresh_mapping_cache_stats", None)
        return None if refresh is None else refresh()

    def access_fast(self, line_addr, is_write=False, core_id=0, is_writeback=False, sdid=0):
        result = self.model.access(
            line_addr, is_write=is_write, core_id=core_id, is_writeback=is_writeback, sdid=sdid
        )
        if result.hit:
            return ACC_HIT
        flags = (ACC_TAG_HIT if result.tag_hit else 0) | (ACC_SAE if result.sae else 0)
        evicted = result.evicted
        if evicted is not None:
            flags |= ACC_EVICTED | (ACC_EVICTED_DIRTY if evicted.dirty else 0)
            self.victim_addr = evicted.line_addr
            self.victim_core = evicted.core_id
            self.victim_sdid = evicted.sdid
            self.victim_reused = evicted.was_reused
        return flags


__all__ = [
    "AccessFastAdapter",
    "ReferenceDataStore",
    "ReferenceFullyAssociativeCache",
    "ReferenceMayaCache",
    "ReferenceMirageCache",
    "ReferenceSetAssociativeCache",
    "ReferenceSkewedRandomizedCache",
    "ReferenceSkewedTagStore",
    "ScalarPrince",
]
