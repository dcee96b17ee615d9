"""Mirage: the fully-associative-illusion LLC Maya improves upon.

Mirage (Saileshwar & Qureshi, USENIX Security'21) decouples tag and
data stores, over-provisions *invalid* tags in a two-skew tag array
(load-aware skew selection keeps them balanced), and on every fill
evicts a uniformly random line from the *entire* data store (global
random eviction).  The result: fills never cause set-associative
evictions in practice, so evictions leak no address information.

Differences from Maya (and why Maya saves storage): Mirage installs
data for *every* fill, so its data store matches the baseline's 16 MB
and the extra tags are pure overhead (+20% storage); Maya's reuse
filtering lets it shrink the data store below the baseline instead.

The tag array is stored as packed columns (validity, address, SDID,
core, FPTR, dirty/reused bits).  The per-access protocol lives in
:mod:`repro.llc.mirage_step`, which renders it per configuration over
these columns.  :meth:`MirageCache.access_fast` binds that step on
first use; it returns an ``ACC_*`` flag int and publishes any victim
through the ``victim_*`` instance fields.  This module keeps the tag
drop, flush and introspection; the probe surface, the key refresh and
the randomizer's counters come from
:class:`~repro.llc.interface.MappedLLCache`.  Only the deployed
configuration is modelled: two skews with load-aware skew selection.
The object-model reference in ``repro.reference.mirage`` also keeps
more skews and random skew selection; the skew-selection ablation runs
on the bucket model (:mod:`repro.security.buckets`).  Behaviour is
bit-identical to that reference (enforced by the differential tests).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..cache.line import drop_victim, first_access
from ..cache.stats import CacheStats
from ..common.addr import SDID_SHIFT
from ..common.config import MirageConfig
from ..common.errors import SimulationError
from ..common.rng import derive_seed, make_rng
from ..core.data_store import DataStore
from ..crypto.randomizer import DEFAULT_MEMO_CAPACITY, IndexRandomizer
from .interface import MappedLLCache
from .mirage_step import mirage_step


class MirageCache(MappedLLCache):
    """Functional Mirage model (v2 'MIRAGE' with global evictions).

    Only the paper's two skews are supported; skew selection is always
    load-aware.  ``on_sae`` is ``"count"`` (evict a random way of the
    full set and count it) or ``"raise"``
    (:class:`~repro.common.errors.SetAssociativeEviction`).
    """

    extra_lookup_latency = 4
    sdid_bits = SDID_SHIFT

    def __init__(self, config: Optional[MirageConfig] = None, on_sae: str = "count"):
        self.config = config or MirageConfig()
        if self.config.skews != 2:
            raise ValueError(f"MirageCache models two skews, not {self.config.skews}")
        if on_sae not in ("count", "raise"):
            raise ValueError(f"unknown SAE policy {on_sae!r}")
        self._on_sae = on_sae
        cfg = self.config
        self._ways = cfg.ways_per_skew
        self._sets = cfg.sets_per_skew
        self.index_randomizer = IndexRandomizer(
            cfg.skews,
            cfg.sets_per_skew,
            seed=derive_seed(cfg.rng_seed, 31),
            algorithm=cfg.hash_algorithm,
            memo_capacity=(
                cfg.memo_capacity if cfg.memo_capacity is not None else DEFAULT_MEMO_CAPACITY
            ),
        )
        self._rng = make_rng(derive_seed(cfg.rng_seed, 32))
        total = cfg.tag_entries
        # A tag entry is valid iff its FPTR >= 0; the separate validity
        # byte column exists so find-invalid-way is a C-speed .find().
        self._valid = bytearray(total)
        # Integer columns are plain lists: stores keep a reference to
        # the caller's int and reads skip the array-type box/unbox on
        # the install/evict hot path.
        self._addr = [0] * total
        self._sdid = [0] * total
        self._core = [-1] * total
        self._dirty = bytearray(total)
        self._reused = bytearray(total)
        self._fptr = [-1] * total
        # Flat list indexed ``skew * sets + set_idx`` (== tag_idx // ways).
        self._valid_count = [0] * (2 * self._sets)
        #: packed (line_addr << SDID_SHIFT | sdid) -> tag index.
        self._where: Dict[int, int] = {}
        self.data = DataStore(cfg.data_entries, seed=derive_seed(cfg.rng_seed, 33))
        self.stats = CacheStats()
        self.installs = 0

    # -- access path ---------------------------------------------------------

    #: One access with no allocation; returns ``ACC_*`` flags.  Binds
    #: the generated step on first use.
    access_fast = first_access

    def fresh_steps(self):
        """Mirage's one fresh generated step (:func:`~repro.llc.mirage_step.mirage_step`)."""
        return [(self, mirage_step(self))]

    def _drop(self, tag_idx: int) -> int:
        if not self._valid[tag_idx]:
            raise SimulationError("dropping an invalid Mirage tag")
        addr = self._addr[tag_idx]
        sd = self._sdid[tag_idx]
        flags = drop_victim(
            self, addr, self._core[tag_idx], sd, self._dirty[tag_idx], self._reused[tag_idx]
        )
        self.data.free(self._fptr[tag_idx])
        self._valid_count[tag_idx // self._ways] -= 1
        del self._where[(addr << SDID_SHIFT) | sd]
        # Only the validity and FPTR columns are cleared: every reader
        # gates on them (or on ``_where``), and a refill overwrites the
        # rest, so further resets would be wasted stores.
        self._valid[tag_idx] = 0
        self._fptr[tag_idx] = -1
        return flags

    # -- maintenance -----------------------------------------------------------

    def flush_all(self) -> int:
        # Insertion order of the location map, matching the reference
        # model exactly (the order the data entries return to the free
        # list is observable through later allocations).
        count = 0
        for tag_idx in list(self._where.values()):
            self._drop(tag_idx)
            count += 1
        return count

    @property
    def occupancy(self) -> int:
        return self.data.used

    def resident_unreused(self) -> int:
        """Still-resident never-reused lines (Fig. 1 accounting)."""
        valid = self._valid
        reused = self._reused
        return sum(1 for i in range(len(valid)) if valid[i] and not reused[i])

    def check_invariants(self) -> None:
        """Structural consistency between tags, data, and indices."""
        expected = {}
        valid_total = 0
        per_set = [0] * (2 * self._sets)
        for idx in range(len(self._valid)):
            if self._valid[idx]:
                if self._fptr[idx] < 0:
                    raise SimulationError("valid Mirage tag without a data pointer")
                valid_total += 1
                expected[self._fptr[idx]] = idx
                per_set[idx // self._ways] += 1
        self.data.check_invariants(expected)
        if valid_total != len(self._where):
            raise SimulationError("location map out of sync")
        if per_set != self._valid_count:
            raise SimulationError("per-set valid counters out of sync")
