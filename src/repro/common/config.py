"""Typed configuration objects for every simulated structure.

The defaults throughout this module are the paper's evaluated
configuration (Tables II, V, VIII): an 8-core system with a 16 MB
16-way non-secure baseline LLC, a Mirage LLC with 14 tag ways per skew
over an unchanged 16 MB data store, and a Maya LLC with 6 base + 3
reuse + 6 invalid tag ways per skew over a reduced 12 MB data store.

All configs are frozen dataclasses with a ``validate()`` invoked from
``__post_init__`` so an inconsistent configuration fails at construction
time rather than deep inside a simulation.  Each secure-cache config
also exposes ``scaled(factor)``, which divides the number of sets while
preserving the way structure - the security and performance *shape*
results depend on the per-set provisioning ratios, not the absolute set
count, and scaled configs let the Python simulators finish in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .addr import DEFAULT_LINE_BYTES
from .bitops import is_power_of_two
from .errors import ConfigurationError


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of a conventional set-associative cache.

    >>> CacheGeometry(sets=16384, ways=16).capacity_bytes
    16777216
    """

    sets: int
    ways: int
    line_bytes: int = DEFAULT_LINE_BYTES

    def __post_init__(self) -> None:
        _require(self.sets > 0, f"sets must be positive, got {self.sets}")
        _require(is_power_of_two(self.sets), f"sets must be a power of two, got {self.sets}")
        _require(self.ways > 0, f"ways must be positive, got {self.ways}")
        _require(is_power_of_two(self.line_bytes), "line size must be a power of two")

    @property
    def lines(self) -> int:
        """Total number of cache lines."""
        return self.sets * self.ways

    @property
    def capacity_bytes(self) -> int:
        """Data capacity in bytes."""
        return self.lines * self.line_bytes

    def scaled(self, factor: int) -> "CacheGeometry":
        """Return the geometry with ``sets`` divided by ``factor``."""
        _require(factor >= 1 and self.sets % factor == 0, f"cannot scale {self.sets} sets by {factor}")
        return replace(self, sets=self.sets // factor)


@dataclass(frozen=True)
class MirageConfig:
    """Mirage LLC configuration (Saileshwar & Qureshi, USENIX Sec'21).

    The default is the paper's comparison point: 2 skews x 16K sets,
    8 base + 6 extra (invalid) tag ways per skew, and a full-size
    256K-entry data store (16 MB).
    """

    skews: int = 2
    sets_per_skew: int = 16384
    base_ways_per_skew: int = 8
    extra_ways_per_skew: int = 6
    line_bytes: int = DEFAULT_LINE_BYTES
    rng_seed: Optional[int] = None
    #: "prince" (faithful) or "splitmix" (fast, perf experiments only).
    hash_algorithm: str = "prince"
    #: Randomizer mapping-cache entries; ``None`` uses the library
    #: default (:data:`repro.crypto.randomizer.DEFAULT_MEMO_CAPACITY`).
    memo_capacity: Optional[int] = None

    def __post_init__(self) -> None:
        _require(self.skews >= 2, "Mirage needs at least two skews")
        _require(
            self.memo_capacity is None or self.memo_capacity > 0,
            "mapping-cache capacity must be positive when given",
        )
        _require(is_power_of_two(self.sets_per_skew), "sets per skew must be a power of two")
        _require(self.base_ways_per_skew > 0, "need at least one base way per skew")
        _require(self.extra_ways_per_skew >= 0, "extra ways cannot be negative")

    @property
    def ways_per_skew(self) -> int:
        """Total tag ways per skew (base + extra invalid)."""
        return self.base_ways_per_skew + self.extra_ways_per_skew

    @property
    def tag_entries(self) -> int:
        """Total tag-store entries across skews."""
        return self.skews * self.sets_per_skew * self.ways_per_skew

    @property
    def data_entries(self) -> int:
        """Data-store entries: one per *base* tag way."""
        return self.skews * self.sets_per_skew * self.base_ways_per_skew

    @property
    def data_capacity_bytes(self) -> int:
        return self.data_entries * self.line_bytes

    def scaled(self, factor: int) -> "MirageConfig":
        _require(self.sets_per_skew % factor == 0, f"cannot scale {self.sets_per_skew} sets by {factor}")
        return replace(self, sets_per_skew=self.sets_per_skew // factor)


@dataclass(frozen=True)
class MayaConfig:
    """Maya LLC configuration (the paper's primary contribution).

    Defaults follow Section III-C: 2 skews x 16K sets, 6 base ways per
    skew (priority-1 capacity, = data-store entries), 3 reuse ways per
    skew (priority-0 capacity), 6 invalid ways per skew (security
    provisioning), giving 480K tag entries over a 192K-entry (12 MB)
    data store.
    """

    skews: int = 2
    sets_per_skew: int = 16384
    base_ways_per_skew: int = 6
    reuse_ways_per_skew: int = 3
    invalid_ways_per_skew: int = 6
    line_bytes: int = DEFAULT_LINE_BYTES
    sdid_bits: int = 8
    rng_seed: Optional[int] = None
    #: "prince" (faithful) or "splitmix" (fast, perf experiments only).
    hash_algorithm: str = "prince"
    #: Randomizer mapping-cache entries; ``None`` uses the library
    #: default (:data:`repro.crypto.randomizer.DEFAULT_MEMO_CAPACITY`).
    memo_capacity: Optional[int] = None

    def __post_init__(self) -> None:
        _require(self.skews >= 2, "Maya needs at least two skews")
        _require(
            self.memo_capacity is None or self.memo_capacity > 0,
            "mapping-cache capacity must be positive when given",
        )
        _require(is_power_of_two(self.sets_per_skew), "sets per skew must be a power of two")
        _require(self.base_ways_per_skew > 0, "need at least one base (priority-1) way per skew")
        _require(self.reuse_ways_per_skew > 0, "need at least one reuse (priority-0) way per skew")
        _require(self.invalid_ways_per_skew >= 0, "invalid ways cannot be negative")
        _require(0 < self.sdid_bits <= 16, "SDID width must be in (0, 16]")

    @property
    def ways_per_skew(self) -> int:
        """Total tag ways per skew (base + reuse + invalid)."""
        return self.base_ways_per_skew + self.reuse_ways_per_skew + self.invalid_ways_per_skew

    @property
    def tag_entries(self) -> int:
        """Total tag-store entries across skews."""
        return self.skews * self.sets_per_skew * self.ways_per_skew

    @property
    def priority1_entries(self) -> int:
        """Steady-state priority-1 tag entries (= data-store entries)."""
        return self.skews * self.sets_per_skew * self.base_ways_per_skew

    @property
    def priority0_entries(self) -> int:
        """Steady-state priority-0 (tag-only) entries."""
        return self.skews * self.sets_per_skew * self.reuse_ways_per_skew

    @property
    def data_entries(self) -> int:
        """Data-store entries (one per steady-state priority-1 tag)."""
        return self.priority1_entries

    @property
    def data_capacity_bytes(self) -> int:
        return self.data_entries * self.line_bytes

    @property
    def max_domains(self) -> int:
        """Number of distinct security domains the SDID can isolate."""
        return 1 << self.sdid_bits

    def scaled(self, factor: int) -> "MayaConfig":
        _require(self.sets_per_skew % factor == 0, f"cannot scale {self.sets_per_skew} sets by {factor}")
        return replace(self, sets_per_skew=self.sets_per_skew // factor)


#: The paper's Maya default (12 MB data store, Section III-C).
PAPER_MAYA = MayaConfig()

#: The paper's Mirage comparison point (16 MB data store).
PAPER_MIRAGE = MirageConfig()

#: The paper's non-secure baseline (16 MB, 16-way; Table V).
PAPER_BASELINE = CacheGeometry(sets=16384, ways=16)


@dataclass(frozen=True)
class DramConfig:
    """Main-memory timing model (Table V, flattened to a fixed latency).

    The paper uses DDR4-3200 with open-page row buffers; our core model
    accounts a fixed row-hit latency plus a row-miss penalty drawn from
    a simple open-page row-buffer model.
    """

    row_hit_cycles: int = 100
    row_miss_cycles: int = 180
    row_buffer_bytes: int = 4096
    banks: int = 16
    #: Channel occupancy per 64 B transfer (DDR4-3200, two channels, at
    #: 4 GHz core clock).  Used only when bandwidth modelling is on.
    service_cycles: int = 5

    def __post_init__(self) -> None:
        _require(self.row_hit_cycles > 0, "row-hit latency must be positive")
        _require(self.row_miss_cycles >= self.row_hit_cycles, "row miss cannot be faster than row hit")
        _require(is_power_of_two(self.row_buffer_bytes), "row buffer must be a power of two")
        _require(self.banks > 0, "need at least one bank")
        _require(self.service_cycles > 0, "service time must be positive")


@dataclass(frozen=True)
class HierarchyLatencies:
    """Per-level load-to-use latencies in cycles (Table V)."""

    l1_cycles: int = 5
    l2_cycles: int = 10
    llc_cycles: int = 24


@dataclass(frozen=True)
class SystemConfig:
    """Multi-core simulated system (Table V), scaled for Python speed.

    ``llc_scale`` divides the number of LLC sets (and private-cache
    sets proportionally) so trace-driven runs finish quickly; the way
    structure, latencies, and provisioning ratios are unchanged.
    """

    cores: int = 8
    l1d_geometry: CacheGeometry = field(default_factory=lambda: CacheGeometry(sets=64, ways=12))
    l2_geometry: CacheGeometry = field(default_factory=lambda: CacheGeometry(sets=1024, ways=8))
    llc_geometry: CacheGeometry = field(default_factory=lambda: CacheGeometry(sets=16384, ways=16))
    latencies: HierarchyLatencies = field(default_factory=HierarchyLatencies)
    dram: DramConfig = field(default_factory=DramConfig)
    base_cpi: float = 0.25  # 4-wide effective issue on non-memory work
    rng_seed: Optional[int] = None

    def __post_init__(self) -> None:
        _require(self.cores > 0, "need at least one core")
        _require(self.base_cpi > 0, "base CPI must be positive")

    def scaled(self, factor: int) -> "SystemConfig":
        """Scale all cache levels' set counts down by ``factor``."""
        return replace(
            self,
            l1d_geometry=self.l1d_geometry.scaled(min(factor, self.l1d_geometry.sets)),
            l2_geometry=self.l2_geometry.scaled(min(factor, self.l2_geometry.sets)),
            llc_geometry=self.llc_geometry.scaled(factor),
        )

