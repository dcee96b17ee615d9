"""Shared utilities: addresses, bit operations, configs, RNG, errors."""

from .addr import DEFAULT_LINE_BYTES, set_index_from_address
from .bitops import (
    bits_required,
    fold_xor,
    is_power_of_two,
    log2_exact,
    mask,
    parity,
    rotate_left,
)
from .config import (
    PAPER_BASELINE,
    PAPER_MAYA,
    PAPER_MIRAGE,
    CacheGeometry,
    DramConfig,
    HierarchyLatencies,
    MayaConfig,
    MirageConfig,
    SystemConfig,
)
from .errors import (
    AttackError,
    ConfigurationError,
    ReproError,
    SetAssociativeEviction,
    SimulationError,
    TraceError,
)
from .rng import DEFAULT_SEED, derive_seed, make_rng

__all__ = [
    "DEFAULT_LINE_BYTES",
    "DEFAULT_SEED",
    "PAPER_BASELINE",
    "PAPER_MAYA",
    "PAPER_MIRAGE",
    "AttackError",
    "CacheGeometry",
    "ConfigurationError",
    "DramConfig",
    "HierarchyLatencies",
    "MayaConfig",
    "MirageConfig",
    "ReproError",
    "SetAssociativeEviction",
    "SimulationError",
    "SystemConfig",
    "TraceError",
    "bits_required",
    "derive_seed",
    "fold_xor",
    "is_power_of_two",
    "log2_exact",
    "make_rng",
    "mask",
    "parity",
    "rotate_left",
    "set_index_from_address",
]
