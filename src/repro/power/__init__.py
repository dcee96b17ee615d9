"""Storage, power, and area models (Tables VIII and IX)."""

from .cacti_lite import CactiLite, PowerAreaEstimate, table_ix
from .storage import (
    COHERENCE_BITS,
    DATA_BITS,
    PHYSICAL_ADDRESS_BITS,
    SDID_BITS,
    StorageBreakdown,
    baseline_storage,
    line_address_bits,
    maya_iso_area_storage,
    maya_storage,
    mirage_storage,
    table_viii,
)

__all__ = [
    "COHERENCE_BITS",
    "DATA_BITS",
    "PHYSICAL_ADDRESS_BITS",
    "SDID_BITS",
    "CactiLite",
    "PowerAreaEstimate",
    "StorageBreakdown",
    "baseline_storage",
    "line_address_bits",
    "maya_iso_area_storage",
    "maya_storage",
    "mirage_storage",
    "table_ix",
    "table_viii",
]
