"""Physical-address helpers.

The simulators work on *line addresses* (the physical address with the
block offset stripped).  The paper uses 64-byte lines and a 46-bit
physical line address; both are configurable here but every helper
defaults to the paper's values.
"""

from __future__ import annotations

from .bitops import log2_exact, mask
from .errors import ConfigurationError

#: Paper configuration: 64-byte cache lines.
DEFAULT_LINE_BYTES = 64

#: Paper configuration: 46-bit line address (Section III-C).
DEFAULT_LINE_ADDRESS_BITS = 46

#: Width of the SDID lane in the packed ``(line_addr << SDID_SHIFT) |
#: sdid`` key of every location map and of the randomizer's mapping
#: tables.  A wider SDID would alias another domain's line, so the
#: object APIs reject it (``if sdid >> SDID_SHIFT:`` also catches a
#: negative one).
SDID_SHIFT = 16


def sdid_error(sdid: int, bits: int = SDID_SHIFT) -> ConfigurationError:
    """The error for an SDID outside ``[0, 2**bits)``."""
    return ConfigurationError(f"SDID {sdid} does not fit {bits} bits (0..{(1 << bits) - 1})")


def line_address(address: int, line_bytes: int = DEFAULT_LINE_BYTES) -> int:
    """Strip the block offset from a byte address.

    >>> line_address(0x1234)
    72
    """
    return address >> log2_exact(line_bytes)


def page_number(address: int, page_bytes: int = 4096) -> int:
    """Return the page frame number of a byte address."""
    return address >> log2_exact(page_bytes)


def set_index_from_address(line_addr: int, num_sets: int) -> int:
    """Conventional (non-randomized) set index: low line-address bits."""
    return line_addr & mask(log2_exact(num_sets))
