"""Physical-address helpers.

The simulators work on *line addresses* (the physical address with the
block offset stripped).  The paper uses 64-byte lines.
"""

from __future__ import annotations

from .bitops import log2_exact, mask
from .errors import ConfigurationError

#: Paper configuration: 64-byte cache lines.
DEFAULT_LINE_BYTES = 64

#: Width of the SDID lane in the packed ``(line_addr << SDID_SHIFT) |
#: sdid`` key of every location map and of the randomizer's mapping
#: tables.  A wider SDID would alias another domain's line, so the
#: object APIs reject it (``if sdid >> SDID_SHIFT:`` also catches a
#: negative one).
SDID_SHIFT = 16


def sdid_error(sdid: int, bits: int = SDID_SHIFT) -> ConfigurationError:
    """The error for an SDID outside ``[0, 2**bits)``.

    >>> sdid_error(1 << 16)
    ConfigurationError('SDID 65536 does not fit 16 bits (0..65535)')
    """
    return ConfigurationError(f"SDID {sdid} does not fit {bits} bits (0..{(1 << bits) - 1})")


def set_index_from_address(line_addr: int, num_sets: int) -> int:
    """Conventional (non-randomized) set index: low line-address bits."""
    return line_addr & mask(log2_exact(num_sets))
