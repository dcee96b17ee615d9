"""Memory-access records.

A trace is any iterable of :class:`MemoryAccess`.  The synthetic
generators in :mod:`repro.trace.synthetic` produce them lazily; the
trace compiler (:mod:`repro.trace.compiled`) packs them into the
columns the hierarchy simulator replays.  Addresses are *line* addresses
(the 64-byte block offset is already stripped).
"""

from __future__ import annotations


class MemoryAccess:
    """One memory instruction's cache access.

    ``gap`` is the number of non-memory instructions retired since the
    previous access; the core timing model charges ``gap * base_cpi``
    cycles of compute between accesses.
    """

    __slots__ = ("line_addr", "is_write", "gap")

    def __init__(self, line_addr: int, is_write: bool = False, gap: int = 3):
        self.line_addr = line_addr
        self.is_write = is_write
        self.gap = gap

    def __repr__(self) -> str:
        kind = "W" if self.is_write else "R"
        return f"MemoryAccess({kind} {self.line_addr:#x}, gap={self.gap})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MemoryAccess)
            and self.line_addr == other.line_addr
            and self.is_write == other.is_write
            and self.gap == other.gap
        )

    def __hash__(self) -> int:
        # Defining __eq__ without __hash__ would set __hash__ to None
        # and make records unhashable; the trace compiler dedups
        # records via sets, so hash must agree with __eq__.
        return hash((self.line_addr, self.is_write, self.gap))
