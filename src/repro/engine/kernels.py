"""Numpy batch kernels for the op-stream replay's setup.

:func:`splitmix_indices` is the vectorized splitmix64 index derivation
behind :meth:`repro.engine.vector.VectorReplay.precompute_indices`:
every distinct line a replay can touch is mixed and XOR-folded in one
pass and installed in the randomizer's precomputed side table, so the
replay loop's per-miss index derivation becomes a dict probe.  The
scalar inline mixer in :mod:`repro.crypto.randomizer` remains the
oracle; ``tests/test_vector_kernels.py`` cross-checks the kernel
against it element-wise.

numpy is an *optional* dependency of the library: import this module
lazily and let :data:`HAVE_NUMPY` gate usage.
"""

from __future__ import annotations

from typing import Sequence

try:  # pragma: no cover - exercised implicitly by every import
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - the numpy-less fallback path
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

_M64 = (1 << 64) - 1

#: splitmix64 multiplier constants (Steele et al.), as in
#: :func:`repro.crypto.randomizer.splitmix64`.
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _require_numpy() -> None:
    if not HAVE_NUMPY:
        raise RuntimeError("numpy is not available; the batch kernels cannot run")


def splitmix_indices(line_addrs, keys: Sequence[int], index_bits: int, sdid: int = 0):
    """Per-skew set indices for a batch of line addresses (splitmix64).

    Vectorized mirror of the inline mixer in
    ``MayaCache._install_priority0`` /
    ``IndexRandomizer._raw_indices``: for every key, XOR the tweaked
    address with the key, run the splitmix64 finalizer, and XOR-fold
    the 64-bit word down to ``index_bits``.  Returns one
    ``np.uint32`` array per key, element-aligned with ``line_addrs``.

    ``line_addrs`` may be any buffer — including the non-writeable
    views ``columns_numpy()`` hands out over mmap-backed cache columns;
    the kernel never writes its inputs, every derived array is fresh.
    """
    _require_numpy()
    addrs = np.ascontiguousarray(line_addrs, dtype=np.uint64)
    tweaked = addrs ^ np.uint64((sdid << 56) & _M64)
    mask = np.uint64((1 << index_bits) - 1)
    mix1 = np.uint64(_MIX1)
    mix2 = np.uint64(_MIX2)
    columns = []
    for key in keys:
        x = tweaked ^ np.uint64(key & _M64)
        x = (x ^ (x >> np.uint64(30))) * mix1
        x = (x ^ (x >> np.uint64(27))) * mix2
        x ^= x >> np.uint64(31)
        folded = x.copy()
        for shift in range(index_bits, 64, index_bits):
            folded ^= x >> np.uint64(shift)
        columns.append((folded & mask).astype(np.uint32))
    return columns
