"""Ahead-of-time translated index columns with an on-disk cache.

Compiled traces (:mod:`repro.trace.compiled`) make the *access stream*
replayable without generator overhead; this module does the same for
the *randomizer*: before the timed loop, every distinct line address a
replay can touch is pushed through the batch cipher kernel
(:meth:`repro.crypto.randomizer.IndexRandomizer.translate`) and the
resulting per-skew set-index columns are persisted, so warm trials skip
cipher work entirely.  Under ``algorithm="prince"`` that cipher work
dominates a cold trial, which is what made prince-mode sweeps the
documented 10x-slower fallback.

A :class:`TranslatedTrace` holds:

* ``line_addrs`` - sorted ``array('Q')`` of distinct line addresses
  (already shifted by the per-core region offset), and
* ``columns`` - one ``array('I')`` of set indices per skew, aligned
  with ``line_addrs``.

The drive loop feeds both to
:meth:`~repro.crypto.randomizer.IndexRandomizer.load_packed`, which
installs them in the randomizer's precomputed side table — consulted on
memo *misses* only, so memo accounting stays bit-identical to an
untranslated run.  From the first :meth:`rekey` onward the pipeline is
self-invalidating twice over: the side table is dropped with the old
keys (lookups fall back to the live cipher), and the cache key embeds
:meth:`~repro.crypto.randomizer.IndexRandomizer.key_fingerprint`, so a
stale file can never be loaded for the new keys.

:func:`translate_trace` caches translations in :data:`TRANSLATIONS`,
an :class:`~repro.store.ArtifactCache` whose ``.tix`` files share the
artifact directory with the compiled traces (``REPRO_TRACE_CACHE``
relocates or disables every kind at once).  The content key is the
address-set content hash x randomizer fingerprint (algorithm, skews,
index bits, key material) x SDID.  Corrupt files are never fatal:
logged, deleted, retranslated.
"""

from __future__ import annotations

import hashlib
import struct
from array import array
from typing import Sequence, Tuple

from .. import store
from ..common.errors import TraceError
from ..crypto.randomizer import IndexRandomizer

#: Version of the translation pipeline; part of every content key.
TRANSLATION_VERSION = 1


class TranslatedTrace:
    """Sorted distinct line addresses with aligned per-skew index columns."""

    __slots__ = ("line_addrs", "columns")

    def __init__(self, line_addrs: array, columns: Sequence[array]):
        for col in columns:
            if len(col) != len(line_addrs):
                raise TraceError(
                    f"column length {len(col)} != {len(line_addrs)} addresses"
                )
        self.line_addrs = line_addrs
        self.columns: Tuple[array, ...] = tuple(columns)

    def __len__(self) -> int:
        return len(self.line_addrs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TranslatedTrace)
            and self.line_addrs == other.line_addrs
            and self.columns == other.columns
        )

    def columns_numpy(self):
        """``(line_addrs, per_skew_indices)`` as zero-copy numpy views.

        ``line_addrs`` comes back as a ``uint64`` ndarray and each skew
        column as a ``uint32`` ndarray, all sharing memory with the
        packed columns.  The views are explicitly non-writeable: writes
        would corrupt the cached translation (and, under the mmap
        store, the shared map).  Callers use these to seed the
        randomizer side table without a per-element unbox loop.
        """
        import numpy as np

        addrs = np.frombuffer(self.line_addrs, dtype=np.uint64)
        columns = tuple(np.frombuffer(col, dtype=np.uint32) for col in self.columns)
        for view in (addrs,) + columns:
            view.flags.writeable = False
        return (addrs, columns)


def translated_key(addrs: array, randomizer: IndexRandomizer, sdid: int) -> str:
    """The full content key for one translated address set.

    The randomizer fingerprint covers algorithm, skew count, index
    width, *and the epoch's key material*, so a rekey (new keys) or a
    different seed can never alias a cached translation; the address
    digest covers the exact sorted address set including any region
    offset already applied.
    """
    digest = hashlib.sha256(store.column_bytes(addrs)).hexdigest()[:32]
    return (
        f"tix|fp={randomizer.key_fingerprint()}|sdid={sdid}"
        f"|n={len(addrs)}|addrs={digest}|gen={TRANSLATION_VERSION}"
    )


#: The translated-index cache.  File format: magic, ``<HBQ`` header
#: (key length, skew count, address count), the UTF-8 key, the address
#: column, the per-skew index columns, CRC-32.
TRANSLATIONS = store.ArtifactCache(
    "translated",
    magic=b"MAYATIX1",
    header=struct.Struct("<HBQ"),
    suffix=".tix",
    memo_capacity=32,
    layout=lambda skews, count: (("Q", count),) + (("I", count),) * skews,
    pack=lambda t: ((len(t.columns), len(t)), (t.line_addrs, *t.columns)),
    unpack=lambda columns: TranslatedTrace(columns[0], columns[1:]),
)


def translate_trace(
    randomizer: IndexRandomizer,
    trace,
    sdid: int = 0,
    offset: int = 0,
) -> TranslatedTrace:
    """Translate a compiled trace's distinct lines, cached.

    ``trace`` is a :class:`~repro.trace.compiled.CompiledTrace` (or any
    object with ``unique_lines(offset)``); ``offset`` is the per-core
    region shift the drive loop applies.  A cold translation is one
    serial :meth:`IndexRandomizer.translate` pass in this process.
    Translations are cached in :data:`TRANSLATIONS`.
    """
    addrs = array("Q", sorted(trace.unique_lines(offset)))

    def build() -> TranslatedTrace:
        return TranslatedTrace(addrs, randomizer.translate(addrs, sdid))

    return TRANSLATIONS.get(translated_key(addrs, randomizer, sdid), build)
