"""Compile-once cache for the generated per-access step functions.

The cache state machines render per-configuration Python source (the
steps in :mod:`repro.core.maya_step`, :mod:`repro.llc.mirage_step`,
:mod:`repro.llc.skewed_step`, :mod:`repro.llc.ceaser_step`,
:mod:`repro.llc.fully_assoc_step` and
:mod:`repro.cache.set_assoc_step`).  Each template defines a
``_bind(target, SimulationError, SetAssociativeEviction)`` function that
binds the target's columns as closure locals and returns its
``access_fast`` step.

Compiled code objects are cached in-process, keyed by template kind and
config fingerprint, so a resident service worker compiles each
configuration once per warm pool.  Nothing is cached on disk: the
source renders in tens of microseconds and ``compile()`` would run on
every process start either way.

The snippets the randomized steps share live here too, so their sites
cannot drift apart: the stdlib-exact random draw (:func:`_draw`), the
splitmix64 mixer (:func:`_splitmix`) and the randomizer's mapping-memo
lookup (:func:`_memo_lookup`) with its inlined mix and fold.
"""

from __future__ import annotations

import textwrap
from typing import NamedTuple, Optional

from .errors import SetAssociativeEviction, SimulationError


class SpecializeCacheInfo(NamedTuple):
    """Counters for the in-process code cache (``cache_snapshot`` row)."""

    memory_hits: int
    compiles: int
    size: int


_code_cache: dict = {}
_memory_hits = 0
_compiles = 0


def specialize_cache_info() -> SpecializeCacheInfo:
    """Hit/compile counters of the in-process code cache."""
    return SpecializeCacheInfo(
        memory_hits=_memory_hits, compiles=_compiles, size=len(_code_cache)
    )


def compiled_template(kind: str, fingerprint: tuple, build_source):
    """Code object for (kind, fingerprint), compiled once per process.

    A template cannot change inside a process, so the config fingerprint
    and the template kind are the whole key: identical configurations
    (a resident service worker's every job) reuse one compile.  The
    fingerprint must cover every value the template renders as a
    literal.  It also names the code object, so a profile tells
    configurations apart.
    """
    global _memory_hits, _compiles
    key = (kind, fingerprint)
    code = _code_cache.get(key)
    if code is not None:
        _memory_hits += 1
        return code
    name = repr(fingerprint).replace(" ", "")
    code = compile(build_source(), f"<specialized:{kind}:{name}>", "exec")
    _compiles += 1
    _code_cache[key] = code
    return code


def bind_template(code, target):
    """Run a compiled template and bind its step to ``target``."""
    namespace: dict = {}
    exec(code, namespace)
    return namespace["_bind"](target, SimulationError, SetAssociativeEviction)


def _indent(snippet: str, spaces: int) -> str:
    """``snippet`` (written at column 0) indented for its site."""
    return textwrap.indent(snippet, " " * spaces).rstrip("\n")


def _draw(target: str, n, getrandbits: str) -> str:
    """``target = rng._randbelow(n)`` without the stdlib frame.

    ``Random._randbelow`` (and so ``randrange(n)``) is the
    ``getrandbits(n.bit_length())`` rejection loop; this renders the
    same loop, so the same bits come from the same stream.  An int
    ``n`` renders its bit length as a literal; any other ``n`` is an
    expression evaluated per draw.
    """
    k = n.bit_length() if isinstance(n, int) else f"{n}.bit_length()"
    return (
        f"{target} = {getrandbits}({k})\n"
        f"while {target} >= {n}:\n"
        f"    {target} = {getrandbits}({k})\n"
    )


def _splitmix(value: str, key: str) -> str:
    """``x = splitmix64((value ^ key) & M64)``, the randomizer's mixer."""
    return (
        f"x = ({value} ^ {key}) & 0xFFFFFFFFFFFFFFFF\n"
        "x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF\n"
        "x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF\n"
        "x ^= x >> 31\n"
    )


# IndexRandomizer._lookup_packed of ``key`` (its LRU discipline, counters
# and precomputed side table), then the two skews' indices unpacked from
# their 32-bit lanes.
_MEMO_LOOKUP = """\
packed = memo_pop(key, None)
if packed is None:
    rand.cache_misses += 1
    packed = precomputed_get(key)
    if packed is None:
{MISS}
    if len(memo) >= {MEMO_CAP}:
        del memo[next(iter(memo))]
else:
    rand.cache_hits += 1
memo[key] = packed
i0 = packed & 0xFFFFFFFF
i1 = packed >> 32
"""


def _memo_lookup(memo_cap: int, mix_bits: Optional[int], sdid: str = "sdid") -> str:
    """The two-skew mapping lookup of ``key`` into ``i0``/``i1``.

    Reads ``line_addr``, ``key`` (the packed ``line_addr``/``sdid``
    key) and ``sdid``, the expression for the SDID that enters the hash
    (``"0"`` for a design that maps every domain alike), and needs
    ``rand``, ``memo``, ``memo_pop`` and ``precomputed_get`` bound.  A
    miss outside the side table runs the splitmix mixer inline when
    ``mix_bits`` (the index width) is given - the two-skew
    ``IndexRandomizer._raw_packed``, whose XOR fold over ``64/bits``
    chunks renders as shift offsets (masking distributes over XOR, so
    it equals the chunk fold for any width) - else calls the bound
    ``raw_packed`` (the PRINCE cipher).  ``memo_cap`` and ``mix_bits``
    must be part of the template's fingerprint.
    """
    if mix_bits is None:
        miss = f"packed = raw_packed(line_addr, {sdid})\n"
    else:
        fold = " ^ ".join(["x"] + [f"(x >> {s})" for s in range(mix_bits, 64, mix_bits)])
        mask = (1 << mix_bits) - 1
        miss = (
            "k0, k1 = rand._mix_keys\n"
            f"tweaked = line_addr ^ ({sdid} << 56)\n"
            + _splitmix("tweaked", "k0")
            + f"f0 = {fold}\n"
            + _splitmix("tweaked", "k1")
            + f"packed = (f0 & {mask}) | (({fold}) & {mask}) << 32\n"
        )
    return _MEMO_LOOKUP.format(MISS=_indent(miss, 8), MEMO_CAP=memo_cap)
