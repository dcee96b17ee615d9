"""Compile-once cache for the generated per-access step functions.

The cache state machines render per-configuration Python source (the
steps in :mod:`repro.core.maya_step`, :mod:`repro.llc.mirage_step`
and :mod:`repro.cache.set_assoc_step`).  Each template defines a
``_bind(target, SimulationError, SetAssociativeEviction)`` function that
binds the target's columns as closure locals and returns its
``access_fast`` step.

Compiled code objects are cached in-process, keyed by template kind and
config fingerprint, so a resident service worker compiles each
configuration once per warm pool.  Nothing is cached on disk: the
source renders in tens of microseconds and ``compile()`` would run on
every process start either way.
"""

from __future__ import annotations

from typing import NamedTuple

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
