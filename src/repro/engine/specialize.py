"""Each design's generated step, installed per run and released after.

Every packed design with a state machine has exactly one fast
implementation, a step rendered per configuration: Maya's
(:mod:`repro.core.maya_step`), Mirage's (:mod:`repro.llc.mirage_step`),
CEASER-S and Scatter-Cache's (:mod:`repro.llc.skewed_step`), CEASER's
(:mod:`repro.llc.ceaser_step`, around its inner array's), the
fully-associative cache's (:mod:`repro.llc.fully_assoc_step`) and the
set-associative array's (:mod:`repro.cache.set_assoc_step`), which
serves the baseline LLC, CEASER's inner array, the partitioned
designs' slices and the private L1/L2 levels.  Each binds its step as
an *instance* attribute (``access_fast``) on first use, and every caller
- the compiled hierarchy closure
(:meth:`repro.hierarchy.system.CacheHierarchy._compile_access`), the
op-stream replay (:mod:`repro.engine.vector`), the security campaign's
attack harnesses (:mod:`repro.security.campaign`) and the public
``access()`` wrapper - resolves ``access_fast`` by attribute, so all of
them run it.  The differential oracles are the object models in
:mod:`repro.reference`.  Compiled code objects are cached in-process
(:mod:`repro.common.codegen`).

A bound step closes over its cache, so the binding is a
``cache -> closure -> cache`` reference cycle.  A ``run_mix`` call or a
campaign cell instead installs a fresh step on each design it drives
through a releasable :class:`Specialization` (:func:`specialize_llc`),
whose ``release()`` drops the bindings again, so every cache frees by
refcount when its caller lets go of it.  Every design in
:mod:`repro.llc` and :mod:`repro.core` takes a step; only an object
from outside them (a reference model behind
:class:`~repro.reference.AccessFastAdapter`) keeps its own
``access_fast``, and :func:`specialize_llc` says so.

Installing a step does not choose the drive: ``run_mix`` takes the
op-stream replay (:mod:`repro.engine.vector`) unless the replay
declines the input, and both drives run the same generated steps.
"""

from __future__ import annotations

from typing import Optional, Tuple

_MISSING = object()


class Specialization:
    """Bookkeeping for installed step functions; releasable.

    ``release()`` restores every shadowed attribute (dropping the
    instance binding so the class method shows through again), which
    breaks the ``cache -> closure -> cache`` reference cycles so
    per-trial bench loops stay refcount-clean.
    """

    def __init__(self):
        self._bindings = []

    def _install(self, obj, attr: str, value) -> None:
        old = obj.__dict__.get(attr, _MISSING)
        setattr(obj, attr, value)
        self._bindings.append((obj, attr, old))

    def release(self) -> None:
        for obj, attr, old in reversed(self._bindings):
            if old is _MISSING:
                obj.__dict__.pop(attr, None)
            else:
                setattr(obj, attr, old)
        self._bindings.clear()


def specialize_llc(llc, spec: Specialization) -> Optional[str]:
    """Install a fresh generated step on ``llc`` through ``spec``.

    Returns ``None`` once the step is installed, or a human-readable
    reason for an object that is not one of the library's designs.
    Wrapper designs install on the packed arrays they hold: the
    baseline on its inner array (and its forwarding attribute), CEASER
    on its inner array and then its own step, which calls the array's,
    the partitioned designs on every slice.  Callers:
    :func:`apply_specialization` (one ``run_mix``) and
    :func:`repro.security.campaign.run_shard` (every design one
    campaign cell builds); each releases ``spec`` when done.
    """
    from ..cache.set_assoc import SetAssociativeCache
    from ..cache.set_assoc_step import set_assoc_step
    from ..core.maya_cache import MayaCache
    from ..core.maya_step import maya_step
    from ..llc.baseline import BaselineLLC
    from ..llc.ceaser import CeaserCache
    from ..llc.ceaser_step import ceaser_step
    from ..llc.fully_assoc import FullyAssociativeCache
    from ..llc.fully_assoc_step import fully_assoc_step
    from ..llc.mirage import MirageCache
    from ..llc.mirage_step import mirage_step
    from ..llc.partitioned import _PartitionedBase
    from ..llc.skewed import SkewedRandomizedCache
    from ..llc.skewed_step import skewed_step

    if isinstance(llc, MayaCache):
        spec._install(llc, "access_fast", maya_step(llc))
    elif isinstance(llc, MirageCache):
        spec._install(llc, "access_fast", mirage_step(llc))
    elif isinstance(llc, SkewedRandomizedCache):
        spec._install(llc, "access_fast", skewed_step(llc))
    elif isinstance(llc, FullyAssociativeCache):
        spec._install(llc, "access_fast", fully_assoc_step(llc))
    elif isinstance(llc, SetAssociativeCache):
        spec._install(llc, "access_fast", set_assoc_step(llc))
    elif isinstance(llc, BaselineLLC):
        # BaselineLLC bound the inner array's method at construction;
        # shadow both so its forwarding attribute follows the step.
        step = set_assoc_step(llc._cache)
        spec._install(llc._cache, "access_fast", step)
        spec._install(llc, "access_fast", step)
    elif isinstance(llc, CeaserCache):
        # The CEASER step looks the inner array's step up per access.
        spec._install(llc._cache, "access_fast", set_assoc_step(llc._cache))
        spec._install(llc, "access_fast", ceaser_step(llc))
    elif isinstance(llc, _PartitionedBase):
        for part in llc._slices:
            spec._install(part, "access_fast", set_assoc_step(part))
    else:
        return f"{type(llc).__name__} is not a library design; its own access_fast runs"
    return None


def apply_specialization(llc) -> Tuple[Specialization, dict]:
    """Install ``llc``'s generated step for one ``run_mix`` call.

    The returned :class:`Specialization` must be released when the run
    finishes.  The info dict records the design whose step was installed
    (``llc``), or ``None`` with the reason (``llc_reason``).  It is
    diagnostic provenance only - it never flows into canonical results.
    The private L1/L2 levels bind their own steps on first access, which
    the op-stream replay never makes;
    :meth:`repro.hierarchy.system.CacheHierarchy.release` drops them.
    """
    spec = Specialization()
    reason = specialize_llc(llc, spec)
    info = {"llc": None if reason else type(llc).__name__, "llc_reason": reason}
    return spec, info
