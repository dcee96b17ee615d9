"""Each design's generated steps, installed per run and released after.

Every packed design with a state machine has exactly one fast
implementation, a step rendered per configuration: Maya's
(:mod:`repro.core.maya_step`), Mirage's (:mod:`repro.llc.mirage_step`),
CEASER-S and Scatter-Cache's (:mod:`repro.llc.skewed_step`), CEASER's
(:mod:`repro.llc.ceaser_step`, around its inner array's), the
fully-associative cache's (:mod:`repro.llc.fully_assoc_step`) and the
set-associative array's (:mod:`repro.cache.set_assoc_step`), which
serves the baseline LLC, CEASER's inner array, the partitioned
designs' slices and the private L1/L2 levels.

Each design states its steps once, in ``fresh_steps()``: the
``(owner, step)`` pairs to bind, its own step and those of the arrays
it holds.  Two mechanisms bind them.  The first-use binder every
design shares as its class-level ``access_fast``
(:func:`repro.cache.line.first_access`, through
:func:`~repro.cache.line.bind_steps`, which
:func:`repro.llc.interface.access_step` also calls before it hands a
step out) makes each step its owner's *instance* ``access_fast``.  A
``run_mix`` call or a campaign cell instead installs fresh pairs
through a releasable :class:`Specialization` (:func:`specialize_llc`),
whose ``release()`` drops the bindings again.  Every caller - the compiled hierarchy
closure (:meth:`repro.hierarchy.system.CacheHierarchy._compile_access`),
the op-stream replay (:mod:`repro.engine.vector`), the attack
harnesses' sweep kernel (:func:`repro.llc.interface.access_lines`) and
the public ``access()`` wrapper - resolves ``access_fast`` by
attribute, so all of them run the installed step.  The differential
oracles are the object models in :mod:`repro.reference`.  Compiled
code objects are cached in-process (:mod:`repro.common.codegen`).

A bound step closes over its cache, so the binding is a
``cache -> closure -> cache`` reference cycle; releasing a
:class:`Specialization` breaks it, so every cache frees by refcount
when its caller lets go of it.  Only an object from outside the
library (a reference model behind
:class:`~repro.reference.AccessFastAdapter`) has no ``fresh_steps()``
and keeps its own ``access_fast``, and :func:`specialize_llc` says so.

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
    """Install ``llc``'s fresh generated steps through ``spec``.

    Returns ``None`` once the steps are installed, or a human-readable
    reason for an object that is not one of the library's designs.
    The steps are the ``(owner, step)`` pairs the design's
    ``fresh_steps()`` names - the pairs its first-use binder binds
    (:func:`repro.cache.line.bind_steps`) - so wrapper designs install
    on the packed arrays they hold: the baseline on its inner array
    and itself, CEASER on its inner array and then its own step, which
    calls the array's, the partitioned designs on every slice.
    Callers: :func:`apply_specialization` (one ``run_mix``) and
    :func:`repro.security.campaign.run_shard` (every design one
    campaign cell builds); each releases ``spec`` when done.
    """
    fresh_steps = getattr(llc, "fresh_steps", None)
    if fresh_steps is None:
        return f"{type(llc).__name__} is not a library design; its own access_fast runs"
    for owner, step in fresh_steps():
        spec._install(owner, "access_fast", step)
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
