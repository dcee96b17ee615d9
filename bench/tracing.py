"""Spans and per-access accumulators wrapped around the program's layers.

Nothing here edits the program: :func:`install` swaps the public
functions and methods of each layer for timing wrappers, and the
returned :class:`Patches` puts the originals back, so one process can
alternate traced and untraced jobs.

Two kinds of wrapper share one clock and one stack:

* a **span** (:meth:`Tracer.spanned`, :meth:`Tracer.span`) is recorded
  at a coarse boundary - a trace compile, an op-stream build, one
  ``run_mix``, one harness unit - as ``(name, start, end, parent, job)``;
* a **counter** (:meth:`Tracer.counted`) wraps a per-access call
  (``access_fast``, ``DramModel.access``, the hierarchy's demand path)
  and only adds to a ``[calls, ns, self_ns]`` accumulator attached to
  the enclosing span, so no object is created per access.

Every frame of either kind adds its duration to its parent's "covered"
slot when it ends, so a frame's self time - its duration minus the part
its children cover - is known the moment it closes.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Set, Tuple

#: Name of the span the bench opens around each job; its self time is
#: the bench's own code, the part of a job no layer accounts for.
ROOT = "bench.job"

_MISSING = object()


@contextlib.contextmanager
def no_span(_name: str):
    """Stand-in for :meth:`Tracer.span` in untraced jobs."""
    yield None


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: List[dict] = []
        self.job: Optional[str] = None
        self._begun = 0
        self._open: List[dict] = []
        # One slot per open frame (span or counted call) plus a base
        # slot, holding the ns its children have covered so far.
        self._covered: List[int] = [0]

    def current(self) -> Optional[dict]:
        return self._open[-1] if self._open else None

    def begin(self, name: str) -> dict:
        self._begun += 1
        span = {
            "id": self._begun,
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "job": self.job,
            "counters": {},
            "notes": {},
            "start": self.clock(),
        }
        self._open.append(span)
        self._covered.append(0)
        return span

    def end(self, span: dict) -> None:
        end = self.clock()
        if not self._open or self._open[-1] is not span:
            raise RuntimeError(f"span {span['name']!r} closed out of order")
        self._open.pop()
        covered = self._covered.pop()
        duration = end - span["start"]
        span["end"] = end
        span["self"] = duration - covered
        self._covered[-1] += duration
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def spanned(self, fn, name: str, note=None):
        """Wrap ``fn`` so every call is a span; ``note(span, args,
        kwargs, result)`` may add numbers to ``span["notes"]``."""

        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    note(span, args, kwargs, result)
                return result
            finally:
                self.end(span)

        return wrapper

    def counted(self, fn, name: str):
        """Wrap a per-access ``fn``: count + ns accumulators only.  Calls
        must happen inside a span (the bench opens one around each job)."""
        covered = self._covered
        open_spans = self._open
        clock = self.clock

        def wrapper(*args, **kwargs):
            covered.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = covered.pop()
                covered[-1] += elapsed
                counters = open_spans[-1]["counters"]
                acc = counters.get(name)
                if acc is None:
                    acc = counters[name] = [0, 0, 0]
                acc[0] += 1
                acc[1] += elapsed
                acc[2] += elapsed - inner

        return wrapper

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = {k: v for k, v in span.items() if not k.startswith("_")}
                handle.write(json.dumps(record, sort_keys=True) + "\n")


class Patches:
    """Attribute swaps that :meth:`undo` reverts, newest first."""

    def __init__(self):
        self._undo: list = []

    def set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, vars(obj).get(attr, _MISSING)))
        setattr(obj, attr, value)

    def rebind(self, original, replacement) -> None:
        """Replace ``original`` wherever a ``repro`` module bound it,
        including ``from module import name`` copies."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def undo(self) -> None:
        while self._undo:
            obj, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, old)


def _note_run_mix(span, args, kwargs, result) -> None:
    """Simulated statistics of the measured phase of one ``run_mix``."""
    llc = args[0] if args else kwargs["llc"]
    stats = llc.stats
    notes = span["notes"]
    notes["llc_hits"] = stats.hits
    notes["llc_misses"] = stats.misses
    notes["randomizer_hits"] = stats.randomizer_hits
    notes["randomizer_misses"] = stats.randomizer_misses
    notes["saes"] = result.llc_saes
    notes["tag_only_hits"] = result.llc_tag_only_hits
    info = result.engine_info or {}
    notes["replay_ops"] = info.get("scalar_ops", 0)
    notes["runs_cache_hits"] = info.get("runs_cache_hits", 0)
    notes["runs_cache_builds"] = info.get("runs_cache_builds", 0)
    drams = span.pop("_drams", ())
    notes["dram_row_hits"] = sum(d.row_hits for d in drams)
    notes["dram_row_misses"] = sum(d.row_misses for d in drams)


def _note_translate(span, args, kwargs, result) -> None:
    span["notes"]["translate_lines"] = len(args[1] if len(args) > 1 else kwargs["line_addrs"])


def install(tracer: Tracer) -> Patches:
    """Wrap every layer's public calls; returns the undo handle."""
    import repro.llc  # noqa: F401 - loads every LLCache subclass
    from repro.cache.set_assoc import SetAssociativeCache
    from repro.core.maya_cache import MayaCache
    from repro.crypto.randomizer import IndexRandomizer
    from repro.engine import opstream, specialize, vector
    from repro.hierarchy import simulator
    from repro.hierarchy.dram import DramModel
    from repro.hierarchy.system import CacheHierarchy
    from repro.llc.interface import LLCache
    from repro.trace import compiled, translated

    patches = Patches()
    for function, name, note in (
        (simulator.run_mix, "hierarchy.run_mix", _note_run_mix),
        (compiled.compile_workload, "trace.compile_workload", None),
        (translated.translate_trace, "trace.translate_trace", None),
        (specialize.apply_specialization, "engine.apply_specialization", None),
        (opstream.opstream_for, "engine.opstream_for", None),
        (vector.create_vector_replay, "engine.create_vector_replay", None),
    ):
        patches.rebind(function, tracer.spanned(function, name, note))
    for cls, attr, name, note in (
        (IndexRandomizer, "translate", "crypto.translate", _note_translate),
        (IndexRandomizer, "load_packed", "crypto.load_packed", None),
        (vector.VectorReplay, "precompute_indices", "engine.precompute_indices", None),
        (vector.VectorReplay, "phase_scalar", "engine.phase_scalar", None),
    ):
        patches.set(cls, attr, tracer.spanned(vars(cls)[attr], name, note))

    patches.set(DramModel, "access", tracer.counted(DramModel.access, "hierarchy.dram.access"))
    patches.set(
        SetAssociativeCache, "access_fast",
        tracer.counted(SetAssociativeCache.access_fast, "cache.access_fast"),
    )
    llc_classes = [MayaCache]
    pending = list(LLCache.__subclasses__())
    while pending:
        cls = pending.pop()
        llc_classes.append(cls)
        pending.extend(cls.__subclasses__())
    for cls in llc_classes:
        for attr in ("access_fast", "access"):
            if attr in vars(cls):
                patches.set(cls, attr, tracer.counted(vars(cls)[attr], f"llc.{attr}"))

    # The demand path is a closure built per hierarchy, and specialized
    # steps are closures installed per instance: wrap them as they are
    # made.  The hierarchy's DRAM model is handed to the enclosing
    # run_mix span so its row-buffer statistics can be read at the end.
    compile_access = CacheHierarchy._compile_access

    def traced_compile_access(hierarchy):
        span = tracer.current()
        if span is not None:
            span.setdefault("_drams", []).append(hierarchy.dram)
        return tracer.counted(compile_access(hierarchy), "hierarchy.access")

    patches.set(CacheHierarchy, "_compile_access", traced_compile_access)

    install_step = specialize.Specialization._install

    def traced_install(spec, obj, attr, value):
        if attr == "access_fast":
            layer = "cache" if isinstance(obj, SetAssociativeCache) else "llc"
            value = tracer.counted(value, f"{layer}.access_fast")
        install_step(spec, obj, attr, value)

    patches.set(specialize.Specialization, "_install", traced_install)
    return patches


#: Spans holding work that a warm job does not repeat: trace compile and
#: translation, PRINCE translation, codegen and op-stream builds.
SETUP_SPANS = frozenset({
    "trace.compile_workload", "trace.translate_trace", "crypto.translate",
    "engine.apply_specialization", "engine.opstream_for",
})


class JobView:
    """Per-name totals over the spans of one job.

    With ``without_setup`` the view leaves out every :data:`SETUP_SPANS`
    subtree: their spans, counters and notes are dropped, and their time
    is taken off the duration of each enclosing span and off the job's
    wall time.  What remains of a cold job is then the work a warm job
    does."""

    def __init__(self, spans: List[dict], caches: Dict[str, Dict[str, float]],
                 without_setup: bool = False):
        roots = [s for s in spans if s["name"] == ROOT]
        if len(roots) != 1:
            raise ValueError(f"a job needs exactly one {ROOT!r} span, got {len(roots)}")
        root = roots[0]
        inside, removed = _setup_subtrees(spans) if without_setup else (set(), {})
        self.wall_ns = root["end"] - root["start"] - removed.get(root["id"], 0)
        self.root_self_ns = root["self"]
        self.inclusive: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.durations: Dict[str, List[int]] = {}
        self.counters: Dict[str, List[int]] = {}
        self.notes: Dict[str, float] = {}
        for span in spans:
            if span["id"] in inside:
                continue
            name = span["name"]
            duration = span["end"] - span["start"] - removed.get(span["id"], 0)
            self.inclusive[name] = self.inclusive.get(name, 0) + duration
            self.self_ns[name] = self.self_ns.get(name, 0) + span["self"]
            self.durations.setdefault(name, []).append(duration)
            for key, (calls, ns, own) in span["counters"].items():
                acc = self.counters.setdefault(key, [0, 0, 0])
                acc[0] += calls
                acc[1] += ns
                acc[2] += own
            for key, value in span["notes"].items():
                self.notes[key] = self.notes.get(key, 0) + value
        self.caches = caches

    def share(self, name: str) -> float:
        return self.inclusive.get(name, 0) / self.wall_ns

    def self_share(self, name: str) -> float:
        return self.self_ns.get(name, 0) / self.wall_ns

    def calls(self, name: str) -> int:
        return self.counters.get(name, (0, 0, 0))[0]

    def counter_self_share(self, name: str) -> float:
        return self.counters.get(name, (0, 0, 0))[2] / self.wall_ns

    def note(self, key: str) -> float:
        return self.notes.get(key, 0)

    def cache(self, layer: str, field: str) -> float:
        return self.caches.get(layer, {}).get(field, 0)



def _setup_subtrees(spans: List[dict]) -> Tuple[Set[int], Dict[int, int]]:
    """Ids of the set-up spans and of every span inside one; and, for
    the other spans, the ns of the set-up subtrees nested in each."""
    by_id = {span["id"]: span for span in spans}
    inside: Set[int] = set()
    for span in spans:
        ancestor = span
        while ancestor is not None and ancestor["name"] not in SETUP_SPANS:
            ancestor = by_id.get(ancestor["parent"])
        if ancestor is not None:
            inside.add(span["id"])
    removed: Dict[int, int] = {}
    for span in spans:
        parent = by_id.get(span["parent"])
        if span["id"] not in inside or (parent is not None and parent["id"] in inside):
            continue
        while parent is not None:  # an outermost set-up span: charge its ancestors
            removed[parent["id"]] = removed.get(parent["id"], 0) + span["end"] - span["start"]
            parent = by_id.get(parent["parent"])
    return inside, removed
