"""Job layer: adapt :class:`ExperimentTask` grids to the worker pool.

The resident service and ``--jobs N`` execute exactly the work units a
serial run would: :func:`repro.harness.runner.plan_task` expands each
task through the shard protocol (``shard_keys``/``run_shard``/
``merge_shards``) and :func:`repro.harness.runner.execute_unit` runs a
unit.  :class:`GridRun` wraps that planning for an out-of-order
completion stream - the pool hands back ``(job_id, payload)`` pairs in
whatever order workers finish, and ``GridRun`` reassembles per-task
results (merging shards with the runner's own ``finalize_task``) so the
final :class:`TaskResult` list is byte-identical to a serial
``run_tasks`` call.

A :class:`Unit` carries *all* of its inputs (module path, kwargs,
shard key), so re-running one - on another worker, after a crash, or
twice - is deterministic by construction: retry == first run,
byte for byte.

This module also owns the cache-warm accounting helpers: a
:func:`cache_snapshot` of the process-wide artifact caches (compiled
traces, translated index columns, op streams - one
:class:`repro.store.ArtifactCache` each), the codegen cache, the mmap
store, the op-stream replay's and the attack harnesses' kernel counts,
and the delta/total arithmetic the pool uses to report per-worker warm
cost and resident-set reuse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..harness import runner
from ..harness.runner import ExperimentTask, TaskResult

#: The three artifact caches a worker warms once and reuses per job,
#: plus the mmap artifact store underneath them ("store" counts maps
#: and map reuse rather than hits/misses), the replay kernels taken
#: ("kernels": replays per op form, ``inline`` or ``call``) and the
#: attack harnesses' sweep kernels bound ("sweeps", per op form too);
#: the last two have no ``memory_hits``, so they add nothing to
#: ``resident_memory_hits``.
CACHE_LAYERS = ("trace", "translated", "opstream", "store", "kernels", "sweeps")


def cache_snapshot() -> Dict[str, Dict[str, float]]:
    """Counters of the process-wide caches and store, as plain dicts."""
    from ..common.codegen import specialize_cache_info
    from ..engine.opstream import STREAMS
    from ..engine.vector import kernel_info
    from ..llc.interface import sweep_info
    from ..store import store_cache_info
    from ..trace.compiled import TRACES
    from ..trace.translated import TRANSLATIONS

    trace = dict(TRACES.info()._asdict())
    trace["compiles"] = trace["builds"]  # the name bench/worker.py reads
    return {
        "trace": trace,
        "translated": dict(TRANSLATIONS.info()._asdict()),
        "opstream": dict(STREAMS.info()._asdict()),
        "specialize": dict(specialize_cache_info()._asdict()),
        "store": dict(store_cache_info()._asdict()),
        "kernels": kernel_info(),
        "sweeps": sweep_info(),
    }


def memory_info() -> Dict[str, int]:
    """Per-process memory gauges (peak RSS, live mapped bytes).

    Workers attach this to every completion message so ``/status`` can
    report per-worker peak RSS next to mapped-bytes-shared — the figure
    that makes the mmap store's N-way sharing observable.
    """
    from ..store import memory_info as _store_memory_info

    return _store_memory_info()


def cache_delta(
    before: Dict[str, Dict[str, float]], after: Dict[str, Dict[str, float]]
) -> Dict[str, Dict[str, float]]:
    """Per-layer counter deltas between two snapshots."""
    return {
        layer: {
            name: round(after[layer][name] - before[layer][name], 6)
            for name in after[layer]
        }
        for layer in CACHE_LAYERS
    }


def accumulate_caches(
    total: Dict[str, Dict[str, float]], delta: Dict[str, Dict[str, float]]
) -> None:
    """Fold a per-job delta into a per-worker running total, in place."""
    for layer, counters in delta.items():
        bucket = total.setdefault(layer, {})
        for name, value in counters.items():
            bucket[name] = round(bucket.get(name, 0) + value, 6)


@dataclass(frozen=True)
class Unit:
    """One self-contained, picklable unit of work.

    ``shard_key is None`` means "run the whole task" (``run`` +
    ``report``); otherwise it is one shard (``run_shard``).
    """

    job_id: str
    task_index: int
    unit_index: int
    module: str
    kwargs: Dict[str, object]
    shard_key: Optional[object] = None


def execute(unit: Unit) -> Tuple[object, float, Optional[str]]:
    """Run one unit; never raises.  Returns (payload, seconds, error).

    Thin shim over :func:`repro.harness.runner.execute_unit` so a pool
    worker cannot drift from the serial run's execution semantics.
    """
    task = ExperimentTask(
        name=unit.job_id, description="", module=unit.module, kwargs=dict(unit.kwargs)
    )
    _, payload, seconds, error = runner.execute_unit((unit.unit_index, task, unit.shard_key))
    return payload, seconds, error


class GridRun:
    """Track an out-of-order stream of unit completions for a task grid.

    Usage::

        grid = GridRun(tasks, job_prefix="sub3")
        for unit in grid.units:  pool.submit(unit)
        ... as results arrive ...
        finished = grid.record(job_id, payload, seconds, error)
        if finished is not None: <task finished, progress hook>
        ... until grid.done ...
        results = grid.results()   # == runner.run_tasks(tasks) byte-for-byte
    """

    def __init__(self, tasks: Sequence[ExperimentTask], job_prefix: str = "grid"):
        self.tasks: List[ExperimentTask] = list(tasks)
        self._results = [TaskResult(name=t.name, description=t.description) for t in self.tasks]
        # One unit for an unsharded task, one per shard key otherwise.
        self._task_keys: List[Optional[List[object]]] = []
        self.units: List[Unit] = []
        self._owned_units: List[List[int]] = []
        for task_index, task in enumerate(self.tasks):
            keys, fell_back = runner.plan_task(task)
            self._task_keys.append(keys)
            owned = []
            for shard_key in [None] if keys is None else keys:
                unit_index = len(self.units)
                owned.append(unit_index)
                self.units.append(
                    Unit(
                        job_id=f"{job_prefix}/u{unit_index}",
                        task_index=task_index,
                        unit_index=unit_index,
                        module=task.module,
                        kwargs=dict(task.kwargs),
                        shard_key=shard_key,
                    )
                )
            self._owned_units.append(owned)
            self._results[task_index].shards = len(owned)
            self._results[task_index].plan_fallbacks = int(fell_back)
        self._payloads: Dict[int, object] = {}
        self._pending = [len(owned) for owned in self._owned_units]
        self._by_job_id = {unit.job_id: unit for unit in self.units}

    def __len__(self) -> int:
        return len(self.units)

    @property
    def done(self) -> bool:
        return all(p == 0 for p in self._pending)

    @property
    def completed_units(self) -> int:
        return len(self._payloads)

    def unit(self, job_id: str) -> Unit:
        return self._by_job_id[job_id]

    def record(
        self,
        job_id: str,
        payload: object,
        seconds: float,
        error: Optional[str],
        reissues: int = 0,
    ) -> Optional[TaskResult]:
        """Record one unit completion; returns the TaskResult when its
        task just finished (all units in), else None.

        ``reissues`` counts the times the pool re-issued the unit after
        a worker died with it.  Idempotent per unit: a duplicate
        delivery (a worker that completed a unit *and* was seen dying,
        or a double-submitted job id) is ignored, so replays can never
        corrupt the merge.
        """
        unit = self._by_job_id[job_id]
        if unit.unit_index in self._payloads:
            return None
        result = self._results[unit.task_index]
        result.seconds += seconds
        result.reissues += reissues
        if error is not None:
            result.error = error if result.error is None else result.error + "\n" + error
        self._payloads[unit.unit_index] = payload
        self._pending[unit.task_index] -= 1
        if self._pending[unit.task_index] != 0:
            return None
        runner.finalize_task(
            self.tasks[unit.task_index],
            result,
            self._task_keys[unit.task_index],
            [self._payloads[i] for i in self._owned_units[unit.task_index]],
        )
        return result

    def fail_outstanding(self, reason: str) -> None:
        """Mark every still-pending unit as failed (shutdown deadline)."""
        for unit in self.units:
            if unit.unit_index not in self._payloads:
                self.record(unit.job_id, None, 0.0, reason)

    def results(self) -> List[TaskResult]:
        """The per-task results; identical to serial once ``done``."""
        return self._results


# -- JSON (de)serialization for the HTTP boundary ---------------------------


def task_to_dict(task: ExperimentTask) -> Dict[str, object]:
    return {
        "name": task.name,
        "description": task.description,
        "module": task.module,
        "kwargs": dict(task.kwargs),
    }


def task_from_dict(payload: Dict[str, object]) -> ExperimentTask:
    return ExperimentTask(
        name=str(payload["name"]),
        description=str(payload.get("description", "")),
        module=str(payload["module"]),
        kwargs=dict(payload.get("kwargs") or {}),
    )


def result_to_dict(result: TaskResult) -> Dict[str, object]:
    return {
        "name": result.name,
        "description": result.description,
        "text": result.text,
        "seconds": result.seconds,
        "shards": result.shards,
        "reissues": result.reissues,
        "plan_fallbacks": result.plan_fallbacks,
        "error": result.error,
        "ok": result.ok,
    }


def result_from_dict(payload: Dict[str, object]) -> TaskResult:
    return TaskResult(
        name=str(payload["name"]),
        description=str(payload.get("description", "")),
        text=str(payload.get("text") or ""),
        seconds=float(payload.get("seconds") or 0.0),
        shards=int(payload.get("shards") or 1),
        error=payload.get("error"),
        reissues=int(payload.get("reissues") or 0),
        plan_fallbacks=int(payload.get("plan_fallbacks") or 0),
    )
