"""Parallel experiment executor for the paper-reproduction harness.

Every experiment is described by a picklable :class:`ExperimentTask`
(module path + ``run`` keyword arguments), so the same task list drives
both the in-process serial path and a ``multiprocessing`` pool
(``--jobs N`` on the CLI).  Determinism is preserved across process
boundaries because a task carries *all* of its inputs explicitly:
a worker imports the experiment module and calls ``run(**kwargs)``
exactly as the serial path would.

**Fan-out.**  An experiment module may additionally implement the shard
protocol::

    shard_keys(**run_kwargs)  -> list of shard keys
    run_shard(key, **run_kwargs) -> partial result (picklable)
    merge_shards(keys, parts, **run_kwargs) -> same value run() returns

in which case the runner splits it into one unit of work per key
(fig9/fig10 fan out per workload mix, table7 per averaged mix) and
merges the parts in key order, guaranteeing results identical to the
serial ``run()``.

**Seeding.**  :func:`derive_task_seed` derives a per-task child seed
from a base seed via :func:`repro.common.rng.derive_seed`, keyed by a
CRC-32 of the task name - pure integer arithmetic, so the derivation is
stable across platforms and Python builds (no ``hash()`` involved).

**Reporting.**  Each task is timed individually; a machine-readable
summary (:func:`write_summary`, CLI ``--json PATH``) records per-task
wall-clock, shard counts, errors, and the report text.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing
import os
import time
import traceback
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..common.rng import derive_seed

#: Tasks with at least this many shards are worth fanning out.
_MIN_SHARDS_TO_FAN_OUT = 2


@dataclass(frozen=True)
class ExperimentTask:
    """One experiment invocation, picklable for worker processes.

    ``module`` is the dotted path of an experiment module exposing
    ``run(**kwargs) -> result`` and ``report(result) -> str``.
    """

    name: str
    description: str
    module: str
    kwargs: Dict[str, object] = field(default_factory=dict)


@dataclass
class TaskResult:
    """Outcome of one executed task."""

    name: str
    description: str
    text: str = ""
    seconds: float = 0.0
    shards: int = 1
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def derive_task_seed(base_seed: Optional[int], task_name: str) -> int:
    """Deterministic, platform-stable child seed for ``task_name``.

    The stream index is the CRC-32 of the task name (not Python's
    ``hash``, which is salted per process), mixed through
    :func:`repro.common.rng.derive_seed` so adjacent names and adjacent
    base seeds give uncorrelated child seeds.
    """
    return derive_seed(base_seed, zlib.crc32(task_name.encode("utf-8")))


def default_jobs() -> int:
    """A sensible default worker count: the machine's CPUs, capped at 8."""
    return min(os.cpu_count() or 1, 8)


# -- worker-side execution -------------------------------------------------
#
# Work units are (unit_index, task, shard_key_or_None) triples.  The
# payloads cross the process boundary, so everything in them must be
# picklable; the worker functions live at module scope for the same
# reason.


def _load(module_path: str):
    return importlib.import_module(module_path)


def _shard_functions(module) -> Optional[Tuple[Callable, Callable, Callable]]:
    fns = tuple(getattr(module, n, None) for n in ("shard_keys", "run_shard", "merge_shards"))
    return fns if all(fns) else None


def _execute_unit(unit: Tuple[int, ExperimentTask, Optional[object]]):
    """Run one unit of work; never raises (errors travel back as text)."""
    index, task, shard_key = unit
    start = time.perf_counter()
    try:
        module = _load(task.module)
        if shard_key is None:
            payload = module.report(module.run(**task.kwargs))
        else:
            payload = module.run_shard(shard_key, **task.kwargs)
        return index, payload, time.perf_counter() - start, None
    except Exception:  # noqa: BLE001 - a failing experiment must not kill the sweep
        return index, None, time.perf_counter() - start, traceback.format_exc()


#: Public aliases: the resident service (repro.service) executes and
#: plans work through the exact same code paths as the one-shot pool,
#: which is what makes service results byte-identical by construction.
execute_unit = _execute_unit


# -- orchestration ---------------------------------------------------------


def plan_units(tasks: Sequence[ExperimentTask]):
    """Expand tasks into work units; returns (units, per-task shard keys)."""
    units: List[Tuple[int, ExperimentTask, Optional[object]]] = []
    task_keys: List[Optional[List[object]]] = []
    for task in tasks:
        keys: Optional[List[object]] = None
        try:
            fns = _shard_functions(_load(task.module))
            if fns is not None:
                keys = list(fns[0](**task.kwargs))
                if len(keys) < _MIN_SHARDS_TO_FAN_OUT:
                    keys = None
        except Exception:  # noqa: BLE001 - planning failure -> run unsharded, fail there
            keys = None
        task_keys.append(keys)
        if keys is None:
            units.append((len(units), task, None))
        else:
            for key in keys:
                units.append((len(units), task, key))
    return units, task_keys


_plan_units = plan_units


def _merge_task(task: ExperimentTask, keys: List[object], parts: List[object]) -> str:
    module = _load(task.module)
    return module.report(module.merge_shards(keys, parts, **task.kwargs))


def run_tasks(
    tasks: Sequence[ExperimentTask],
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    service: Optional[str] = None,
) -> List[TaskResult]:
    """Execute ``tasks``; serially for ``jobs <= 1``, else on a pool.

    With ``service`` set to a resident-service address (``HOST:PORT``,
    see :mod:`repro.service`), the tasks are submitted over HTTP and
    drained by the service's persistent workers instead; ``jobs`` is
    then the *service's* concern and ignored here.  Results are
    byte-identical either way - the service executes the same planned
    units through :func:`execute_unit` and merges with the same code.

    Results come back in task order regardless of completion order, and
    a failure in one task (or one shard) is captured in its
    :class:`TaskResult` instead of aborting the sweep.
    """
    if service:
        from ..service.client import ServiceClient

        return ServiceClient(service).run_tasks(tasks, progress=progress)
    notify = progress or (lambda _message: None)
    results = [TaskResult(name=t.name, description=t.description) for t in tasks]
    if jobs <= 1 or len(tasks) == 0:
        for task, result in zip(tasks, results):
            _, payload, seconds, error = _execute_unit((0, task, None))
            result.seconds = seconds
            if error is None:
                result.text = payload
            else:
                result.error = error
            notify(_progress_line(result))
        return results

    units, task_keys = _plan_units(tasks)
    unit_owner: List[int] = []  # unit index -> task index
    owned_units: List[List[int]] = [[] for _ in tasks]  # task index -> its unit indices
    for task_index, keys in enumerate(task_keys):
        count = 1 if keys is None else len(keys)
        start = len(unit_owner)
        unit_owner.extend([task_index] * count)
        owned_units[task_index] = list(range(start, start + count))
        results[task_index].shards = count

    payloads: Dict[int, object] = {}
    pending = [len(owned) for owned in owned_units]
    ctx = multiprocessing.get_context()
    with ctx.Pool(processes=min(jobs, len(units))) as pool:
        for index, payload, seconds, error in pool.imap_unordered(_execute_unit, units):
            task_index = unit_owner[index]
            result = results[task_index]
            result.seconds += seconds
            if error is not None:
                result.error = error if result.error is None else result.error + "\n" + error
            payloads[index] = payload
            pending[task_index] -= 1
            if pending[task_index] == 0:
                _finalize(
                    tasks[task_index], result, task_keys[task_index],
                    [payloads[i] for i in owned_units[task_index]],
                )
                notify(_progress_line(result))
    return results


def _finalize(
    task: ExperimentTask,
    result: TaskResult,
    keys: Optional[List[object]],
    parts: List[object],
) -> None:
    """Assemble a task's final text once all of its units returned.

    ``parts`` are the unit payloads in submission (= shard-key) order.
    """
    if result.error is not None:
        return
    try:
        if keys is None:
            result.text = parts[0]
        else:
            result.text = _merge_task(task, keys, parts)
    except Exception:  # noqa: BLE001
        result.error = traceback.format_exc()


finalize_task = _finalize


def _progress_line(result: TaskResult) -> str:
    status = "ok" if result.ok else "FAILED"
    shards = f", {result.shards} shards" if result.shards > 1 else ""
    return f"{result.name}: {status} ({result.seconds:.1f}s{shards})"


progress_line = _progress_line


# -- machine-readable summary ----------------------------------------------


def summary_dict(
    results: Sequence[TaskResult],
    jobs: int,
    wall_seconds: float,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The ``--json`` payload: per-task timing plus sweep metadata."""
    from ..engine.specialize import resolve_specialize

    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    from ..service.jobs import cache_snapshot, memory_info

    payload: Dict[str, object] = {
        "schema": "repro.harness.runner/1",
        "jobs": jobs,
        "wall_seconds": wall_seconds,
        "specialize": resolve_specialize(None),
        "numpy": numpy_version,
        "task_seconds": sum(r.seconds for r in results),
        "ok": all(r.ok for r in results),
        # "caches" includes the mmap artifact store's map/reuse counters
        # ("store" layer); "memory" adds this process's peak RSS and the
        # bytes currently mapped (shared page-cache pages, not copies).
        "caches": cache_snapshot(),
        "memory": memory_info(),
        "results": [
            {
                "name": r.name,
                "description": r.description,
                "seconds": r.seconds,
                "shards": r.shards,
                "ok": r.ok,
                "error": r.error,
                "text": r.text,
            }
            for r in results
        ],
    }
    if extra:
        payload.update(extra)
    return payload


def write_summary(
    path: str,
    results: Sequence[TaskResult],
    jobs: int,
    wall_seconds: float,
    extra: Optional[Dict[str, object]] = None,
) -> None:
    """Write the JSON summary, creating parent directories as needed."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary_dict(results, jobs, wall_seconds, extra), handle, indent=2)
        handle.write("\n")


#: Schema tag of the *canonical results* payload: only fields that are
#: deterministic functions of the task list - no timings, shard counts,
#: worker identities, or addresses - so a serial run and a
#: service-drained run of the same grid diff byte-for-byte.
RESULTS_SCHEMA = "repro.harness.results/1"


def results_dict(results: Sequence[TaskResult]) -> Dict[str, object]:
    """The canonical (timing-free) results payload for byte-diffing."""
    return {
        "schema": RESULTS_SCHEMA,
        "ok": all(r.ok for r in results),
        "results": [
            {
                "name": r.name,
                "description": r.description,
                "ok": r.ok,
                "error": r.error,
                "text": r.text,
            }
            for r in results
        ],
    }


def write_results(path: str, results: Sequence[TaskResult]) -> None:
    """Write the canonical results JSON (see :data:`RESULTS_SCHEMA`)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results_dict(results), handle, indent=2)
        handle.write("\n")
