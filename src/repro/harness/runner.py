"""Parallel experiment executor for the paper-reproduction harness.

Every experiment is described by a picklable :class:`ExperimentTask`
(module path + ``run`` keyword arguments), so the same task list drives
the in-process serial path, ``--jobs N`` (an in-process
:class:`repro.service.pool.WorkerPool` of N forked workers) and the
resident service (``--service``).  Determinism is preserved across
process boundaries because a task carries *all* of its inputs
explicitly: a worker imports the experiment module and calls
``run(**kwargs)`` exactly as the serial path would, so the serial run
is the oracle the other two must match byte for byte.

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
wall-clock, shard counts, errors, the report text and the recoveries
(units re-issued after a worker died, shard plans that fell back to one
unit).
"""

from __future__ import annotations

import importlib
import json
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
    #: Units the ``--jobs``/service pool re-issued after a worker died.
    reissues: int = 0
    #: 1 if shard planning raised and the task ran as one unit instead.
    plan_fallbacks: int = 0

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


def execute_unit(unit: Tuple[int, ExperimentTask, Optional[object]]):
    """Run one unit of work; never raises (errors travel back as text).

    Every drain path executes units through this function, which is
    what makes ``--jobs`` and ``--service`` results byte-identical to
    the serial run by construction.
    """
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


# -- orchestration ---------------------------------------------------------


def plan_task(task: ExperimentTask) -> Tuple[Optional[List[object]], bool]:
    """A task's shard keys (``None``: run it as one unit), and whether
    that is a fallback because planning raised.

    A planning failure runs the task unsharded, where ``run`` fails in
    its own right; the caller counts the fallback
    (:attr:`TaskResult.plan_fallbacks`).
    """
    try:
        fns = _shard_functions(_load(task.module))
        if fns is None:
            return None, False
        keys = list(fns[0](**task.kwargs))
    except Exception:  # noqa: BLE001 - counted by the caller, fails in run()
        return None, True
    return (keys if len(keys) >= _MIN_SHARDS_TO_FAN_OUT else None), False


def plan_units(tasks: Sequence[ExperimentTask]):
    """Expand tasks into work units; returns (units, per-task shard keys)."""
    units: List[Tuple[int, ExperimentTask, Optional[object]]] = []
    task_keys: List[Optional[List[object]]] = []
    for task in tasks:
        keys, _ = plan_task(task)
        task_keys.append(keys)
        for key in [None] if keys is None else keys:
            units.append((len(units), task, key))
    return units, task_keys


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

    ``jobs > 1`` drains the planned units on an in-process
    :class:`repro.service.pool.WorkerPool` of ``min(jobs, units)``
    workers through :class:`repro.service.jobs.GridRun` - the resident
    service's own code, minus the HTTP layer - so a worker that dies
    mid-unit is respawned and its unit re-issued, and a unit that keeps
    killing workers fails with an error instead of hanging the sweep.
    With ``service`` set to a resident-service address (``HOST:PORT``,
    see :mod:`repro.service`), the tasks are submitted over HTTP and
    drained by the service's persistent workers instead; ``jobs`` is
    then the *service's* concern and ignored here.  Results are
    byte-identical on every path: each executes the same planned units
    through :func:`execute_unit` and merges with :func:`finalize_task`.

    Results come back in task order regardless of completion order, and
    a failure in one task (or one shard) is captured in its
    :class:`TaskResult` instead of aborting the sweep.
    """
    if service:
        from ..service.client import ServiceClient

        return ServiceClient(service).run_tasks(tasks, progress=progress)
    notify = progress or (lambda _message: None)
    if jobs <= 1 or len(tasks) == 0:
        results = [TaskResult(name=t.name, description=t.description) for t in tasks]
        for task, result in zip(tasks, results):
            _, payload, seconds, error = execute_unit((0, task, None))
            result.seconds = seconds
            if error is None:
                result.text = payload
            else:
                result.error = error
            notify(progress_line(result))
        return results

    from ..service.jobs import GridRun
    from ..service.pool import WorkerPool

    grid = GridRun(tasks)
    with WorkerPool(workers=min(jobs, len(grid))) as pool:
        pool.submit_many(grid.units)
        while not grid.done:
            message = pool.next_result()
            finished = grid.record(
                message.job_id, message.payload, message.seconds, message.error, message.reissues
            )
            if finished is not None:
                notify(progress_line(finished))
    return grid.results()


def finalize_task(
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


def progress_line(result: TaskResult) -> str:
    status = "ok" if result.ok else "FAILED"
    shards = f", {result.shards} shards" if result.shards > 1 else ""
    return f"{result.name}: {status} ({result.seconds:.1f}s{shards})"


# -- machine-readable summary ----------------------------------------------


def summary_dict(
    results: Sequence[TaskResult],
    jobs: int,
    wall_seconds: float,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The ``--json`` payload: per-task timing plus sweep metadata."""
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
        "numpy": numpy_version,
        "task_seconds": sum(r.seconds for r in results),
        "ok": all(r.ok for r in results),
        # Recoveries: units re-issued after a worker died (0 on the
        # serial path) and tasks whose shard planning raised.
        "reissues": sum(r.reissues for r in results),
        "plan_fallbacks": sum(r.plan_fallbacks for r in results),
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
                "reissues": r.reissues,
                "plan_fallbacks": r.plan_fallbacks,
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
