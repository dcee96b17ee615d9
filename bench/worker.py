"""Child process of ``bench/run.py``: one workload in one fresh process.

Not meant to be run by hand.  The parent starts it with empty artifact
caches and reads JSON lines prefixed with :data:`MARK` from its stdout:
``setup_done`` as soon as the first (untimed) job returns, then
``result``.

* ``--phase setup`` runs the first job only (one set-up sample);
* ``--phase measure`` then runs jobs back to back for ``--seconds``,
  and at least :data:`MIN_JOBS` of them;
* ``--trace`` runs the traced protocol instead (:func:`run_traced`) and
  reports the per-layer metrics of :data:`PER_LAYER`.

Untraced, the process and every process it forks run the host-speed
probe (:mod:`speed`), and every wall time is reported with the host's
speed over it.  Traced runs report shares of a job, so they run no
probe.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import sys
import time
import traceback
from typing import Callable, Dict, List, Optional, Tuple

import numpy
from repro import store
from repro.service.jobs import cache_snapshot

import speed
import stats
import tracing
import workloads

MARK = "@bench "

SETUP, JOB = "setup", "job"

#: Fewest measured jobs per untraced run, however long they take: a
#: campaign (~10 s) or a grid drain (~8 s) would otherwise often be
#: measured once, and one job's time spread 8.7% over ten seeded runs.
MIN_JOBS = 2


def emit(event: str, **fields) -> None:
    print(MARK + json.dumps({"event": event, **fields}), flush=True)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


Value = Callable[[tracing.JobView], float]


def _share(span: str) -> Value:
    return lambda v: v.share(span)


def _own(span: str) -> Value:
    return lambda v: v.self_share(span)


def _calls(counter: str) -> Value:
    return lambda v: v.calls(counter)


def _counted(counter: str) -> Value:
    return lambda v: v.counter_self_share(counter)


def _note(key: str) -> Value:
    return lambda v: v.note(key)


def _cache(layer: str, field: str) -> Value:
    return lambda v: v.cache(layer, field)


def _hit_ratio(hits: str, misses: str) -> Value:
    return lambda v: _ratio(v.note(hits), v.note(hits) + v.note(misses))


def _trace_hit_ratio(view: tracing.JobView) -> float:
    hits = view.cache("trace", "memory_hits") + view.cache("trace", "disk_hits")
    return _ratio(hits, hits + view.cache("trace", "compiles"))


def _unit_share(pct: float) -> Value:
    def value(view: tracing.JobView) -> float:
        durations = view.durations.get("harness.execute_unit")
        return stats.percentile(durations, pct) / view.wall_ns if durations else 0.0

    return value


#: Per-layer metrics computed from the spans: ``(name, unit, window,
#: value)``.  ``setup`` metrics come from the traced first job (empty
#: caches), ``job`` metrics are the median over the traced measured
#: jobs.  Times are shares of that job's wall time (``tracing.*_s``), so
#: a layer a workload never enters reads 0 rather than a constant time.
PER_LAYER = (
    ("trace.compile_workload.share", "share", SETUP, _share("trace.compile_workload")),
    ("trace.translate_trace.share", "share", SETUP, _share("trace.translate_trace")),
    ("trace.hit_ratio", "ratio", JOB, _trace_hit_ratio),
    ("crypto.translate.share", "share", SETUP, _share("crypto.translate")),
    ("crypto.translate.lines", "count", SETUP, _note("translate_lines")),
    ("crypto.load_packed.share", "share", JOB, _share("crypto.load_packed")),
    ("crypto.randomizer_hit_ratio", "ratio", JOB,
     _hit_ratio("randomizer_hits", "randomizer_misses")),
    ("engine.apply_specialization.share", "share", SETUP, _share("engine.apply_specialization")),
    ("engine.codegen_compiles", "count", SETUP, _cache("specialize", "compiles")),
    ("engine.opstream_for.share", "share", SETUP, _share("engine.opstream_for")),
    ("engine.opstream_builds", "count", SETUP, _cache("opstream", "builds")),
    ("engine.create_vector_replay.self_share", "share", JOB, _own("engine.create_vector_replay")),
    ("engine.precompute_indices.share", "share", JOB, _share("engine.precompute_indices")),
    ("engine.phase_scalar.self_share", "share", JOB, _own("engine.phase_scalar")),
    ("engine.replay_ops", "count", JOB, _note("replay_ops")),
    ("engine.runs_cache_hit_ratio", "ratio", JOB,
     _hit_ratio("runs_cache_hits", "runs_cache_builds")),
    ("llc.access_fast.calls", "count", JOB, _calls("llc.access_fast")),
    ("llc.access_fast.self_share", "share", JOB, _counted("llc.access_fast")),
    ("llc.access.calls", "count", JOB, _calls("llc.access")),
    ("llc.access.self_share", "share", JOB, _counted("llc.access")),
    ("llc.hit_ratio", "ratio", JOB, _hit_ratio("llc_hits", "llc_misses")),
    ("llc.saes", "count", JOB, _note("saes")),
    ("llc.tag_only_hits", "count", JOB, _note("tag_only_hits")),
    ("cache.access_fast.calls", "count", JOB, _calls("cache.access_fast")),
    ("cache.access_fast.self_share", "share", JOB, _counted("cache.access_fast")),
    ("cache.access_fast.setup_share", "share", SETUP, _counted("cache.access_fast")),
    ("hierarchy.run_mix.self_share", "share", JOB, _own("hierarchy.run_mix")),
    ("hierarchy.access.calls", "count", JOB, _calls("hierarchy.access")),
    ("hierarchy.access.self_share", "share", JOB, _counted("hierarchy.access")),
    ("hierarchy.dram.access.calls", "count", JOB, _calls("hierarchy.dram.access")),
    ("hierarchy.dram.access.self_share", "share", JOB, _counted("hierarchy.dram.access")),
    ("hierarchy.dram.row_hit_ratio", "ratio", JOB, _hit_ratio("dram_row_hits", "dram_row_misses")),
    ("store.maps", "count", SETUP, _cache("store", "maps")),
    ("store.mapped_mb", "MiB", SETUP, lambda v: v.cache("store", "mapped_bytes") / 2**20),
    ("store.map_share", "share", SETUP,
     lambda v: v.cache("store", "map_seconds") * 1e9 / v.wall_ns),
    ("store.map_reuses", "count", JOB, _cache("store", "map_reuses")),
    ("harness.units", "count", JOB, lambda v: len(v.durations.get("harness.execute_unit", ()))),
    ("harness.execute_unit.share", "share", JOB, _share("harness.execute_unit")),
    ("harness.unit_share.p50", "share", JOB, _unit_share(50)),
    ("harness.unit_share.p85", "share", JOB, _unit_share(85)),
    ("harness.finalize_task.share", "share", JOB, _share("harness.finalize_task")),
    ("security.run_shard.ppp.share", "share", JOB, _share("security.run_shard.ppp")),
    ("security.run_shard.policy.share", "share", JOB, _share("security.run_shard.policy")),
    ("security.run_shard.occupancy.share", "share", JOB, _share("security.run_shard.occupancy")),
)

#: Metrics of the resident service, measured on ``paper-grid`` only
#: (one untraced drain, from ``/stream`` shard events and ``/status``).
SERVICE_METRICS = (
    ("service.boot_share", "share"),
    ("service.parallel_efficiency", "ratio"),
    ("service.reissues", "count"),
    ("service.restarts", "count"),
    ("service.resident_memory_hits", "count"),
)

TRACING_METRICS = (
    ("tracing.setup_job_s", "s"),
    ("tracing.job_s", "s"),
    ("tracing.overhead_share", "share"),
    ("tracing.unattributed_share", "share"),
)


class Jobs:
    """Runs jobs, timing each and keeping its fingerprint (``None``
    when it raised; the traceback goes to stderr)."""

    def __init__(self):
        self.fingerprints: List[Optional[str]] = []
        #: ``(start, end)`` of the latest job, in ``time.monotonic`` seconds
        #: (the clock of the speed probes, shared by every process).
        self.window = (0.0, 0.0)

    def run(self, job, span) -> float:
        start = time.monotonic()
        try:
            fingerprint = job(span)
        except Exception:  # noqa: BLE001 - a failed job is counted, not fatal
            traceback.print_exc()
            fingerprint = None
        end = time.monotonic()
        self.fingerprints.append(fingerprint)
        self.window = (start, end)
        return end - start


def _snapshot_delta(before: Dict[str, dict], after: Dict[str, dict]) -> Dict[str, dict]:
    return {
        layer: {field: value - before.get(layer, {}).get(field, 0)
                for field, value in after[layer].items()}
        for layer in after
    }


def traced_job(job, tracer: tracing.Tracer, name: str,
               jobs: Jobs) -> Tuple[List[dict], Dict[str, dict]]:
    """Run one job traced: its spans and its cache-counter deltas."""
    before = cache_snapshot()
    patches = tracing.install(tracer)
    tracer.job = name
    try:
        with tracer.span(tracing.ROOT):
            jobs.run(job, tracer.span)
    finally:
        patches.undo()
    spans = [s for s in tracer.spans if s["job"] == name]
    return spans, _snapshot_delta(before, cache_snapshot())


def _worker_caches(status: dict) -> Dict[str, Dict[str, float]]:
    """The service workers' cache counters, summed over the workers."""
    totals: Dict[str, Dict[str, float]] = {}
    for worker in status["workers"]:
        for layer, fields in worker["caches"].items():
            for field, value in fields.items():
                layer_totals = totals.setdefault(layer, {})
                layer_totals[field] = layer_totals.get(field, 0) + value
    return totals


def service_drain(grid: workloads.PaperGrid, jobs: Jobs):
    """One untraced drain by the booted service.  Returns its metrics,
    the workers' cache-counter deltas and their summed unit seconds."""
    before = grid.status()
    drain_s = jobs.run(grid.job, tracing.no_span)
    after = grid.status()
    caches = _snapshot_delta(_worker_caches(before), _worker_caches(after))
    unit_s_sum = sum(e["seconds"] for e in grid.shard_events)
    mapped = caches.get("store", {})
    metrics = {
        "service.boot_share": grid.boot_s / (grid.boot_s + drain_s),
        "service.parallel_efficiency": unit_s_sum / (grid.WORKERS * drain_s),
        "service.reissues": sum(e["reissues"] for e in grid.shard_events),
        "service.restarts": after["totals"]["restarts"] - before["totals"]["restarts"],
        "service.resident_memory_hits":
            after["totals"]["resident_memory_hits"] - before["totals"]["resident_memory_hits"],
        "store.maps": mapped.get("maps", 0),
        "store.mapped_mb": mapped.get("mapped_bytes", 0) / 2**20,
        "store.map_share": mapped.get("map_seconds", 0.0) / (grid.WORKERS * drain_s),
        "store.map_reuses": mapped.get("map_reuses", 0),
    }
    return metrics, caches, unit_s_sum


def point_caches_at(directory: str) -> None:
    for env, sub in (
        ("REPRO_TRACE_CACHE", "trace"),
        ("REPRO_TRANSLATED_CACHE", "translated"),
        ("REPRO_OPSTREAM_CACHE", "opstream"),
        ("REPRO_SPECIALIZE_CACHE", "specialize"),
    ):
        os.environ[env] = os.path.join(directory, sub)


def run_untraced(workload, args, jobs: Jobs) -> dict:
    """Set up, then (``--phase measure``) run jobs for ``--seconds``
    (at least :data:`MIN_JOBS`).
    Every job's wall time comes with the host's speed over it
    (:mod:`speed`); the set-up's speed runs from the sampler's start."""
    sampler = speed.Sampler(os.path.join(args.work, "speed"))
    walls: List[float] = []
    speeds: List[float] = []
    peak_rss_kb = 0

    def timed_job() -> float:
        # A job that runs in forked children leaves this process waiting.
        waiting = sampler.pause() if workload.runs_in_children else contextlib.nullcontext()
        with waiting:
            return jobs.run(workload.job, tracing.no_span)

    sampler.start()
    try:
        workload.start()
        timed_job()
        setup_speed = sampler.speed(sampler.started, jobs.window[1])
        emit("setup_done")
        if args.phase == "measure":
            deadline = time.monotonic() + args.seconds
            while True:
                walls.append(timed_job())
                speeds.append(sampler.speed(*jobs.window))
                if time.monotonic() >= deadline and len(walls) >= MIN_JOBS:
                    break
            peak_rss_kb = store.peak_rss_kb() + workload.extra_peak_rss_kb()
    finally:
        workload.close()
        sampler.stop()
    return {"job_walls": walls, "job_speeds": speeds, "setup_speed": setup_speed,
            "peak_rss_kb": peak_rss_kb}


def run_traced(workload, args, jobs: Jobs) -> dict:
    """The traced first job starts from empty caches and gives the set-up
    window.  Then, for ``--seconds``, an untraced job and a traced one
    alternate: the traced jobs give the job window, and the wall times
    of both give ``tracing.overhead_share``.

    A serial ``paper-grid`` job takes ~12 s (~17 s traced), and a grid
    run also boots the service and drains the grid through it, so the
    grid traces its cold job only, and its job
    window is that job without the set-up subtrees
    (:class:`tracing.JobView`).  The service, booted before that job so
    its workers fork with empty in-memory caches, then drains the grid
    once over the artifacts the job built.  The drain gives the
    ``service.*`` and ``store.*`` metrics, the job window's cache
    counters and, as its workers' summed unit seconds, the untraced time.
    """
    grid = isinstance(workload, workloads.PaperGrid)
    tracer = tracing.Tracer()
    views: List[tracing.JobView] = []
    untraced_s: List[float] = []
    service: Dict[str, float] = {name: 0.0 for name, _unit in SERVICE_METRICS}
    try:
        workload.start()
        spans, caches = traced_job(workload.traced_job, tracer, "setup", jobs)
        setup = tracing.JobView(spans, caches)
        emit("setup_done")
        if grid:
            drained, worker_caches, unit_s_sum = service_drain(workload, jobs)
            service.update(drained)
            views.append(tracing.JobView(spans, worker_caches, without_setup=True))
            untraced_s.append(unit_s_sum)
        else:
            deadline = time.perf_counter() + args.seconds
            while True:
                untraced_s.append(jobs.run(workload.traced_job, tracing.no_span))
                name = f"job{len(views) + 1}"
                views.append(tracing.JobView(*traced_job(workload.traced_job, tracer, name, jobs)))
                if time.perf_counter() >= deadline:
                    break
    finally:
        workload.close()
    if args.spans:
        tracer.write_jsonl(args.spans)

    metrics: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for name, _unit, window, value in PER_LAYER:
        metrics[name] = value(setup) if window == SETUP else stats.median([value(v) for v in views])
        counts[name] = 1 if window == SETUP else len(views)
    # On paper-grid the artifacts are mapped by the service workers, so
    # their store counters replace the in-process ones.
    metrics.update(service)
    counts.update({name: 1 for name in service})
    traced_s = stats.median([v.wall_ns / 1e9 for v in views])
    metrics["tracing.setup_job_s"] = setup.wall_ns / 1e9
    metrics["tracing.job_s"] = traced_s
    metrics["tracing.overhead_share"] = traced_s / stats.median(untraced_s) - 1.0
    metrics["tracing.unattributed_share"] = stats.median(
        [v.root_self_ns / v.wall_ns for v in views]
    )
    counts.update({name: len(views) for name, _unit in TRACING_METRICS})
    counts["tracing.setup_job_s"] = 1
    return {"metrics": metrics, "n": counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", choices=("setup", "measure"), default="measure")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="traced run: write spans here (JSON lines)")
    parser.add_argument("--work", required=True, help="scratch directory for the artifact caches")
    args = parser.parse_args(argv)

    point_caches_at(args.work)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    jobs = Jobs()
    outcome = run_traced(workload, args, jobs) if args.trace else run_untraced(workload, args, jobs)
    emit(
        "result",
        fingerprints=jobs.fingerprints,
        path=workload.path,
        records_per_job=getattr(workload, "records", None),
        python=platform.python_version(),
        numpy=numpy.__version__,
        **outcome,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
