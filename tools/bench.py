"""Benchmark the ``run_mix`` hot path per LLC design.

Times the full hierarchy simulation (packed L1/L2 + one LLC design)
over the canonical protocol - 8 cores of homogeneous ``mcf`` on a
512-set LLC - and reports accesses/second plus the run's MPKI
fingerprint.  Fresh caches per trial make every trial's statistics
bit-identical; the throughput spread is pure machine noise, so the
best-of-N figure is the one to compare across commits.

The ``maya_specialized`` row is the default Maya path: the generated
per-access step (``repro.core.maya_step``) driven by the op-stream
replay (``repro.engine.vector``), which takes the private L1/L2 off the
critical path.  Every other row makes the replay decline
(``tools/per_access_drive.py``, as the test suite's
``--per-access-drive`` does), which leaves the per-access hierarchy
drive: every access runs the private L1/L2 arrays' generated steps
(``repro.cache.set_assoc_step``) and, on a miss, the LLC's.  Each
design has one generated step, so the LLC
code is the same on either drive; the ``maya`` row measures Maya's on
the per-access drive.  The two Maya fingerprints must match
bit-for-bit, which ``run_protocol`` enforces before reporting;
``--verify`` additionally enforces the replay's speedup floor (see
``verify_specialized``).

Unless ``--no-service`` is given, the run closes with the resident
simulation service's reason-to-exist figure: the per-job cost of a
cold process spawn (fresh interpreter + imports + one fast ``table8``
job) against the same job's round-trip through an already-warm
``repro.service`` worker, which must come out >=10x cheaper.  With
``--both`` (or ``--service-grid``) it also drains the fast
fig9+fig10+table7 grid through a live HTTP service and byte-diffs the
canonical results against a serial run - the same invariant the CI
``service-smoke`` job enforces.

Unless ``--no-store`` is given, the run also benchmarks the zero-copy
mmap artifact store (``repro.store``) against its heap path (pinned by
patching ``store.mmap_enabled``, in process and in each worker): warm
reloads of the canonical protocol's compiled traces must come out >=5x
faster mapped than heap-read, and the aggregate proportional RSS of 8
concurrent workers loading the same artifacts must land below the heap
aggregate (the pages are shared; heap workers hold private copies).
Both floors are enforced inline - the bench refuses to report figures
that fail them.

Usage::

    python tools/bench.py                       # full protocol, print table
    python tools/bench.py --quick               # CI-sized protocol
    python tools/bench.py --both --out BENCH_10.json  # regenerate the
                                                      # checked-in baseline
    python tools/bench.py kernels               # cipher/translate kernel
                                                # microbenchmarks only
    python tools/bench.py --quick --verify      # + reference-engine
                                                # equivalence check
    python tools/bench.py --quick --baseline BENCH_10.json --check-regression 25
    python tools/bench.py --service-grid        # + drain the fast
                                                # fig9+fig10+table7 grid
                                                # through a live service
    REPRO_TRACE_CACHE=0 python tools/bench.py   # rebuild every artifact
                                                # every trial

``--check-regression PCT`` exits 1 if measured Maya throughput falls
more than PCT percent below the checked-in baseline's figure for the
same protocol, or if any design's MPKI fingerprint deviates at all
(fingerprints are exact; throughput gets headroom because absolute
accesses/sec is machine-dependent - the 25% CI threshold absorbs
runner-to-runner variance, not algorithmic regressions, which show up
far larger).

Developer tool, not part of the library API.  Requires the package on
the path (``pip install -e .`` or ``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import random
import statistics
import sys
import time
from array import array

from per_access_drive import per_access_drive
from repro.core.maya_cache import MayaCache
from repro.harness.presets import experiment_maya, experiment_mirage, experiment_system
from repro.hierarchy.simulator import run_mix
from repro.llc.baseline import BaselineLLC
from repro.llc.mirage import MirageCache
from repro.trace.compiled import TRACES
from repro.trace.mixes import homogeneous
from repro.trace.translated import TRANSLATIONS

#: Canonical protocol (matched by the checked-in BENCH_*.json files).
FULL = {"llc_sets": 512, "cores": 8, "accesses_per_core": 12000,
        "warmup_per_core": 6000, "seed": 7, "bench": "mcf", "trials": 6}
#: CI-sized protocol: same shape, ~4x fewer accesses, fewer trials.
QUICK = {"llc_sets": 512, "cores": 8, "accesses_per_core": 3000,
         "warmup_per_core": 1500, "seed": 7, "bench": "mcf", "trials": 2}

#: Pre-SoA throughput on the development machine (commit d57973e),
#: measured with the FULL protocol - the anchor for the rewrite's
#: speedup claims in DESIGN.md.
PRE_SOA_ANCHOR = {"maya": 14637.6, "mirage": 16646.0, "baseline": 20016.5}

#: Prince-mode Maya throughput on the development machine at the
#: BENCH_4 code (scalar per-nibble cipher, no index pretranslation),
#: FULL protocol - the anchor for the fused-kernel speedup claim.
PRE_FUSED_PRINCE_ANCHOR = {"maya_prince": 6228.5}


def _make_llc(design: str, params: dict):
    sets, seed = params["llc_sets"], params["seed"]
    if design in ("maya", "maya_specialized"):
        return MayaCache(experiment_maya(llc_sets=sets, seed=seed))
    if design == "maya_prince":
        # The paper's actual cipher (security-mode runs); the presets
        # default to splitmix for the performance sweeps.
        return MayaCache(
            dataclasses.replace(
                experiment_maya(llc_sets=sets, seed=seed), hash_algorithm="prince"
            )
        )
    if design == "mirage":
        return MirageCache(experiment_mirage(llc_sets=sets, seed=seed))
    if design == "baseline":
        return BaselineLLC(experiment_system(llc_sets=sets).llc_geometry)
    raise ValueError(f"unknown design {design!r}")


def bench_cipher_kernels(blocks: int = 20000, seed: int = 123) -> dict:
    """Microbenchmark the PRINCE kernels: scalar oracle vs fused tables.

    Reports blocks/second for the retained per-nibble interpreter
    (``repro.reference.prince``), the fused single-block kernel, and
    the ``encrypt_many`` batch loop (the ``bulk_map`` / pretranslation
    substrate).  Outputs are cross-checked so a wrong kernel can never
    post a fast number.
    """
    from repro.crypto.prince import Prince
    from repro.reference.prince import ScalarPrince

    rng = random.Random(seed)
    key = rng.getrandbits(128)
    data = array("Q", (rng.getrandbits(64) for _ in range(blocks)))
    scalar_n = max(1, blocks // 10)
    scalar = ScalarPrince(key)
    t0 = time.perf_counter()
    scalar_out = [scalar.encrypt(b) for b in data[:scalar_n]]
    scalar_secs = time.perf_counter() - t0
    fused = Prince(key)
    t0 = time.perf_counter()
    fused_out = [fused.encrypt(b) for b in data]
    fused_secs = time.perf_counter() - t0
    t0 = time.perf_counter()
    batch_out = fused.encrypt_many(data)
    batch_secs = time.perf_counter() - t0
    if fused_out[:scalar_n] != scalar_out or list(batch_out) != fused_out:
        raise AssertionError("cipher kernels disagree - refusing to report timings")
    return {
        "blocks": blocks,
        "scalar_blocks_per_sec": round(scalar_n / scalar_secs, 1),
        "fused_blocks_per_sec": round(blocks / fused_secs, 1),
        "fused_batch_blocks_per_sec": round(blocks / batch_secs, 1),
        "batch_speedup_vs_scalar": round((blocks / batch_secs) / (scalar_n / scalar_secs), 2),
    }


def bench_batch_kernels(probes: int = 20000, seed: int = 123) -> dict:
    """Microbenchmark the numpy translate kernel vs its scalar mirror.

    Times ``repro.crypto.randomizer.splitmix_indices`` (the batch index
    derivation behind ``IndexRandomizer.translate`` and the op-stream
    replay's precompute) against the randomizer's per-address path.  As with the cipher bench, the kernel output is
    cross-checked element-wise against the scalar oracle first; a wrong
    kernel can never post a fast number.
    """
    if not _have_numpy():
        return {"skipped": "numpy unavailable"}
    from repro.crypto.randomizer import splitmix_indices

    rng = random.Random(seed)
    rand = MayaCache(experiment_maya(llc_sets=512, seed=7)).tags.randomizer
    addrs = [rng.getrandbits(30) for _ in range(probes)]
    scalar_n = max(1, probes // 10)
    t0 = time.perf_counter()
    idx_cols = splitmix_indices(addrs, rand._mix_keys, rand.index_bits)
    translate_secs = time.perf_counter() - t0
    t0 = time.perf_counter()
    scalar_idx = [rand._raw_indices(a, 0) for a in addrs[:scalar_n]]
    translate_scalar_secs = time.perf_counter() - t0
    for i in range(scalar_n):
        if tuple(int(c[i]) for c in idx_cols) != scalar_idx[i]:
            raise AssertionError("translate kernels disagree - refusing to report timings")
    return {
        "probes": probes,
        "translate": {
            "blocks_per_sec": round(probes / translate_secs, 1),
            "scalar_blocks_per_sec": round(scalar_n / translate_scalar_secs, 1),
        },
    }


def _canonical_artifact_specs(params: dict = FULL) -> list:
    """The compiled-trace artifacts a canonical protocol run loads.

    Exactly what ``run_mix`` compiles for the protocol's homogeneous
    mix: one trace per core, same line count, length, and derived
    per-core seed - so the store bench times the real thing, not a toy.
    """
    from repro.common.rng import derive_seed

    llc_lines = experiment_system(
        cores=params["cores"], llc_sets=params["llc_sets"]
    ).llc_geometry.lines
    length = params["warmup_per_core"] + max(1, params["accesses_per_core"])
    return [
        [params["bench"], llc_lines, length, derive_seed(params["seed"], 100 + core)]
        for core in range(params["cores"])
    ]


#: Worker script for the aggregate-RSS bench: load the canonical
#: artifacts (must come off the disk cache) through the load path named
#: by its one argument (``mmap`` or ``heap``), then hold them alive
#: while the parent reads back PSS - proportional set size, which
#: divides each shared physical page across its mappers, so page-cache
#: sharing under mmap shows directly where plain RSS would bill every
#: worker the full page.
_STORE_WORKER_CODE = """\
import json, os, sys
from repro import store
from repro.trace import compiled
mapped = sys.argv[1] == "mmap"
store.mmap_enabled = lambda: mapped
specs = json.loads(os.environ["STORE_BENCH_SPECS"])
traces = [compiled.compile_workload(w, l, n, seed=s) for (w, l, n, s) in specs]
if compiled.TRACES.info().builds:
    raise AssertionError("store bench worker compiled instead of loading")
sys.stdout.write("READY\\n")
sys.stdout.flush()
sys.stdin.readline()  # wait until every sibling has mapped (PSS sharing)
sys.stdout.write(json.dumps({
    "pss_kb": store.proportional_rss_kb(),
    "peak_rss_kb": store.peak_rss_kb(),
    "mapped_bytes": store.mapped_bytes_current(),
}) + "\\n")
sys.stdout.flush()
"""


def bench_store(rounds: int = 30, workers: int = 8) -> dict:
    """The mmap artifact store's two figures of merit vs the heap path.

    **Warm loads** - repeatedly reload the canonical protocol's 8 mcf
    traces straight off the disk cache with the store on (registry-warm:
    map reuse, CRC already validated, zero-copy views) and off (full
    read + CRC scan + column copy per load).  The mmap path must come
    out >=5x faster; the function refuses to report a smaller figure.

    **Aggregate worker memory** - ``workers`` concurrent subprocesses
    each load the same artifacts and report PSS.  Under mmap the column
    pages are shared page-cache pages, so the aggregate must land below
    the heap aggregate, where every worker holds private copies (the
    check is skipped, and says so, where ``/proc`` PSS is unavailable).
    """
    import subprocess

    import repro
    from repro import store
    from repro.trace import compiled

    directory = store.cache_dir()
    if directory is None:
        raise AssertionError("the store bench needs the artifact cache enabled")
    specs = _canonical_artifact_specs()
    keys = []
    for workload, llc_lines, length, seed in specs:
        compiled.compile_workload(workload, llc_lines, length, seed=seed)
        keys.append(compiled.trace_key(workload, llc_lines, seed, length))
    artifact_bytes = sum(
        compiled.TRACES.path(directory, key).stat().st_size for key in keys
    )

    def best_load_seconds() -> float:
        best = None
        for _ in range(rounds):
            compiled.TRACES.clear_memory()
            t0 = time.perf_counter()
            for key in keys:
                if compiled.TRACES._load(directory, key) is None:
                    raise AssertionError(f"store bench lost cache entry {key!r}")
            elapsed = time.perf_counter() - t0
            best = elapsed if best is None or elapsed < best else best
        return best

    mmap_enabled = store.mmap_enabled
    try:
        store.mmap_enabled = lambda: True
        compiled.TRACES.clear_memory()
        for key in keys:  # prime: map + one CRC validation per artifact
            compiled.TRACES._load(directory, key)
        mmap_best = best_load_seconds()
        store.mmap_enabled = lambda: False
        heap_best = best_load_seconds()
    finally:
        store.mmap_enabled = mmap_enabled
    speedup = heap_best / mmap_best
    if speedup < 5.0:
        raise AssertionError(
            f"warm mmap loads are only {speedup:.1f}x faster than heap loads "
            "(< 5x) - the artifact store is not paying for itself"
        )

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

    def measure_workers(mode: str) -> list:
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        env["STORE_BENCH_SPECS"] = json.dumps(specs)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _STORE_WORKER_CODE, mode], env=env,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            for _ in range(workers)
        ]
        try:
            for proc in procs:
                if proc.stdout.readline().strip() != "READY":
                    raise AssertionError("a store bench worker died before loading")
            for proc in procs:  # every worker holds its maps: measure now
                proc.stdin.write("go\n")
                proc.stdin.flush()
            return [json.loads(proc.stdout.readline()) for proc in procs]
        finally:
            for proc in procs:
                try:
                    proc.stdin.close()
                    proc.wait(timeout=30.0)
                except (OSError, subprocess.TimeoutExpired):
                    proc.kill()

    mmap_reports = measure_workers("mmap")
    heap_reports = measure_workers("heap")
    have_pss = all(
        r["pss_kb"] is not None for r in mmap_reports + heap_reports
    )
    result = {
        "artifacts": len(keys),
        "artifact_bytes": artifact_bytes,
        "warm_load_rounds": rounds,
        "mmap_warm_load_seconds_best": round(mmap_best, 6),
        "heap_warm_load_seconds_best": round(heap_best, 6),
        "warm_load_speedup": round(speedup, 1),
        "workers": workers,
        "mmap_worker_pss_kb": [r["pss_kb"] for r in mmap_reports],
        "heap_worker_pss_kb": [r["pss_kb"] for r in heap_reports],
        "mmap_worker_peak_rss_kb": [r["peak_rss_kb"] for r in mmap_reports],
        "heap_worker_peak_rss_kb": [r["peak_rss_kb"] for r in heap_reports],
        "mapped_bytes_per_worker": mmap_reports[0]["mapped_bytes"],
    }
    if have_pss:
        mmap_total = sum(r["pss_kb"] for r in mmap_reports)
        heap_total = sum(r["pss_kb"] for r in heap_reports)
        if mmap_total >= heap_total:
            raise AssertionError(
                f"aggregate PSS under mmap ({mmap_total} KiB) is not below the "
                f"heap aggregate ({heap_total} KiB) - the maps are not sharing"
            )
        result["aggregate_pss_kb"] = {"mmap": mmap_total, "heap": heap_total}
        result["aggregate_pss_saved_kb"] = heap_total - mmap_total
    else:
        result["aggregate_pss_kb"] = "skipped (/proc PSS unavailable)"
    return result


#: Experiments in the service-drained grid row (fast scaling); the same
#: grid the CI ``service-smoke`` job byte-diffs against a serial run.
SERVICE_GRID = ("fig9", "fig10", "table7")


def _cold_spawn_code() -> str:
    """The script a cold per-job process runs: import the simulation
    stack (what a resident worker pays once at boot) and execute one
    tiny experiment end to end."""
    return (
        "from repro.harness.cli import build_tasks\n"
        "from repro.harness import runner\n"
        "task = build_tasks(['table8'], fast=True)[0]\n"
        "results = runner.run_tasks([task], jobs=1)\n"
        "assert results[0].ok, results[0].error\n"
    )


def bench_service_overhead(cold_jobs: int = 3, resident_jobs: int = 8) -> dict:
    """Per-job cost: cold process spawn vs a resident warm worker.

    The cold figure is the wall-clock of a fresh interpreter importing
    the simulation stack and running one fast ``table8`` job - the
    price *every* job pays under a spawn-per-job model.  The resident
    figure is the round-trip for the same job through an already-warm
    ``WorkerPool`` worker, measured from the second job on (the first
    job eats the residual warm-up and is reported separately).  The
    pool's whole reason to exist is the ratio between the two; the
    function refuses to report one below 10x.
    """
    import subprocess

    import repro
    from repro.harness.cli import build_tasks
    from repro.service.jobs import GridRun
    from repro.service.pool import WorkerPool

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    code = _cold_spawn_code()
    cold = []
    for _ in range(cold_jobs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        cold.append(time.perf_counter() - t0)

    task = build_tasks(["table8"], fast=True)[0]
    resident = []
    with WorkerPool(workers=1) as pool:
        for job in range(resident_jobs):
            grid = GridRun([task], job_prefix=f"bench{job}")
            t0 = time.perf_counter()
            pool.submit_many(grid.units)
            while not grid.done:
                message = pool.next_result(timeout=120.0)
                grid.record(message.job_id, message.payload,
                            message.seconds, message.error)
            resident.append(time.perf_counter() - t0)
            for result in grid.results():
                if not result.ok:
                    raise AssertionError(f"resident bench job failed: {result.error}")
    warm = resident[1:]
    cold_median = statistics.median(cold)
    warm_median = statistics.median(warm)
    speedup = cold_median / warm_median
    if speedup < 10.0:
        raise AssertionError(
            f"resident per-job overhead is only {speedup:.1f}x below cold spawn "
            "(< 10x) - the worker pool is not paying for itself"
        )
    return {
        "unit": "table8 (fast)",
        "cold_spawn_seconds": [round(s, 4) for s in cold],
        "cold_spawn_median": round(cold_median, 4),
        "first_resident_job_seconds": round(resident[0], 4),
        "resident_seconds": [round(s, 4) for s in warm],
        "resident_median": round(warm_median, 4),
        "speedup_cold_over_resident": round(speedup, 1),
    }


def bench_service_grid(workers: int = 4) -> dict:
    """Drain the fast fig9+fig10+table7 grid through a live HTTP
    service and require the canonical results to be byte-identical to
    a serial run (the same invariant CI's ``service-smoke`` enforces),
    reporting both wall-clocks and the service's cache-reuse totals.
    """
    import threading

    from repro.harness import runner as harness_runner
    from repro.harness.cli import build_tasks
    from repro.service.client import ServiceClient
    from repro.service.server import make_server

    tasks = build_tasks(list(SERVICE_GRID), fast=True)
    t0 = time.perf_counter()
    serial = harness_runner.run_tasks(tasks, jobs=1)
    serial_secs = time.perf_counter() - t0

    server, _service = make_server(port=0, workers=workers)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServiceClient(f"127.0.0.1:{server.server_address[1]}")
        t0 = time.perf_counter()
        drained = client.run_tasks(tasks)
        service_secs = time.perf_counter() - t0
        totals = client.status()["totals"]
    finally:
        server.shutdown_service(drain=False, deadline=5.0)
        thread.join(timeout=10.0)
    if harness_runner.results_dict(drained) != harness_runner.results_dict(serial):
        raise AssertionError(
            "service-drained grid diverged from serial - refusing to report timings"
        )
    return {
        "experiments": list(SERVICE_GRID),
        "workers": workers,
        "serial_seconds": round(serial_secs, 2),
        "service_seconds": round(service_secs, 2),
        "byte_identical": True,
        "service_totals": totals,
    }


def bench_design(design: str, params: dict, make_llc=_make_llc) -> dict:
    """Run ``trials`` fresh simulations; return throughput + fingerprint."""
    mix = homogeneous(params["bench"], params["cores"])
    system = experiment_system(cores=params["cores"], llc_sets=params["llc_sets"])
    total_accesses = (params["accesses_per_core"] + params["warmup_per_core"]) * params["cores"]
    # ``*_specialized`` rows take the op-stream replay; every other
    # row the per-access drive, through the private levels' generated
    # steps (every design runs its one generated step either way).
    specialize = design.endswith("_specialized")
    seconds, mpki, hit_rate, trace_trials = [], None, 0.0, []
    translated_trials, engine_trials = [], []
    for _ in range(params["trials"]):
        llc = make_llc(design, params)
        before = TRACES.info()
        tix_before = TRANSLATIONS.info()
        t0 = time.perf_counter()
        with contextlib.nullcontext() if specialize else per_access_drive():
            result = run_mix(
                llc, mix, system,
                accesses_per_core=params["accesses_per_core"],
                warmup_accesses=params["warmup_per_core"],
                seed=params["seed"],
            )
        seconds.append(time.perf_counter() - t0)
        # Per-trial engine provenance: the op-stream replay's counters
        # (when it drove the run) plus what the specializer installed
        # (or why it declined).
        trial_info = {"engine": result.engine, **(result.engine_info or {}),
                      "specialize": dict(result.specialize_info)}
        engine_trials.append(trial_info)
        after = TRACES.info()
        tix_after = TRANSLATIONS.info()
        # Per-trial trace-cache activity: the first trial compiles (or
        # loads from disk), later trials should be pure memory hits.
        trace_trials.append({
            "memory_hits": after.memory_hits - before.memory_hits,
            "disk_hits": after.disk_hits - before.disk_hits,
            "compiles": after.builds - before.builds,
            "generation_seconds": round(
                (after.build_seconds - before.build_seconds)
                + (after.load_seconds - before.load_seconds), 4),
        })
        # Same shape for the translated-index cache (prince designs
        # only; splitmix runs leave every counter at zero).  Warm
        # trials should show ~0s translation.
        translated_trials.append({
            "memory_hits": tix_after.memory_hits - tix_before.memory_hits,
            "disk_hits": tix_after.disk_hits - tix_before.disk_hits,
            "translations": tix_after.builds - tix_before.builds,
            "translation_seconds": round(
                (tix_after.build_seconds - tix_before.build_seconds)
                + (tix_after.load_seconds - tix_before.load_seconds), 4),
        })
        hit_rate = result.llc_randomizer_hit_rate
        if mpki is None:
            mpki = result.llc_mpki
        elif result.llc_mpki != mpki:
            raise AssertionError(
                f"{design}: trials diverged ({result.llc_mpki} != {mpki}) - "
                "the simulation is not deterministic"
            )
    return {
        "accesses_per_sec_best": round(total_accesses / min(seconds), 1),
        "accesses_per_sec_median": round(total_accesses / statistics.median(seconds), 1),
        "llc_mpki": mpki,
        "randomizer_hit_rate": hit_rate,
        "trial_seconds": [round(s, 3) for s in seconds],
        "engine": engine_trials[-1]["engine"] if engine_trials else "scalar",
        "specialize": specialize,
        "engine_trials": engine_trials,
        "trace_cache_trials": trace_trials,
        "translated_cache_trials": translated_trials,
    }


def _have_numpy() -> bool:
    try:
        import numpy  # noqa: F401
        return True
    except ImportError:
        return False


DEFAULT_DESIGNS = (
    "maya", "maya_specialized", "maya_prince", "mirage", "baseline",
)


def run_protocol(params: dict, designs=DEFAULT_DESIGNS) -> dict:
    results = {}
    for design in designs:
        if design.endswith("_specialized") and not _have_numpy():
            # The specialized row's figure is the op-stream replay,
            # which builds its clock columns with numpy.
            print(f"  {design:15s} skipped (numpy unavailable)")
            continue
        results[design] = bench_design(design, params)
        r = results[design]
        if design.endswith("_specialized"):
            for t in r["engine_trials"]:
                spec = t.get("specialize") or {}
                if spec.get("llc") is None:
                    raise AssertionError(
                        f"{design}: specialization did not engage "
                        f"({spec.get('llc_reason', 'no reason recorded')})"
                    )
                if spec.get("replay") != "opstream-scalar":
                    raise AssertionError(
                        f"{design}: specialized scalar replay did not engage "
                        f"({spec.get('replay_reason', 'no reason recorded')})"
                    )
        print(
            f"  {design:15s} {r['accesses_per_sec_best']:>10.1f} acc/s best "
            f"({r['accesses_per_sec_median']:>9.1f} median over "
            f"{params['trials']} trials)  mpki={r['llc_mpki']:.6f}"
        )
    twin = "maya_specialized"
    if "maya" in results and twin in results:
        if results[twin]["llc_mpki"] != results["maya"]["llc_mpki"]:
            raise AssertionError(
                f"{twin} mpki {results[twin]['llc_mpki']} != "
                f"per-access maya {results['maya']['llc_mpki']} - the drives diverged"
            )
        print(f"  drive cross-check OK ({twin} mpki == maya mpki)")
    return results


#: ``--verify`` floors for the specialized run, keyed by protocol.  FULL
#: carries the headline claim - the op-stream replay must beat the same
#: generated Maya step on the per-access drive (private L1/L2 simulated
#: per access) >=1.8x in the *same run* (measured 2.83x, best of 3
#: trials on a 2-vCPU VM, when the per-access rows still ran hand-written
#: L1/L2 engines; same-run ratios cancel machine speed, so the floor
#: absorbs runner variance, not regressions).  The quick protocol
#: amortizes the replay setup over 4x fewer accesses, so its floor is
#: lower (measured 2.65x).
SPECIALIZED_SPEEDUP_FLOORS = {"full": 1.8, "quick": 1.2}


def verify_specialized(results: dict, protocol: str) -> None:
    """Enforce the replay's speedup floor over the per-access drive."""
    if "maya" not in results or "maya_specialized" not in results:
        print("  specialized verify skipped (rows missing)")
        return
    floor = SPECIALIZED_SPEEDUP_FLOORS.get(protocol, 1.2)
    per_access = results["maya"]["accesses_per_sec_best"]
    specialized = results["maya_specialized"]["accesses_per_sec_best"]
    ratio = specialized / per_access
    if ratio < floor:
        print(
            f"SPECIALIZATION FAILURE: maya_specialized {specialized:.1f} acc/s is "
            f"only {ratio:.2f}x the same-run per-access maya {per_access:.1f} "
            f"(floor {floor:.1f}x for the {protocol} protocol)",
            file=sys.stderr,
        )
        raise SystemExit(1)
    print(
        f"  specialized speedup OK ({ratio:.2f}x >= {floor:.1f}x same-run per-access drive)"
    )


def verify_against_reference(params: dict) -> None:
    """Reference (object-model) Maya must reproduce the packed MPKI.

    Drives the retained pre-SoA engine through the same ``run_mix``
    (behind :class:`~repro.reference.AccessFastAdapter`, which turns
    each object ``access()`` into the step protocol, on the per-access
    drive) and requires a bit-identical
    MPKI fingerprint - an end-to-end cross-check that the generated
    Maya step did not drift, at the full-size protocol that
    tests/test_differential_engines.py::TestVectorEngineSweep checks
    on small configurations.
    """
    from repro.reference import AccessFastAdapter, ReferenceMayaCache

    def maya_config(design, p):
        cfg = experiment_maya(llc_sets=p["llc_sets"], seed=p["seed"])
        if design == "maya_prince":
            cfg = dataclasses.replace(cfg, hash_algorithm="prince")
        return cfg

    def make(design, p):
        return AccessFastAdapter(ReferenceMayaCache(maya_config(design, p)))

    ref_params = dict(params, trials=1)
    for design in ("maya", "maya_prince"):
        reference = bench_design(design, ref_params, make_llc=make)
        packed = bench_design(design, ref_params)
        if reference["llc_mpki"] != packed["llc_mpki"]:
            print(
                f"EQUIVALENCE FAILURE: packed {design} mpki {packed['llc_mpki']} != "
                f"reference {reference['llc_mpki']}",
                file=sys.stderr,
            )
            raise SystemExit(1)
        print(
            f"  reference equivalence OK [{design}] "
            f"(mpki={packed['llc_mpki']:.6f} both engines)"
        )


def check_regression(measured: dict, baseline_path: str, protocol: str, pct: float) -> int:
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    base = baseline["protocols"].get(protocol)
    if base is None:
        print(f"baseline {baseline_path} has no {protocol!r} protocol", file=sys.stderr)
        return 1
    failures = 0
    for design, r in measured.items():
        b = base["results"].get(design)
        if b is None:
            continue
        if r["llc_mpki"] != b["llc_mpki"]:
            print(
                f"REGRESSION ({design}): mpki fingerprint {r['llc_mpki']} != "
                f"baseline {b['llc_mpki']} (must be exact)",
                file=sys.stderr,
            )
            failures += 1
    floors = []
    for design in ("maya", "maya_specialized", "maya_prince"):
        if design not in measured or design not in base["results"]:
            continue
        floor = base["results"][design]["accesses_per_sec_best"] * (1 - pct / 100.0)
        got = measured[design]["accesses_per_sec_best"]
        floors.append((design, got, floor))
        if got < floor:
            print(
                f"REGRESSION ({design}): {got:.1f} acc/s is more than {pct:.0f}% below "
                f"the baseline {base['results'][design]['accesses_per_sec_best']:.1f}",
                file=sys.stderr,
            )
            failures += 1
    if not failures:
        for design, got, floor in floors:
            print(f"  regression check OK ({design} {got:.1f} acc/s >= floor {floor:.1f})")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", nargs="?", choices=("bench", "kernels"), default="bench",
                        help="'kernels' runs only the cipher/translate kernel "
                             "microbenchmarks (no protocol simulation)")
    parser.add_argument("--quick", action="store_true", help="CI-sized protocol")
    parser.add_argument("--both", action="store_true",
                        help="run full AND quick protocols (for regenerating the baseline)")
    parser.add_argument("--trials", type=int, default=None, help="override trial count")
    parser.add_argument("--out", metavar="PATH", help="write the protocols run as JSON")
    parser.add_argument("--verify", action="store_true",
                        help="cross-check packed Maya against the object-model reference")
    parser.add_argument("--baseline", metavar="PATH", default=None,
                        help="checked-in BENCH_*.json to compare against")
    parser.add_argument("--check-regression", type=float, metavar="PCT", default=None,
                        help="fail if Maya throughput drops >PCT%% vs --baseline")
    parser.add_argument("--service-grid", action="store_true",
                        help="also drain the fast fig9+fig10+table7 grid through "
                             "a live simulation service and byte-diff it against "
                             "serial (always on with --both)")
    parser.add_argument("--no-service", action="store_true",
                        help="skip the resident-service benchmarks entirely")
    parser.add_argument("--no-store", action="store_true",
                        help="skip the mmap artifact-store benchmarks")
    args = parser.parse_args(argv)

    protocol = "quick" if args.quick else "full"
    params = dict(QUICK if args.quick else FULL)
    if args.trials:
        params["trials"] = args.trials

    print("[cipher kernels] scalar vs fused PRINCE")
    kernels = bench_cipher_kernels()
    print(
        f"  scalar {kernels['scalar_blocks_per_sec']:>9.1f} blk/s | "
        f"fused {kernels['fused_blocks_per_sec']:>9.1f} blk/s | "
        f"batch {kernels['fused_batch_blocks_per_sec']:>9.1f} blk/s "
        f"({kernels['batch_speedup_vs_scalar']:.1f}x vs scalar)"
    )
    print("[batch kernels] numpy translate kernel vs scalar loop")
    batch_kernels = bench_batch_kernels()
    if "skipped" in batch_kernels:
        print(f"  skipped ({batch_kernels['skipped']})")
    else:
        k = batch_kernels["translate"]
        print(
            f"  translate     {k['blocks_per_sec']:>12.1f} blk/s batch | "
            f"{k['scalar_blocks_per_sec']:>11.1f} blk/s scalar"
        )

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    payload = {
        "bench_id": 10,
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "pre_soa_anchor": PRE_SOA_ANCHOR,
        "pre_fused_prince_anchor": PRE_FUSED_PRINCE_ANCHOR,
        "cipher_kernels": kernels,
        "batch_kernels": batch_kernels,
        "store": {},
        "service": {},
        "protocols": {},
    }

    if args.command == "kernels":
        if args.out:
            del payload["protocols"]
            with open(args.out, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=False)
                fh.write("\n")
            print(f"wrote {args.out}")
        return 0

    print(f"[{protocol}] {params}")
    results = run_protocol(params)
    payload["protocols"][protocol] = {"params": params, "results": results}

    if args.verify:
        verify_against_reference(params)
        verify_specialized(results, protocol)

    if args.both:
        other_name = "full" if args.quick else "quick"
        other = dict(FULL if args.quick else QUICK)
        if args.trials:
            other["trials"] = args.trials
        print(f"[{other_name}] {other}")
        payload["protocols"][other_name] = {"params": other, "results": run_protocol(other)}

    if not args.no_store:
        print("[store] warm artifact loads + aggregate worker PSS, mmap vs heap")
        payload["store"] = bench_store()
        s = payload["store"]
        print(
            f"  warm loads {s['mmap_warm_load_seconds_best']*1000:.2f}ms mapped | "
            f"{s['heap_warm_load_seconds_best']*1000:.2f}ms heap | "
            f"{s['warm_load_speedup']:.0f}x"
        )
        if isinstance(s["aggregate_pss_kb"], dict):
            print(
                f"  aggregate PSS over {s['workers']} workers: "
                f"{s['aggregate_pss_kb']['mmap']} KiB mapped < "
                f"{s['aggregate_pss_kb']['heap']} KiB heap "
                f"({s['aggregate_pss_saved_kb']} KiB shared)"
            )
        else:
            print(f"  aggregate PSS: {s['aggregate_pss_kb']}")

    # Service benches run last: the protocol rows above are the
    # regression-gated figures, and the quick protocol's two short
    # trials are the most sensitive to a machine still hot from
    # sustained all-core load.
    if not args.no_service:
        print("[service] cold per-job spawn vs resident worker")
        payload["service"]["overhead"] = bench_service_overhead()
        o = payload["service"]["overhead"]
        print(
            f"  cold {o['cold_spawn_median']:.3f}s/job | resident "
            f"{o['resident_median']*1000:.1f}ms/job after first "
            f"({o['first_resident_job_seconds']:.3f}s first) | "
            f"{o['speedup_cold_over_resident']:.0f}x"
        )
        if args.service_grid or args.both:
            print(f"[service] draining fast {'+'.join(SERVICE_GRID)} grid")
            payload["service"]["drained_grid"] = bench_service_grid()
            g = payload["service"]["drained_grid"]
            print(
                f"  serial {g['serial_seconds']:.1f}s | service "
                f"{g['service_seconds']:.1f}s over {g['workers']} workers | "
                f"byte-identical OK"
            )

    if args.out:
        payload["protocols"] = dict(sorted(payload["protocols"].items()))
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=False)
            fh.write("\n")
        print(f"wrote {args.out}")

    if args.check_regression is not None:
        if not args.baseline:
            print("--check-regression needs --baseline PATH", file=sys.stderr)
            return 2
        return check_regression(results, args.baseline, protocol, args.check_regression)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
