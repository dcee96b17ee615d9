"""Run the repository benchmark: end-to-end metrics, or per-layer ones.

Usage, from the repository root::

    python3 bench/run.py                                  # every workload, seed 7
    python3 bench/run.py --workload maya-mcf --seed 3     # one workload
    python3 bench/run.py --workload campaign --trace 1    # per-layer metrics
    python3 bench/run.py --workload paper-grid --out set.jsonl   # append a record

Each workload runs in fresh subprocesses (``bench/worker.py``) with
empty artifact caches under ``.bench_work/`` and every ``REPRO_*``
variable removed, so the program runs its defaults and never touches
``results/``.  Untraced, the workload is set up :data:`SETUP_REPS`
times (one process each) and the last process goes on to measure jobs
for ``--seconds``, two at least; ``--trace 1`` runs one traced process instead and
writes its spans to ``.bench_out/<workload>.spans.jsonl``.

``setup_s`` and ``job_s`` are reference seconds: wall time times the
host's speed over the same window, measured by the probe of
:mod:`speed`.  The wall times are printed beside them.

Every metric is printed by name with its unit and sample count; the
last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  A job fails when it raises, when a grid task
is not ok, or when its output fingerprint differs from
``bench/expected.json`` (default seed) or from the other jobs of the
run (any other seed).  The exit status is 0 only when no job failed.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import stats

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
MARK = "@bench "  # the worker's protocol prefix (worker.MARK)

#: Expected output fingerprints at the default seed.
EXPECTED = BENCH / "expected.json"

#: Fresh-process set-ups per untraced run; ``setup_s`` is their median.
#: A paper-grid or campaign set-up ends with a whole cold grid drain or
#: campaign (~10 s each), so those workloads set up once per run: a
#: set of ten seeded runs per workload has to fit in the time budget
#: (README.md, "Run budget").
SETUP_REPS = {"maya-mcf": 2, "maya-lbm-prince": 2, "paper-grid": 1, "campaign": 1}

#: Seconds one workload may take before its worker is killed (a run of
#: one workload must end within 180 s).
BUDGET_S = 170.0

DEFAULT_SEED = 7


class BenchError(Exception):
    """The benchmark itself could not run (no result is printed)."""


def load_definition() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def provenance() -> dict:
    """Where and on what a run was measured."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = head.stdout.strip() if head.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "git_head": commit,
    }


def _child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def spawn(args: List[str], work: pathlib.Path, deadline: float):
    """Run one worker; returns ``(setup_seconds, result_message)``.

    ``setup_seconds`` runs from the spawn to the worker's ``setup_done``
    line, so it covers interpreter start, imports, artifact builds and
    the first job.  The worker leads a process group of its own, so the
    processes it forks (the grid's service workers) end with it on every
    path, a timeout included.
    """
    command = [sys.executable, str(BENCH / "worker.py"), *args, "--work", str(work)]
    start = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), _kill_group, (proc.pid,))
    timer.start()
    setup_s: Optional[float] = None
    result: Optional[dict] = None
    try:
        for line in proc.stdout:
            if not line.startswith(MARK):
                sys.stderr.write(line)
                continue
            message = json.loads(line[len(MARK):])
            if message["event"] == "setup_done":
                setup_s = time.perf_counter() - start
            elif message["event"] == "result":
                result = message
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        _kill_group(proc.pid)
        proc.stdout.close()
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or setup_s is None or result is None:
        raise BenchError(
            f"worker {' '.join(args)} exited with status {proc.returncode} "
            f"before reporting a result"
        )
    return setup_s, result


def _kill_group(pgid: int, wait_s: float = 10.0) -> None:
    """Kill every process left in group ``pgid`` and wait (up to
    ``wait_s``) until none is left."""
    give_up = time.monotonic() + wait_s
    try:
        os.killpg(pgid, signal.SIGKILL)
        while time.monotonic() < give_up:
            time.sleep(0.01)
            os.killpg(pgid, 0)
    except ProcessLookupError:
        pass


def commonest(fingerprints: List[Optional[str]]) -> Optional[str]:
    outputs = collections.Counter(f for f in fingerprints if f is not None)
    return outputs.most_common(1)[0][0] if outputs else None


def count_failures(fingerprints: List[Optional[str]], expected: Optional[str]) -> int:
    """Failed jobs: raised (``None``), or output other than ``expected``
    - or, with nothing expected, other than the run's commonest output."""
    if expected is None:
        expected = commonest(fingerprints)
    return sum(1 for f in fingerprints if f is None or f != expected)


def run_workload(definition: dict, name: str, seed: int, seconds: float, trace: bool,
                 expected: Optional[str], deadline: float) -> dict:
    work_root = ROOT / ".bench_work"
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    units = {m["name"]: m["unit"] for m in definition["per_layer" if trace else "end_to_end"]}
    fingerprints: List[Optional[str]] = []
    if trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"{name}.spans.jsonl"
        _, result = spawn(base + ["--trace", "--spans", str(spans)],
                          work_root / f"{name}-{os.getpid()}", deadline)
        fingerprints += result["fingerprints"]
        values, counts = result["metrics"], result["n"]
        samples = {}
    else:
        wall_setups, setups = [], []
        reps = SETUP_REPS[name]
        for rep in range(reps):
            phase = "measure" if rep == reps - 1 else "setup"
            setup_s, result = spawn(base + ["--phase", phase],
                                    work_root / f"{name}-{os.getpid()}-{rep}", deadline)
            wall_setups.append(setup_s)
            setups.append(setup_s * result["setup_speed"])
            fingerprints += result["fingerprints"]
        walls = result["job_walls"]
        jobs = [wall * s for wall, s in zip(walls, result["job_speeds"])]
        values = {
            "setup_s": stats.median(setups),
            "job_s": stats.median(jobs),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        counts = {"setup_s": len(setups), "job_s": len(jobs), "peak_rss_mb": 1}
        samples = {"setup_s": setups, "job_s": jobs, "wall_setup_s": wall_setups,
                   "wall_job_s": walls, "job_speed": result["job_speeds"]}
    try:
        work_root.rmdir()
    except OSError:
        pass
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"{name}: no value for {', '.join(missing)}")
    failed = count_failures(fingerprints, expected)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": failed == 0,
        "attempted": len(fingerprints),
        "failed": failed,
        "metrics": {
            metric: {"value": values[metric], "unit": unit, "n": counts[metric]}
            for metric, unit in units.items()
        },
        "samples": samples,
        "fingerprint": commonest(fingerprints),
        "path": result["path"],
        "records_per_job": result["records_per_job"],
        "python": result["python"],
        "numpy": result["numpy"],
    }


def print_record(record: dict) -> None:
    print(f"[{record['workload']}] seed {record['seed']}, {record['seconds']:g} s measured, "
          f"path: {record['path']}")
    for metric, m in record["metrics"].items():
        print(f"  {metric:40s} {m['value']:>14.6g} {m['unit']:<6s} (n={m['n']})")
    samples = record["samples"]
    if not record["trace"]:
        # Unscaled, for reading against other tools; too noisy to gate on.
        for metric in ("setup_s", "job_s"):
            wall = stats.median(samples["wall_" + metric])
            print(f"  {'wall_' + metric:40s} {wall:>14.6g} s      (host wall time)")
        print(f"  {'host_speed':40s} {stats.median(samples['job_speed']):>14.6g} ratio  "
              f"(over the measured jobs; job_s = wall time x speed)")
    if record["records_per_job"] and not record["trace"]:
        # The BENCH_2..10 series: trace records (warm-up included) per host second.
        rate = record["records_per_job"] / record["metrics"]["job_s"]["value"]
        print(f"  {'accesses_per_s':40s} {rate:>14.6g} 1/s    (records per job / job_s)")
    error_rate = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    print(f"  {'error_rate':40s} {error_rate:>14.6g} ratio  "
          f"({record['failed']} of {record['attempted']} jobs failed)")
    print(f"  fingerprint {record['fingerprint']}")


def main(argv=None) -> int:
    definition = load_definition()
    names = [w["name"] for w in definition["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=definition["run_seconds"],
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--out", default=None, help="append one JSON record per workload here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program source under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    with open(EXPECTED, encoding="utf-8") as handle:
        expected = json.load(handle)
    about = {**provenance(), "seed": args.seed}
    records = []
    try:
        for name in [args.workload] if args.workload else names:
            want = expected["fingerprints"].get(name) if args.seed == expected["seed"] else None
            record = run_workload(definition, name, args.seed, args.seconds, bool(args.trace),
                                  want, time.monotonic() + BUDGET_S)
            record["provenance"] = about
            records.append(record)
            print_record(record)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"provenance: {json.dumps(about, sort_keys=True)}")
    single = len(records) == 1
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (metric if single else f"{r['workload']}/{metric}"): {
                "value": m["value"], "unit": m["unit"],
            }
            for r in records
            for metric, m in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    # Terminated, still end the worker's process group (spawn's finally).
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    sys.exit(main())
