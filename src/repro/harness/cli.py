"""Command-line entry point: regenerate any of the paper's experiments.

Usage::

    python -m repro.harness.cli list
    python -m repro.harness.cli table8
    python -m repro.harness.cli fig9 --fast
    python -m repro.harness.cli table8 fig1 --fast --jobs 2
    python -m repro.harness.cli all --fast --jobs 4 --json results/all.json
    python -m repro.harness.cli campaign --quick --seed 7 --jobs 2

``campaign`` is a subcommand with its own options (``campaign
--help``): it runs the adversarial security campaign - every attack
against every LLC design - and writes the deterministic scorecard to
``results/SCORECARD.json``.

``--fast`` shrinks iteration counts ~4x for a quick smoke run; default
counts match the benchmark suite.  ``--jobs N`` runs experiments on N
worker processes (multi-config experiments such as fig9/fig10/table7
additionally fan out per workload mix); results are identical to the
serial run.  ``--json PATH`` writes a machine-readable summary with
per-experiment wall-clock timings.  ``--memo-capacity N`` sizes the
randomized designs' LRU mapping cache (exported as the
``REPRO_MEMO_CAPACITY`` environment variable so worker processes and
nested tooling inherit it).  ``--no-trace-cache`` disables the on-disk
compiled-trace cache (``REPRO_TRACE_CACHE=0``), forcing every stream
to be recompiled in-process.  ``--specialize 0`` swaps the generated
step functions and the op-stream replay for the generic per-access
drive (exported as ``REPRO_SPECIALIZE``); results are bit-identical.
``--service ADDR`` (or the ``REPRO_SERVICE`` environment variable)
drains the grid through a resident simulation service (``repro
serve``) instead of one-shot worker processes - same bytes, no
per-shard spawn/import/cache-warm cost.  ``--results PATH`` writes
the canonical timing-free results JSON, which diffs byte-for-byte
between serial, ``--jobs``, and ``--service`` runs.  A failing
experiment no longer aborts the sweep: the remaining experiments still
run and the exit status is 1.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
import os
from typing import Callable, Dict, List, Optional, Tuple

from . import runner
from ..engine.specialize import SPECIALIZE_ENV
from ..service import SERVICE_ENV, resolve_address
from ..trace.compiled import TRACE_CACHE_ENV
from .presets import MEMO_CAPACITY_ENV

#: Experiment registry: name -> (description, module basename under
#: ``repro.harness.experiments``, run() kwargs builder).  The builder
#: receives the iteration scaler so ``--fast`` shrinks every sweep the
#: same way; kwargs must stay picklable (they cross process boundaries).
_REGISTRY: Dict[str, Tuple[str, str, Callable[[Callable[[int], int], bool], dict]]] = {
    "fig1": (
        "dead-block percentages (baseline vs Mirage)",
        "fig1_dead_blocks",
        lambda acc, fast: {"accesses": acc(8000), "warmup": acc(4000)},
    ),
    "fig4": (
        "performance vs reuse ways",
        "fig4_reuse_ways",
        lambda acc, fast: {"accesses_per_core": acc(6000), "warmup_per_core": acc(3000)},
    ),
    "fig6": (
        "bucket spills vs capacity",
        "fig6_bucket_spills",
        lambda acc, fast: {"iterations": acc(120_000)},
    ),
    "fig7": (
        "occupancy distribution: simulation vs analytical",
        "fig7_occupancy",
        lambda acc, fast: {"iterations": acc(100_000)},
    ),
    "fig8": (
        "occupancy-attack hardness (normalized to fully associative)",
        "fig8_occupancy_attack",
        lambda acc, fast: {"trials": 1 if fast else 3},
    ),
    "fig9": (
        "homogeneous-mix weighted speedups",
        "fig9_homogeneous",
        lambda acc, fast: {"accesses_per_core": acc(8000), "warmup_per_core": acc(5000)},
    ),
    "fig10": (
        "heterogeneous-mix weighted speedups",
        "fig10_heterogeneous",
        lambda acc, fast: {"accesses_per_core": acc(6000), "warmup_per_core": acc(3000)},
    ),
    "table1": (
        "installs/SAE vs reuse x invalid ways",
        "table1_reuse_security",
        lambda acc, fast: {},
    ),
    "table4": (
        "installs/SAE vs tag-store associativity",
        "table4_associativity",
        lambda acc, fast: {},
    ),
    "table7": (
        "average LLC MPKIs",
        "table7_mpki",
        lambda acc, fast: {"accesses_per_core": acc(6000), "warmup_per_core": acc(3000)},
    ),
    "table8": ("storage overheads (exact)", "table8_storage", lambda acc, fast: {}),
    "table9": ("energy/power/area", "table9_power", lambda acc, fast: {}),
    "table10": (
        "security/storage/performance summary",
        "table10_summary",
        lambda acc, fast: {"accesses_per_core": acc(5000), "warmup_per_core": acc(3000)},
    ),
    "table11": (
        "secure partitioning baselines",
        "table11_partitioning",
        lambda acc, fast: {"accesses_per_core": acc(6000), "warmup_per_core": acc(3000)},
    ),
    "llc-size": (
        "sensitivity to LLC size",
        "llc_size_sensitivity",
        lambda acc, fast: {"accesses_per_core": acc(5000), "warmup_per_core": acc(2500)},
    ),
    "cores": (
        "sensitivity to core count",
        "core_count_sensitivity",
        lambda acc, fast: {"accesses_per_core": acc(3000), "warmup_per_core": acc(1500)},
    ),
    "fitting": (
        "LLC-fitting benchmarks + premature tag evictions",
        "fitting_and_tag_eviction",
        lambda acc, fast: {"accesses_per_core": acc(5000), "warmup_per_core": acc(2500)},
    ),
}

_EXPERIMENTS_PACKAGE = "repro.harness.experiments"


def _scaled(value: int, fast: bool) -> int:
    return max(500, value // 4) if fast else value


def _accepts_seed(module_path: str) -> bool:
    module = runner._load(module_path)
    return "seed" in inspect.signature(module.run).parameters


def build_tasks(
    names: List[str], fast: bool, base_seed: Optional[int] = None
) -> List[runner.ExperimentTask]:
    """Materialize tasks for ``names`` (all inputs resolved, picklable).

    With ``base_seed`` set, every experiment whose ``run()`` takes a
    ``seed`` gets a deterministic per-task child seed
    (:func:`repro.harness.runner.derive_task_seed`); otherwise the
    experiments' built-in default seeds apply, matching historical
    output byte for byte.
    """
    acc = lambda n: _scaled(n, fast)  # noqa: E731
    tasks = []
    for name in names:
        description, basename, kwargs_builder = _REGISTRY[name]
        module_path = f"{_EXPERIMENTS_PACKAGE}.{basename}"
        kwargs = kwargs_builder(acc, fast)
        if base_seed is not None and _accepts_seed(module_path):
            kwargs["seed"] = runner.derive_task_seed(base_seed, name)
        tasks.append(
            runner.ExperimentTask(
                name=name, description=description, module=module_path, kwargs=kwargs
            )
        )
    return tasks


def campaign_main(argv: List[str]) -> int:
    """The ``campaign`` subcommand: the adversarial security scorecard.

    Fans the (design, attack) matrix out through the shard runner and
    writes ``results/SCORECARD.json`` in canonical form; two runs with
    the same seed produce byte-identical scorecards regardless of
    ``--jobs``.
    """
    from ..security import campaign

    parser = argparse.ArgumentParser(
        prog="repro-experiments campaign",
        description="Attack every LLC design and emit a security scorecard.",
    )
    parser.add_argument("--quick", action="store_true", help="small caches, few trials (CI smoke)")
    parser.add_argument("--seed", type=int, default=7, metavar="S", help="campaign seed (default 7)")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (0 = one per CPU, capped at 8; default 1 = serial)",
    )
    parser.add_argument(
        "--designs", default=None, metavar="A,B",
        help=f"comma-separated designs (default all: {','.join(campaign.DESIGNS)})",
    )
    parser.add_argument(
        "--attacks", default=None, metavar="X,Y",
        help=f"comma-separated attacks (default all: {','.join(campaign.ATTACKS)})",
    )
    parser.add_argument(
        "--scorecard", default=os.path.join("results", "SCORECARD.json"), metavar="PATH",
        help="scorecard output path (default results/SCORECARD.json)",
    )
    parser.add_argument(
        "--specialize", choices=("0", "1"), default=None,
        help="the access steps the cells' attacks drive: 1 (default) "
        "installs config-specialized steps on every design a cell "
        "builds, 0 keeps the generic steps as the differential oracle "
        "(exported as %s so --jobs workers inherit it; the scorecard "
        "is byte-identical either way)" % SPECIALIZE_ENV,
    )
    parser.add_argument(
        "--service", default=None, metavar="ADDR",
        help="drain the campaign's (design x attack) shards through a "
        "resident simulation service (default from %s when set); the "
        "scorecard is byte-identical either way" % SERVICE_ENV,
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the runner summary (timings, report text) to PATH",
    )
    args = parser.parse_args(argv)

    if args.specialize is not None:
        os.environ[SPECIALIZE_ENV] = args.specialize

    designs = args.designs.split(",") if args.designs else None
    attacks = args.attacks.split(",") if args.attacks else None
    task = runner.ExperimentTask(
        name="campaign",
        description="adversarial security campaign",
        module="repro.security.campaign",
        kwargs={
            "designs": designs,
            "attacks": attacks,
            "seed": args.seed,
            "quick": args.quick,
            "scorecard_path": args.scorecard,
        },
    )
    jobs = runner.default_jobs() if args.jobs == 0 else max(1, args.jobs)
    service = resolve_address(args.service)
    progress = (
        (lambda line: print(f"[runner] {line}", file=sys.stderr))
        if (jobs > 1 or service)
        else None
    )
    start = time.perf_counter()
    results = runner.run_tasks([task], jobs=jobs, progress=progress, service=service)
    wall_seconds = time.perf_counter() - start
    result = results[0]
    if args.json:
        runner.write_summary(
            args.json, results, jobs, wall_seconds,
            extra={"quick": args.quick, "seed": args.seed, "scorecard": args.scorecard},
        )
    if not result.ok:
        print(f"campaign FAILED after {result.seconds:.1f}s", file=sys.stderr)
        print(result.error, file=sys.stderr)
        return 1
    print(result.text)
    print(f"scorecard written to {args.scorecard} [{wall_seconds:.1f}s]")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "campaign":
        return campaign_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the Maya paper's tables and figures.",
    )
    parser.add_argument("experiments", nargs="+", help="experiment id(s), 'list', or 'all'")
    parser.add_argument("--fast", action="store_true", help="~4x fewer iterations")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (0 = one per CPU, capped at 8; default 1 = serial)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write a machine-readable summary (timings, texts, errors) to PATH",
    )
    parser.add_argument(
        "--seed", type=int, default=None, metavar="S",
        help="base seed; per-experiment child seeds are derived deterministically",
    )
    parser.add_argument(
        "--memo-capacity", type=int, default=None, metavar="N",
        help="randomizer mapping-cache entries for the randomized designs "
        "(default 2**20; exported as %s so --jobs workers inherit it)" % MEMO_CAPACITY_ENV,
    )
    parser.add_argument(
        "--no-trace-cache", action="store_true",
        help="disable the on-disk compiled-trace cache (exported as "
        "%s=0 so --jobs workers inherit it; streams are recompiled "
        "in-process instead of loaded from results/.trace_cache)" % TRACE_CACHE_ENV,
    )
    parser.add_argument(
        "--specialize", choices=("0", "1"), default=None,
        help="config-specialized step codegen: 1 (default; generated "
        "per-config step functions plus the opstream scalar replay for "
        "every LLC with an access_fast step) or 0 for the generic "
        "differential oracle (bit-identical results, exported as %s so "
        "--jobs workers inherit it)"
        % SPECIALIZE_ENV,
    )
    parser.add_argument(
        "--service", default=None, metavar="ADDR",
        help="drain the grid through a resident simulation service "
        "(HOST:PORT; default from %s when set).  Results are "
        "byte-identical to the local runner; --jobs is then the "
        "service's concern" % SERVICE_ENV,
    )
    parser.add_argument(
        "--results", metavar="PATH", default=None,
        help="write the canonical timing-free results JSON to PATH "
        "(byte-diffable between serial, --jobs, and --service runs)",
    )
    args = parser.parse_args(argv)

    if args.no_trace_cache:
        os.environ[TRACE_CACHE_ENV] = "0"

    if args.specialize is not None:
        os.environ[SPECIALIZE_ENV] = args.specialize

    if args.memo_capacity is not None:
        if args.memo_capacity <= 0:
            print("--memo-capacity must be positive", file=sys.stderr)
            return 2
        os.environ[MEMO_CAPACITY_ENV] = str(args.memo_capacity)

    if args.experiments == ["list"]:
        for name, (description, _, _) in _REGISTRY.items():
            print(f"{name:10s} {description}")
        print("campaign   adversarial security scorecard (see 'campaign --help')")
        return 0

    names = list(_REGISTRY) if "all" in args.experiments else args.experiments
    unknown = [n for n in names if n not in _REGISTRY]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}; try 'list'", file=sys.stderr)
        return 2

    jobs = runner.default_jobs() if args.jobs == 0 else max(1, args.jobs)
    service = resolve_address(args.service)
    tasks = build_tasks(names, args.fast, base_seed=args.seed)
    progress = (
        (lambda line: print(f"[runner] {line}", file=sys.stderr))
        if (jobs > 1 or service)
        else None
    )
    start = time.perf_counter()
    try:
        results = runner.run_tasks(tasks, jobs=jobs, progress=progress, service=service)
    except Exception as exc:  # noqa: BLE001 - a dead service should not traceback
        if service:
            print(f"service error: {exc}", file=sys.stderr)
            print("is the service running?  start one with: repro serve", file=sys.stderr)
            return 1
        raise
    wall_seconds = time.perf_counter() - start

    failures = 0
    for result in results:
        print(f"\n=== {result.name}: {result.description} ===")
        if result.ok:
            print(result.text)
        else:
            failures += 1
            print(f"FAILED after {result.seconds:.1f}s", file=sys.stderr)
            print(result.error, file=sys.stderr)
        print(f"[{result.seconds:.1f}s]")

    if args.json:
        extra = {"fast": args.fast, "seed": args.seed, "experiments": names}
        if service:
            extra["service"] = service
            try:
                from ..service.client import ServiceClient

                extra["service_status"] = ServiceClient(service).status()
            except Exception:  # noqa: BLE001 - accounting is best-effort
                pass
        runner.write_summary(args.json, results, jobs, wall_seconds, extra=extra)
    if args.results:
        runner.write_results(args.results, results)
    if failures:
        print(f"{failures} experiment(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
