"""Compare two sets of benchmark runs, metric by metric and workload by workload.

Usage::

    python3 bench/compare.py A.jsonl B.jsonl

``A`` is the reference (the parent commit, or a first set of runs) and
``B`` the candidate; both are files ``bench/run.py --out`` appended one
record per (workload, run) to.  For every (metric, workload) pair it
prints each side's median and quartiles, the share of runs B won against
the A run with the same seed (ties count for neither), and a verdict
against the bound fixed in ``BENCHMARK.json``:

* ``regressed`` - B's median is worse than A's by more than the bound,
  and the runs are steady enough to say so;
* ``unresolved`` - the run-to-run spread (interquartile distance over
  the median, the wider of the two sides) exceeds the bound, unless every
  run of B reads better than every run of A;
* ``within`` - neither.

``gain`` marks a pair where B won at least nine tenths of the pairs and
the medians differ by more than A's interquartile distance.
``error_rate`` (failed / attempted jobs) has a bound of zero: any rise
is a regression.  Per-layer metrics have no bound and get no verdict.
The exit status is 1 when any pair regressed or is unresolved, and 2
when a file holds two runs of one workload with the same seed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import stats

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_runs(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def series(runs: List[dict]) -> Dict[Tuple[str, str], Dict[int, float]]:
    """``(workload, metric) -> {seed: value}``.  Two runs of one workload
    with the same seed are refused rather than one silently dropped."""
    out: Dict[Tuple[str, str], Dict[int, float]] = defaultdict(dict)
    for run in runs:
        for metric, entry in run["metrics"].items():
            values = out[(run["workload"], metric)]
            if run["seed"] in values:
                raise ValueError(
                    f"two runs of {run['workload']} with seed {run['seed']} report {metric}"
                )
            values[run["seed"]] = entry["value"]
    return out


def error_rate_row(a_runs: List[dict], b_runs: List[dict], workload: str) -> dict:
    """Failed over attempted jobs, summed over each set: any rise regresses."""
    def rate(runs):
        runs = [r for r in runs if r["workload"] == workload]
        return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)

    ra, rb = rate(a_runs), rate(b_runs)
    return {
        "workload": workload, "metric": "error_rate", "a": (ra, ra, ra), "b": (rb, rb, rb),
        "pairs": 0, "won": 0.0, "worse": rb - ra, "spread": None,
        "verdict": "regressed" if rb > ra else "within", "gain": False,
    }


def _better(x: float, y: float, lower: bool) -> bool:
    return x < y if lower else x > y


def verdict(a: Dict[int, float], b: Dict[int, float], spec: Optional[dict]) -> dict:
    """Statistics and verdict of one (metric, workload) pair."""
    a_values, b_values = list(a.values()), list(b.values())
    qa, qb = stats.quartiles(a_values), stats.quartiles(b_values)
    lower = spec is None or spec["better"] == "lower"
    seeds = sorted(set(a) & set(b))
    won = sum(1 for s in seeds if _better(b[s], a[s], lower))
    row = {
        "a": qa, "b": qb, "pairs": len(seeds),
        "won": won / len(seeds) if seeds else 0.0,
        "worse": None, "spread": None, "verdict": "-", "gain": False,
    }
    if spec is None:
        return row
    bound = spec["bound"]
    delta = qb[1] - qa[1] if lower else qa[1] - qb[1]
    worse = delta / abs(qa[1]) if qa[1] else (0.0 if delta <= 0 else float("inf"))
    spread = max(stats.spread(a_values), stats.spread(b_values))
    all_better = all(_better(y, x, lower) for x in a_values for y in b_values)
    all_worse = all(_better(x, y, lower) for x in a_values for y in b_values)
    if worse > bound and (spread <= bound or all_worse):
        row["verdict"] = "regressed"
    elif spread > bound and not all_better:
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "within"
    row["worse"], row["spread"] = worse, spread
    row["gain"] = row["won"] >= 0.9 and -delta > qa[2] - qa[0]
    return row


def compare(a_runs: List[dict], b_runs: List[dict], definition: dict) -> List[dict]:
    specs = {m["name"]: m for m in definition["end_to_end"]}
    a, b = series(a_runs), series(b_runs)
    rows = []
    for key in sorted(set(a) & set(b)):
        workload, metric = key
        row = verdict(a[key], b[key], specs.get(metric))
        row.update(workload=workload, metric=metric)
        rows.append(row)
    for workload in sorted({r["workload"] for r in a_runs} & {r["workload"] for r in b_runs}):
        rows.append(error_rate_row(a_runs, b_runs, workload))
    return rows


def _pct(value: Optional[float]) -> str:
    return "-" if value is None else f"{100 * value:+.1f}%"


def render(rows: List[dict], definition: dict) -> str:
    bounds = {m["name"]: m["bound"] for m in definition["end_to_end"]}
    bounds["error_rate"] = 0.0
    lines = [
        f"{'workload':16s} {'metric':38s} {'A median [q1, q3]':>32s} {'B median [q1, q3]':>32s}"
        f" {'worse':>7s} {'spread':>7s} {'bound':>6s} {'won':>5s}  verdict"
    ]
    for r in rows:
        a, b = r["a"], r["b"]
        bound = bounds.get(r["metric"])
        lines.append(
            f"{r['workload']:16s} {r['metric']:38s}"
            f" {f'{a[1]:.5g} [{a[0]:.5g}, {a[2]:.5g}]':>32s}"
            f" {f'{b[1]:.5g} [{b[0]:.5g}, {b[2]:.5g}]':>32s}"
            f" {_pct(r['worse']):>7s} {_pct(r['spread']).lstrip('+'):>7s}"
            f" {'-' if bound is None else f'{100 * bound:.0f}%':>6s}"
            f" {r['won']:>5.2f}  {r['verdict']}{' (gain)' if r['gain'] else ''}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="reference set of runs (JSON lines)")
    parser.add_argument("b", help="candidate set of runs (JSON lines)")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        definition = json.load(handle)
    try:
        rows = compare(load_runs(args.a), load_runs(args.b), definition)
    except ValueError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    print(render(rows, definition))
    bad = [r for r in rows if r["verdict"] in ("regressed", "unresolved")]
    counts = {v: sum(1 for r in rows if r["verdict"] == v)
              for v in ("within", "regressed", "unresolved")}
    print(f"{len(rows)} pairs: {counts['within']} within, {counts['regressed']} regressed, "
          f"{counts['unresolved']} unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
