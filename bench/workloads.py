"""The benchmark's four workloads: what one job is, and its output.

Every workload is a closed loop with one client: the next job starts
only after the previous one returned.  A job returns a fingerprint of
its output; :mod:`worker` compares it with the expected value (default
seed) or with the other jobs of the run (any other seed).

Why these four (see README.md for the layer map):

* ``maya-mcf`` - the default Maya path (specialized step + op-stream
  replay) on a read-heavy, conflict-heavy mix; the ``run_mix`` hit path.
* ``maya-lbm-prince`` - the same LLC layer driven through installs,
  tag evictions and dirty writebacks by a streaming mix, with the PRINCE
  cipher, so its setup is the only one that runs the crypto layer.
* ``paper-grid`` - the fast fig10 grid (21 units; ``repro.harness.cli
  fig10 --fast``) drained by an in-process 2-worker service: harness,
  service and store, and the per-access hierarchy drive of the Mirage
  and baseline designs.  It is one of the three experiments of the
  fig9 + fig10 + table7 grid the ROADMAP names, whose 70 units do not
  fit the run budget (see README.md, "Run budget").
* ``campaign`` - the full 21-cell security campaign through the shard
  protocol: the LLCs' object ``access`` API, bypassing ``run_mix``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
import time
from typing import Callable, Dict, List

from repro.core.maya_cache import MayaCache
from repro.harness import runner
from repro.harness.cli import build_tasks
from repro.harness.presets import experiment_maya, experiment_system
from repro.hierarchy import simulator
from repro.security import campaign
from repro.service import jobs as service_jobs
from repro.service.client import ServiceClient
from repro.service.server import make_server
from repro.trace.mixes import homogeneous


class JobFailed(Exception):
    """A job ran but its output is not a valid result."""


class Workload:
    """One job type.  ``job(span)`` runs one job and returns its output
    fingerprint; ``span(name)`` opens a trace span (a no-op untraced).
    ``traced_job`` is what the traced run executes instead."""

    #: Which program path ran, for the run's provenance.
    path = None

    #: True when a job's work runs in processes the workload forked,
    #: while the calling process only waits for them.
    runs_in_children = False

    def start(self) -> None:
        pass

    def job(self, span) -> str:
        raise NotImplementedError

    def traced_job(self, span) -> str:
        return self.job(span)

    def close(self) -> None:
        pass

    def extra_peak_rss_kb(self) -> int:
        """Peak RSS of processes the workload started, in KiB."""
        return 0


def _sha256_json(payload, **dump_kwargs) -> str:
    blob = json.dumps(payload, indent=2, **dump_kwargs) + "\n"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class MayaMix(Workload):
    """Maya on 8 copies of one benchmark, canonical protocol: 512 sets,
    12000 measured + 6000 warm-up records per core, fresh LLC per job."""

    CORES = 8
    SETS = 512
    MEASURED = 12000
    WARMUP = 6000

    def __init__(self, seed: int, benchmark: str, cipher: str):
        self.seed = seed
        self.cipher = cipher
        self.mix = homogeneous(benchmark, self.CORES)
        self.system = experiment_system(cores=self.CORES, llc_sets=self.SETS)
        #: Trace records simulated per job (warm-up included).
        self.records = self.CORES * (self.MEASURED + self.WARMUP)

    def job(self, span) -> str:
        config = dataclasses.replace(
            experiment_maya(llc_sets=self.SETS, seed=self.seed), hash_algorithm=self.cipher
        )
        with span("llc.init"):
            llc = MayaCache(config)
        result = simulator.run_mix(
            llc, self.mix, self.system,
            accesses_per_core=self.MEASURED, warmup_accesses=self.WARMUP, seed=self.seed,
        )
        replay = (result.specialize_info or {}).get("replay")
        self.path = f"engine={result.engine} replay={replay}"
        return f"mpki={result.llc_mpki!r} saes={result.llc_saes}"


#: The experiments of one paper-grid job, at the harness's ``--fast`` scale.
GRID = ["fig10"]


class PaperGrid(Workload):
    """The fig10 grid (21 units) drained through an
    in-process ``make_server(port=0, workers=2)``; the traced run executes
    the same planned units serially in process instead."""

    WORKERS = 2
    path = "service workers=2"
    runs_in_children = True

    def __init__(self, seed: int):
        self.tasks = build_tasks(GRID, fast=True, base_seed=seed)
        self.server = None
        self.thread = None
        self.client = None
        self.boot_s = 0.0
        #: ``shard`` events of the latest drain, from ``/stream``.
        self.shard_events: List[dict] = []

    def start(self) -> None:
        start = time.perf_counter()
        self.server, _service = make_server(port=0, workers=self.WORKERS)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        self.client = ServiceClient(f"127.0.0.1:{self.server.server_address[1]}")
        deadline = time.monotonic() + 60.0
        while not all(w["boot"] for w in self.status()["workers"]):
            if time.monotonic() > deadline:
                raise JobFailed("service workers did not boot within 60 s")
            time.sleep(0.01)
        self.boot_s = time.perf_counter() - start

    def status(self) -> dict:
        return self.client.status()

    def job(self, span) -> str:
        sub_id = self.client.submit(self.tasks)
        self.shard_events = [e for e in self.client.stream(sub_id) if e["event"] == "shard"]
        payload = self.client.result(sub_id)
        if not payload.get("done"):
            raise JobFailed(f"submission {sub_id} streamed 'done' but is not complete")
        return self._fingerprint([service_jobs.result_from_dict(r) for r in payload["results"]])

    def traced_job(self, span) -> str:
        with span("harness.plan_units"):
            units, task_keys = runner.plan_units(self.tasks)
        results = [runner.TaskResult(name=t.name, description=t.description) for t in self.tasks]
        # plan_units emits each task's units contiguously, in task order.
        owner = [
            task_index
            for task_index, keys in enumerate(task_keys)
            for _ in range(1 if keys is None else len(keys))
        ]
        payloads: List[object] = []
        for unit in units:
            with span("harness.execute_unit"):
                _, payload, seconds, error = runner.execute_unit(unit)
            result = results[owner[unit[0]]]
            result.seconds += seconds
            if error is not None:
                result.error = error if result.error is None else result.error + "\n" + error
            payloads.append(payload)
        for task_index, task in enumerate(self.tasks):
            with span("harness.finalize_task"):
                runner.finalize_task(
                    task, results[task_index], task_keys[task_index],
                    [payloads[i] for i, o in enumerate(owner) if o == task_index],
                )
        return self._fingerprint(results)

    @staticmethod
    def _fingerprint(results) -> str:
        failed = [r.name for r in results if not r.ok]
        if failed:
            raise JobFailed(f"grid tasks failed: {', '.join(failed)}")
        return _sha256_json(runner.results_dict(results))

    def close(self) -> None:
        if self.server is None:
            return
        self.server.shutdown_service(drain=False, deadline=5.0)
        self.thread.join(timeout=10.0)
        self.server.server_close()
        self.server = None

    def extra_peak_rss_kb(self) -> int:
        """Summed peak RSS of the service workers, from ``/status``."""
        return int(self.status()["totals"]["peak_rss_kb"])


class Campaign(Workload):
    """The full security campaign: the design x attack matrix (7 x 3
    cells) at its default cell size, run through ``shard_keys``/
    ``run_shard``/``merge_shards`` in process."""

    path = "campaign full"

    def __init__(self, seed: int):
        self.seed = seed

    def job(self, span) -> str:
        keys = campaign.shard_keys(seed=self.seed)
        parts = []
        for key in keys:
            with span("security.run_shard." + key.split(":", 1)[1]):
                parts.append(campaign.run_shard(key, seed=self.seed))
        with span("security.merge_shards"):
            scorecard = campaign.merge_shards(keys, parts, seed=self.seed)
        campaign.validate_scorecard(scorecard)
        return _sha256_json(scorecard, sort_keys=True)


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    "maya-mcf": lambda seed: MayaMix(seed, "mcf", "splitmix"),
    "maya-lbm-prince": lambda seed: MayaMix(seed, "lbm", "prince"),
    "paper-grid": PaperGrid,
    "campaign": Campaign,
}
