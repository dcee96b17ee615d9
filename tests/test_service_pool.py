"""The resident worker pool (repro.service.pool + repro.service.jobs).

Load-bearing properties:

* **Parity** - a grid drained through resident workers merges to the
  exact bytes a serial ``runner.run_tasks`` produces.
* **Crash recovery** - a worker dying mid-shard (``os._exit`` from the
  shard, or SIGKILL from outside) loses nothing: the unit is re-issued
  to a fresh worker and the merged result is unchanged, byte for byte.
* **Idempotence** - duplicate submissions and duplicate deliveries of
  the same unit cannot corrupt the merge.
* **Accounting** - per-worker boot/warm cost and resident-cache reuse
  are observable through ``worker_stats()``.
* **Overhead** - a job's round trip through a warm worker is at least
  10x cheaper than a cold process running the same job.
"""

import os
import signal
import statistics
import subprocess
import sys
import time

import pytest

from repro.harness.cli import build_tasks
from repro.harness.runner import ExperimentTask, run_tasks
from repro.service.jobs import GridRun, Unit, cache_delta, cache_snapshot
from repro.service.pool import WorkerPool

from .service_helpers import MODULE

pytestmark = pytest.mark.service

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _helper_task(name="grid", **kwargs):
    return ExperimentTask(name=name, description=name, module=MODULE, kwargs=kwargs)


def _fig9_task(accesses=500, warmup=250):
    return ExperimentTask(
        name="fig9",
        description="homogeneous-mix speedups",
        module="repro.harness.experiments.fig9_homogeneous",
        kwargs={"accesses_per_core": accesses, "warmup_per_core": warmup},
    )


def _drain(pool, grid, timeout=120.0):
    deadline = time.monotonic() + timeout
    while not grid.done:
        remaining = deadline - time.monotonic()
        assert remaining > 0, "grid did not finish in time"
        message = pool.next_result(timeout=remaining)
        grid.record(message.job_id, message.payload, message.seconds, message.error)
    return grid.results()


@pytest.fixture
def pool():
    # A lean warm list keeps test startup fast; the default list is
    # exercised by the server tests and the CI service-smoke job.
    with WorkerPool(workers=2, warm_modules=("repro.harness.runner",)) as p:
        yield p


class TestPoolParity:
    def test_sharded_grid_matches_serial(self, pool):
        tasks = [_helper_task("grid"), _helper_task("wide", labels=list("abcdefgh"))]
        serial = run_tasks(tasks, jobs=1)
        grid = GridRun(tasks, job_prefix="p")
        assert len(grid.units) == 12  # 4 + 8 shards
        pool.submit_many(grid.units)
        results = _drain(pool, grid)
        assert [r.text for r in results] == [r.text for r in serial]
        assert all(r.ok for r in results)
        assert [r.shards for r in results] == [4, 8]

    def test_real_experiment_matches_serial(self, pool):
        task = _fig9_task()
        serial = run_tasks([task], jobs=1)
        grid = GridRun([task], job_prefix="f")
        pool.submit_many(grid.units)
        results = _drain(pool, grid)
        assert results[0].ok
        assert results[0].text == serial[0].text

    def test_duplicate_delivery_is_ignored(self, pool):
        tasks = [_helper_task()]
        grid = GridRun(tasks, job_prefix="d")
        pool.submit_many(grid.units)
        results = _drain(pool, grid)
        text = results[0].text
        # Replaying a completed unit must be a no-op on the merge.
        assert grid.record(grid.units[0].job_id, "bogus", 9.9, None) is None
        assert grid.results()[0].text == text


class TestCrashRecovery:
    def test_exit_mid_shard_reissued_byte_identical(self, pool, tmp_path):
        """A worker that dies inside run_shard loses nothing: the unit
        is re-issued and the merged grid matches serial exactly."""
        serial = run_tasks([_helper_task("grid")], jobs=1)
        crashing = _helper_task("grid", crash_key="charlie", crash_dir=str(tmp_path))
        grid = GridRun([crashing], job_prefix="c")
        pool.submit_many(grid.units)
        results = _drain(pool, grid)
        assert (tmp_path / "crashed-charlie").exists(), "the worker never crashed"
        assert pool.restarts >= 1
        assert results[0].ok, results[0].error
        assert results[0].text == serial[0].text

    def test_sigkill_mid_grid_byte_identical(self, pool):
        """Killing a worker process mid-grid from outside (SIGKILL, as
        an OOM killer would) changes no result bytes."""
        task = _fig9_task()
        serial = run_tasks([task], jobs=1)
        grid = GridRun([task], job_prefix="k")
        pool.submit_many(grid.units)
        killed = None
        deadline = time.monotonic() + 60.0
        while killed is None and time.monotonic() < deadline:
            inflight = pool.inflight_pids()
            if inflight:
                killed = next(iter(inflight.values()))
                os.kill(killed, signal.SIGKILL)
            else:
                time.sleep(0.001)
        assert killed is not None, "never observed an in-flight unit"
        results = _drain(pool, grid)
        assert pool.restarts >= 1
        assert results[0].ok, results[0].error
        assert results[0].text == serial[0].text

    def test_poison_unit_fails_without_crash_looping(self, pool):
        """A unit that kills every worker it touches is given up on
        with an error result; the rest of the grid still completes."""
        tasks = [
            _helper_task("poison", crash_key="bravo"),  # no crash_dir: dies every time
            _helper_task("healthy"),
        ]
        grid = GridRun(tasks, job_prefix="x")
        pool.submit_many(grid.units)
        results = _drain(pool, grid)
        assert not results[0].ok
        assert "crashed its worker" in results[0].error
        assert results[1].ok
        # The pool survived and still executes work.
        follow_up = GridRun([_helper_task("after")], job_prefix="y")
        pool.submit_many(follow_up.units)
        assert _drain(pool, follow_up)[0].ok


class TestLifecycleAndAccounting:
    def test_shutdown_refuses_new_work(self, pool):
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.submit(
                Unit(job_id="z/u0", task_index=0, unit_index=0, module=MODULE, kwargs={})
            )

    def test_drain_deadline_abandons_slow_work(self):
        pool = WorkerPool(workers=1, warm_modules=("repro.harness.runner",)).start()
        grid = GridRun([_helper_task("slow", sleep_per_shard=30.0)], job_prefix="s")
        pool.submit_many(grid.units)
        start = time.monotonic()
        finished = pool.shutdown(drain=True, deadline=1.0)
        assert not finished
        assert time.monotonic() - start < 20.0
        # Every submitted unit still reports back - as an error.
        seen = 0
        while seen < len(grid.units):
            message = pool.next_result(timeout=5.0)
            assert message.error is not None
            seen += 1

    def test_worker_stats_show_boot_and_resident_reuse(self, pool, pytestconfig):
        first = GridRun([_fig9_task()], job_prefix="w1")
        pool.submit_many(first.units)
        _drain(pool, first)
        again = GridRun([_fig9_task()], job_prefix="w2")
        pool.submit_many(again.units)
        _drain(pool, again)
        stats = pool.worker_stats()
        assert len(stats) == 2
        assert sum(w["jobs"] for w in stats) == len(first.units) + len(again.units)
        for w in stats:
            assert w["boot"]["warm_seconds"] >= 0.0
            assert set(w["caches"]) <= {
                "trace", "translated", "opstream", "store", "kernels", "sweeps"}
            # Memory gauges ride along with every completion.
            assert w["peak_rss_kb"] > 0
            assert w["mapped_bytes"] >= 0
        # The second pass reuses the first pass's resident traces.
        assert sum(w["resident_memory_hits"] for w in stats) > 0
        # Every replayed run_mix took the inline kernel (the forked
        # workers replay unless the session declines the replay); the
        # kernel counts are no cache layer's memory hits.
        kernels = [w["caches"]["kernels"] for w in stats if "kernels" in w["caches"]]
        if not pytestconfig.getoption("--per-access-drive"):
            assert sum(k["inline"] for k in kernels) > 0
        assert sum(k["call"] for k in kernels) == 0
        assert not any("memory_hits" in k for k in kernels)


#: What a cold per-job process runs: import the simulation stack (a
#: resident worker pays that once, at boot) and one fast ``table8`` job.
COLD_JOB = (
    "from repro.harness.cli import build_tasks\n"
    "from repro.harness import runner\n"
    "results = runner.run_tasks(build_tasks(['table8'], fast=True), jobs=1)\n"
    "assert results[0].ok, results[0].error\n"
)


class TestResidentOverhead:
    @pytest.mark.perf
    def test_resident_job_is_ten_times_cheaper_than_a_cold_spawn(self):
        """The pool's reason to exist: a job's round trip through a warm
        worker costs under a tenth of a fresh interpreter running it."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        cold = []
        for _ in range(2):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", COLD_JOB], env=env, check=True,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            cold.append(time.perf_counter() - start)
        task = build_tasks(["table8"], fast=True)[0]
        resident = []
        with WorkerPool(workers=1) as pool:
            for job in range(5):
                grid = GridRun([task], job_prefix=f"r{job}")
                start = time.perf_counter()
                pool.submit_many(grid.units)
                results = _drain(pool, grid)
                resident.append(time.perf_counter() - start)
                assert results[0].ok, results[0].error
        warm = statistics.median(resident[1:])  # the first job finishes the warm-up
        ratio = min(cold) / warm
        assert ratio >= 10.0, (
            f"a resident job took {warm * 1000:.1f} ms against a {min(cold):.3f} s "
            f"cold spawn: {ratio:.1f}x < 10x"
        )


class TestCacheAccountingHelpers:
    def test_snapshot_delta_roundtrip(self):
        before = cache_snapshot()
        after = {layer: dict(c) for layer, c in before.items()}
        after["trace"]["memory_hits"] += 3
        after["opstream"]["build_seconds"] += 0.5
        delta = cache_delta(before, after)
        assert delta["trace"]["memory_hits"] == 3
        assert delta["opstream"]["build_seconds"] == pytest.approx(0.5)
        assert delta["translated"]["builds"] == 0
