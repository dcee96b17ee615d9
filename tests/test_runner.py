"""The parallel experiment runner (repro.harness.runner).

The load-bearing property is *determinism across process boundaries*:
a ``--jobs N`` run must produce byte-identical report text to the
serial run, both for whole-experiment parallelism and for the shard
fan-out used by the multi-config experiments.  ``--jobs N`` drains on
an in-process resident worker pool, so it must also survive workers
that die mid-unit, and its forked workers must see what the process
that started them set up.
"""

import json
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys

import pytest

from repro.harness import runner
from repro.harness.cli import build_tasks
from repro.service import pool as pool_mod
from repro.store import CACHE_ENV

from .service_helpers import MODULE

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Drains helper-module tasks through ``run_tasks`` in a fresh
#: interpreter and prints the canonical results.  ``argv[1]`` is a JSON
#: spec: ``tasks`` as ``[name, kwargs]`` pairs, ``jobs``, and optional
#: ``per_access_drive`` (enter ``tools/per_access_drive.py``'s block,
#: with the fork start method that tool sets), ``heap_loads`` (pin
#: the heap path as ``pytest --heap-loads`` does) and ``summary``
#: (print the ``--json`` summary instead).
SWEEP_SCRIPT = """\
import contextlib, importlib.util, json, multiprocessing, sys
from repro import store
from repro.harness import runner
spec = json.loads(sys.argv[1])
tasks = [runner.ExperimentTask(name=n, description=n, module=spec["module"], kwargs=kw)
         for n, kw in spec["tasks"]]
block = contextlib.nullcontext()
if spec.get("per_access_drive"):
    found = importlib.util.spec_from_file_location("per_access_drive", "tools/per_access_drive.py")
    tool = importlib.util.module_from_spec(found)
    found.loader.exec_module(tool)
    multiprocessing.set_start_method("fork", force=True)
    block = tool.per_access_drive()
if spec.get("heap_loads"):
    store.mmap_enabled = lambda: False
with block:
    results = runner.run_tasks(tasks, jobs=spec["jobs"])
if spec.get("summary"):
    print(json.dumps(runner.summary_dict(results, spec["jobs"], 0.0)))
else:
    print(json.dumps(runner.results_dict(results)))
"""


def run_bounded(spec, env=None, timeout=30.0):
    """Run :data:`SWEEP_SCRIPT` on ``spec``; a sweep that hangs fails the test.

    pytest-timeout is not a dependency, so the bound is a subprocess in
    its own session: at the deadline the whole group - the driver and
    every worker it started - is killed and the test fails.
    """
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    proc = subprocess.Popen(
        [sys.executable, "-c", SWEEP_SCRIPT, json.dumps(dict(spec, module=MODULE))],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"run_tasks(jobs={spec['jobs']}) did not finish within {timeout:.0f} s")
    assert proc.returncode == 0, err
    return json.loads(out.splitlines()[-1])


def _helper(name, **kwargs):
    return runner.ExperimentTask(name=name, description=name, module=MODULE, kwargs=kwargs)


def _task(name, module, **kwargs):
    return runner.ExperimentTask(
        name=name, description=name, module=f"repro.harness.experiments.{module}", kwargs=kwargs
    )


class TestSeedDerivation:
    def test_stable_across_platforms(self):
        """CRC-32 + SplitMix64 only: the derivation is pure integer
        arithmetic, so these literals must hold on every platform."""
        assert runner.derive_task_seed(None, "fig9") == 8891182411464270827
        assert runner.derive_task_seed(None, "table7") == 6929918694794022623
        assert runner.derive_task_seed(1234, "fig9") == 4099905729626611362
        assert runner.derive_task_seed(1234, "fig10") == 7394136011653391047

    def test_distinct_per_task(self):
        names = ["fig1", "fig9", "fig10", "table7", "table8", "cores"]
        seeds = {runner.derive_task_seed(7, n) for n in names}
        assert len(seeds) == len(names)

    def test_base_seed_changes_children(self):
        assert runner.derive_task_seed(1, "fig9") != runner.derive_task_seed(2, "fig9")

    def test_cli_seed_plumbing(self):
        """--seed S materializes derived child seeds into task kwargs."""
        tasks = build_tasks(["fig9", "table8"], fast=True, base_seed=1234)
        by_name = {t.name: t for t in tasks}
        assert by_name["fig9"].kwargs["seed"] == runner.derive_task_seed(1234, "fig9")
        assert "seed" not in by_name["table8"].kwargs  # table8 run() takes no seed
        # Without a base seed the experiments' built-in defaults apply.
        assert "seed" not in build_tasks(["fig9"], fast=True)[0].kwargs


class TestParallelDeterminism:
    def test_two_experiments_parallel_matches_serial(self):
        """A --jobs 2 run of two fast experiments is byte-identical to serial."""
        tasks = [
            _task("table8", "table8_storage"),
            _task("fig7", "fig7_occupancy", iterations=3000),
        ]
        serial = runner.run_tasks(tasks, jobs=1)
        parallel = runner.run_tasks(tasks, jobs=2)
        assert all(r.ok for r in serial + parallel)
        assert [r.text for r in serial] == [r.text for r in parallel]
        assert all(r.text for r in serial)

    @pytest.mark.slow
    def test_sharded_experiment_matches_serial(self):
        """fig10's per-mix fan-out merges to the serial result exactly."""
        task = _task(
            "fig10", "fig10_heterogeneous",
            mixes=["M1", "M2", "M3"], accesses_per_core=800, warmup_per_core=400,
        )
        serial = runner.run_tasks([task], jobs=1)[0]
        parallel = runner.run_tasks([task], jobs=3)[0]
        assert serial.ok and parallel.ok
        assert parallel.shards == 3
        assert serial.text == parallel.text

    def test_results_keep_task_order(self):
        tasks = [
            _task("fig7", "fig7_occupancy", iterations=2000),
            _task("table8", "table8_storage"),
            _task("table9", "table9_power"),
        ]
        results = runner.run_tasks(tasks, jobs=3)
        assert [r.name for r in results] == ["fig7", "table8", "table9"]
        assert all(r.ok for r in results)


class TestWorkerPool:
    """``--jobs N`` drains on the resident service's worker pool."""

    def test_crashed_unit_is_reissued_byte_identical(self, tmp_path):
        # Each unit's first run kills its worker (os._exit): a shard of
        # a sharded task, and a one-key task that runs as one unsharded
        # unit.  The pool re-issues both, and the text equals serial's.
        solo = {"labels": ["echo"]}
        serial = runner.results_dict(
            runner.run_tasks([_helper("grid"), _helper("solo", **solo)], jobs=1)
        )
        crash = {"crash_dir": str(tmp_path)}
        parallel = run_bounded({
            "tasks": [["grid", dict(crash, crash_key="charlie")],
                      ["solo", dict(crash, crash_key="echo", **solo)]],
            "jobs": 2,
        })
        for key in ("charlie", "echo"):
            assert (tmp_path / f"crashed-{key}").exists(), f"{key} never crashed its worker"
        assert parallel == serial

    def test_summary_counts_reissues_and_plan_fallbacks(self, tmp_path):
        # A recovered sweep must not read like a clean one: the unit the
        # pool re-issued is counted on its task and in the total, and a
        # task whose shard planning raised (labels=5 is not a key list)
        # counts the fallback to one unsharded unit.
        parallel = run_bounded({
            "tasks": [["grid", {"crash_key": "charlie", "crash_dir": str(tmp_path)}],
                      ["unplannable", {"labels": 5}]],
            "jobs": 2,
            "summary": True,
        })
        grid, unplannable = parallel["results"]
        assert grid["ok"] and (grid["reissues"], grid["plan_fallbacks"]) == (1, 0)
        assert not unplannable["ok"]
        assert (unplannable["reissues"], unplannable["plan_fallbacks"]) == (0, 1)
        assert (parallel["reissues"], parallel["plan_fallbacks"]) == (1, 1)
        serial = runner.summary_dict(runner.run_tasks([_helper("grid")], jobs=1), 1, 0.0)
        assert (serial["reissues"], serial["plan_fallbacks"]) == (0, 0)

    def test_poison_unit_fails_while_the_other_task_completes(self):
        # A unit that kills every worker it touches is given up on with
        # an error; the rest of the sweep still completes.
        parallel = run_bounded({
            "tasks": [["poison", {"crash_key": "bravo"}], ["healthy", {}]],
            "jobs": 2,
        })
        poison, healthy = parallel["results"]
        assert not poison["ok"]
        assert "crashed its worker" in poison["error"]
        serial = runner.results_dict(runner.run_tasks([_helper("healthy")], jobs=1))
        assert healthy == serial["results"][0]
        assert not parallel["ok"]

    @pytest.mark.parametrize("heap_loads", [False, True], ids=["mapped", "heap-loads"])
    def test_forked_workers_inherit_the_parent_setup(self, tmp_path, heap_loads):
        # tools/per_access_drive.py patches the replay factory in the
        # parent, pytest --heap-loads patches the load path, and the
        # CLI's REPRO_TRACE_CACHE lives in its environment: every forked
        # --jobs worker must see all three.
        env = dict(os.environ, **{CACHE_ENV: str(tmp_path / "cache")})
        parallel = run_bounded(
            {"tasks": [["probe", {"probe": True}]], "jobs": 2,
             "per_access_drive": True, "heap_loads": heap_loads},
            env=env,
        )
        (result,) = parallel["results"]
        assert result["ok"], result["error"]
        seen = f"worker=True replay=decline_replay cache={tmp_path / 'cache'} mmap={not heap_loads}"
        assert result["text"].splitlines() == [
            f"{key} -> {seen}" for key in ("alpha", "bravo", "charlie", "delta")
        ]

    def test_pool_is_sized_by_units_and_reports_each_task(self, monkeypatch):
        sizes, lines = [], []
        pool_init = pool_mod.WorkerPool.__init__

        def recording_init(self, workers=2, **kwargs):
            sizes.append(workers)
            pool_init(self, workers=workers, warm_modules=(), **kwargs)

        monkeypatch.setattr(pool_mod.WorkerPool, "__init__", recording_init)
        children = set(multiprocessing.active_children())
        tasks = [_helper("grid"), _helper("pair", labels=["x", "y"])]
        results = runner.run_tasks(tasks, jobs=8, progress=lines.append)
        assert sizes == [6]  # 4 + 2 units, fewer than 8 jobs
        assert [r.shards for r in results] == [4, 2]
        assert sorted(line.split(":")[0] for line in lines) == ["grid", "pair"]
        assert all(": ok (" in line and " shards)" in line for line in lines)
        assert set(multiprocessing.active_children()) <= children  # the pool is gone

    @pytest.mark.parametrize(
        "jobs, tasks", [(1, [_helper("grid")]), (4, [])], ids=["jobs=1", "empty"]
    )
    def test_serial_paths_start_no_pool(self, monkeypatch, jobs, tasks):
        # The serial run is the pool's oracle, so it must not use one.
        def no_pool(*args, **kwargs):
            raise AssertionError("a serial sweep started a worker pool")

        monkeypatch.setattr(pool_mod, "WorkerPool", no_pool)
        results = runner.run_tasks(tasks, jobs=jobs)
        assert [r.ok for r in results] == [True] * len(tasks)

    def test_failing_progress_hook_leaves_no_worker_behind(self):
        children = set(multiprocessing.active_children())

        def hook(line):
            raise RuntimeError("progress hook failed")

        with pytest.raises(RuntimeError, match="progress hook failed"):
            runner.run_tasks([_helper("grid")], jobs=2, progress=hook)
        assert set(multiprocessing.active_children()) <= children


class TestFailureIsolation:
    def test_one_failure_does_not_abort_the_sweep(self):
        tasks = [
            _task("bad", "table8_storage", no_such_kwarg=1),
            _task("table9", "table9_power"),
        ]
        results = runner.run_tasks(tasks, jobs=2)
        assert not results[0].ok and "no_such_kwarg" in results[0].error
        assert results[1].ok and results[1].text

    def test_serial_failure_captured_too(self):
        results = runner.run_tasks([_task("bad", "table8_storage", no_such_kwarg=1)], jobs=1)
        assert not results[0].ok and results[0].error


class TestSummary:
    def test_json_summary_roundtrip(self, tmp_path):
        results = runner.run_tasks([_task("table8", "table8_storage")], jobs=1)
        path = tmp_path / "nested" / "summary.json"
        runner.write_summary(str(path), results, jobs=1, wall_seconds=1.5, extra={"fast": True})
        import json

        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro.harness.runner/1"
        assert payload["ok"] is True
        assert payload["fast"] is True
        assert payload["wall_seconds"] == 1.5
        (entry,) = payload["results"]
        assert entry["name"] == "table8"
        assert "17312" in entry["text"]
        assert entry["seconds"] > 0
