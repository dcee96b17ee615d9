"""``tools/per_access_drive.py``: the experiments CLI on the per-access drive.

The tool declines the op-stream replay in every ``run_mix`` call of a
CLI run; CI diffs its canonical ``--results`` file against a replayed
run's.  These tests pin the patch's scope (it holds inside the block,
and is undone after it, also when the block raises), that ``main``
runs the CLI inside it, and the byte-identity of one experiment's
results on both drives.
"""

import importlib.util
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.common.config import CacheGeometry, SystemConfig
from repro.engine import vector
from repro.harness import runner
from repro.hierarchy.simulator import run_mix
from repro.llc import BaselineLLC
from repro.trace.mixes import homogeneous

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "per_access_drive.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("per_access_drive", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def replay_of_one_run():
    system = SystemConfig(
        cores=2,
        l1d_geometry=CacheGeometry(sets=4, ways=4),
        l2_geometry=CacheGeometry(sets=16, ways=8),
        llc_geometry=CacheGeometry(sets=64, ways=16),
    )
    result = run_mix(BaselineLLC(system.llc_geometry), homogeneous("mcf", 2), system,
                     accesses_per_core=300, warmup_accesses=100, seed=3)
    return result.specialize_info


def test_block_declines_the_replay_and_restores_it(tool, drives):
    with drives.replay():
        with tool.per_access_drive():
            info = replay_of_one_run()
        assert info["replay"] is None
        assert "tools/per_access_drive.py" in info["replay_reason"]
        assert replay_of_one_run()["replay"] == "opstream-scalar"


def test_block_restores_the_replay_after_an_error(tool):
    create = vector.create_vector_replay
    with pytest.raises(RuntimeError, match="boom"):
        with tool.per_access_drive():
            assert vector.create_vector_replay is tool.decline_replay
            raise RuntimeError("boom")
    assert vector.create_vector_replay is create


def test_main_runs_the_cli_inside_the_block(tool, monkeypatch):
    calls = []

    def fake_main(argv):
        calls.append((argv, vector.create_vector_replay is tool.decline_replay,
                      multiprocessing.get_start_method()))
        return 3

    start_method = multiprocessing.get_start_method(allow_none=True)
    create = vector.create_vector_replay
    monkeypatch.setattr(tool.cli, "main", fake_main)
    try:
        assert tool.main(["fig1", "--fast"]) == 3
    finally:
        multiprocessing.set_start_method(start_method, force=True)
    # Forked --jobs workers inherit the patched module.
    assert calls == [(["fig1", "--fast"], True, "fork")]
    assert vector.create_vector_replay is create


def test_results_equal_a_replayed_run(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    paths = {}
    for drive, command in (
        ("replay", [sys.executable, "-m", "repro.harness.cli"]),
        ("per_access", [sys.executable, str(TOOL)]),
    ):
        paths[drive] = tmp_path / f"{drive}.json"
        proc = subprocess.run(
            [*command, "fig1", "--fast", "--results", str(paths[drive])],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
    assert paths["per_access"].read_bytes() == paths["replay"].read_bytes()


def test_jobs_results_equal_a_replayed_run(tool, drives, sharded_grid):
    # The tool's patch reaches forked --jobs workers, and a sharded
    # grid they drain on the per-access drive writes the replay's bytes.
    with drives.replay():
        replayed = runner.run_tasks(sharded_grid, jobs=2)
        with tool.per_access_drive():
            per_access = runner.run_tasks(sharded_grid, jobs=2)
    assert replayed[0].ok and per_access[0].ok
    assert replayed[0].shards == 3
    assert runner.results_dict(per_access) == runner.results_dict(replayed)
