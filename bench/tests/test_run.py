import json
import shutil
import subprocess
import sys

from conftest import BENCH, ROOT

import run


def _bench(args, cwd):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


def test_count_failures_against_expected_and_agreement():
    assert run.count_failures(["a", "a", None], "a") == 1
    assert run.count_failures(["a", "b", "b"], "a") == 2
    # No expected value: jobs must agree with the run's commonest output.
    assert run.count_failures(["b", "a", "b", "b"], None) == 1
    assert run.count_failures([None, None], None) == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(["--workload", "campaign", "--seed", "7", "--seconds", "10", "--trace", "0"],
                  tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_wrong_expected_fingerprint_fails_every_job(tmp_path, monkeypatch, capsys):
    workload = "maya-mcf"  # the quickest set-up
    expected = json.loads(run.EXPECTED.read_text())
    expected["fingerprints"][workload] = "not-the-output"
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    monkeypatch.setattr(run, "EXPECTED", path)
    status = run.main(["--workload", workload, "--seed", str(expected["seed"]), "--seconds", "0"])
    out = capsys.readouterr().out
    assert status == 1
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["correct"] is False
    assert summary["attempted"] >= run.SETUP_REPS[workload] + 1
    assert summary["failed"] == summary["attempted"]  # error_rate 1.0
    assert "error_rate" in out
