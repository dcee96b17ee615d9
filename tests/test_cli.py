"""The repro-experiments command-line interface."""

import json

import pytest

from repro.harness.cli import main
from repro.harness.experiments import table9_power


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table8" in out and "fig9" in out

    def test_unknown_experiment(self, capsys):
        assert main(["dhrystone"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_exact_experiment_runs(self, capsys):
        assert main(["table8"]) == 0
        out = capsys.readouterr().out
        assert "17312" in out  # baseline total KB

    def test_analytical_experiment_runs(self, capsys):
        assert main(["table1"]) == 0
        assert "invalid" in capsys.readouterr().out

    def test_multiple_experiments_in_one_invocation(self, capsys):
        assert main(["table8", "table9"]) == 0
        out = capsys.readouterr().out
        assert "=== table8" in out and "=== table9" in out

    def test_json_summary_written(self, tmp_path, capsys):
        path = tmp_path / "summary.json"
        assert main(["table8", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["ok"] is True and payload["jobs"] == 1
        assert payload["results"][0]["name"] == "table8"
        assert payload["results"][0]["seconds"] >= 0
        capsys.readouterr()


class TestFailureHandling:
    """Regression: a failing experiment must report, continue, and make
    the sweep exit non-zero - not abort the remaining experiments."""

    @pytest.fixture
    def broken_table9(self, monkeypatch):
        def boom(**_kwargs):
            raise RuntimeError("synthetic experiment failure")

        monkeypatch.setattr(table9_power, "run", boom)

    def test_failure_reports_continues_and_exits_nonzero(self, broken_table9, capsys):
        assert main(["table9", "table8"]) == 1
        captured = capsys.readouterr()
        assert "synthetic experiment failure" in captured.err
        assert "1 experiment(s) failed" in captured.err
        # The healthy experiment after the failure still ran.
        assert "17312" in captured.out

    def test_failure_recorded_in_json_summary(self, broken_table9, tmp_path, capsys):
        path = tmp_path / "summary.json"
        assert main(["table9", "table8", "--json", str(path)]) == 1
        payload = json.loads(path.read_text())
        assert payload["ok"] is False
        by_name = {entry["name"]: entry for entry in payload["results"]}
        assert not by_name["table9"]["ok"]
        assert "synthetic experiment failure" in by_name["table9"]["error"]
        assert by_name["table8"]["ok"]
        capsys.readouterr()
