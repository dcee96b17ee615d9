import json
import re

from conftest import BENCH, ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _definition():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_definition_shape():
    d = _definition()
    assert set(d) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert d["paths"] == ["bench"]
    assert 1 <= d["run_seconds"] <= 60
    assert 2 <= len(d["workloads"]) <= 8
    for w in d["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    metrics = d["end_to_end"] + d["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in d["workloads"]]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    for metric in d["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"} and 0 < metric["bound"] <= 0.25
    setup = next(m for m in d["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in d["end_to_end"])


def test_definition_matches_the_code():
    import worker
    import workloads

    d = _definition()
    assert [w["name"] for w in d["workloads"]] == list(workloads.WORKLOADS)
    per_layer = [(n, u) for n, u, _window, _value in worker.PER_LAYER]
    per_layer += list(worker.SERVICE_METRICS) + list(worker.TRACING_METRICS)
    assert [(m["name"], m["unit"]) for m in d["per_layer"]] == per_layer
    assert {m["name"] for m in d["end_to_end"]} == {"setup_s", "job_s", "peak_rss_mb"}
    expected = json.loads((BENCH / "expected.json").read_text())
    assert set(expected["fingerprints"]) == set(workloads.WORKLOADS)
