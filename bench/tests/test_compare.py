import pytest

import compare

DEFINITION = {
    "end_to_end": [
        {"name": "job_s", "unit": "s", "better": "lower", "bound": 0.10},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.10},
    ]
}


def runs(values, metric="job_s", failed=None):
    return [
        {
            "workload": "w", "seed": seed, "attempted": 10,
            "failed": 0 if failed is None else failed[seed],
            "metrics": {metric: {"value": value, "unit": "s"}},
        }
        for seed, value in enumerate(values)
    ]


def rows_by_metric(a, b):
    return {r["metric"]: r for r in compare.compare(a, b, DEFINITION)}


STEADY = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]


def test_same_runs_are_within_bound_and_ties_win_nothing():
    row = rows_by_metric(runs(STEADY), runs(STEADY))["job_s"]
    assert row["verdict"] == "within"
    assert row["won"] == 0.0  # every pair tied
    assert row["pairs"] == 10
    assert not row["gain"]


def test_slower_beyond_bound_regresses():
    row = rows_by_metric(runs(STEADY), runs([v * 1.2 for v in STEADY]))["job_s"]
    assert row["verdict"] == "regressed"
    assert row["worse"] > 0.1


def test_slower_within_bound_passes():
    row = rows_by_metric(runs(STEADY), runs([v * 1.05 for v in STEADY]))["job_s"]
    assert row["verdict"] == "within"


def test_spread_wider_than_bound_is_unresolved():
    noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0]
    row = rows_by_metric(runs(noisy), runs(noisy))["job_s"]
    assert row["spread"] > 0.1
    assert row["verdict"] == "unresolved"


def test_wide_spread_but_every_run_better_is_within():
    noisy = [1.0, 1.6, 1.1, 1.5, 1.3, 1.05, 1.55, 1.2, 1.4, 1.3]
    faster = [v * 0.5 for v in noisy]
    row = rows_by_metric(runs(noisy), runs(faster))["job_s"]
    assert row["verdict"] == "within"
    assert row["won"] == 1.0


def test_wide_spread_and_every_run_worse_is_regressed():
    noisy = [1.0, 1.6, 1.1, 1.5, 1.3, 1.05, 1.55, 1.2, 1.4, 1.3]
    slower = [v * 2.0 for v in noisy]
    assert rows_by_metric(runs(noisy), runs(slower))["job_s"]["verdict"] == "regressed"


def test_gain_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_spread():
    faster = [v * 0.8 for v in STEADY]
    assert rows_by_metric(runs(STEADY), runs(faster))["job_s"]["gain"]
    mixed = [v * 0.8 if i < 8 else v * 1.01 for i, v in enumerate(STEADY)]
    row = rows_by_metric(runs(STEADY), runs(mixed))["job_s"]
    assert row["won"] == 0.8
    assert not row["gain"]


def test_higher_is_better_metrics_invert():
    a = runs([100.0] * 5, metric="rate")
    assert rows_by_metric(a, runs([80.0] * 5, metric="rate"))["rate"]["verdict"] == "regressed"
    row = rows_by_metric(a, runs([120.0] * 5, metric="rate"))["rate"]
    assert row["verdict"] == "within" and row["gain"]


def test_any_rise_in_error_rate_regresses():
    clean = runs(STEADY)
    broken = runs(STEADY, failed={seed: (1 if seed == 3 else 0) for seed in range(10)})
    rows = rows_by_metric(clean, broken)
    assert rows["error_rate"]["verdict"] == "regressed"
    assert rows["job_s"]["verdict"] == "within"
    assert rows_by_metric(broken, clean)["error_rate"]["verdict"] == "within"


def test_two_runs_with_one_seed_are_refused():
    twice = runs(STEADY) + runs([2.0])  # a second seed-0 run, as a repeated --out gives
    with pytest.raises(ValueError, match="seed 0"):
        compare.compare(runs(STEADY), twice, DEFINITION)


def test_per_layer_metrics_get_no_verdict():
    a = runs([0.5] * 3, metric="llc.access_fast.self_share")
    row = rows_by_metric(a, a)["llc.access_fast.self_share"]
    assert row["verdict"] == "-"
