import statistics

import pytest

import stats


def test_median_odd_and_even():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_quartiles_match_statistics_quantiles():
    values = [1.2, 0.9, 1.5, 1.1, 1.0, 1.3, 0.95, 1.05, 1.25, 1.4]
    q1, q2, q3 = stats.quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert q2 == statistics.median(values)


def test_single_value_is_its_own_quartiles():
    assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert stats.spread([2.5]) == 0.0


def test_spread_is_interquartile_distance_over_median():
    values = [8.0, 9.0, 10.0, 11.0, 12.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)


def test_nearest_rank_percentile():
    values = list(range(1, 21))  # 1..20
    assert stats.percentile(values, 50) == 10
    assert stats.percentile(values, 85) == 17
    assert stats.percentile(values, 100) == 20
    assert stats.percentile([7.0], 85) == 7.0
    assert stats.percentile([3, 1, 2], 1) == 1


@pytest.mark.parametrize("pct", [0, -5, 101])
def test_percentile_rejects_out_of_range(pct):
    with pytest.raises(ValueError):
        stats.percentile([1, 2, 3], pct)


def test_empty_inputs_raise():
    for fn in (stats.median, stats.quartiles):
        with pytest.raises(ValueError):
            fn([])
