"""Percentile, median-of-rounds, spread and verdict arithmetic."""

import statistics

import pytest

from stats import median_of_rounds, percentile, spread, verdict, worsening


def test_percentile_interpolates_between_closest_ranks():
    values = [40, 10, 30, 20]
    assert percentile(values, 0) == 10
    assert percentile(values, 100) == 40
    assert percentile(values, 50) == 25
    assert percentile(values, 95) == pytest.approx(38.5)
    assert percentile([7], 95) == 7
    with pytest.raises(ValueError):
        percentile([], 50)


def test_percentile_matches_the_inclusive_quantile_method():
    values = [3.0, 1.5, 9.25, 4.0, 8.0, 2.0, 7.5]
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    assert [percentile(values, q) for q in (25, 50, 75)] == pytest.approx(
        quartiles)


def test_median_of_rounds_shrugs_off_one_slow_round():
    rounds = [[100, 101, 102], [99, 100, 103], [400, 500, 600]]
    assert median_of_rounds(rounds, lambda r: percentile(r, 50)) == 101
    pooled = [t for r in rounds for t in r]
    assert percentile(pooled, 95) > 500  # what pooling would have reported


def test_spread_is_the_interquartile_share_of_the_median():
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.7, 10.0, 10.3, 9.8, 10.05]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))
    assert spread([5.0]) == 0.0
    assert spread([]) == 0.0


def test_worsening_follows_the_metric_direction():
    assert worsening(100, 110, "lower") == pytest.approx(0.10)
    assert worsening(100, 110, "higher") == pytest.approx(-0.10)
    assert worsening(100, 90, "higher") == pytest.approx(0.10)


@pytest.mark.parametrize("before, after, better, bound, spreads, expected", [
    (100, 109, "lower", 0.10, (0.01, 0.02), "ok"),
    (100, 111, "lower", 0.10, (0.01, 0.02), "regressed"),
    (100, 80, "lower", 0.10, (0.01, 0.02), "ok"),
    (100, 89, "higher", 0.10, (0.0, 0.0), "regressed"),
    (100, 101, "lower", 0.10, (0.15, 0.02), "unresolved"),
    (100, 150, "lower", 0.10, (0.02, 0.11), "unresolved"),
    (56, 56, "lower", 0.0, (0.0, 0.0), "ok"),
    (56, 57, "lower", 0.0, (0.0, 0.0), "regressed"),
    (56, 55, "lower", 0.0, (0.0, 0.0), "regressed"),  # counts: equality
])
def test_verdict(before, after, better, bound, spreads, expected):
    assert verdict(before, after, better, bound, *spreads) == expected
