"""The benchmark's arithmetic: percentiles, medians over rounds, the
run-to-run spread and the regression verdict."""

from __future__ import annotations

import statistics


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation
    between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median_of_rounds(rounds, statistic) -> float:
    """The median over rounds of one per-round statistic — one slow
    round (a scheduling blip) moves it far less than it moves a pooled
    percentile."""
    return statistics.median(statistic(entry) for entry in rounds)


def spread(values) -> float:
    """Inter-quartile distance as a share of the median (0 for fewer
    than two values): the run-to-run noise a bound is judged against."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def worsening(before: float, after: float, better: str) -> float:
    """By what share of ``before`` the metric got worse (negative when
    it improved)."""
    if not before:
        return 0.0 if not after else float("inf")
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def verdict(before: float, after: float, better: str, bound: float,
            spread_before: float = 0.0, spread_after: float = 0.0) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one metric on one
    workload.  ``bound == 0`` demands equality (counts); a spread wider
    than the bound means the runs cannot resolve a change of that size,
    which is reported as such and never as "unchanged"."""
    if bound == 0:
        return "ok" if before == after else "regressed"
    if max(spread_before, spread_after) > bound:
        return "unresolved"
    return "regressed" if worsening(before, after, better) > bound else "ok"
