"""EXP-3 — Section 1 graph claims ([11]): "60% of graph pattern queries
... are boundedly evaluable under simple access constraints", and
bounded evaluation "outperforms conventional subgraph isomorphism
methods by 4 orders of magnitude on average".

Social graphs at three sizes; the Graph Search pattern ("find me all my
friends in NYC who like cycling") matched two ways: as a CQ over the
graph's relational encoding, through the bounded plan every relational
query runs by, and by the conventional scan-based backtracker.
Expected shape: the tuples the bounded plan fetches stay flat while
the conventional matcher's examined-candidate count grows with the
graph; the gap reaches several orders of magnitude.
"""

from __future__ import annotations

import pytest

from repro.errors import PlanError
from repro.graph import (MatchStats, bounded_match, graph_database,
                         pattern_plan, subgraph_match)
from repro.workload import (SocialScale, generate_patterns,
                            graph_search_pattern, social_graph,
                            social_graph_constraints)

from _harness import ExperimentLog, timed

SIZES = {"small": 1000, "medium": 5000, "large": 20000}


@pytest.fixture(scope="module")
def worlds():
    result = {}
    for name, persons in SIZES.items():
        scale = SocialScale(persons=persons, seed=13)
        graph = social_graph(scale)
        result[name] = (graph, graph_database(
            graph, social_graph_constraints(scale)), scale)
    return result


@pytest.fixture(scope="module")
def log():
    experiment = ExperimentLog(
        "EXP-3", "bounded pattern matching vs subgraph isomorphism")
    yield experiment
    experiment.flush()


@pytest.mark.parametrize("size", list(SIZES))
def test_bounded_pattern(benchmark, worlds, size):
    graph, db, _ = worlds[size]
    pattern = graph_search_pattern(("person", 17))
    plan = pattern_plan(pattern, db)
    matches, _ = benchmark(lambda: bounded_match(pattern, db, plan))
    benchmark.extra_info["nodes"] = graph.num_nodes()
    assert matches == subgraph_match(pattern, graph)


@pytest.mark.parametrize("size", ["small", "medium"])
def test_conventional_pattern(benchmark, worlds, size):
    graph, _, _ = worlds[size]
    pattern = graph_search_pattern(("person", 17))
    benchmark(lambda: subgraph_match(pattern, graph, strategy="scan"))
    benchmark.extra_info["nodes"] = graph.num_nodes()


def test_report(benchmark, worlds, log):
    rows = []
    ratios = []
    for size, (graph, db, scale) in worlds.items():
        pattern = graph_search_pattern(("person", 17))
        plan = pattern_plan(pattern, db)
        bounded_time, _ = timed(lambda: bounded_match(pattern, db, plan),
                                repeat=3)
        # Count from one untimed run: each run returns its own stats.
        bounded, stats = bounded_match(pattern, db, plan)
        scan_stats = MatchStats()
        scan_time, scanned = timed(lambda: subgraph_match(
            pattern, graph, stats=scan_stats, strategy="scan"))
        assert bounded == scanned
        access_ratio = (scan_stats.candidates_examined
                        / max(stats.tuples_fetched, 1))
        ratios.append(access_ratio)
        log.metric(f"bounded_fetched_{size}", stats.tuples_fetched)
        log.metric(f"conventional_examined_{size}",
                   scan_stats.candidates_examined)
        rows.append([
            size, graph.num_nodes(), graph.num_edges(),
            stats.tuples_fetched, scan_stats.candidates_examined,
            f"{access_ratio:,.0f}x",
            f"{bounded_time * 1e3:.2f}ms", f"{scan_time * 1e3:.1f}ms",
        ])
    log.row("")
    log.table(["scale", "nodes", "edges", "bounded fetched",
               "conventional examined", "access gap", "bounded t",
               "conventional t"], rows)
    log.metric("examined_ratio_large", round(ratios[-1], 1))
    log.gate("examined_ratio_large", min_value=1000)

    # Coverage rate of a random pattern workload (paper: 60%), and what
    # the covered part fetches in total.
    graph, db, scale = worlds["small"]
    patterns = generate_patterns(200, scale, seed=3)
    covered = fetched = 0
    for p in patterns:
        try:
            plan = pattern_plan(p, db)
        except PlanError:
            continue
        covered += 1
        answers, stats = bounded_match(p, db, plan)
        assert answers == subgraph_match(p, graph)
        fetched += stats.tuples_fetched
    rate = covered / len(patterns)
    log.metric("pattern_coverage_rate", rate)
    log.metric("covered_workload_fetched", fetched)
    log.row("")
    log.row(f"pattern workload coverage: {covered}/200 = {rate:.0%} "
            "(paper: 60%); covered patterns fetch "
            f"{fetched} in total")
    log.row(f"access gap grows with |G|: "
            f"{' -> '.join(f'{r:,.0f}x' for r in ratios)} "
            "(paper: 4 orders of magnitude on billion-node graphs)")
    assert ratios[-1] > ratios[0]
    assert ratios[-1] > 1000
    assert 0.35 <= rate <= 0.85
    benchmark(lambda: None)
