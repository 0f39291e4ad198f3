"""Personalized graph search: "find me all my friends in NYC who like
cycling" (paper, Section 1 / Example 1.1's graph claims).

Builds a synthetic social graph and encodes it relationally: one
relation per (source label, edge label, target label) triple and one
per count-bounded label.  Its bounds (friend degree, one home city,
likes, small label domains) are ordinary access constraints on those
relations.  The Graph Search pattern compiles to a CQ, is checked for
coverage and matched through the bounded plan, against a conventional
subgraph-isomorphism backtracker.

Run:  python examples/graph_search.py
"""

import time

from repro.graph import (MatchStats, bounded_match, graph_database,
                         pattern_coverage, pattern_plan, pattern_query,
                         subgraph_match)
from repro.workload import (SocialScale, generate_patterns,
                            graph_search_pattern, social_graph,
                            social_graph_constraints)


def main() -> None:
    scale = SocialScale(persons=10_000, max_friends=20, seed=42)
    graph = social_graph(scale)
    db = graph_database(graph, social_graph_constraints(scale))
    print(f"social graph: {graph}")
    print(f"access schema of its encoding: {db.access_schema}")
    print()

    me = ("person", 4711)
    pattern = graph_search_pattern(me, city="nyc", interest="cycling")
    print(f"pattern: {pattern}")
    print(f"compiled CQ: {pattern_query(pattern, db.schema)}")
    print(pattern_coverage(pattern, db).explain())
    print()

    plan = pattern_plan(pattern, db)
    start = time.perf_counter()
    friends, stats = bounded_match(pattern, db, plan)
    bounded_time = time.perf_counter() - start

    scan_stats = MatchStats()
    start = time.perf_counter()
    baseline = subgraph_match(pattern, graph, stats=scan_stats,
                              strategy="scan")
    scan_time = time.perf_counter() - start
    assert friends == baseline

    print(f"matches: {friends}")
    print(f"bounded:      {stats.tuples_fetched} tuples fetched, "
          f"{bounded_time * 1e3:.2f} ms")
    print(f"conventional: {scan_stats.candidates_examined} candidates "
          f"examined, {scan_time * 1e3:.1f} ms")
    gap = scan_stats.candidates_examined / max(stats.tuples_fetched, 1)
    print(f"access gap: {gap:,.0f}x  (paper: ~4 orders of magnitude "
          "on billion-node graphs)")
    print()

    # How much of a random pattern workload is boundedly evaluable?
    patterns = generate_patterns(100, scale, seed=1)
    covered = sum(1 for p in patterns if pattern_coverage(p, db).is_covered)
    print(f"random pattern workload: {covered}/100 covered "
          "(paper reports 60%)")


if __name__ == "__main__":
    main()
