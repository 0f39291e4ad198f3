"""Tests for bounded pattern matching vs. the brute-force baseline.

Bounded matching compiles a pattern to a CQ over the graph's relational
encoding and runs the relational bounded plan.  The invariant: wherever
a pattern is covered, it equals subgraph matching — property-tested
over random graphs, including symmetric ones, where a CQ's homomorphic
matches differ from subgraph isomorphism.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import AccessConstraint
from repro.engine import build_bounded_plan, optimize, static_bounds
from repro.errors import PlanError, QueryError
from repro.graph import (Graph, MatchStats, Pattern, PatternEdge,
                         PatternNode, bounded_match, edge_relation,
                         graph_database, match_rows, node_relation,
                         pattern_coverage, pattern_plan, subgraph_match)
from repro.workload import (SocialScale, generate_patterns,
                            graph_search_pattern, social_graph,
                            social_graph_constraints)

from fetch_audit import audited


@pytest.fixture(scope="module")
def social():
    scale = SocialScale(persons=200, seed=5)
    graph = social_graph(scale)
    return graph, graph_database(graph, social_graph_constraints(scale)), \
        scale


def _fetch_bound(pattern, db) -> int:
    plan = build_bounded_plan(pattern_coverage(pattern, db))
    return static_bounds(plan, db_size=db.size()).fetch_bound


class TestGraphSearchPattern:
    def test_pattern_is_covered(self, social):
        _, db, _ = social
        pattern = graph_search_pattern(("person", 3))
        assert pattern_coverage(pattern, db).is_covered
        # 20 friends, then one home city and 5 likes for each.
        assert _fetch_bound(pattern, db) == 20 + 20 * 1 + 20 * 5

    def test_fetch_bound_is_independent_of_graph_size(self, social):
        _, db, _ = social
        scale = SocialScale(persons=2000, seed=5)
        big = graph_database(social_graph(scale),
                             social_graph_constraints(scale))
        pattern = graph_search_pattern(("person", 3))
        assert big.size() > 5 * db.size()
        assert _fetch_bound(pattern, big) == _fetch_bound(pattern, db)

    def test_bounded_equals_brute(self, social):
        graph, db, _ = social
        for person in (0, 7, 42, 133):
            pattern = graph_search_pattern(("person", person))
            assert bounded_match(pattern, db)[0] == \
                subgraph_match(pattern, graph)

    def test_access_is_tiny(self, social):
        _, db, _ = social
        pattern = graph_search_pattern(("person", 3))
        _, stats = bounded_match(pattern, db)
        assert 0 < stats.tuples_fetched <= _fetch_bound(pattern, db)

    def test_scan_baseline_does_more_work(self, social):
        graph, db, _ = social
        pattern = graph_search_pattern(("person", 3))
        _, bounded_stats = bounded_match(pattern, db)
        scan_stats = MatchStats()
        subgraph_match(pattern, graph, stats=scan_stats, strategy="scan")
        assert scan_stats.candidates_examined > \
            10 * bounded_stats.tuples_fetched


def _pair_graph(edge_label: str) -> Graph:
    graph = Graph()
    for node in (1, 2):
        graph.add_node(node, "person")
    graph.add_node(3, "city")
    graph.add_edge(1, edge_label, 2)
    graph.add_edge(1, "lives_in", 3)
    graph.add_edge(2, "lives_in", 3)
    return graph


def _pair(edge_label: str) -> Pattern:
    return Pattern("pair", [PatternNode("a", "person"),
                            PatternNode("b", "person")],
                   [PatternEdge("a", edge_label, "b")])


class TestCoverageAnalysis:
    def test_unanchored_pattern_not_covered(self):
        db = graph_database(_pair_graph("friend"), [AccessConstraint(
            edge_relation("person", "friend", "person"),
            ("src",), ("dst",), 5)])
        coverage = pattern_coverage(_pair("friend"), db)
        assert not coverage.is_covered
        assert "a" in {var.name for var in coverage.free_uncovered}

    def test_label_seed_covers(self):
        lives_in = edge_relation("person", "lives_in", "city")
        db = graph_database(_pair_graph("friend"), [
            AccessConstraint(node_relation("city"), (), ("id",), 8),
            AccessConstraint(lives_in, ("dst",), ("src",), 50)])
        pattern = Pattern("by_city", [PatternNode("c", "city"),
                                      PatternNode("p", "person")],
                          [PatternEdge("p", "lives_in", "c")])
        assert pattern_coverage(pattern, db).is_covered
        assert bounded_match(pattern, db)[0] == [(3, 1), (3, 2)]

    def test_unverifiable_edge_blocks(self):
        # Both endpoints coverable from the person count, but no
        # constraint indexes the "knows" edge between them.
        db = graph_database(_pair_graph("knows"), [AccessConstraint(
            node_relation("person"), (), ("id",), 10)])
        coverage = pattern_coverage(_pair("knows"), db)
        assert not coverage.is_covered
        assert coverage.unindexed_atoms == [0]

    def test_bounded_match_rejects_uncovered(self):
        db = graph_database(_pair_graph("friend"))
        with pytest.raises(PlanError, match="not covered"):
            bounded_match(_pair("friend"), db)

    def test_unlabelled_nodes_rejected(self, social):
        _, db, _ = social
        pattern = Pattern("anon", [PatternNode("me", "person", constant=0),
                                   PatternNode("x")],
                          [PatternEdge("me", "friend", "x")])
        with pytest.raises(QueryError, match="labelled"):
            pattern_coverage(pattern, db)

    def test_edgeless_nodes_read_their_node_relation(self):
        graph = _pair_graph("friend")

        def lone(constant):
            return Pattern("lone", [PatternNode("a", "person",
                                                constant=constant)], [])

        with pytest.raises(QueryError, match="no edge"):
            pattern_coverage(lone(1), graph_database(graph))
        db = graph_database(graph, [AccessConstraint(
            node_relation("person"), (), ("id",), 2)])
        assert bounded_match(lone(1), db)[0] == [(1,)]
        assert bounded_match(lone(3), db)[0] == []  # a city, not a person
        assert bounded_match(lone(None), db)[0] == [(1,), (2,)]

    def test_explain_readable(self, social):
        _, db, _ = social
        pattern = graph_search_pattern(("person", 0))
        text = pattern_coverage(pattern, db).explain()
        assert "E_person_friend_person(src -> dst, 20)" in text
        assert "covered" in text


class TestWorkloadAgreement:
    def test_coverage_rate_in_papers_band(self, social):
        _, db, scale = social
        patterns = generate_patterns(80, scale, seed=99)
        rate = sum(1 for p in patterns
                   if pattern_coverage(p, db).is_covered) / 80
        assert 0.35 <= rate <= 0.85  # Paper reports 60%.

    def test_every_covered_pattern_agrees(self, social):
        graph, db, scale = social
        checked = 0
        for pattern in generate_patterns(40, scale, seed=4):
            try:
                plan = pattern_plan(pattern, db)
            except PlanError:
                continue
            checked += 1
            assert bounded_match(pattern, db, plan)[0] == \
                subgraph_match(pattern, graph)
        assert checked >= 5

    def test_covered_exp3_patterns_within_certificate(self):
        # EXP-3's workload: its 200 patterns on its small graph.
        scale = SocialScale(persons=1000, seed=13)
        graph = social_graph(scale)
        db = graph_database(graph, social_graph_constraints(scale))
        checked = 0
        for pattern in generate_patterns(200, scale, seed=3):
            coverage = pattern_coverage(pattern, db)
            if not coverage.is_covered:
                continue
            checked += 1
            logical = build_bounded_plan(coverage)
            result, _ = audited(db, optimize(logical))
            assert result.stats.tuples_fetched <= static_bounds(
                logical, db_size=db.size()).fetch_bound
            assert match_rows(pattern, result.answers) == \
                subgraph_match(pattern, graph)
        assert checked == 111


# -- property test over random graphs ---------------------------------------

@st.composite
def random_world(draw):
    n = draw(st.integers(3, 12))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=20))
    anchor = draw(st.integers(0, n - 1))
    length = draw(st.integers(1, 2))
    symmetric = draw(st.booleans())
    return n, edges, anchor, length, symmetric


@given(world=random_world())
@settings(max_examples=80, deadline=None)
# Edgeless: the constrained relation exists, and every match is empty.
@example(world=(3, [], 0, 2, False))
# Symmetric: 0 -> 1 -> 0 is a homomorphic match of x0 -> x1 -> x2 that
# maps x2 onto x0; subgraph isomorphism must drop it.
@example(world=(3, [(0, 1), (1, 2)], 0, 2, True))
def test_bounded_matches_brute_on_random_graphs(world):
    n, edges, anchor, length, symmetric = world
    graph = Graph()
    for i in range(n):
        graph.add_node(i, "v")
    degree: dict[int, int] = {}

    def add(src, dst):
        if degree.get(src, 0) < 3 and not graph.has_edge(src, "e", dst):
            graph.add_edge(src, "e", dst)
            degree[src] = degree.get(src, 0) + 1

    for src, dst in edges:
        if src != dst:
            add(src, dst)
            if symmetric:
                add(dst, src)
    relation = edge_relation("v", "e", "v")
    db = graph_database(graph, [AccessConstraint(relation, ("src",),
                                                 ("dst",), 3)])
    assert db.schema.has_relation(relation)
    db.check()

    nodes = [PatternNode("x0", "v", constant=anchor)]
    pattern_edges = []
    for i in range(length):
        nodes.append(PatternNode(f"x{i + 1}", "v"))
        pattern_edges.append(PatternEdge(f"x{i}", "e", f"x{i + 1}"))
    pattern = Pattern("rnd", nodes, pattern_edges)
    assert pattern_coverage(pattern, db).is_covered
    assert bounded_match(pattern, db)[0] == subgraph_match(pattern, graph)
