"""Tests for bounded pattern matching vs. the brute-force baseline.

The invariant: wherever a pattern is covered, bounded
matching equals subgraph matching — property-tested over random graphs.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PlanError
from repro.graph import (DegreeConstraint, Graph, GraphAccessSchema,
                         GraphAccessStats, LabelCountConstraint, MatchStats,
                         Pattern, PatternEdge, PatternNode, analyze_pattern,
                         bounded_match, subgraph_match)
from repro.workload import (SocialScale, generate_patterns,
                            graph_search_pattern, social_access_schema,
                            social_graph)


@pytest.fixture(scope="module")
def social():
    scale = SocialScale(persons=200, seed=5)
    return social_graph(scale), social_access_schema(scale), scale


class TestGraphSearchPattern:
    def test_pattern_is_covered(self, social):
        graph, access, _ = social
        pattern = graph_search_pattern(("person", 3))
        coverage = analyze_pattern(pattern, access)
        assert coverage.is_covered
        assert coverage.candidate_bound() <= 20  # max_friends.

    def test_bounded_equals_brute(self, social):
        graph, access, scale = social
        for person in (0, 7, 42, 133):
            pattern = graph_search_pattern(("person", person))
            assert bounded_match(pattern, graph, access) == \
                subgraph_match(pattern, graph)

    def test_access_is_tiny(self, social):
        graph, access, _ = social
        pattern = graph_search_pattern(("person", 3))
        stats = GraphAccessStats()
        bounded_match(pattern, graph, access, stats=stats)
        assert stats.nodes_fetched <= 3 * 20 + 2  # friends + verifications.

    def test_scan_baseline_does_more_work(self, social):
        graph, access, _ = social
        pattern = graph_search_pattern(("person", 3))
        bounded_stats = GraphAccessStats()
        bounded_match(pattern, graph, access, stats=bounded_stats)
        scan_stats = MatchStats()
        subgraph_match(pattern, graph, stats=scan_stats, strategy="scan")
        assert scan_stats.candidates_examined > \
            10 * bounded_stats.nodes_fetched


class TestCoverageAnalysis:
    def test_unanchored_pattern_not_covered(self):
        access = GraphAccessSchema([
            DegreeConstraint("friend", 5, "out", "person")])
        pattern = Pattern("floating",
                          [PatternNode("a", "person"),
                           PatternNode("b", "person")],
                          [PatternEdge("a", "friend", "b")])
        coverage = analyze_pattern(pattern, access)
        assert not coverage.is_covered
        assert "a" in coverage.uncovered

    def test_label_seed_covers(self):
        access = GraphAccessSchema([
            LabelCountConstraint("city", 8),
            DegreeConstraint("lives_in", 50, "in", "city")])
        pattern = Pattern("by_city",
                          [PatternNode("c", "city"),
                           PatternNode("p", "person")],
                          [PatternEdge("p", "lives_in", "c")])
        coverage = analyze_pattern(pattern, access)
        assert coverage.is_covered
        assert coverage.candidate_bound() == 8 * 50

    def test_unverifiable_edge_blocks(self):
        # Both endpoints coverable, but no adjacency constraint for the
        # "knows" edge between them.
        access = GraphAccessSchema([
            LabelCountConstraint("person", 10)])
        pattern = Pattern("pair",
                          [PatternNode("a", "person"),
                           PatternNode("b", "person")],
                          [PatternEdge("a", "knows", "b")])
        coverage = analyze_pattern(pattern, access)
        assert not coverage.is_covered
        assert coverage.unverified_edges

    def test_bounded_match_rejects_uncovered(self):
        access = GraphAccessSchema([])
        pattern = Pattern("p", [PatternNode("a", "person")], [])
        graph = Graph()
        graph.add_node(1, "person")
        with pytest.raises(PlanError, match="not covered"):
            bounded_match(pattern, graph, access)

    def test_explain_readable(self, social):
        _, access, _ = social
        pattern = graph_search_pattern(("person", 0))
        text = analyze_pattern(pattern, access).explain()
        assert "seed me" in text
        assert "covered" in text


class TestWorkloadAgreement:
    def test_coverage_rate_in_papers_band(self, social):
        graph, access, scale = social
        patterns = generate_patterns(80, scale, seed=99)
        rate = sum(1 for p in patterns
                   if analyze_pattern(p, access).is_covered) / 80
        assert 0.35 <= rate <= 0.85  # Paper reports 60%.

    def test_every_covered_pattern_agrees(self, social):
        graph, access, scale = social
        patterns = generate_patterns(40, scale, seed=4)
        checked = 0
        for pattern in patterns:
            coverage = analyze_pattern(pattern, access)
            if not coverage.is_covered:
                continue
            checked += 1
            assert bounded_match(pattern, graph, access,
                                 coverage=coverage) == \
                subgraph_match(pattern, graph)
        assert checked >= 5


# -- property test over random graphs ---------------------------------------

@st.composite
def random_world(draw):
    n = draw(st.integers(3, 12))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=20))
    anchor = draw(st.integers(0, n - 1))
    length = draw(st.integers(1, 2))
    return n, edges, anchor, length


@given(world=random_world())
@settings(max_examples=60, deadline=None)
def test_bounded_matches_brute_on_random_graphs(world):
    n, edges, anchor, length = world
    graph = Graph()
    for i in range(n):
        graph.add_node(i, "v")
    degree: dict[int, int] = {}
    for src, dst in edges:
        if degree.get(src, 0) >= 3 or src == dst:
            continue
        if not graph.has_edge(src, "e", dst):
            graph.add_edge(src, "e", dst)
            degree[src] = degree.get(src, 0) + 1
    access = GraphAccessSchema([DegreeConstraint("e", 3, "out", "v")])
    assert access.satisfied_by(graph)

    nodes = [PatternNode("x0", "v", constant=anchor)]
    pattern_edges = []
    for i in range(length):
        nodes.append(PatternNode(f"x{i + 1}", "v"))
        pattern_edges.append(PatternEdge(f"x{i}", "e", f"x{i + 1}"))
    pattern = Pattern("rnd", nodes, pattern_edges)
    coverage = analyze_pattern(pattern, access)
    assert coverage.is_covered
    assert bounded_match(pattern, graph, access, coverage=coverage) == \
        subgraph_match(pattern, graph)
