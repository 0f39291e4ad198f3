"""Tests for the workload generators (accidents, random CQs, social)."""

from __future__ import annotations

import random

import pytest

from repro.core import is_covered
from repro.graph import graph_database
from repro.query.normalize import normalize_cq
from repro.workload import (AccidentScale, SocialScale,
                            accident_workload_config, extended_access_schema,
                            extended_accidents, extended_schema,
                            generate_patterns, generate_workload,
                            graph_search_pattern, simple_accidents,
                            social_graph, social_graph_constraints)


class TestAccidents:
    def test_simple_satisfies_canonical_schema(self):
        db = simple_accidents(AccidentScale(days=12,
                                            max_accidents_per_day=10))
        assert db.satisfies()
        assert db.size() > 50

    def test_reproducible(self):
        scale = AccidentScale(days=5, max_accidents_per_day=5, seed=3)
        a = simple_accidents(scale)
        b = simple_accidents(scale)
        assert sorted(a.relation_tuples("Accident")) == \
            sorted(b.relation_tuples("Accident"))

    def test_scale_controls_size(self):
        small = simple_accidents(AccidentScale(days=4,
                                               max_accidents_per_day=4))
        large = simple_accidents(AccidentScale(days=40,
                                               max_accidents_per_day=10))
        assert large.size() > 3 * small.size()

    def test_extended_satisfies_curated_schema(self):
        db = extended_accidents(AccidentScale(days=10,
                                              max_accidents_per_day=8))
        assert db.satisfies(extended_access_schema())

    def test_mean_two_vehicles(self):
        db = simple_accidents(AccidentScale(days=40,
                                            max_accidents_per_day=20))
        ratio = db.relation_size("Casualty") / db.relation_size("Accident")
        assert 1.2 <= ratio <= 3.2  # "two vehicles on average".


class TestQueryWorkload:
    @pytest.fixture(scope="class")
    def config(self):
        return accident_workload_config(extended_schema())

    def test_queries_are_wellformed(self, config):
        for q in generate_workload(50, config, seed=1):
            normalize_cq(q, config.schema)  # Raises on malformed queries.

    def test_reproducible(self, config):
        a = generate_workload(10, config, seed=5)
        b = generate_workload(10, config, seed=5)
        assert [str(q) for q in a] == [str(q) for q in b]

    def test_coverage_rate_near_paper(self, config):
        access = extended_access_schema()
        workload = generate_workload(300, config, seed=7)
        rate = sum(1 for q in workload if is_covered(q, access)) / 300
        assert 0.60 <= rate <= 0.90  # Paper reports 77%.

    def test_mix_of_verdicts(self, config):
        access = extended_access_schema()
        workload = generate_workload(100, config, seed=2)
        verdicts = {bool(is_covered(q, access)) for q in workload}
        assert verdicts == {True, False}

    def test_join_conditions_connect_atoms(self, config):
        rng = random.Random(0)
        from repro.workload.qgen import random_cq
        for _ in range(30):
            q = random_cq(rng, config)
            if len(q.atoms) > 1:
                relations = {a.relation for a in q.atoms}
                # Multi-atom queries follow the FK edges, which only link
                # Accident-Casualty and Casualty-Vehicle.
                assert relations <= {"Accident", "Casualty", "Vehicle"}


class TestSocialWorkload:
    def test_graph_satisfies_schema(self):
        scale = SocialScale(persons=150, seed=9)
        graph = social_graph(scale)
        graph_database(graph, social_graph_constraints(scale)).check()

    def test_lives_in_exactly_one(self):
        scale = SocialScale(persons=60)
        graph = social_graph(scale)
        for person in graph.nodes_by_label("person"):
            assert len(graph.out_neighbors(person, "lives_in")) == 1

    def test_friendship_symmetric(self):
        graph = social_graph(SocialScale(persons=80))
        for src, label, dst in graph.edges():
            if label == "friend":
                assert graph.has_edge(dst, "friend", src)

    def test_patterns_reference_valid_structure(self):
        scale = SocialScale(persons=100)
        for pattern in generate_patterns(30, scale):
            assert pattern.nodes
            assert pattern.output

    def test_graph_search_pattern_shape(self):
        pattern = graph_search_pattern(("person", 1), "paris", "chess")
        assert len(pattern.constants()) == 3
        assert pattern.output == ("f",)
