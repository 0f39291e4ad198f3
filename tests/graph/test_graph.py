"""Unit tests for the graph store and for label-count and degree bounds
as access constraints over its relational encoding."""

from __future__ import annotations

import pytest

from repro import AccessConstraint
from repro.errors import ConstraintViolation, SchemaError
from repro.graph import Graph, edge_relation, graph_database, node_relation
from repro.schema.discovery import DiscoveryOptions, discover_access_schema

FRIEND = edge_relation("person", "friend", "person")
LIVES_IN = edge_relation("person", "lives_in", "city")


@pytest.fixture
def graph():
    g = Graph()
    g.add_node(1, "person")
    g.add_node(2, "person")
    g.add_node(3, "city")
    g.add_edge(1, "friend", 2)
    g.add_edge(1, "lives_in", 3)
    g.add_edge(2, "lives_in", 3)
    return g


class TestGraph:
    def test_counts(self, graph):
        assert graph.num_nodes() == 3
        assert graph.num_edges() == 3

    def test_label_index(self, graph):
        assert graph.nodes_by_label("person") == [1, 2]
        assert graph.nodes_by_label("city") == [3]
        assert graph.nodes_by_label("ghost") == []

    def test_adjacency(self, graph):
        assert graph.out_neighbors(1, "friend") == [2]
        assert graph.in_neighbors(3, "lives_in") == [1, 2]
        assert graph.in_neighbors(2, "friend") == [1]
        assert graph.out_neighbors(2, "friend") == []

    def test_has_edge(self, graph):
        assert graph.has_edge(1, "friend", 2)
        assert not graph.has_edge(2, "friend", 1)

    def test_duplicate_edge_ignored(self, graph):
        graph.add_edge(1, "friend", 2)
        assert graph.num_edges() == 3

    def test_relabel_rejected(self, graph):
        with pytest.raises(SchemaError, match="already has label"):
            graph.add_node(1, "city")

    def test_edge_to_unknown_node_rejected(self, graph):
        with pytest.raises(SchemaError, match="unknown node"):
            graph.add_edge(1, "friend", 99)

    def test_label_sets_and_edges(self, graph):
        assert graph.node_labels() == {"person", "city"}
        assert list(graph.edges()) == [(1, "friend", 2), (1, "lives_in", 3),
                                       (2, "lives_in", 3)]


def _label_count(label: str, bound: int) -> AccessConstraint:
    return AccessConstraint(node_relation(label), (), ("id",), bound)


def _satisfies(graph, *constraints) -> bool:
    return graph_database(graph, constraints).satisfies()


class TestConstraints:
    def test_label_count(self, graph):
        assert _satisfies(graph, _label_count("city", 1))
        assert not _satisfies(graph, _label_count("person", 1))

    def test_degree_out(self, graph):
        assert _satisfies(graph, AccessConstraint(FRIEND, ("src",),
                                                  ("dst",), 1))
        assert _satisfies(graph, AccessConstraint(LIVES_IN, ("src",),
                                                  ("dst",), 1))

    def test_degree_in(self, graph):
        db = graph_database(graph, [AccessConstraint(LIVES_IN, ("dst",),
                                                     ("src",), 1)])
        with pytest.raises(ConstraintViolation):
            db.check()
        assert _satisfies(graph, AccessConstraint(LIVES_IN, ("dst",),
                                                  ("src",), 2))

    def test_unknown_attribute_rejected(self, graph):
        with pytest.raises(SchemaError, match="unknown attribute"):
            graph_database(graph, [AccessConstraint(FRIEND, ("sideways",),
                                                    ("dst",), 1)])

    def test_encoding(self, graph):
        db = graph_database(graph, [_label_count("city", 4)])
        assert set(db.schema.relation_names()) == {
            FRIEND, LIVES_IN, node_relation("city")}
        assert sorted(db.relation_tuples(LIVES_IN)) == [(1, 3), (2, 3)]
        assert sorted(db.relation_tuples(node_relation("city"))) == [(3,)]

    def test_constrained_triple_without_edges_is_empty(self, graph):
        knows = edge_relation("person", "knows", "person")
        db = graph_database(graph, [AccessConstraint(knows, ("src",),
                                                     ("dst",), 1)])
        assert db.schema.relation(knows).attributes == ("src", "dst")
        assert db.relation_size(knows) == 0

    def test_schema_satisfaction(self, graph):
        assert _satisfies(graph, _label_count("city", 1),
                          AccessConstraint(FRIEND, ("src",), ("dst",), 1))
        assert not _satisfies(graph, _label_count("city", 1),
                              _label_count("person", 1))


class TestDiscovery:
    def test_discovered_schema_is_sound(self, graph):
        db = graph_database(graph, [_label_count("person", 64)])
        schema = discover_access_schema(db)
        assert db.satisfies(schema)
        found = {str(c) for c in schema}
        assert f"{LIVES_IN}(src -> dst, 1)" in found
        assert f"{LIVES_IN}(dst -> src, 2)" in found
        assert f"{node_relation('person')}(() -> id, 2)" in found

    def test_caps_respected(self, graph):
        db = graph_database(graph, [_label_count("person", 64)])
        schema = discover_access_schema(db, DiscoveryOptions(
            empty_lhs=False))
        assert all(c.x for c in schema)
