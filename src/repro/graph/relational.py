"""Graph patterns on the relational engine (Example 1.1 / [11]).

A labelled graph becomes one ``E_<src>_<edge>_<dst>(src, dst)`` relation
per label triple and one ``N_<label>(id)`` relation per label a
constraint names, so degree and label-count bounds are ordinary access
constraints.  A pattern compiles to a CQ that runs through coverage,
the bounded plan builder and the executor like every relational query;
an injectivity residual then makes its answers subgraph isomorphisms.
``docs/ARCHITECTURE.md`` ("Graph patterns as CQs") has the details.
"""

from __future__ import annotations

from typing import Iterable

from ..core.coverage import CoverageResult, analyze_coverage
from ..engine import (AccessStats, PhysicalPlan, build_bounded_plan,
                      execute_plan, optimize)
from ..errors import PlanError, QueryError
from ..query.ast import CQ, Atom, Equality
from ..query.terms import Const, Var
from ..schema.access import AccessConstraint, AccessSchema
from ..schema.relation import Schema
from ..storage.database import Database
from .graph import Graph
from .pattern import Pattern

EDGE_ATTRIBUTES = ("src", "dst")
NODE_ATTRIBUTES = ("id",)


def edge_relation(src_label: str, edge_label: str, dst_label: str) -> str:
    """The relation holding ``src_label -edge_label-> dst_label`` edges."""
    return f"E_{src_label}_{edge_label}_{dst_label}"


def node_relation(label: str) -> str:
    """The relation holding the nodes labelled ``label``."""
    return f"N_{label}"


def graph_database(graph: Graph,
                   constraints: Iterable[AccessConstraint] = ()) -> Database:
    """Encode ``graph`` relationally under ``constraints``.

    A constraint over ``id`` names a node relation, any other an edge
    relation; a named relation exists even when the graph holds no row
    for it.

    >>> g = Graph()
    >>> g.add_node(1, "person")
    >>> g.add_node(2, "city")
    >>> g.add_edge(1, "lives_in", 2)
    >>> db = graph_database(g, [AccessConstraint(
    ...     edge_relation("person", "lives_in", "city"),
    ...     ("src",), ("dst",), 1)])
    >>> db.satisfies()
    True
    """
    constraints = list(constraints)
    rows: dict[str, list[tuple]] = {}
    for src, edge_label, dst in graph.edges():
        name = edge_relation(graph.label_of(src), edge_label,
                             graph.label_of(dst))
        rows.setdefault(name, []).append((src, dst))
    relations = dict.fromkeys(rows, EDGE_ATTRIBUTES)
    for constraint in constraints:
        relations.setdefault(
            constraint.relation_name,
            NODE_ATTRIBUTES if "id" in constraint.xy_set
            else EDGE_ATTRIBUTES)
    for label in graph.node_labels():
        if relations.get(node_relation(label)) == NODE_ATTRIBUTES:
            rows[node_relation(label)] = [
                (node,) for node in graph.nodes_by_label(label)]
    schema = Schema.from_dict(relations)
    db = Database(schema, AccessSchema(schema, constraints))
    for name in relations:
        if rows.get(name):
            db.insert_many(name, rows[name])
    return db


def pattern_query(pattern: Pattern, schema: Schema) -> CQ:
    """Compile ``pattern`` to a CQ over the encoding ``schema``.

    The head is every pattern node; each edge is an atom on its label
    triple's relation and each designated constant an equality.  A
    non-constant node (or one without edges) also gets a node atom
    when its label has a node relation.
    """
    for node in pattern.nodes:
        if node.label is None:
            raise QueryError(f"pattern {pattern.name}: bounded matching "
                             f"needs labelled nodes, {node.name} has none")
    terms = {node.name: Var(node.name) for node in pattern.nodes}
    atoms = [Atom(edge_relation(pattern.node(edge.src).label,
                                edge.edge_label,
                                pattern.node(edge.dst).label),
                  (terms[edge.src], terms[edge.dst]))
             for edge in pattern.edges]
    for node in pattern.nodes:
        edgeless = not pattern.edges_of(node.name)
        if schema.has_relation(node_relation(node.label)):
            if node.constant is None or edgeless:
                atoms.append(Atom(node_relation(node.label),
                                  (terms[node.name],)))
        elif edgeless:
            raise QueryError(f"pattern {pattern.name}: {node} has no edge "
                             "and its label no node relation")
    equalities = [Equality(terms[node.name], Const(node.constant))
                  for node in pattern.constants()]
    return CQ(pattern.name, list(terms.values()), atoms, equalities)


def pattern_coverage(pattern: Pattern, db: Database) -> CoverageResult:
    """The coverage analysis of ``pattern``'s CQ under ``db``'s access
    schema."""
    return analyze_coverage(pattern_query(pattern, db.schema),
                            db.access_schema)


def match_rows(pattern: Pattern, rows: Iterable[tuple]) -> list[tuple]:
    """The injectivity residual and output projection: ``rows`` hold
    one graph node per pattern node, in ``pattern.nodes`` order."""
    names = [node.name for node in pattern.nodes]
    output = [names.index(name) for name in pattern.output]
    return sorted({tuple(row[i] for i in output) for row in rows
                   if len(set(row)) == len(row)}, key=repr)


def pattern_plan(pattern: Pattern, db: Database) -> PhysicalPlan:
    """The optimized bounded plan of ``pattern``'s CQ; raises
    :class:`PlanError` when the pattern is not covered."""
    coverage = pattern_coverage(pattern, db)
    if not coverage.is_covered:
        raise PlanError(f"pattern {pattern.name} is not covered: "
                        f"{coverage.decision().explain()}")
    return optimize(build_bounded_plan(coverage))


def bounded_match(pattern: Pattern, db: Database,
                  plan: PhysicalPlan | None = None
                  ) -> tuple[list[tuple], AccessStats]:
    """Match ``pattern`` in the encoded graph ``db`` by its bounded
    plan (:func:`pattern_plan` unless given); returns the answers and
    the plan's access stats."""
    result = execute_plan(plan or pattern_plan(pattern, db), db)
    return match_rows(pattern, result.answers), result.stats
