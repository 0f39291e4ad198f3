"""Cardinality statistics over database instances.

The paper's access constraints "are discovered by simple aggregate
queries on D0" (Example 1.1).  This module implements those aggregates:
for a relation and an ``(X, Y)`` attribute pair it computes the maximum
number of distinct ``Y``-projections per ``X``-projection — exactly the
``N`` of a candidate constraint ``R(X -> Y, N)`` — plus distinct counts
used by the discovery heuristics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .database import Database, distinct_y_groups


@dataclass(frozen=True)
class TableStatistics:
    """A cheap snapshot of instance-level cardinalities.

    Its one use is the per-step ``[rows <= N]`` estimates that
    ``repro explain`` prints: ``db_size`` evaluates non-constant
    cardinality functions, ``relation_sizes`` cap fetch-output
    estimates (a fetch can never return more distinct projections than
    the relation holds).  No physical choice reads it — a plan's steps
    follow from the query and the access constraints alone — so no
    request path takes a snapshot.
    """

    db_size: int = 0
    relation_sizes: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_database(cls, db: Database) -> "TableStatistics":
        sizes = {name: db.relation_size(name)
                 for name in db.schema.relation_names()}
        return cls(db_size=sum(sizes.values()), relation_sizes=sizes)

    def relation_size(self, relation_name: str) -> int | None:
        return self.relation_sizes.get(relation_name)


def max_group_cardinality(db: Database, relation_name: str,
                          x: Sequence[str], y: Sequence[str]) -> int:
    """``max_a |D_Y(X = a)|`` over the instance; 0 for an empty relation.

    With ``X`` empty this is simply the number of distinct Y-projections.
    """
    relation = db.schema.relation(relation_name)
    groups = distinct_y_groups(db.relation_tuples(relation_name),
                               relation.positions(x), relation.positions(y))
    return max(map(len, groups.values()), default=0)


def distinct_count(db: Database, relation_name: str,
                   attributes: Sequence[str]) -> int:
    """Number of distinct projections on ``attributes``."""
    relation = db.schema.relation(relation_name)
    positions = relation.positions(attributes)
    return len({
        tuple(row[i] for i in positions)
        for row in db.relation_tuples(relation_name)
    })


def is_key(db: Database, relation_name: str, attributes: Sequence[str]) -> bool:
    """True when ``attributes`` functionally determine the whole tuple."""
    relation = db.schema.relation(relation_name)
    rest = [a for a in relation.attributes if a not in attributes]
    if not rest:
        return True
    return max_group_cardinality(db, relation_name, attributes, rest) <= 1


def selectivity_profile(db: Database, relation_name: str) -> dict[str, int]:
    """Distinct-value count per single attribute; a discovery heuristic input."""
    relation = db.schema.relation(relation_name)
    return {
        attribute: distinct_count(db, relation_name, (attribute,))
        for attribute in relation.attributes
    }
