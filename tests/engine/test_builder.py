"""Tests for the bounded-plan builder, including the central property:

    for every covered CQ and every instance satisfying A,
    executing the bounded plan == naive evaluation,
    and tuples fetched <= the plan's static certificate bound.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import (AccessConstraint, AccessSchema, Database, PlanError,
                   Schema)
from repro.core import analyze_coverage
from repro.engine import (build_bounded_plan, build_empty_plan,
                          build_union_plan, evaluate, execute_plan,
                          static_bounds)
from repro.query import parse_cq, parse_ucq


# ---------------------------------------------------------------------------
# A reusable two-relation world: R(A, B), S(B, C).
# ---------------------------------------------------------------------------

def make_world():
    schema = Schema.from_dict({"R": ("A", "B"), "S": ("B", "C")})
    aschema = AccessSchema(schema, [
        AccessConstraint("R", ("A",), ("B",), 3),
        AccessConstraint("R", ("B",), ("A",), 3),
        AccessConstraint("S", ("B",), ("C",), 3),
        AccessConstraint("S", ("C",), ("B",), 3),
    ])
    return schema, aschema


def repaired_db(schema, aschema, r_rows, s_rows) -> Database:
    """Insert rows, skipping any that would break a constraint.

    The result satisfies ``A`` by construction, so properties quantify
    over a rich family of legal instances.
    """
    db = Database(schema, aschema)
    for relation, rows in (("R", r_rows), ("S", s_rows)):
        for row in rows:
            db.insert(relation, row)
            if not db.satisfies():
                # Remove the offending row by rebuilding without it.
                kept_r = [t for t in db.relation_tuples("R")
                          if not (relation == "R" and t == tuple(row))]
                kept_s = [t for t in db.relation_tuples("S")
                          if not (relation == "S" and t == tuple(row))]
                db = Database(schema, aschema)
                db.insert_many("R", kept_r)
                db.insert_many("S", kept_s)
    assert db.satisfies()
    return db


COVERED_QUERIES = [
    "Q(y) :- R(x, y), x = 1",
    "Q(z) :- R(x, y), S(y, z), x = 1",
    "Q(x, z) :- R(x, y), S(y, z), x = 2",
    "Q(y) :- R(x, y), R(x2, y2), x = 1, x2 = 2, y = y2",
    "Q(x) :- R(x, y), y = 1",
    "Q() :- R(x, y), x = 1",
    "Q(y, w) :- R(x, y), S(y, w), S(w2, c), x = 0, w2 = w",
    "Q(u) :- R(x, y), x = 1, u = 9",
    "Q(x, x) :- R(x, y), y = 2",
]

values = st.integers(0, 3)
r_rows = st.lists(st.tuples(values, values), max_size=14)
s_rows = st.lists(st.tuples(values, values), max_size=14)


@pytest.mark.parametrize("text", COVERED_QUERIES)
def test_queries_are_covered(text):
    schema, aschema = make_world()
    q = parse_cq(text)
    coverage = analyze_coverage(q, aschema)
    assert coverage.is_covered, coverage.decision().reason


@pytest.mark.parametrize("text", COVERED_QUERIES)
@given(r=r_rows, s=s_rows)
@settings(max_examples=25, deadline=None)
def test_plan_equals_naive(text, r, s):
    schema, aschema = make_world()
    db = repaired_db(schema, aschema, r, s)
    q = parse_cq(text)
    coverage = analyze_coverage(q, aschema)
    plan = build_bounded_plan(coverage)
    result = execute_plan(plan, db)
    assert result.answers == evaluate(coverage.query, db)


@pytest.mark.parametrize("text", COVERED_QUERIES)
@given(r=r_rows, s=s_rows)
@settings(max_examples=15, deadline=None)
def test_fetch_within_certificate(text, r, s):
    schema, aschema = make_world()
    db = repaired_db(schema, aschema, r, s)
    q = parse_cq(text)
    coverage = analyze_coverage(q, aschema)
    plan = build_bounded_plan(coverage)
    cost = static_bounds(plan)
    result = execute_plan(plan, db)
    assert result.stats.tuples_fetched <= cost.fetch_bound
    assert len(result.answers) <= cost.output_bound


class TestBuilderStructure:
    def test_uncovered_query_rejected(self):
        schema, aschema = make_world()
        q = parse_cq("Q(x, y) :- R(x, y)")  # Nothing pins x.
        coverage = analyze_coverage(q, aschema)
        with pytest.raises(PlanError, match="not covered"):
            build_bounded_plan(coverage)

    def test_classically_unsat_gets_empty_plan(self):
        schema, aschema = make_world()
        q = parse_cq("Q(x) :- R(x, y), x = 1, x = 2")
        coverage = analyze_coverage(q, aschema)
        assert coverage.is_covered  # Data-independent after conflict.
        plan = build_bounded_plan(coverage)
        db = Database(schema, aschema)
        db.insert("R", (1, 2))
        assert execute_plan(plan, db).answers == set()

    def test_plan_is_cq_fragment(self, accident_access, q0):
        coverage = analyze_coverage(q0, accident_access)
        plan = build_bounded_plan(coverage)
        assert plan.language_class() == "CQ"
        plan.check_bounded_under(accident_access)

    def test_plan_has_certificate(self, accident_access, q0):
        coverage = analyze_coverage(q0, accident_access)
        plan = build_bounded_plan(coverage)
        cost = static_bounds(plan)
        # Example 1.1's arithmetic: psi1 once, the psi3 verification,
        # then psi2 and psi4 expansions.
        assert cost.fetch_bound == 610 + 610 + 610 * 192 + 610 * 192

    def test_union_plan(self):
        schema, aschema = make_world()
        u = parse_ucq("Q(y) :- R(x, y), x = 1 ; Q(y) :- S(z, y), z = 0")
        coverages = [analyze_coverage(d, aschema) for d in u.disjuncts]
        plan = build_union_plan(coverages)
        assert plan.language_class() == "UCQ"
        db = Database(schema, aschema)
        db.insert_many("R", [(1, 5), (2, 6)])
        db.insert_many("S", [(0, 7)])
        assert execute_plan(plan, db).answers == {(5,), (7,)}

    def test_union_plan_needs_disjuncts(self):
        with pytest.raises(PlanError):
            build_union_plan([])

    def test_empty_plan(self):
        schema, aschema = make_world()
        plan = build_empty_plan(2)
        db = Database(schema, aschema)
        assert execute_plan(plan, db).answers == set()

    def test_example11_plan_accesses_little(self, accident_access,
                                            accident_db, q0):
        coverage = analyze_coverage(q0, accident_access)
        plan = build_bounded_plan(coverage)
        result = execute_plan(plan, accident_db)
        assert result.answers == {(34,), (51,)}
        # Far below both the database size and the certificate.
        assert result.stats.tuples_fetched <= 12
