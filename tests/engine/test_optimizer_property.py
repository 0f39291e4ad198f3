"""The optimizer's central property, on generated workloads:

    for random workload CQs (and hand-picked UCQs), the optimized
    physical plan, the unoptimized logical interpretation, and naive
    scan evaluation produce bit-identical answers — and the optimized
    execution stays within the plan's static access certificate.

Plus the columnar plane's twin property on *adversarial value
domains*: with unicode, ``None``, mixed int/str and high-cardinality
join keys flowing through dictionary-encoded columns, the columnar
executor's decoded answers match the logical oracle exactly and its
``AccessStats`` match a per-key replay of the fetches it made.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import AccessConstraint, AccessSchema, Database, Schema
from repro.core import analyze_coverage
from repro.engine import build_bounded_plan, build_union_plan, optimize
from repro.query.ast import CQ
from repro.engine.naive import evaluate
from repro.query import parse_query, parse_ucq
from repro.storage.statistics import TableStatistics
from repro.workload.accidents import (AccidentScale, extended_access_schema,
                                      extended_accidents)
from repro.workload.qgen import accident_workload_config, random_cq

from fetch_audit import audited

import random

SCALE = AccidentScale(days=12, max_accidents_per_day=6)

# Module-level world, built once: hypothesis draws only the query seed.
DB = extended_accidents(SCALE)
ACCESS = extended_access_schema(DB.schema)
DB.attach_access_schema(ACCESS)
CONFIG = accident_workload_config(DB.schema)
STATISTICS = TableStatistics.from_database(DB)


def check_equivalence(query) -> bool:
    """Returns True when the query was covered (and thus checked).

    Plans come from the PTIME coverage check alone — the property under
    test is the optimizer's, not BEP's, and the full chase/
    satisfiability pipeline is property-tested elsewhere; here it would
    only make run time depend on which uncovered shapes hypothesis
    happens to draw."""
    if isinstance(query, CQ):
        coverage = analyze_coverage(query, ACCESS)
        if not coverage.is_covered:
            return False
        plan = build_bounded_plan(coverage)
    else:
        coverages = [analyze_coverage(d, ACCESS) for d in query.disjuncts]
        if not all(c.is_covered for c in coverages):
            return False
        plan = build_union_plan(coverages)
    physical = optimize(plan)
    # Statistics only cap the printed row estimates, never the steps.
    assert repr(optimize(plan, STATISTICS).steps) == repr(physical.steps)
    optimized, reference = audited(DB, physical, plan)
    assert optimized.answers == reference.answers == evaluate(query, DB)
    return True


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_random_workload_queries_agree(seed):
    query = random_cq(random.Random(seed), CONFIG)
    check_equivalence(query)


def test_a_generated_workload_actually_exercises_bounded_plans():
    """Guard against the property trivially passing on uncovered
    queries only: a fixed seed range must yield bounded ones."""
    bounded = sum(
        check_equivalence(random_cq(random.Random(seed), CONFIG))
        for seed in range(40))
    assert bounded >= 5


UNIONS = [
    # Shared sub-plans across disjuncts: common-subplan elimination fires.
    "Q(d) :- Accident(a, d, t, s, w, r), a = 'a1' ; "
    "Q(d) :- Accident(a, d, t, s, w, r), a = 'a2'",
    # Overlapping disjuncts (the second is contained in the first).
    "Q(v) :- Casualty(c, a, cl, b, v), a = 'a3' ; "
    "Q(v) :- Casualty(c, a, cl, b, v), a = 'a3', cl = 'driver'",
]


@pytest.mark.parametrize("text", UNIONS)
def test_union_plans_agree(text):
    query = parse_ucq(text)
    assert check_equivalence(query)


# -- adversarial value domains through the columnar plane ---------------------

#: Join keys and output values designed to break naive encodings:
#: unicode (with combining/astral chars), empty/whitespace strings,
#: ``None``, ints colliding with their string spellings, negative and
#: high-cardinality ints.
adversarial_values = st.one_of(
    st.sampled_from([None, "", " ", "0", "1", "None", "naïve",
                     "☃", "γράμμα", "🦉", "a'b", 0, 1, -1, 10 ** 15]),
    st.text(alphabet="αβγ☃né0 ", max_size=3),
    st.integers(-3, 3),
    st.integers(0, 10 ** 9),
)


def adversarial_world(edges, attrs):
    schema = Schema.from_dict({"Edge": ("SRC", "DST"),
                               "Attr": ("NODE", "VAL")})
    fanout = max([1] + [sum(1 for s, _ in edges if s == src)
                        for src, _ in edges])
    attr_fanout = max([1] + [sum(1 for n, _ in attrs if n == node)
                             for node, _ in attrs])
    aschema = AccessSchema(schema, [
        AccessConstraint("Edge", ("SRC",), ("DST",), fanout),
        AccessConstraint("Attr", ("NODE",), ("VAL",), attr_fanout)])
    db = Database(schema, aschema)
    db.insert_many("Edge", edges)
    db.insert_many("Attr", attrs)
    return db


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_columnar_agrees_on_adversarial_domains(data):
    # Sources are parser-safe keys; everything that *joins* (DST/NODE)
    # or reaches the output (VAL) is adversarial.
    nodes = data.draw(st.lists(adversarial_values, min_size=1,
                               max_size=12, unique=True))
    values = data.draw(st.lists(adversarial_values, min_size=1,
                                max_size=12, unique=True))
    sources = [f"k{i}" for i in range(data.draw(st.integers(1, 4)))]
    edges = data.draw(st.lists(
        st.tuples(st.sampled_from(sources), st.sampled_from(nodes)),
        max_size=30, unique=True))
    attrs = data.draw(st.lists(
        st.tuples(st.sampled_from(nodes), st.sampled_from(values)),
        max_size=30, unique=True))
    db = adversarial_world(edges, attrs)

    # One present key and one absent one (empty fetches must agree too).
    for src in [sources[0], "absent"]:
        query = parse_query(
            f"Q(v) :- Edge(s, d), Attr(d, v), s = '{src}'")
        coverage = analyze_coverage(query, db.access_schema)
        assert coverage.is_covered
        plan = build_bounded_plan(coverage)
        physical = optimize(plan, TableStatistics.from_database(db))

        columnar, oracle = audited(db, physical, plan)
        assert columnar.answers == oracle.answers == evaluate(query, db)
