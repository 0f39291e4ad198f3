"""Per-template operator specialization: steps built once per plan and
shared by every binding and every database, constants read per request
from a code vector looked up without interning."""

from __future__ import annotations

import pytest

from repro import AccessConstraint, AccessSchema, Database, Schema
from repro.core import analyze_coverage
from repro.engine import (Executor, LegacyTupleExecutor, build_bounded_plan,
                          execute_plan, interpret_logical, optimize)
from repro.engine.naive import evaluate
from repro.engine.optimizer.specialize import (SpecializedPlan, specialize,
                                               specialized_plan)
from repro.query import parse_cq, parse_query
from repro.service.templates import bind_physical_plan


def build_world(rows_r, rows_s):
    schema = Schema.from_dict({"R": ("A", "B"), "S": ("B", "C")})
    aschema = AccessSchema(schema, [
        AccessConstraint("R", ("A",), ("B",), 3),
        AccessConstraint("S", ("B",), ("C",), 2)])
    db = Database(schema, aschema)
    db.insert_many("R", rows_r)
    db.insert_many("S", rows_s)
    return aschema, db


@pytest.fixture
def world():
    return build_world([(1, 10), (1, 11), (2, 12)],
                       [(10, "x"), (11, "y"), (12, "z")])


def bounded_physical(text, aschema):
    coverage = analyze_coverage(parse_cq(text), aschema)
    return optimize(build_bounded_plan(coverage))


class TestSharedSteps:
    def test_steps_are_built_once_per_plan(self, world):
        aschema, db = world
        physical = bounded_physical("Q(z) :- R(x, y), S(y, z), x = 1",
                                    aschema)
        first = specialize(physical)
        assert isinstance(first, SpecializedPlan)
        assert specialize(physical) is first
        assert specialized_plan(physical, db.dictionary)[0] is first
        assert len(first) == len(physical)

    def test_other_dictionary_shares_steps_with_its_own_codes(self, world):
        aschema, db = world
        # Same rows, inserted in a different order: the same values
        # carry *different* codes in the second database.
        _, other = build_world([(2, 12), (1, 11), (1, 10)],
                               [(12, "z"), (11, "y"), (10, "x")])
        physical = bounded_physical("Q(z) :- R(x, y), S(y, z), x = 1",
                                    aschema)
        spec, codes = specialized_plan(physical, db.dictionary)
        other_spec, other_codes = specialized_plan(physical,
                                                   other.dictionary)
        assert other_spec is spec
        assert codes != other_codes
        assert execute_plan(physical, db).answers == {("x",), ("y",)}
        assert execute_plan(physical, other).answers == {("x",), ("y",)}

    def test_every_binding_runs_the_same_specialized_plan(self, world):
        aschema, db = world
        _, other = build_world([(2, 12), (1, 11), (1, 10), (7, 10)],
                               [(12, "z"), (11, "y"), (10, "x")])
        text = "Q(z) :- R(x, y), S(y, z), x = $who"
        template = bounded_physical(text, aschema)
        spec = specialize(template)
        for database in (db, other):
            for who in (1, 2, 7, 99, "never"):
                bound = bind_physical_plan(template, frozenset({"who"}),
                                           {"who": who})
                assert bound.plan is template
                assert specialized_plan(bound, database.dictionary)[0] \
                    is spec
                oracle = evaluate(parse_query(
                    text.replace("$who", repr(who))), database)
                assert execute_plan(bound, database).answers == oracle
                assert LegacyTupleExecutor(database).execute(
                    bound).answers == oracle
        assert specialize(template) is spec


class TestNonInterningLookup:
    def test_never_stored_constants_get_sentinels_not_codes(self, world):
        aschema, db = world
        template = bounded_physical("Q(y) :- R(x, y), x = $who", aschema)
        before = len(db.dictionary)
        for who in ("ghost", 10**9, (1, 2)):
            bound = bind_physical_plan(template, frozenset({"who"}),
                                       {"who": who})
            _, codes = specialized_plan(bound, db.dictionary)
            assert min(codes) < 0
            assert execute_plan(bound, db).answers == set()
        assert len(db.dictionary) == before
        assert "ghost" not in db.dictionary

    def test_sentinels_are_distinct_per_value_and_shared_by_equal_ones(
            self, world):
        _, db = world
        codes = db.dictionary.lookup_codes(["a", 1, "b", "a", 10])
        assert codes[0] == codes[3] < 0
        assert codes[2] < 0 and codes[2] != codes[0]
        assert codes[1] >= 0 and codes[4] >= 0

    def test_a_never_stored_constant_can_reach_the_answer(self, world):
        aschema, db = world
        template = bounded_physical("Q(y, w) :- R(x, y), x = 1, w = $v",
                                    aschema)
        for v in ("brand-new", 10):
            bound = bind_physical_plan(template, frozenset({"v"}),
                                       {"v": v})
            assert execute_plan(bound, db).answers == {(10, v), (11, v)}
        assert "brand-new" not in db.dictionary

    def test_an_insert_after_a_miss_is_seen_by_the_same_binding(
            self, world):
        aschema, db = world
        template = bounded_physical("Q(y) :- R(x, y), x = $who", aschema)
        bound = bind_physical_plan(template, frozenset({"who"}),
                                   {"who": "late"})
        assert execute_plan(bound, db).answers == set()
        db.insert("R", ("late", 42))
        assert execute_plan(bound, db).answers == {(42,)}


class TestInvalidation:
    def test_access_schema_change_respecializes_recompiled_plans(
            self, world):
        """Changing the access schema recompiles plans (new constraint
        objects); specialization follows the new plan while the
        append-only dictionary keeps every existing code valid."""
        aschema, db = world
        text = "Q(z) :- R(x, y), S(y, z), x = 1"
        physical = bounded_physical(text, aschema)
        spec = specialize(physical)
        before = len(db.dictionary)

        wider = AccessSchema(db.schema, [
            AccessConstraint("R", ("A",), ("B",), 5),
            AccessConstraint("S", ("B",), ("C",), 2),
            AccessConstraint("S", ("C",), ("B",), 2)])
        db.attach_access_schema(wider)
        # Rebuilding indexes re-encodes rows into the *same* dictionary:
        # append-only, so no code moved and the old spec still answers.
        assert len(db.dictionary) == before
        assert specialize(physical) is spec
        assert execute_plan(physical, db).answers == {("x",), ("y",)}

        recompiled = bounded_physical(text, wider)
        assert specialize(recompiled) is not spec
        assert execute_plan(recompiled, db).answers == {("x",), ("y",)}


class TestColumnarIdentity:
    def test_columnar_matches_legacy_and_oracle(self, world):
        aschema, db = world
        coverage = analyze_coverage(
            parse_cq("Q(z) :- R(x, y), S(y, z), x = 1"), aschema)
        plan = build_bounded_plan(coverage)
        physical = optimize(plan)
        columnar = Executor(db).execute(physical)
        legacy = LegacyTupleExecutor(db).execute(physical)
        oracle = interpret_logical(plan, db)
        assert columnar.answers == legacy.answers == oracle.answers
        assert columnar.stats == legacy.stats
        assert (columnar.stats.tuples_fetched
                <= oracle.stats.tuples_fetched)
