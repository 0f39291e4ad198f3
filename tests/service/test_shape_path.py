"""The plan cache's shape path: ad-hoc texts that differ only in their
constants share one compilation and bind their literals as parameters.

The load-bearing property: a text served through its shape answers
exactly what the concrete text compiled on its own answers, with the
same index accounting, and both equal the naive evaluator — across
equal and clashing constants, ``1`` vs ``'1'`` vs ``1.0``, escaped
quotes, inline atom constants, UCQs, formulas and ``$name`` texts.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro import AccessConstraint, AccessSchema, Database, Schema
from repro.engine.naive import evaluate
from repro.errors import ParseError, ServiceError
from repro.obs import MetricsRegistry
from repro.query import parse_query
from repro.query.parser import lift_literals
from repro.service import BoundedQueryService
from repro.service.fetchcache import CachingExecutor, FetchCache
from repro.service.plancache import PlanCache
from repro.service.templates import bind_physical_plan, bind_query
from repro.storage.statistics import TableStatistics

#: Constants that compare equal across types (1, 1.0), look alike
#: across types (1, '1') or need escaping ("a'b").
POOL = [0, 1, 1.0, "1", "a'b", -1]

#: (text with ``{0}``/``{1}`` literal slots, always served by its
#: shape?) — a *clean* shape is covered and clash-free for every
#: constant vector, so its second text must be a shape hit.
SHAPES = [
    ("Q(y) :- R(x, y), x = {0}", True),
    ("Q(z) :- R(x, y), S(y, z), x = {0}", True),
    ("Q(y) :- R({0}, y)", True),
    ("Q(y) :- R(x, y), x = {0}, x = {1}", False),
    ("Q(z) :- R({0}, y), S(y, z), y = {1}", False),
    ("Q(y) :- R(x, y), x = {0} ; Q(y) :- R(x, y), x = {1}", False),
    ("Q(y) := EXISTS x. (R(x, y) AND (x = {0} OR x = {1}))", False),
    ("Q(y) := EXISTS x. (R(x, y) AND x = {0} AND NOT S(y, {1}))", False),
    ("Q(x, y) :- R(x, y), y = {0}", False),
]
#: ``$name`` texts: their own shape, bound with ``{"p": constant}``.
PARAM_SHAPES = [
    "Q(y) :- R(x, y), x = $p",
    "Q(z) :- R(x, y), S(y, z), x = $p, z = {1}",
]


def literal(value) -> str:
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"
    return repr(value)


@functools.lru_cache(maxsize=1)
def database() -> Database:
    schema = Schema.from_dict({"R": ("A", "B"), "S": ("B", "C")})
    access = AccessSchema(schema, [
        AccessConstraint("R", ("A",), ("B",), 3),
        AccessConstraint("S", ("B",), ("C",), 2),
    ])
    db = Database(schema, access)
    db.insert_many("R", [(0, 1), (0, "1"), (1, "a'b"), (1, -1), ("1", 0),
                         ("a'b", 1), (-1, "a'b"), (-1, 0)])
    db.insert_many("S", [(1, 0), ("1", "a'b"), ("a'b", -1), (-1, 1),
                         (0, "1"), (0, 0)])
    return db


def reference(db: Database, text: str, params: dict):
    """The concrete text compiled on its own in a fresh plan cache."""
    entry, _ = PlanCache().compile(parse_query(text), db.access_schema,
                                   TableStatistics.from_database(db))
    if not entry.bounded:
        query = bind_query(entry.query, entry.parameters, params)
        return entry, evaluate(query, db), None
    plan = bind_physical_plan(entry.physical, entry.parameters, params)
    result = CachingExecutor(db, FetchCache()).execute(plan)
    return entry, result.answers, result.stats


request = st.one_of(
    st.tuples(st.just("shape"), st.integers(0, len(SHAPES) - 1),
              st.sampled_from(POOL), st.sampled_from(POOL)),
    st.tuples(st.just("param"), st.integers(0, len(PARAM_SHAPES) - 1),
              st.sampled_from(POOL), st.sampled_from(POOL)))


@settings(max_examples=100, deadline=None)
@given(requests=st.lists(request, min_size=4, max_size=10))
def test_shape_path_equals_concrete_compile_and_naive(requests):
    db = database()
    service = BoundedQueryService(db)
    seen_clean: set[int] = set()
    clean_repeats = 0
    for kind, index, first, second in requests:
        if kind == "shape":
            form, clean = SHAPES[index]
            text = form.format(literal(first), literal(second))
            params = {}
            if clean:
                clean_repeats += index in seen_clean
                seen_clean.add(index)
        else:
            text = PARAM_SHAPES[index].format(None, literal(second))
            params = {"p": first}
        entry, expected, expected_stats = reference(db, text, params)
        naive = evaluate(bind_query(parse_query(text),
                                    frozenset(params), params), db)
        before = service.stats().plan_shapes
        service.fetch_cache.clear()  # every request reads storage
        result = service.execute(text, params)
        after = service.stats().plan_shapes
        assert result.answers == expected == naive, text
        assert result.bounded == entry.bounded, text
        if entry.bounded:
            assert (result.stats.index_lookups
                    == expected_stats.index_lookups), text
            assert (result.stats.tuples_fetched
                    == expected_stats.tuples_fetched), text
        # Every text request is exactly one shape hit or miss.
        assert (after.hits + after.misses
                == before.hits + before.misses + 1)
    assert service.stats().plan_shapes.hits >= clean_repeats


class TestShapeTable:
    def test_texts_of_one_shape_compile_once(self, monkeypatch):
        import repro.service.plancache as plancache

        calls = []
        real_optimize = plancache.optimize

        def counting_optimize(plan, statistics=None, **kwargs):
            calls.append(plan.name)
            return real_optimize(plan, statistics, **kwargs)

        monkeypatch.setattr(plancache, "optimize", counting_optimize)
        db = database()
        service = BoundedQueryService(db)
        results = [service.execute(f"Q(y) :- R(x, y), x = {value}")
                   for value in (0, 1, -1, "'a\\'b'")]
        assert len(calls) == 1
        assert [r.plan_cached for r in results] == [False, True, True, True]
        assert results[3].answers == {(1,)}
        stats = service.stats()
        assert (stats.plan_shapes.hits, stats.plan_shapes.misses) == (3, 1)
        # The compiled-query table ran the static pipeline once.
        assert (stats.plan_cache.hits, stats.plan_cache.misses) == (0, 1)

    def test_equality_pattern_is_part_of_the_shape(self):
        assert (lift_literals("Q(y) :- R(x, y), x = 1, y = 1")[0]
                != lift_literals("Q(y) :- R(x, y), x = 1, y = 2")[0])
        assert (lift_literals("Q(y) :- R(x, y), x = 1, y = 1.0")
                == ("Q(y) :- R(x, y), x = $0, y = $0", (1,)))
        assert lift_literals("Q(y) :- R(x, y), x = 1, y = '1'")[1] == (1, "1")

    def test_constant_clash_compiles_concretely(self):
        db = database()
        service = BoundedQueryService(db)
        for first, second in ((0, 1), (1, -1)):
            result = service.execute(
                f"Q(y) :- R(x, y), x = {first}, x = {second}")
            assert result.bounded and result.answers == set()
            assert not result.plan_cached
        # The shape was compiled once and never served a text.
        stats = service.stats()
        assert (stats.plan_shapes.hits, stats.plan_shapes.misses) == (0, 2)
        equal = service.execute("Q(y) :- R(x, y), x = 1, x = 1.0")
        assert equal.answers == {("a'b",), (-1,)}

    def test_parse_errors_point_into_the_callers_text(self):
        service = BoundedQueryService(database())
        text = "Q(y) :- R(x, y), x = 'abc' y"
        with pytest.raises(ParseError) as error:
            service.execute(text)
        assert error.value.text == text

    def test_literals_leave_no_room_for_params(self):
        service = BoundedQueryService(database())
        with pytest.raises(ServiceError, match=r"unknown parameters \$a"):
            service.execute("Q(y) :- R(x, y), x = 1", {"a": 1})

    def test_positional_placeholders_parse_as_parameters(self):
        assert parse_query("Q(y) :- R(x, y), x = $0").parameters() == {"0"}

    def test_shape_counters_reach_stats_and_the_registry(self):
        registry = MetricsRegistry()
        service = BoundedQueryService(database(), registry=registry)
        for value in (0, 1):
            service.execute(f"Q(y) :- R(x, y), x = {value}")
        flat = registry.as_flat_dict()
        assert flat["repro_plan_cache_shape_hits_total"] == 1
        assert flat["repro_plan_cache_shape_misses_total"] == 1
        assert flat["repro_plan_cache_hits_total"] == 0
        assert flat["repro_plan_cache_misses_total"] == 1
        assert "plan shapes: 1 hits / 1 misses" in str(service.stats())

    def test_texts_of_one_shape_keep_their_own_answers(self):
        db = database()
        service = BoundedQueryService(db)
        texts = [f"Q(y) :- R(x, y), x = {value}"
                 for value in ("0", "1", "'1'", "1.0", "-1")]
        first = [service.execute(text).answers for text in texts]
        again = [service.execute(text) for text in texts]
        assert all(result.plan_cached for result in again)
        for text, answers, result in zip(texts, first, again):
            expected = evaluate(parse_query(text), db)
            assert answers == result.answers == expected, text
        # One plan, but 1 and '1' still answer from their own rows.
        assert first[1] == {("a'b",), (-1,)} and first[2] == {(0,)}

    def test_integer_and_float_constants_keep_their_types(self):
        # 7 is never stored, so the answer echoes the text's constant.
        service = BoundedQueryService(database())
        as_int = service.execute("Q(x) :- R(y, z), y = 0, x = 7")
        as_float = service.execute("Q(x) :- R(y, z), y = 0, x = 7.0")
        assert as_float.plan_cached
        assert [type(x) for (x,) in as_int.answers] == [int]
        assert [type(x) for (x,) in as_float.answers] == [float]

