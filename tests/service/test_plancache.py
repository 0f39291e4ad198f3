"""Plan cache: fingerprint keys, LRU behaviour, negative caching."""

from __future__ import annotations

import pytest

from repro import AccessConstraint, AccessSchema, Schema
from repro.query import parse_query
from repro.service.plancache import PlanCache


@pytest.fixture
def access():
    schema = Schema.from_dict({"R": ("A", "B"), "S": ("B", "C")})
    return AccessSchema(schema, [
        AccessConstraint("R", ("A",), ("B",), 3),
        AccessConstraint("S", ("B",), ("C",), 2),
    ])


def test_compile_caches_bounded_plan(access):
    cache = PlanCache(capacity=8)
    query = parse_query("Q(y) :- R(x, y), x = 1")
    entry, cached = cache.compile(query, access)
    assert not cached and entry.bounded
    again, cached = cache.compile(query, access)
    assert cached and again is entry
    info = cache.info()
    assert info.hits == 1 and info.misses == 1


def test_alpha_renamed_queries_share_an_entry(access):
    cache = PlanCache(capacity=8)
    entry1, _ = cache.compile(parse_query("Q(y) :- R(x, y), x = 1"), access)
    entry2, cached = cache.compile(parse_query("P(b) :- R(a, b), a = 1"),
                                   access)
    assert cached and entry2 is entry1


def test_inline_constants_normalize_to_the_same_key(access):
    cache = PlanCache(capacity=8)
    entry1, _ = cache.compile(parse_query("Q(y) :- R(1, y)"), access)
    _, cached = cache.compile(parse_query("Q(y) :- R(x, y), x = 1"), access)
    assert cached


def test_unbounded_queries_are_negative_cached(access):
    cache = PlanCache(capacity=8)
    query = parse_query("Q(x, y) :- R(x, y)")
    entry, _ = cache.compile(query, access)
    assert not entry.bounded and entry.plan is None
    assert entry.reason
    _, cached = cache.compile(query, access)
    assert cached


def test_lru_bound_and_evictions(access):
    cache = PlanCache(capacity=2)
    queries = [parse_query(f"Q(y) :- R(x, y), x = {i}") for i in range(4)]
    for query in queries:
        cache.compile(query, access)
    info = cache.info()
    assert info.size == 2
    assert info.evictions == 2
    # Oldest entries are gone: recompiling them misses.
    _, cached = cache.compile(queries[0], access)
    assert not cached
    # The most recent is still warm.
    _, cached = cache.compile(queries[3], access)
    assert cached


def test_distinct_constants_are_distinct_entries(access):
    cache = PlanCache(capacity=8)
    cache.compile(parse_query("Q(y) :- R(x, y), x = 1"), access)
    _, cached = cache.compile(parse_query("Q(y) :- R(x, y), x = 2"), access)
    assert not cached  # different constant, different plan


def test_different_access_schema_is_a_different_key(access):
    schema = access.schema
    other = AccessSchema(schema, [
        AccessConstraint("R", ("A",), ("B",), 7),
        AccessConstraint("S", ("B",), ("C",), 2),
    ])
    cache = PlanCache(capacity=8)
    query = parse_query("Q(y) :- R(x, y), x = 1")
    cache.compile(query, access)
    _, cached = cache.compile(query, other)
    assert not cached


def test_compile_text_skips_the_parser_on_repeat(access, monkeypatch):
    cache = PlanCache(capacity=8)
    calls = []

    def parse(text):
        calls.append(text)
        return parse_query(text)

    text = "Q(y) :- R(x, y), x = 1"
    cache.compile_text(text, access, parse)
    cache.compile_text(text, access, parse)
    cache.compile_text(text, access, parse)
    assert len(calls) == 1


def test_compile_text_shares_one_entry_per_shape(access):
    cache = PlanCache(capacity=8)
    first, cached, values = cache.compile_text(
        "Q(y) :- R(x, y), x = 1", access, parse_query)
    assert not cached and values == {"0": 1}
    second, cached, values = cache.compile_text(
        "Q(y) :- R(x, y), x = 'two'", access, parse_query)
    assert second is first and cached and values == {"0": "two"}
    assert first.parameters == {"0"}
    assert (cache.shape_info().hits, cache.shape_info().misses) == (1, 1)


def test_adding_a_constraint_changes_the_key(access):
    cache = PlanCache(capacity=8)
    query = parse_query("Q(z) :- R(x, y), S(y, z), x = 1")
    text = "Q(z) :- R(x, y), S(y, z), x = 2"
    entry, _ = cache.compile(query, access)
    shape_entry, _, _ = cache.compile_text(text, access, parse_query)
    fingerprint = access.fingerprint()
    access.add(AccessConstraint("S", ("C",), ("B",), 4))
    assert access.fingerprint() != fingerprint
    again, cached = cache.compile(query, access)
    assert not cached and again is not entry
    shape_again, cached, _ = cache.compile_text(text, access, parse_query)
    assert not cached and shape_again is not shape_entry


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        PlanCache(capacity=0)
