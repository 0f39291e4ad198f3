"""Storage-engine conformance: every shipped engine answers the fetch
surface exactly like an index freshly built from its own rows, across
random insert / delete / clear / re-attach sequences.

After every step, for each attached constraint plus the structurally
re-created variants analysis code requests (narrower Y, reordered Y,
permuted X), five answers must agree as row multisets, for stored and
never-stored keys alike, duplicates included:

* ``fetch_many`` and ``fetch_flat`` (value keys);
* ``fetch_many_encoded`` (code keys), decoded;
* ``fetch_flat_encoded`` (code keys), decoded;
* an :class:`~repro.storage.indexes.AccessIndex` built from ``scan``
  under the engine's own dictionary.

For a requested constraint equal to an attached one, each key's
``fetch_many_encoded`` columns must also equal the fresh index's group
code for code, row order included: groups are sorted by Y codes, so
every copy of an index lays its rows out alike.  A projected or
deduplicated resolution keeps only the multiset check, since its order
follows the wider attached index.

The four reads are adapters over each engine's one ``read_codes``;
procshard answers in worker-bucket order, so the aligned reads check
its realignment.

A value-level ``fetch_many`` of never-stored X-values must also leave
the engine's dictionary untouched: reads never intern values.

Two more legs ride on the same write sequences:

* **the fetch cache** — decoded ``FetchCache.lookup_many_encoded`` and
  ``CachingExecutor``'s fetch hook equal the fresh index too, and so do
  the value adapters ``lookup`` / ``lookup_many``, without interning.
  An attached cache, a detached one (which reads through) and a
  one-entry cache forced into its bypass live through each sequence;
* **the evaluators** — on the covered ``QUERIES``, ``Executor``,
  ``CachingExecutor``, ``interpret_logical`` and the naive evaluator
  agree, and the executor's accounting passes ``fetch_audit.audited``.

This is the harness a new engine must pass — add a fixture branch for
it in ``engine``.  Engine instances are module-scoped (the
process-sharded fleet spawns once) and reset at the start of every
example.
"""

from __future__ import annotations

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import AccessConstraint, AccessSchema, Database, Schema
from repro.core import analyze_coverage
from repro.engine import build_bounded_plan, optimize
from repro.engine.executor import AccessStats
from repro.engine.naive import evaluate
from repro.query import parse_query
from repro.service import CachingExecutor, FetchCache
from repro.storage.backend import MemoryBackend
from repro.storage.disk import DiskBackend
from repro.storage.indexes import AccessIndex

from fetch_audit import audited

SCHEMA = Schema.from_dict({"R": ("A", "B", "C"), "S": ("D",)})

#: Re-attach draws a non-empty subset of these: a scalar X with a wide
#: Y, a composite X, a narrow Y that collapses witnesses, and empty Xs
#: (one wide enough that a narrower request projects to one column).
POOL = (
    ("R", ("A",), ("B", "C")),
    ("R", ("A", "B"), ("C",)),
    ("R", ("C",), ("A",)),
    ("R", (), ("B", "C")),
    ("S", (), ("D",)),
)

#: One small domain for every column; ``0`` and ``"0"`` are distinct
#: values and must get distinct codes.
VALUES = (0, 1, 2, "0", "a")
#: Never written anywhere, so a conforming engine never interns them.
NEVER = (10**6, "never-stored")

#: The evaluator leg's queries: point lookups, a composite key, a
#: reverse key, a join through S's empty-X constraint, a self-join
#: chain, and a never-stored constant.
QUERIES = tuple(parse_query(text) for text in (
    "Q(b, c) :- R(a, b, c), a = 1",
    "Q(c) :- R(a, b, c), a = 0, b = 'a'",
    "Q(a, b) :- R(a, b, c), c = 2",
    "Q(d, c) :- S(d), R(a, b, c), a = d",
    "Q(y) :- R(a, b, c), R(c, y, z), a = 1",
    "Q(b) :- R(a, b, c), a = 'never-stored'",
))

values = st.sampled_from(VALUES)
r_rows = st.lists(st.tuples(values, values, values), max_size=10)
s_rows = st.lists(st.tuples(values), max_size=3)
access_schemas = st.lists(st.sampled_from(range(len(POOL))), min_size=1,
                          unique=True)
steps = st.sampled_from(("insert", "insert", "delete", "clear", "attach"))


@pytest.fixture(scope="module",
                params=["memory", "disk", "procshard", "procshard-replica"])
def engine(request, tmp_path_factory):
    if request.param == "memory":
        backend = MemoryBackend(SCHEMA)
    elif request.param == "disk":
        backend = DiskBackend(SCHEMA, tmp_path_factory.mktemp("conformance"))
    elif request.param == "procshard":
        from repro.storage.procshard import ProcessShardedBackend
        # A zero fan-out threshold sends every encoded read over a pipe.
        backend = ProcessShardedBackend(SCHEMA, workers=2,
                                        fanout_threshold=0)
    else:
        from repro.storage.procshard import ProcessShardedBackend
        # A durable writer plus a WAL-shipped replica: encoded reads are
        # load-balanced between the shard workers and the replica.
        backend = ProcessShardedBackend(
            SCHEMA, workers=2, replicas=1, fanout_threshold=0,
            data_dir=tmp_path_factory.mktemp("conformance-replica"))
    yield backend
    backend.close()


def _access(pool_ids) -> AccessSchema:
    """Fresh constraint objects on every attach, as a reloaded schema
    would have."""
    return AccessSchema(SCHEMA, [
        AccessConstraint(relation, x, y, 64)
        for relation, x, y in (POOL[i] for i in sorted(pool_ids))])


def _requested(access: AccessSchema) -> list[AccessConstraint]:
    """The attached constraints plus structurally re-created variants
    that resolve onto them through a key permutation or a row
    projection."""
    out = []
    for c in access:
        out.append(AccessConstraint(c.relation_name, c.x, c.y, 64))
        if len(c.y) > 1:
            out.append(AccessConstraint(c.relation_name, c.x, c.y[:1], 64))
            out.append(AccessConstraint(c.relation_name, c.x, c.y[::-1], 64))
        if len(c.x) > 1:
            out.append(AccessConstraint(c.relation_name, c.x[::-1], c.y, 64))
    return out


def _decode(dictionary, cols, length) -> Counter:
    assert all(len(col) == length for col in cols)
    return Counter(tuple(dictionary.decode(code) for code in row)
                   for row in zip(*cols))


def _expected(backend):
    """Per requested constraint: the value keys (the whole domain plus
    never-stored keys), a fresh index's rows for each, the code keys of
    the ones the engine has interned with their positions, and — when
    the constraint is attached as requested — the fresh index's code
    columns for each of those."""
    dictionary = backend.dictionary
    attached = list(backend.access_schema)
    for requested in _requested(backend.access_schema):
        # Every scanned value is stored, so the engine's dictionary
        # encodes the oracle's rows without interning.
        size = len(dictionary)
        oracle = AccessIndex(requested,
                             requested.validate_against(SCHEMA),
                             dictionary)
        for row in backend.scan(requested.relation_name):
            oracle.add(row)
        assert len(dictionary) == size, "a scanned value was not interned"
        width = len(requested.x)
        keys = list(dict.fromkeys(
            [*itertools.product(VALUES, repeat=width),
             *((value,) * width for value in NEVER)]))
        want = [Counter(oracle.lookup(key)) for key in keys]
        # Code keys exist only for values the engine has interned; the
        # rest of the domain is still covered, as never-stored keys.
        known = [i for i, key in enumerate(keys)
                 if all(value in dictionary for value in key)]
        codes = [tuple(dictionary.encode(value) for value in keys[i])
                 for i in known]
        if width == 1:
            codes = [key[0] for key in codes]
        exact = None
        if requested in attached:
            empty = [[] for _ in range(oracle.width)]
            exact = [empty if group is None
                     else [list(column) for column in group.cols]
                     for group in map(oracle.encoded.get, codes)]
        yield requested, keys, want, known, codes, exact


def _check(backend, expected) -> None:
    dictionary = backend.dictionary
    for requested, keys, want, known, codes, exact in expected:
        size = len(dictionary)
        got = backend.fetch_many(requested, keys + keys[::-1])
        flat_rows = backend.fetch_flat(requested, keys)
        assert len(dictionary) == size, "a value-level read interned values"
        assert [Counter(rows) for rows in got] == want + want[::-1]
        assert Counter(flat_rows) == sum(want, Counter())
        if not known:
            continue
        local_reads = backend.counters().get("local_reads_total")
        # Duplicate keys and a never-stored sentinel in one batch: on
        # procshard the answer comes back in worker-bucket order (under
        # a key permutation too) and must realign per key.
        width = len(requested.x)
        unknown = [-1 if width == 1 else (-1,) * width] if width else []
        many = backend.fetch_many_encoded(requested,
                                          unknown + codes + codes[::-1])
        mine = [want[i] for i in known]
        assert [_decode(dictionary, *entry) for entry in many] == \
            [Counter()] * len(unknown) + mine + mine[::-1]
        if exact is not None:
            assert [[list(column) for column in cols]
                    for cols, _ in many[len(unknown):]] == \
                exact + exact[::-1], "a group's row order differs"
        flat = backend.fetch_flat_encoded(requested, codes)
        assert _decode(dictionary, *flat) == sum(
            (want[i] for i in known), Counter())
        # On the process-sharded engine both encoded reads crossed a pipe.
        assert backend.counters().get("local_reads_total") == local_reads


def _check_cache(db, cache, expected, unread=None) -> None:
    """The cache leg for one cache.  Given ``unread``, a source of
    fresh sentinel codes, the cache must hold one entry and every hook
    call is forced to read through: a probe on a fresh code fills an
    entry nothing will read, which triggers the bypass for the next
    fetch step (a constraint the cache cannot maintain reads through
    anyway).  The value adapters are checked on the other two caches."""
    dictionary = db.dictionary
    executor = CachingExecutor(db, cache)
    for requested, keys, want, known, codes, _ in expected:
        if unread is None:
            size = len(dictionary)
            rows_per_x, _ = cache.lookup_many(db, requested, keys)
            rows, _ = cache.lookup(db, requested, keys[-1])
            assert len(dictionary) == size, "a cache lookup interned values"
            assert [Counter(rows) for rows in rows_per_x] == want
            assert Counter(rows) == want[-1]
        if not known:
            continue
        entries, _ = cache.lookup_many_encoded(db, requested, codes)
        assert [_decode(dictionary, *entry) for entry in entries] == \
            [want[i] for i in known]
        width = len(requested.x)
        forced = unread is not None and width > 0
        if forced:
            probe = next(unread)
            cache.lookup_many_encoded(
                db, requested, [probe if width == 1 else (probe,) * width])
        bypassed = cache.bypassed_lookups
        stats = AccessStats()
        cols, length = executor._fetch_flat_encoded(requested, codes, stats)
        assert _decode(dictionary, cols, length) == sum(
            (want[i] for i in known), Counter())
        if forced:
            assert cache.bypassed_lookups == bypassed + len(codes)
        assert stats.index_lookups == len(codes) == \
            stats.fetch_cache_hits + stats.fetch_cache_misses
        assert stats.tuples_fetched + stats.tuples_from_cache == length


def _check_evaluators(db, cache) -> None:
    """The evaluator leg, on each query the access schema covers."""
    for query in QUERIES:
        coverage = analyze_coverage(query, db.access_schema)
        if not coverage.is_covered:
            continue
        plan = build_bounded_plan(coverage)
        physical = optimize(plan)
        result, reference = audited(db, physical, plan)
        cached = CachingExecutor(db, cache).execute(physical)
        assert result.answers == cached.answers == reference.answers \
            == evaluate(query, db)
        stats = cached.stats
        assert stats.index_lookups == result.stats.index_lookups
        assert (stats.tuples_fetched + stats.tuples_from_cache
                == result.stats.tuples_fetched)


def _sequence(db, data):
    """Reset the engine, then run a random write sequence; yields after
    the initial attach and after every step."""
    db.clear()
    db.attach_access_schema(_access(data.draw(access_schemas)))
    yield
    engine = db.backend
    for _ in range(data.draw(st.integers(1, 6), label="steps")):
        step = data.draw(steps)
        if step == "insert":
            engine.insert_rows("R", data.draw(r_rows))
            engine.insert_rows("S", data.draw(s_rows))
        elif step == "delete":
            for relation, absent in (("R", r_rows), ("S", s_rows)):
                stored = engine.scan(relation)
                victims = (data.draw(st.lists(st.sampled_from(stored),
                                              max_size=6))
                           if stored else [])
                # Plus random rows, mostly absent: those must be skipped.
                engine.delete_rows(relation, victims + data.draw(absent))
        elif step == "clear":
            engine.clear()
        else:
            db.attach_access_schema(_access(data.draw(access_schemas)))
        yield


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fetch_surfaces_agree_with_a_fresh_index(engine, data):
    db = Database(SCHEMA, backend=engine)
    attached, detached, starved = (FetchCache(capacity=4096),
                                   FetchCache(capacity=4096),
                                   FetchCache(capacity=1))
    attached.attach_maintenance(db)
    starved.attach_maintenance(db)
    unread = itertools.count(-1, -1)
    try:
        for _ in _sequence(db, data):
            expected = list(_expected(engine))
            _check(engine, expected)
            _check_cache(db, attached, expected)
            _check_cache(db, detached, expected)
            assert len(detached) == 0, "a detached cache stored a fill"
            _check_cache(db, starved, expected, unread)
    finally:
        attached.detach_maintenance()
        starved.detach_maintenance()


@pytest.mark.parametrize("engine", ["memory", "disk", "procshard"],
                         indirect=True)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_evaluators_agree_on_covered_queries(engine, data):
    db = Database(SCHEMA, backend=engine)
    cache = FetchCache(capacity=4)
    cache.attach_maintenance(db)
    try:
        for _ in _sequence(db, data):
            _check_evaluators(db, cache)
    finally:
        cache.detach_maintenance()
