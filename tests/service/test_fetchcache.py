"""Fetch cache: hit/miss accounting, LRU bound, write invalidation."""

from __future__ import annotations

import pytest

from repro import AccessConstraint, AccessSchema, Database, Schema
from repro.engine import Executor
from repro.engine.naive import evaluate
from repro.query import parse_query
from repro.service import BoundedQueryService, CachingExecutor, FetchCache


@pytest.fixture
def db():
    schema = Schema.from_dict({"R": ("A", "B")})
    access = AccessSchema(schema, [AccessConstraint("R", ("A",), ("B",), 5)])
    database = Database(schema, access)
    database.insert_many("R", [(1, 10), (1, 11), (2, 20)])
    return database


@pytest.fixture
def constraint(db):
    return db.access_schema.constraints[0]


def test_lookup_reads_through_and_then_hits(db, constraint):
    cache = FetchCache(capacity=16)
    rows, hit = cache.lookup(db, constraint, (1,))
    assert not hit and sorted(rows) == [(1, 10), (1, 11)]
    rows2, hit = cache.lookup(db, constraint, (1,))
    assert hit and rows2 == rows
    info = cache.info()
    assert info.hits == 1 and info.misses == 1
    assert cache.max_entry_rows == 2


def test_insert_invalidates_exactly_via_generation(db, constraint):
    cache = FetchCache(capacity=16)
    cache.lookup(db, constraint, (1,))
    db.insert("R", (1, 12))
    rows, hit = cache.lookup(db, constraint, (1,))
    assert not hit
    assert sorted(rows) == [(1, 10), (1, 11), (1, 12)]


def test_delete_invalidates_via_generation(db, constraint):
    cache = FetchCache(capacity=16)
    cache.lookup(db, constraint, (1,))
    assert db.delete("R", (1, 10))
    rows, hit = cache.lookup(db, constraint, (1,))
    assert not hit
    assert sorted(rows) == [(1, 11)]


def test_lookup_many_splits_hits_and_misses(db, constraint):
    cache = FetchCache(capacity=16)
    cache.lookup(db, constraint, (1,))
    rows_per_x, hits = cache.lookup_many(
        db, constraint, [(1,), (2,), (3,)])
    assert hits == [True, False, False]
    assert sorted(rows_per_x[0]) == [(1, 10), (1, 11)]
    assert rows_per_x[1] == [(2, 20)]
    assert rows_per_x[2] == []
    # The whole batch hits the second time around.
    _, hits = cache.lookup_many(db, constraint, [(1,), (2,), (3,)])
    assert hits == [True, True, True]
    info = cache.info()
    # 1 miss from the warming lookup, 2 from the first batch; 1 + 3 hits.
    assert info.hits == 4 and info.misses == 3


def test_duplicate_insert_does_not_invalidate(db, constraint):
    cache = FetchCache(capacity=16)
    cache.lookup(db, constraint, (1,))
    db.insert("R", (1, 10))  # already present: no effective write
    _, hit = cache.lookup(db, constraint, (1,))
    assert hit


def test_lru_bound_holds(db, constraint):
    db.insert_many("R", [(i, i * 100) for i in range(3, 50)])
    cache = FetchCache(capacity=8)
    for i in range(40):
        cache.lookup(db, constraint, (i,))
    info = cache.info()
    assert info.size == 8
    assert info.evictions == 32


class TestEncodedEntries:
    """The cache's entries: code keys, readonly column views, no row
    materialization."""

    def test_lookup_many_encoded_reads_through_then_hits(
            self, db, constraint):
        cache = FetchCache(capacity=16)
        code = db.dictionary.encode(1)
        entries, hits = cache.lookup_many_encoded(
            db, constraint, [code])
        assert hits == [False]
        (cols, length), = entries
        assert length == 2
        assert db.dictionary.decode_rows(cols, length) == \
            {(1, 10), (1, 11)}
        # Warm: the very same readonly views come back by reference.
        entries2, hits2 = cache.lookup_many_encoded(
            db, constraint, [code])
        assert hits2 == [True]
        assert entries2[0] is entries[0]
        assert all(isinstance(column, memoryview) and column.readonly
                   for column in entries2[0][0])
        assert cache.encoded_hits == 1

    def test_writes_invalidate_encoded_entries_via_generation(
            self, db, constraint):
        cache = FetchCache(capacity=16)
        code = db.dictionary.encode(1)
        cache.lookup_many_encoded(db, constraint, [code])
        db.insert("R", (1, 12))
        entries, hits = cache.lookup_many_encoded(
            db, constraint, [code])
        assert hits == [False]
        cols, length = entries[0]
        assert db.dictionary.decode_rows(cols, length) == \
            {(1, 10), (1, 11), (1, 12)}

    def test_max_entry_rows_tracks_encoded_lengths(self, db, constraint):
        cache = FetchCache(capacity=16)
        codes = [db.dictionary.encode(value) for value in (1, 2, 3)]
        cache.lookup_many_encoded(db, constraint, codes)
        assert cache.max_entry_rows == 2  # x=1 holds two rows

    def test_caching_executor_concatenates_mixed_hits_and_misses(
            self, db, constraint):
        from repro.engine.executor import AccessStats
        executor = CachingExecutor(db, FetchCache(capacity=16))
        codes = [db.dictionary.encode(value) for value in (1, 9)]
        stats = AccessStats()
        executor._fetch_flat_encoded(constraint, codes[:1], stats)  # miss
        single_cols, single_total = executor._fetch_flat_encoded(
            constraint, codes[:1], stats)  # single-key zero-copy hit
        assert db.dictionary.decode_rows(single_cols, single_total) == \
            {(1, 10), (1, 11)}
        cols, total = executor._fetch_flat_encoded(
            constraint, codes + [db.dictionary.encode(2)], stats)
        assert db.dictionary.decode_rows(cols, total) == \
            {(1, 10), (1, 11), (2, 20)}
        assert stats.fetch_cache_hits == 2  # single-key warm + batch hit
        assert stats.tuples_from_cache == 4
        assert stats.tuples_fetched == 3


def test_caching_executor_matches_plain_executor(db):
    from repro.core import is_boundedly_evaluable
    decision = is_boundedly_evaluable(parse_query("Q(y) :- R(x, y), x = 1"),
                                      db.access_schema)
    plan = decision.witness["plan"]
    plain = Executor(db).execute(plan)
    cache = FetchCache(capacity=16)
    cold = CachingExecutor(db, cache).execute(plan)
    warm = CachingExecutor(db, cache).execute(plan)
    assert plain.answers == cold.answers == warm.answers
    assert cold.stats.tuples_fetched == plain.stats.tuples_fetched
    assert cold.stats.fetch_cache_misses > 0
    assert warm.stats.tuples_fetched == 0
    assert warm.stats.tuples_from_cache == plain.stats.tuples_fetched
    assert warm.stats.fetch_cache_hits == warm.stats.index_lookups


def test_no_cache_means_plain_behaviour(db):
    from repro.core import is_boundedly_evaluable
    decision = is_boundedly_evaluable(parse_query("Q(y) :- R(x, y), x = 1"),
                                      db.access_schema)
    plan = decision.witness["plan"]
    result = CachingExecutor(db, None).execute(plan)
    assert result.stats.fetch_cache_hits == 0
    assert result.stats.fetch_cache_misses == 0
    assert result.answers == {(10,), (11,)}


class TestServiceNeverServesStaleRows:
    """Acceptance: interleaved writes are always visible to the next
    request, whatever mix of template/raw/batch traffic came before."""

    def test_insert_between_template_requests(self, db):
        service = BoundedQueryService(db)
        service.register_template("t", "Q(y) :- R(x, y), x = $a")
        assert service.execute_template("t", {"a": 1}).answers == \
            {(10,), (11,)}
        db.insert("R", (1, 12))
        assert service.execute_template("t", {"a": 1}).answers == \
            {(10,), (11,), (12,)}
        db.insert_many("R", [(1, 13), (2, 21)])
        assert service.execute_template("t", {"a": 1}).answers == \
            {(10,), (11,), (12,), (13,)}
        assert service.execute_template("t", {"a": 2}).answers == \
            {(20,), (21,)}

    def test_writes_interleaved_with_raw_queries(self, db):
        service = BoundedQueryService(db)
        text = "Q(y) :- R(x, y), x = 2"
        for extra in range(21, 26):
            expected = evaluate(parse_query(text), db)
            assert service.execute(text).answers == expected
            db.insert("R", (2, extra))
        assert service.execute(text).answers == \
            {(20,), (21,), (22,), (23,), (24,), (25,)}

    def test_fresh_rows_reach_every_batch_request(self, db):
        from repro.service import BatchRequest
        service = BoundedQueryService(db)
        service.register_template("t", "Q(y) :- R(x, y), x = $a")
        service.execute_template("t", {"a": 1})  # warm the cache
        db.insert("R", (1, 99))
        report = service.execute_batch(
            [BatchRequest(template="t", params={"a": 1})
             for _ in range(16)], max_workers=4)
        assert report.errors == 0
        for outcome in report.outcomes:
            assert outcome.result.answers == {(10,), (11,), (99,)}

    @pytest.mark.parametrize("backend_name",
                             ["memory", "disk", "procshard"])
    def test_deletes_interleaved_with_service_traffic(self, backend_name,
                                                      tmp_path):
        """Writes *and deletes* between requests are always visible on
        every storage engine — cached fetches never outlive their
        generation."""
        from repro.storage.backend import make_backend
        schema = Schema.from_dict({"R": ("A", "B")})
        access = AccessSchema(schema,
                              [AccessConstraint("R", ("A",), ("B",), 8)])
        database = Database(
            schema, access,
            backend=make_backend(backend_name, schema, workers=2,
                                 data_dir=tmp_path))
        database.insert_many("R", [(1, 10), (1, 11), (2, 20)])
        service = BoundedQueryService(database)
        service.register_template("t", "Q(y) :- R(x, y), x = $a")
        assert service.execute_template("t", {"a": 1}).answers == \
            {(10,), (11,)}
        database.delete("R", (1, 10))
        assert service.execute_template("t", {"a": 1}).answers == {(11,)}
        database.insert("R", (1, 12))
        database.delete("R", (1, 11))
        assert service.execute_template("t", {"a": 1}).answers == {(12,)}
        assert service.execute_template("t", {"a": 2}).answers == {(20,)}

    @pytest.mark.parametrize("backend_name",
                             ["memory", "disk", "procshard"])
    def test_concurrent_writer_and_batches_converge(self, backend_name,
                                                    tmp_path):
        """A writer racing concurrent service batches: every batch
        answer reflects some prefix-consistent state, and once writes
        stop the service observes the final rows exactly."""
        import threading

        from repro.service import BatchRequest
        from repro.storage.backend import make_backend
        schema = Schema.from_dict({"R": ("A", "B")})
        access = AccessSchema(schema,
                              [AccessConstraint("R", ("A",), ("B",), 256)])
        database = Database(
            schema, access,
            backend=make_backend(backend_name, schema, workers=2,
                                 data_dir=tmp_path))
        database.insert("R", (1, 0))
        service = BoundedQueryService(database)
        service.register_template("t", "Q(y) :- R(x, y), x = $a")

        def writer():
            for i in range(1, 60):
                database.insert("R", (1, i))
                if i % 4 == 0:
                    database.delete("R", (1, i - 3))
        thread = threading.Thread(target=writer)
        thread.start()
        for _ in range(6):
            report = service.execute_batch(
                [BatchRequest(template="t", params={"a": 1})
                 for _ in range(8)], max_workers=4)
            assert report.errors == 0
        thread.join(timeout=30)
        expected = {(row[1],)
                    for row in database.relation_tuples("R")
                    if row[0] == 1}
        assert service.execute_template("t", {"a": 1}).answers == expected
