"""Incremental cache maintenance under writes: the delta-driven edge
cases — multi-entry deletes, fills racing writes, disk close/reopen,
and answer-cache repair (protocol details in ``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

import pytest

from repro import AccessConstraint, AccessSchema, Database, Schema
from repro.service import BoundedQueryService, FetchCache
from repro.service.plancache import AnswerCache, FetchProfile
from repro.storage.delta import ConstraintDelta, WriteDelta
from repro.storage.disk import DiskBackend
from repro.storage.encoding import readonly_view


@pytest.fixture
def db():
    schema = Schema.from_dict({"R": ("A", "B")})
    access = AccessSchema(schema, [
        AccessConstraint("R", ("A",), ("B",), 8),
        AccessConstraint("R", ("B",), ("A",), 8),
    ])
    database = Database(schema, access)
    database.insert_many("R", [(1, 10), (1, 11), (2, 10)])
    return database


@pytest.fixture
def by_a(db):
    return db.access_schema.constraints[0]


@pytest.fixture
def by_b(db):
    return db.access_schema.constraints[1]


class TestMaintainedEntries:

    def test_insert_updates_the_touched_entry_and_keeps_siblings_warm(
            self, db, by_a):
        cache = FetchCache(capacity=32)
        cache.attach_maintenance(db)
        cache.lookup(db, by_a, (1,))
        cache.lookup(db, by_a, (2,))
        db.insert("R", (1, 12))
        rows, hit = cache.lookup(db, by_a, (1,))
        assert hit and sorted(rows) == [(1, 10), (1, 11), (1, 12)]
        _, hit = cache.lookup(db, by_a, (2,))
        assert hit  # untouched X-key: no write ever dropped it
        assert cache.maintained_deltas == 1
        assert cache.maintenance_fallbacks == 0

    def test_delete_of_row_cached_in_multiple_entries(self, db, by_a, by_b):
        """One row projects into entries of *both* attached constraints
        (different X-keys); its deletion must update every cached entry
        it witnessed, in place."""
        cache = FetchCache(capacity=32)
        cache.attach_maintenance(db)
        rows_a, _ = cache.lookup(db, by_a, (1,))     # (1,10), (1,11)
        rows_b, _ = cache.lookup(db, by_b, (10,))    # (10,1), (10,2)
        assert sorted(rows_a) == [(1, 10), (1, 11)]
        assert sorted(rows_b) == [(10, 1), (10, 2)]
        assert db.delete("R", (1, 10))
        rows_a, hit_a = cache.lookup(db, by_a, (1,))
        rows_b, hit_b = cache.lookup(db, by_b, (10,))
        assert hit_a and rows_a == [(1, 11)]
        assert hit_b and rows_b == [(10, 2)]
        assert cache.maintained_deltas == 1
        assert cache.maintained_entries == 2  # both entries repaired

    def test_unobservable_write_costs_nothing(self):
        """An effective row insert whose X∪Y projection is already
        witnessed changes no fetch result: the delta carries no
        changes and every entry stays warm as-is."""
        schema = Schema.from_dict({"T": ("A", "B", "C")})
        access = AccessSchema(schema,
                              [AccessConstraint("T", ("A",), ("B",), 4)])
        database = Database(schema, access)
        database.insert("T", (1, 10, "x"))
        constraint = access.constraints[0]
        cache = FetchCache(capacity=32)
        cache.attach_maintenance(database)
        rows, _ = cache.lookup(database, constraint, (1,))
        assert rows == [(1, 10)]
        generation = database.generation("T")
        database.insert("T", (1, 10, "y"))  # second witness, same proj
        assert database.generation("T") == generation + 1
        rows, hit = cache.lookup(database, constraint, (1,))
        assert hit and rows == [(1, 10)]
        assert cache.maintained_deltas == 1
        assert cache.maintained_entries == 0  # nothing needed touching

    def test_encoded_entries_are_maintained_copy_on_write(self, db, by_a):
        cache = FetchCache(capacity=32)
        cache.attach_maintenance(db)
        code = db.dictionary.encode(1)
        (entry,), _ = cache.lookup_many_encoded(db, by_a, [code])
        served_views, served_length = entry
        db.insert("R", (1, 12))
        (fresh,), hits = cache.lookup_many_encoded(db, by_a, [code])
        assert hits == [True]
        cols, length = fresh
        assert length == 3
        assert db.dictionary.decode_rows(cols, length) == \
            {(1, 10), (1, 11), (1, 12)}
        # Copy-on-write: the views served before the write still hold
        # exactly the content they were served with.
        assert served_length == 2
        assert db.dictionary.decode_rows(served_views, served_length) == \
            {(1, 10), (1, 11)}

    def test_clear_falls_back_to_invalidation(self, db, by_a):
        cache = FetchCache(capacity=32)
        cache.attach_maintenance(db)
        cache.lookup(db, by_a, (1,))
        db.clear()
        rows, hit = cache.lookup(db, by_a, (1,))
        assert not hit and rows == []
        assert cache.maintenance_fallbacks >= 1
        assert cache.maintenance_invalidations >= 1

    def test_detach_drops_maintained_entries(self, db, by_a):
        cache = FetchCache(capacity=32)
        cache.attach_maintenance(db)
        cache.lookup(db, by_a, (1,))
        dropped = cache.detach_maintenance()
        assert dropped == 1
        # Detached: back to byte-for-byte generation-keyed behaviour.
        _, hit = cache.lookup(db, by_a, (1,))
        assert not hit
        db.insert("R", (1, 12))
        _, hit = cache.lookup(db, by_a, (1,))
        assert not hit  # a write cold-starts generation-keyed entries


def _fill(db, cache, constraint, x):
    """A fill for X-value ``x`` fetched now, keyed and shaped as
    ``lookup_many_encoded`` stores it."""
    code = db.dictionary.lookup_codes([x])[0]
    cols, length = db.fetch_many_encoded(constraint, [code])[0]
    return ((cache._slot(constraint), code),
            (tuple(readonly_view(column) for column in cols), length))


class TestFillRacingWrite:
    """The store rule for fills whose fetch raced a concurrent write:
    a fill stamped *before* an already-applied delta is discarded (it
    may predate the write); a fill at the current epoch stores and
    later deltas converge it."""

    def test_stale_fill_is_discarded(self, db, by_a):
        cache = FetchCache(capacity=32)
        cache.attach_maintenance(db)
        cache.lookup(db, by_a, (2,))  # establish the relation's epoch
        # Interleave by hand what two threads would do: the reader
        # stamps its fill with the pre-write generation and fetches...
        stamp = db.generation("R")
        schema = db.backend.access_schema
        stale_fill = _fill(db, cache, by_a, 1)
        # ...then the writer's insert lands (delta applied, epoch
        # advances past the stamp) before the reader stores.
        db.insert("R", (1, 12))
        cache._store_maintained("R", stamp, schema, [stale_fill])
        rows, hit = cache.lookup(db, by_a, (1,))
        assert not hit  # the stale fill must not have stored
        assert sorted(rows) == [(1, 10), (1, 11), (1, 12)]
        _, hit = cache.lookup(db, by_a, (1,))
        assert hit

    def test_current_fill_stores_and_next_delta_maintains_it(
            self, db, by_a):
        cache = FetchCache(capacity=32)
        cache.attach_maintenance(db)
        cache.lookup(db, by_a, (2,))
        stamp = db.generation("R")
        cache._store_maintained("R", stamp, db.backend.access_schema,
                                [_fill(db, cache, by_a, 1)])
        db.insert("R", (1, 12))
        rows, hit = cache.lookup(db, by_a, (1,))
        assert hit and sorted(rows) == [(1, 10), (1, 11), (1, 12)]

    def test_concurrent_writer_converges(self, db, by_a):
        """A live interleaving of the same race: reader batches racing
        a writer thread must end bit-identical to storage once the
        writer stops."""
        import threading

        cache = FetchCache(capacity=64)
        cache.attach_maintenance(db)

        def writer():
            for i in range(100, 160):
                db.insert("R", (1, i))
                if i % 3 == 0:
                    db.delete("R", (1, i - 2))

        thread = threading.Thread(target=writer)
        thread.start()
        for _ in range(200):
            cache.lookup(db, by_a, (1,))
        thread.join(timeout=30)
        assert not thread.is_alive()
        rows, _ = cache.lookup(db, by_a, (1,))
        assert sorted(rows) == sorted(db.fetch_many(by_a, [(1,)])[0])


class TestDiskReopen:
    """Durable generations across a DiskBackend close/reopen must not
    let a cache resurrect entries whose rows were dropped, nor serve
    around writes that landed while it was not listening."""

    def _open(self, tmp_path):
        schema = Schema.from_dict({"R": ("A", "B")})
        access = AccessSchema(schema,
                              [AccessConstraint("R", ("A",), ("B",), 8)])
        backend = DiskBackend(schema, tmp_path)
        return Database(schema, access, backend=backend)

    def test_reattach_after_reopen_never_resurrects(self, tmp_path):
        db = self._open(tmp_path)
        db.insert_many("R", [(1, 10), (1, 11)])
        constraint = db.access_schema.constraints[0]
        cache = FetchCache(capacity=32)
        cache.attach_maintenance(db)
        cache.lookup(db, constraint, (1,))
        assert db.delete("R", (1, 10))  # maintained in place
        rows, hit = cache.lookup(db, constraint, (1,))
        assert hit and rows == [(1, 11)]
        db.backend.close()

        db2 = self._open(tmp_path)
        try:
            # A write lands before the cache is listening again.
            db2.insert("R", (1, 12))
            cache.attach_maintenance(db2)  # detaches + purges first
            rows, hit = cache.lookup(db2, constraint, (1,))
            assert not hit
            assert sorted(rows) == [(1, 11), (1, 12)]
            assert (1, 10) not in rows  # the dropped row stayed dropped
        finally:
            db2.backend.close()

    def test_unattached_cache_cannot_serve_across_backends(self, tmp_path):
        """Without a reattach the old epochs cannot validate against
        the reopened backend once it diverges: generations are durable
        and strictly monotonic, so any post-reopen write moves the
        generation past every pre-close epoch."""
        db = self._open(tmp_path)
        db.insert_many("R", [(1, 10), (1, 11)])
        constraint = db.access_schema.constraints[0]
        cache = FetchCache(capacity=32)
        cache.attach_maintenance(db)
        cache.lookup(db, constraint, (1,))
        generation = db.generation("R")
        db.backend.close()

        db2 = self._open(tmp_path)
        try:
            assert db2.generation("R") == generation  # durable epochs
            db2.insert("R", (1, 12))  # cache is not listening
            rows, hit = cache.lookup(db2, constraint, (1,))
            assert not hit  # epoch lags the durable generation: dead
            assert sorted(rows) == [(1, 10), (1, 11), (1, 12)]
        finally:
            db2.backend.close()

    def test_service_on_reopened_backend_sees_exact_rows(self, tmp_path):
        db = self._open(tmp_path)
        db.insert_many("R", [(1, 10), (1, 11)])
        service = BoundedQueryService(db)
        service.register_template("t", "Q(y) :- R(x, y), x = $a")
        assert service.execute_template("t", {"a": 1}).answers == \
            {(10,), (11,)}
        db.delete("R", (1, 10))
        assert service.execute_template("t", {"a": 1}).answers == {(11,)}
        db.backend.close()

        db2 = self._open(tmp_path)
        try:
            service2 = BoundedQueryService(db2)
            service2.register_template("t", "Q(y) :- R(x, y), x = $a")
            assert service2.execute_template("t", {"a": 1}).answers == \
                {(11,)}
        finally:
            db2.backend.close()


class TestAnswerCache:

    def _profile(self, db, constraint):
        return FetchProfile(relations=frozenset({constraint.relation_name}),
                            constraints={constraint.relation_name:
                                         frozenset({constraint})},
                            maintainable=True,
                            schema=db.access_schema)

    def test_survives_only_exact_unobservable_deltas(self, db, by_a):
        profile = self._profile(db, by_a)
        dependencies = {"R": 5}
        quiet = WriteDelta("R", 5, 6, {by_a: ConstraintDelta()})
        assert AnswerCache._survives(quiet, dependencies, profile)
        observable = WriteDelta(
            "R", 5, 6,
            {by_a: ConstraintDelta(added=[(0, (0, 3))])})
        assert not AnswerCache._survives(observable, dependencies, profile)
        gapped = WriteDelta("R", 7, 8, {by_a: ConstraintDelta()})
        assert not AnswerCache._survives(gapped, dependencies, profile)
        wipe = WriteDelta.wipe("R", 5, 6)
        assert not AnswerCache._survives(wipe, dependencies, profile)

    def test_unobservable_write_advances_entry_in_place(self):
        schema = Schema.from_dict({"T": ("A", "B", "C")})
        access = AccessSchema(schema,
                              [AccessConstraint("T", ("A",), ("B",), 4)])
        database = Database(schema, access)
        database.insert("T", (1, 10, "x"))
        constraint = access.constraints[0]
        cache = AnswerCache(capacity=8)
        database.backend.add_write_listener(cache._on_delta)
        answers = frozenset({(10,)})
        cache.store("k", answers, {"T": database.generation("T")},
                    self._profile(database, constraint))
        database.insert("T", (1, 10, "y"))  # same projection: repaired
        assert cache.lookup(database, "k") == answers
        assert cache.maintained_entries == 1
        database.insert("T", (1, 11, "z"))  # new projection: dropped
        assert cache.lookup(database, "k") is None
        assert cache.maintenance_invalidations == 1

    def test_service_answer_cache_end_to_end(self, db):
        service = BoundedQueryService(db, answer_cache_size=16)
        service.register_template("t", "Q(y) :- R(x, y), x = $a")
        first = service.execute_template("t", {"a": 1})
        assert not first.answers_cached
        second = service.execute_template("t", {"a": 1})
        assert second.answers_cached
        assert second.answers == first.answers == {(10,), (11,)}
        db.insert("R", (1, 12))  # observable: the entry must go
        third = service.execute_template("t", {"a": 1})
        assert not third.answers_cached
        assert third.answers == {(10,), (11,), (12,)}
        # Ineffective write: no generation bump, the entry stands.
        db.insert("R", (1, 12))
        fourth = service.execute_template("t", {"a": 1})
        assert fourth.answers_cached and fourth.answers == third.answers

    def test_lookup_validates_generations_independently(self, db, by_a):
        """Even if the delta listener were never wired, a stale
        dependency generation is unservable."""
        cache = AnswerCache(capacity=8)  # deliberately not listening
        cache.store("k", frozenset({(10,)}),
                    {"R": db.generation("R")}, self._profile(db, by_a))
        assert cache.lookup(db, "k") == frozenset({(10,)})
        db.insert("R", (3, 30))
        assert cache.lookup(db, "k") is None
        assert cache.maintenance_invalidations == 1
