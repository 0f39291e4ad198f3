"""Incremental cache maintenance under writes: the delta-driven edge
cases — multi-entry deletes, fills racing writes, disk close/reopen and
late, gapped or missing deltas (protocol details in
``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

import pytest

from repro import AccessConstraint, AccessSchema, Database, Schema
from repro.service import BoundedQueryService, FetchCache
from repro.storage.delta import WriteDelta
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
        # Detached: every lookup reads through, nothing is stored.
        rows, hit = cache.lookup(db, by_a, (1,))
        assert not hit and sorted(rows) == [(1, 10), (1, 11)]
        db.insert("R", (1, 12))
        rows, hit = cache.lookup(db, by_a, (1,))
        assert not hit and sorted(rows) == [(1, 10), (1, 11), (1, 12)]
        assert len(cache) == 0


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


class TestDeltaStream:
    """Deltas that are not the next exact step of the stream: a late
    one is already reflected, a gapped or wiped one invalidates only
    the relation it names, and without the stream at all the epoch
    check alone keeps stale entries unservable."""

    def test_late_delta_is_already_reflected(self, db, by_a):
        cache = FetchCache(capacity=32)
        cache.attach_maintenance(db)
        cache.lookup(db, by_a, (1,))
        generation = db.generation("R")
        db.insert("R", (1, 12))
        one, = db.dictionary.lookup_codes([1])
        key = (cache._slots[by_a], one)
        entry = cache._entries.get(key, count=False)

        def read(constraint, keys):
            raise AssertionError("a late delta must not be read")
        # Redelivered: applying it again would replace the entry.
        cache._on_delta(WriteDelta("R", generation, generation + 1,
                                   {by_a: [one]}, read))
        assert cache.maintained_deltas == 1
        assert cache._entries.get(key, count=False) is entry
        rows, hit = cache.lookup(db, by_a, (1,))
        assert hit and sorted(rows) == [(1, 10), (1, 11), (1, 12)]
        assert cache.maintenance_fallbacks == 0

    def test_gapped_delta_invalidates_the_relation(self, db, by_a):
        cache = FetchCache(capacity=32)
        cache.attach_maintenance(db)
        cache.lookup(db, by_a, (1,))
        generation = db.generation("R")
        cache._on_delta(WriteDelta("R", generation + 1, generation + 2,
                                   {by_a: []}))
        assert cache.maintenance_fallbacks == 1
        assert cache.maintenance_invalidations == 1
        assert len(cache) == 0
        rows, hit = cache.lookup(db, by_a, (1,))
        assert not hit and sorted(rows) == [(1, 10), (1, 11)]

    def test_wipe_invalidates_only_its_relation(self):
        schema = Schema.from_dict({"R": ("A", "B"), "S": ("C", "D")})
        access = AccessSchema(schema, [
            AccessConstraint("R", ("A",), ("B",), 8),
            AccessConstraint("S", ("C",), ("D",), 8),
        ])
        database = Database(schema, access)
        database.insert("R", (1, 10))
        database.insert("S", (2, 20))
        by_a, by_c = access.constraints
        cache = FetchCache(capacity=32)
        cache.attach_maintenance(database)
        cache.lookup(database, by_a, (1,))
        cache.lookup(database, by_c, (2,))
        generation = database.generation("R")
        cache._on_delta(WriteDelta.wipe("R", generation, generation + 1))
        assert cache.maintenance_invalidations == 1
        assert len(cache) == 1
        rows, hit = cache.lookup(database, by_c, (2,))
        assert hit and rows == [(2, 20)]

    def test_unheard_write_leaves_entries_unservable(self, db, by_a):
        """With the listener unwired behind the cache's back, a write
        moves the generation past the epoch: no entry is served."""
        cache = FetchCache(capacity=32)
        cache.attach_maintenance(db)
        cache.lookup(db, by_a, (1,))
        db.backend.remove_write_listener(cache._on_delta)
        db.insert("R", (1, 12))
        rows, hit = cache.lookup(db, by_a, (1,))
        assert not hit and sorted(rows) == [(1, 10), (1, 11), (1, 12)]


def test_service_repeats_are_warm_and_see_every_write(db):
    service = BoundedQueryService(db)
    service.register_template("t", "Q(y) :- R(x, y), x = $a")
    first = service.execute_template("t", {"a": 1})
    second = service.execute_template("t", {"a": 1})
    assert second.answers == first.answers == {(10,), (11,)}
    assert second.stats.fetch_cache_hits and not second.stats.tuples_fetched
    db.insert("R", (1, 12))  # observable: the entry is maintained
    third = service.execute_template("t", {"a": 1})
    assert third.answers == {(10,), (11,), (12,)}
    assert third.stats.fetch_cache_hits and not third.stats.tuples_fetched
    generation = db.generation("R")
    db.insert("R", (1, 12))  # ineffective: no generation bump
    assert db.generation("R") == generation
    fourth = service.execute_template("t", {"a": 1})
    assert fourth.answers == third.answers
    assert not fourth.stats.tuples_fetched

