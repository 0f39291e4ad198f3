"""The storage-engine boundary: backend conformance, deletion,
constraint resolution projections, and write/read races."""

from __future__ import annotations

import queue
import tempfile
import threading
import time

import pytest

from repro import (AccessConstraint, AccessSchema, Database, ExecutionError,
                   Schema, StorageError)
from repro.core import is_boundedly_evaluable
from repro.engine import Executor
from repro.query import parse_query
from repro.service import CachingExecutor, FetchCache
from repro.storage.backend import MemoryBackend, make_backend
from repro.storage.disk import DiskBackend


def _disk_backend(schema):
    """A DiskBackend on a throwaway directory; the TemporaryDirectory
    is pinned to the backend so it is cleaned up when the backend is."""
    tmp = tempfile.TemporaryDirectory(prefix="repro-disk-")
    backend = DiskBackend(schema, tmp.name)
    backend._test_tmpdir = tmp
    return backend


def _procshard_backend(schema, workers=1, fanout_threshold=0):
    """A process-sharded backend.  The default zero fan-out threshold
    forces RPC on, so every encoded fetch crosses a pipe; with two
    workers each X-key lives on one of them."""
    from repro.storage.procshard import ProcessShardedBackend
    return ProcessShardedBackend(schema, workers=workers,
                                 fanout_threshold=fanout_threshold)


BACKEND_FACTORIES = [
    pytest.param(lambda schema: MemoryBackend(schema), id="memory"),
    pytest.param(_disk_backend, id="disk"),
    pytest.param(_procshard_backend, id="procshard"),
    pytest.param(lambda schema: _procshard_backend(schema, workers=2),
                 id="procshard-2w"),
    # The shipped default threshold: the small batches here are served
    # from the coordinator's own store while writes still ship to the
    # workers.
    pytest.param(lambda schema: _procshard_backend(
        schema, workers=2, fanout_threshold=None), id="procshard-local"),
]


class _Held(AccessConstraint):
    """``R(A -> B, 1024)`` whose backend-facing steps each run one
    queued callback first, to hold a race window open: an engine calls
    ``validate_against`` under its lock while the indexes an attach
    builds are unpublished, and the structural match reads a requested
    constraint's ``y_set`` after it has read the attached schema."""

    def __init__(self):
        super().__init__("R", ("A",), ("B",), 1024)
        object.__setattr__(self, "holds", queue.SimpleQueue())

    def _hold(self) -> None:
        try:
            hold = self.holds.get_nowait()
        except queue.Empty:
            return
        hold()

    def validate_against(self, schema):
        self._hold()
        return super().validate_against(schema)

    @property
    def y_set(self):
        self._hold()
        return super().y_set


@pytest.fixture
def schema():
    return Schema.from_dict({"R": ("A", "B", "C"), "S": ("D",)})


@pytest.fixture
def aschema(schema):
    return AccessSchema(schema, [
        AccessConstraint("R", ("A",), ("B", "C"), 8),
        AccessConstraint("S", (), ("D",), 16),
    ])


def make_db(factory, schema, aschema=None):
    return Database(schema, aschema, backend=factory(schema))


@pytest.mark.parametrize("factory", BACKEND_FACTORIES)
class TestBackendConformance:
    def test_insert_scan_size_contains(self, factory, schema, aschema):
        db = make_db(factory, schema, aschema)
        rows = [(i, f"b{i % 3}", i % 2) for i in range(20)]
        db.insert_many("R", rows)
        db.insert_many("R", rows)  # set semantics: second pass is a no-op
        assert db.relation_size("R") == 20
        assert sorted(db.relation_tuples("R")) == sorted(rows)
        assert ("R", rows[0]) in db
        assert ("R", (99, "nope", 0)) not in db

    def test_fetch_many_matches_per_value_fetch(self, factory, schema,
                                                aschema):
        db = make_db(factory, schema, aschema)
        db.insert_many("R", [(i % 5, f"b{i}", i) for i in range(30)])
        constraint = aschema.constraints[0]
        x_values = [(i,) for i in range(7)]  # includes missing keys
        batched = db.fetch_many(constraint, x_values)
        for x_value, rows in zip(x_values, batched):
            assert sorted(rows) == sorted(db.fetch(constraint, x_value))
        flat = db.fetch_flat(constraint, x_values)
        assert sorted(flat) == sorted(r for rows in batched for r in rows)

    def test_delete_updates_scan_fetch_and_generation(self, factory,
                                                      schema, aschema):
        db = make_db(factory, schema, aschema)
        db.insert_many("R", [(1, "a", 10), (1, "b", 11), (2, "a", 12)])
        constraint = aschema.constraints[0]
        generation = db.generation("R")
        assert db.delete("R", (1, "a", 10))
        assert db.generation("R") == generation + 1
        assert sorted(db.relation_tuples("R")) == [(1, "b", 11),
                                                   (2, "a", 12)]
        assert db.fetch(constraint, (1,)) == [(1, "b", 11)]
        # Deleting an absent row is not an effective write.
        assert not db.delete("R", (1, "a", 10))
        assert db.generation("R") == generation + 1

    def test_delete_keeps_shared_projection_alive(self, factory, schema):
        """X∪Y can be a strict subset of the attributes: a projection
        survives until its *last* witness row is deleted."""
        aschema = AccessSchema(schema, [
            AccessConstraint("R", ("A",), ("B",), 8)])
        db = make_db(factory, schema, aschema)
        constraint = aschema.constraints[0]
        db.insert_many("R", [(1, "b", 10), (1, "b", 11)])
        db.delete("R", (1, "b", 10))
        assert db.fetch(constraint, (1,)) == [(1, "b")]
        db.delete("R", (1, "b", 11))
        assert db.fetch(constraint, (1,)) == []

    def test_clear_empties_rows_and_indexes(self, factory, schema, aschema):
        db = make_db(factory, schema, aschema)
        db.insert_many("R", [(1, "a", 10), (2, "b", 11)])
        generation = db.generation("R")
        db.clear()
        assert db.size() == 0
        assert db.fetch(aschema.constraints[0], (1,)) == []
        assert db.generation("R") == generation + 1

    def test_empty_x_constraint(self, factory, schema, aschema):
        db = make_db(factory, schema, aschema)
        db.insert_many("S", [("d1",), ("d2",)])
        rows = db.fetch(aschema.constraints[1], ())
        assert sorted(rows) == [("d1",), ("d2",)]

    def test_fetch_without_index_fails(self, factory, schema):
        db = make_db(factory, schema)
        constraint = AccessConstraint("R", ("A",), ("B",), 2)
        with pytest.raises(ExecutionError, match="no index"):
            db.fetch(constraint, (1,))

    def test_check_and_satisfies(self, factory, schema):
        aschema = AccessSchema(schema, [
            AccessConstraint("R", ("A",), ("B",), 2)])
        db = make_db(factory, schema, aschema)
        db.insert_many("R", [(1, f"b{i}", i) for i in range(2)])
        assert db.satisfies()
        db.insert("R", (1, "b9", 9))
        assert not db.satisfies()

    def test_check_narrower_constraint_counts_its_own_y(self, factory,
                                                       schema):
        """Validating a narrower constraint must count distinct values
        of *its* Y, not the wider attached index's — the wider counts
        would flag spurious violations."""
        aschema = AccessSchema(schema, [
            AccessConstraint("R", ("A",), ("B", "C"), 10)])
        db = make_db(factory, schema, aschema)
        # 4 distinct (B, C) pairs per A-value, but only 2 distinct Bs.
        db.insert_many("R", [(1, "b1", 10), (1, "b1", 11),
                             (1, "b2", 12), (1, "b2", 13)])
        narrow_ok = AccessSchema(schema, [
            AccessConstraint("R", ("A",), ("B",), 3)])
        assert db.satisfies(narrow_ok)
        narrow_tight = AccessSchema(schema, [
            AccessConstraint("R", ("A",), ("B",), 1)])
        assert not db.satisfies(narrow_tight)


class TestConstraintResolutionProjection:
    """Regression for the structural-fallback bug: a structurally
    matched index with a *wider* Y-set used to return rows in the wider
    constraint's column order — callers got the wrong arity."""

    @pytest.mark.parametrize("factory", BACKEND_FACTORIES)
    def test_narrower_y_is_projected_and_deduplicated(self, factory,
                                                      schema):
        aschema = AccessSchema(schema, [
            AccessConstraint("R", ("A",), ("B", "C"), 8)])
        db = make_db(factory, schema, aschema)
        db.insert_many("R", [(1, "b", 10), (1, "b", 11), (1, "c", 12)])
        narrower = AccessConstraint("R", ("A",), ("B",), 8)
        rows = db.fetch(narrower, (1,))
        # Projected to X∪Y of the *requested* constraint, duplicates
        # from the dropped C column collapsed.
        assert sorted(rows) == [(1, "b"), (1, "c")]

    @pytest.mark.parametrize("factory", BACKEND_FACTORIES)
    def test_reordered_y_is_projected(self, factory, schema):
        aschema = AccessSchema(schema, [
            AccessConstraint("R", ("A",), ("B", "C"), 8)])
        db = make_db(factory, schema, aschema)
        db.insert("R", (1, "b", 10))
        reordered = AccessConstraint("R", ("A",), ("C", "B"), 8)
        assert db.fetch(reordered, (1,)) == [(1, 10, "b")]

    @pytest.mark.parametrize("factory", BACKEND_FACTORIES)
    def test_permuted_x_key_is_reordered(self, factory, schema):
        aschema = AccessSchema(schema, [
            AccessConstraint("R", ("A", "B"), ("C",), 8)])
        db = make_db(factory, schema, aschema)
        db.insert("R", (1, "b", 10))
        permuted = AccessConstraint("R", ("B", "A"), ("C",), 8)
        # The X-value arrives in the *requested* order (B, A) and must
        # be permuted into the attached index's (A, B) key order.
        assert db.fetch(permuted, ("b", 1)) == [("b", 1, 10)]

    def test_bounded_plan_over_wider_index_is_insulated(self):
        """End to end: a plan whose constraint is re-created by the
        analysis gets correctly projected rows from a wider index."""
        schema = Schema.from_dict({"R": ("A", "B", "C")})
        aschema = AccessSchema(schema, [
            AccessConstraint("R", ("A",), ("B", "C"), 4)])
        db = Database(schema, aschema)
        db.insert_many("R", [(1, "x", 7), (1, "x", 8), (2, "y", 9)])
        decision = is_boundedly_evaluable(
            parse_query("Q(b) :- R(a, b, c), a = 1"), aschema)
        assert decision.is_yes
        result = Executor(db).execute(decision.witness["plan"])
        assert result.answers == {("x",)}


class TestBackendFactoryAndFacade:
    def test_make_backend_factory(self, schema, tmp_path):
        assert isinstance(make_backend("memory", schema), MemoryBackend)
        disk = make_backend("disk", schema, data_dir=tmp_path / "d")
        assert isinstance(disk, DiskBackend)
        disk.close()
        with pytest.raises(StorageError, match="data directory"):
            make_backend("disk", schema)
        from repro.storage.procshard import ProcessShardedBackend
        procshard = make_backend("procshard", schema, workers=1)
        assert isinstance(procshard, ProcessShardedBackend)
        assert procshard.workers == 1
        procshard.close()
        with pytest.raises(StorageError, match="worker process"):
            ProcessShardedBackend(schema, workers=0)
        # Passed through, not silently replaced by the default of 4.
        with pytest.raises(StorageError,
                           match="at least one worker process"):
            make_backend("procshard", schema, workers=0)
        with pytest.raises(StorageError, match="unknown storage backend"):
            make_backend("paper-tape", schema)

    def test_with_backend_rehomes_rows_and_schema(self, schema, aschema):
        db = Database(schema, aschema)
        db.insert_many("R", [(i, f"b{i}", i) for i in range(10)])
        clone = db.with_backend(_disk_backend(schema))
        assert sorted(clone.relation_tuples("R")) == \
            sorted(db.relation_tuples("R"))
        assert clone.access_schema is db.access_schema
        constraint = aschema.constraints[0]
        assert sorted(clone.fetch(constraint, (3,))) == \
            sorted(db.fetch(constraint, (3,)))
        assert clone.backend.describe().startswith("disk")
        clone.backend.close()

    def test_resolution_memo_is_bounded(self, schema, aschema):
        backend = MemoryBackend(schema)
        backend._MAX_RESOLUTIONS = 8
        db = Database(schema, aschema, backend=backend)
        db.insert("R", (1, "a", 10))
        for _ in range(30):
            probe = AccessConstraint("R", ("A",), ("B", "C"), 8)
            assert db.fetch(probe, (1,)) == [(1, "a", 10)]
        assert len(backend._resolutions) <= 8

    def test_mixed_key_batch_is_normalized(self, schema, aschema):
        db = Database(schema, aschema)
        db.insert_many("R", [(1, "a", 10), (2, "b", 11)])
        constraint = aschema.constraints[0]
        # Tuple first, list later: the late non-tuple must not crash.
        rows = db.fetch_many(constraint, [(1,), [2]])
        assert rows == [[(1, "a", 10)], [(2, "b", 11)]]
        flat = db.fetch_flat(constraint, [(1,), [2]])
        assert sorted(flat) == [(1, "a", 10), (2, "b", 11)]

    def test_mismatched_schema_object_rejected(self, schema):
        other = Schema.from_dict({"R": ("A", "B", "C"), "S": ("D",)})
        with pytest.raises(Exception, match="different schema"):
            Database(schema, backend=MemoryBackend(other))


@pytest.mark.parametrize("factory", BACKEND_FACTORIES)
class TestWriteReadRaces:
    """Concurrent writers against a CachingExecutor over a maintained
    cache: epoch-validated entries, delta refreshes and the stale-fill
    rule must make it impossible to serve rows older than the epoch a
    read observed."""

    def _setup(self, factory):
        schema = Schema.from_dict({"R": ("A", "B")})
        aschema = AccessSchema(schema, [
            AccessConstraint("R", ("A",), ("B",), 512)])
        db = Database(schema, aschema, backend=factory(schema))
        db.insert("R", (1, 0))
        plan = is_boundedly_evaluable(
            parse_query("Q(y) :- R(x, y), x = 1"),
            aschema).witness["plan"]
        return db, plan

    def test_concurrent_inserts_and_deletes_never_serve_stale(
            self, factory):
        db, plan = self._setup(factory)
        cache = FetchCache(capacity=256)
        cache.attach_maintenance(db)
        truth_lock = threading.Lock()
        live = {(1, 0)}
        # generation -> the exact row set the relation held when that
        # generation was published (single writer => well defined).
        truth = {db.generation("R"): frozenset(live)}
        stop = threading.Event()
        failures: list[str] = []

        def writer():
            for i in range(1, 150):
                row = (1, i)
                with truth_lock:
                    db.insert("R", row)
                    live.add(row)
                    truth[db.generation("R")] = frozenset(live)
                if i % 3 == 0:
                    victim = (1, i - 2)
                    with truth_lock:
                        if db.delete("R", victim):
                            live.discard(victim)
                            truth[db.generation("R")] = frozenset(live)
            stop.set()

        def reader():
            executor = CachingExecutor(db, cache)
            while True:
                before = db.generation("R")
                answers = executor.execute(plan).answers
                after = db.generation("R")
                if before != after:
                    continue  # a write raced the read; no stable claim
                with truth_lock:
                    expected = truth.get(before)
                if expected is not None and \
                        answers != {(b,) for _, b in expected}:
                    failures.append(
                        f"gen {before}: got {sorted(answers)[:6]}..., "
                        f"expected {len(expected)} rows")
                if stop.is_set():
                    break

        threads = [threading.Thread(target=writer)] + \
            [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not failures, failures[:3]
        # After all writes: a fresh read must see exactly the final
        # state, through the maintained cache.
        final = CachingExecutor(db, cache).execute(plan).answers
        assert final == {(b,) for _, b in live}
        cache.detach_maintenance()

    def test_no_generation_bump_is_ever_lost(self, factory):
        """Two writers on disjoint rows: every effective single-row
        write must bump the generation exactly once — a lost bump
        would let the fetch cache serve pre-write rows forever."""
        schema = Schema.from_dict({"R": ("A", "B")})
        aschema = AccessSchema(schema, [
            AccessConstraint("R", ("A",), ("B",), 1024)])
        db = Database(schema, aschema, backend=factory(schema))
        per_thread = 200

        def writer(offset):
            for i in range(per_thread):
                db.insert("R", (offset + i, i))

        threads = [threading.Thread(target=writer, args=(t * 10_000,))
                   for t in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert db.generation("R") == 2 * per_thread

    def test_attach_racing_writes_and_reads_stays_consistent(
            self, factory):
        """Re-attaching the access schema while a writer inserts and
        two readers fetch: every stored row must stay reachable through
        the live indexes, and readers must never crash or keep a
        poisoned memoized constraint resolution.

        The race is bounded and its windows are held open.  Each round
        the writer (this thread) hands the attacher one fresh,
        structurally equal schema, inserts a batch starting while the
        attach holds the engine with its new indexes unpublished, and
        checks every row so far once the attach is done.  Meanwhile a
        reader's resolution of ``probe`` is held open across the next
        attach, so it lands in the memo against a replaced schema."""
        schema = Schema.from_dict({"R": ("A", "B")})
        constraint = AccessConstraint("R", ("A",), ("B",), 1024)
        db = Database(schema, AccessSchema(schema, [constraint]),
                      backend=factory(schema))
        probe = _Held()
        keys = [(a,) for a in range(7)]
        rounds, batch, timeout = 10, 30, 10
        unpublished, attached, held = (
            [threading.Event() for _ in range(rounds + 1)]
            for _ in range(3))
        attaches: queue.SimpleQueue = queue.SimpleQueue()
        stop = threading.Event()
        errors: list[BaseException] = []

        def attacher():
            for r, access in iter(attaches.get, None):
                db.attach_access_schema(access)
                attached[r].set()

        def reader():
            while not stop.is_set():
                db.fetch_many(probe, keys)

        def hold_attach(r):
            def hold():
                unpublished[r].set()
                time.sleep(0.005)  # the writer enters insert_rows
            return hold

        def hold_resolution(r):
            def hold():
                held[r].set()
                attached[r + 1].wait(timeout)
            return hold

        def recording(work):
            def run():
                try:
                    work()
                except Exception as error:  # reported by the main thread
                    errors.append(error)
            return run

        threads = [threading.Thread(target=recording(work))
                   for work in (attacher, reader, reader)]
        for thread in threads:
            thread.start()
        inserted: set[tuple] = set()
        try:
            for r in range(rounds):
                assert r == 0 or held[r - 1].wait(timeout), errors
                if r + 1 < rounds:
                    probe.holds.put(hold_resolution(r))
                fresh = _Held()
                access = AccessSchema(schema, [fresh])
                fresh.holds.put(hold_attach(r))
                attaches.put((r, access))
                assert unpublished[r].wait(timeout), errors
                for i in range(r * batch, (r + 1) * batch):
                    db.insert("R", (i % 7, i))
                    inserted.add((i % 7, i))
                assert attached[r].wait(timeout), errors
                assert {row for group in db.fetch_many(constraint, keys)
                        for row in group} == inserted, f"round {r}"
        finally:
            attaches.put(None)
            stop.set()
            for thread in threads:
                thread.join(timeout)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert set(db.relation_tuples("R")) == inserted
        # The memoized probe resolution still answers correctly.
        assert {row for group in db.fetch_many(probe, keys)
                for row in group} == inserted

    def test_write_after_warm_cache_is_always_visible(self, factory):
        db, plan = self._setup(factory)
        cache = FetchCache(capacity=64)
        cache.attach_maintenance(db)
        executor = CachingExecutor(db, cache)
        assert executor.execute(plan).answers == {(0,)}
        db.insert("R", (1, 1))
        assert executor.execute(plan).answers == {(0,), (1,)}
        db.delete("R", (1, 0))
        assert executor.execute(plan).answers == {(1,)}
        # Both writes refreshed the cached entry, which then served.
        assert cache.maintained_entries == 2
        assert cache.info().hits == 2
        cache.detach_maintenance()
