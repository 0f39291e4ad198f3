"""The process-sharded write race, pinned shut.

With a disk writer, ``ProcessShardedBackend`` ships each write batch
to its shard workers *before* the inner store applies it and bumps the
generation, and the workers hold the batch in between.  A read that
overlaps a write is repeated with writes held off, so a reader that
observes generation ``g`` throughout its read sees exactly
``truth[g]``, and once the writer stops, a read through the shared
fetch cache equals the final state exactly, so no cache entry outlives
its epoch.  Serving the overlapping read, or shipping after the
bump, breaks this.
"""

from __future__ import annotations

import random
import threading
import time
from collections import Counter

import pytest

from repro import AccessConstraint, AccessSchema, Database, Schema
from repro.engine.executor import AccessStats
from repro.service import CachingExecutor, FetchCache
from repro.storage.procshard import ProcessShardedBackend

KEYS = range(8)
VALUES = range(4)


def rows_of(db, cols, length) -> set:
    decode = db.dictionary.decode
    rows = Counter(tuple(decode(code) for code in row) for row in zip(*cols))
    assert sum(rows.values()) == length and set(rows.values()) <= {1}
    return set(rows)


def test_readers_see_exactly_the_generation_they_observe(tmp_path):
    schema = Schema.from_dict({"R": ("A", "B")})
    access = AccessSchema(schema, [AccessConstraint("R", ("A",), ("B",), 8)])
    backend = ProcessShardedBackend(schema, workers=2, data_dir=tmp_path,
                                    fanout_threshold=0)
    db = Database(schema, access, backend=backend)
    rng = random.Random(5)
    state = {(a, rng.choice(VALUES)) for a in KEYS}
    db.insert_many("R", state)
    constraint = db.access_schema.constraints[0]
    codes = [db.dictionary.encode(a) for a in KEYS]
    # Fewer entries than keys: fills, evictions and bypassed steps keep
    # sending reads to the workers.
    cache = FetchCache(capacity=4)
    cache.attach_maintenance(db)
    truth = {db.generation("R"): frozenset(state)}
    done = threading.Event()
    seen: list[tuple[int, set]] = []
    errors: list[BaseException] = []

    def writer():
        try:
            for _ in range(150):
                row = (rng.choice(KEYS), rng.choice(VALUES))
                if row in state:
                    db.delete("R", row)
                    state.discard(row)
                else:
                    db.insert("R", row)
                    state.add(row)
                truth[db.generation("R")] = frozenset(state)
                # A write takes ~0.3 ms: unpaced, every read overlaps
                # one and none is checked.  The pause lets reads fall
                # both inside and between writes.
                time.sleep(0.001)
        except BaseException as error:  # noqa: BLE001
            errors.append(error)
        finally:
            done.set()

    def reader():
        executor = CachingExecutor(db, cache)
        try:
            while not done.is_set():
                before = db.generation("R")
                fetched = executor._fetch_flat_encoded(constraint, codes,
                                                       AccessStats())
                if db.generation("R") == before:
                    seen.append((before, rows_of(db, *fetched)))
        except BaseException as error:  # noqa: BLE001
            errors.append(error)

    threads = [threading.Thread(target=writer),
               *(threading.Thread(target=reader) for _ in range(3))]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        assert len(truth) == 151 and seen
        for generation, answers in seen:
            assert answers == truth[generation], generation
        final = truth[db.generation("R")]
        entries, _ = cache.lookup_many_encoded(db, constraint, codes)
        assert set().union(*(rows_of(db, *entry) for entry in entries)) \
            == final
        fetched = CachingExecutor(db, cache)._fetch_flat_encoded(
            constraint, codes, AccessStats())
        assert rows_of(db, *fetched) == final
    finally:
        cache.detach_maintenance()
        backend.close()



class _Paused(AccessConstraint):
    """``R(A -> B, 8)`` whose first structural match runs ``pause``: it
    stops a reader after its read has begun, before its RPC."""

    def __init__(self, pause):
        super().__init__("R", ("A",), ("B",), 8)
        object.__setattr__(self, "pauses", [pause])

    @property
    def y_set(self):
        if self.pauses:
            self.pauses.pop()()
        return super().y_set


@pytest.mark.parametrize("read_starts", ["before", "after"])
def test_a_shipped_write_is_invisible_until_it_commits(read_starts):
    """Hold a write between its shipment and its commit, with a worker
    read started before or after the shipment: the read must not answer
    with the shipped row under the old generation — it waits for the
    commit instead."""
    schema = Schema.from_dict({"R": ("A", "B")})
    access = AccessSchema(schema, [AccessConstraint("R", ("A",), ("B",), 8)])
    backend = ProcessShardedBackend(schema, workers=2, fanout_threshold=0)
    db = Database(schema, access, backend=backend)
    db.insert("R", (1, 0))
    generation = db.generation("R")
    reading, go, shipped, commit = (threading.Event() for _ in range(4))
    hook = backend._store._pre_apply

    def held(*args):
        shipped.set()
        commit.wait(10)
        hook(*args)

    def pause():
        reading.set()
        go.wait(10)

    def read():
        before = db.generation("R")
        rows = sorted(db.fetch(probe, (1,)))
        seen.append((before, rows, db.generation("R")))

    probe = _Paused(pause)
    seen: list[tuple] = []
    backend._store._pre_apply = held
    writer = threading.Thread(target=db.insert, args=("R", (1, 1)))
    reader = threading.Thread(target=read)
    try:
        if read_starts == "before":
            reader.start()
            assert reading.wait(10)
        writer.start()
        assert shipped.wait(10)
        if read_starts == "after":
            reader.start()
        go.set()
        reader.join(0.3)
        commit.set()
        writer.join(10)
        reader.join(10)
        assert not writer.is_alive() and not reader.is_alive()
        (before, rows, after), = seen
        assert before == generation
        assert rows == ([(1, 0)] if after == generation
                        else [(1, 0), (1, 1)])
    finally:
        go.set()
        commit.set()
        backend.close()
