"""The process-sharded write race, pinned to its allowed direction.

With a disk writer and a WAL-shipped replica, ``ProcessShardedBackend``
ships each write batch to its shard workers *before* the inner store
applies it and bumps the generation.  A reader that observes generation
``g`` throughout its read may therefore see some of write ``g+1``
early: new rows may appear and deleted rows may vanish.  Nothing else
may happen — no row outside ``truth[g] ∪ truth[g+1]``, no row of
``truth[g] ∩ truth[g+1]`` missing — and once the writer stops, a read
through the shared fetch cache equals the final state exactly, so no
cache entry outlives its epoch.  Shipping *after* the bump breaks both.
"""

from __future__ import annotations

import random
import threading
from collections import Counter

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


def test_readers_see_at_most_the_next_write_early(tmp_path):
    schema = Schema.from_dict({"R": ("A", "B")})
    access = AccessSchema(schema, [AccessConstraint("R", ("A",), ("B",), 8)])
    backend = ProcessShardedBackend(schema, workers=2, replicas=1,
                                    data_dir=tmp_path, fanout_threshold=0)
    db = Database(schema, access, backend=backend)
    rng = random.Random(5)
    state = {(a, rng.choice(VALUES)) for a in KEYS}
    db.insert_many("R", state)
    constraint = db.access_schema.constraints[0]
    codes = [db.dictionary.encode(a) for a in KEYS]
    # Fewer entries than keys: fills, evictions and bypassed steps keep
    # sending reads to the workers and the replica.
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
            now = truth[generation]
            following = truth.get(generation + 1, now)
            assert now & following <= answers <= now | following, generation
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
