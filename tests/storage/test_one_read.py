"""One crossing per read: every request-path read enters exactly one
public fetch name and makes exactly one ``read_codes`` call.

The four public reads are adapters over each engine's one
``read_codes``; an adapter that called another public name would make
the frozen ledger's ``backend.fetch`` proxies count (and time) one
engine read twice.  Each read below is driven with all five names
wrapped in call counters, on the memory engine and on a two-worker
process-sharded one whose reads all cross pipes.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import AccessConstraint, AccessSchema, Database, Schema
from repro.engine.executor import AccessStats, Executor
from repro.service import CachingExecutor, FetchCache
from repro.storage.backend import MemoryBackend

PUBLIC = ("fetch_many", "fetch_flat", "fetch_many_encoded",
          "fetch_flat_encoded")


@pytest.fixture(params=["memory", "procshard-2w"])
def db(request):
    schema = Schema.from_dict({"R": ("A", "B")})
    access = AccessSchema(schema, [AccessConstraint("R", ("A",), ("B",), 8)])
    if request.param == "memory":
        backend = MemoryBackend(schema)
    else:
        from repro.storage.procshard import ProcessShardedBackend
        backend = ProcessShardedBackend(schema, workers=2,
                                        fanout_threshold=0)
    database = Database(schema, access, backend=backend)
    database.insert_many("R", [(a, 10 * a + b) for a in range(8)
                               for b in range(2)])
    yield database
    backend.close()


def counted(backend) -> Counter:
    """Shadow the five names on the instance with call counters."""
    calls: Counter = Counter()
    for name in (*PUBLIC, "read_codes"):
        original = getattr(backend, name)

        def proxy(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        setattr(backend, name, proxy)
    return calls


def test_every_read_crosses_once(db):
    constraint = db.access_schema.constraints[0]
    codes = [db.dictionary.encode(a) for a in range(8)]
    starved, filling = FetchCache(capacity=1), FetchCache(capacity=64)
    starved.attach_maintenance(db)
    filling.attach_maintenance(db)
    calls = counted(db.backend)

    def bypass_step():
        # A fill nothing reads turns a one-entry cache over: the next
        # step is a plain storage read.
        starved.lookup_many_encoded(db, constraint, [-1])
        calls.clear()
        bypassed = starved.bypassed_lookups
        CachingExecutor(db, starved)._fetch_flat_encoded(
            constraint, codes, AccessStats())
        assert starved.bypassed_lookups == bypassed + len(codes)

    reads = {
        "fetch-cache fill": lambda: filling.lookup_many_encoded(
            db, constraint, codes),
        "bypass step": bypass_step,
        "uncached step": lambda: Executor(db)._fetch_flat_encoded(
            constraint, codes, AccessStats()),
        "Database.fetch": lambda: db.fetch(constraint, (3,)),
        "Database.fetch_many": lambda: db.fetch_many(
            constraint, [(3,), (99,), (3,)]),
        "Database.fetch_flat": lambda: db.fetch_flat(constraint, [(3,)]),
    }
    for label, read in reads.items():
        calls.clear()
        read()
        crossings = {name: calls[name] for name in PUBLIC if calls[name]}
        assert len(crossings) == 1 and sum(crossings.values()) == 1, \
            (label, crossings)
        assert calls["read_codes"] == 1, (label, calls)
