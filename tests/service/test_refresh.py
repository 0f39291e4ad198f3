"""A maintained fetch-cache entry *is* a fresh read.

Random single- and multi-row insert/delete batches run against a
database with an attached :class:`~repro.service.FetchCache` whose
entries cover every key of a small domain.  After every batch each
entry must still be served from the cache and be bit-identical — row
order included — to ``fetch_many_encoded`` of its key: a write refreshes
the groups it changed from the index rather than patching the cached
copy.

A third batch kind, ``respawn``, kills the process-sharded engine's
workers and lets ``health_check`` rebuild them from the store's rows
(a no-op elsewhere).  Every read through the workers must still equal
the coordinator store's read of the same key, order included: a group's
row order is a function of its content, not of the write history.

The lookups use structurally re-created constraints, as analysis code
does, and a wider index on the same X is attached first, so the fill
and the refresh must both read the index the delta names.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import AccessConstraint, AccessSchema, Database, Schema
from repro.service import FetchCache
from repro.storage.backend import MemoryBackend
from repro.storage.disk import DiskBackend

SCHEMA = Schema.from_dict({"R": ("A", "B", "C")})
ACCESS = AccessSchema(SCHEMA, [
    AccessConstraint("R", ("A",), ("B", "C"), 64),
    AccessConstraint("R", ("A",), ("B",), 64),
    AccessConstraint("R", ("A", "C"), ("B",), 64),
])
#: Equal to the last two attached constraints, but other objects.
REQUESTED = (AccessConstraint("R", ("A",), ("B",), 64),
             AccessConstraint("R", ("A", "C"), ("B",), 64))

rows = st.tuples(st.integers(0, 2), st.integers(0, 4), st.integers(0, 1))
batches = st.lists(
    st.one_of(st.tuples(st.sampled_from(("insert", "delete")),
                        st.lists(rows, min_size=1, max_size=4)),
              st.just(("respawn", []))),
    min_size=1, max_size=12)

#: Respawns per engine: each one spawns every worker process anew, so
#: a budget bounds the test's time (the explicit example spends first).
RESPAWNS = 4


@pytest.fixture(scope="module", params=["memory", "disk", "procshard"])
def db(request, tmp_path_factory):
    if request.param == "memory":
        backend = MemoryBackend(SCHEMA)
    elif request.param == "disk":
        backend = DiskBackend(SCHEMA, tmp_path_factory.mktemp("refresh"))
    else:
        from repro.storage.procshard import ProcessShardedBackend
        # A zero fan-out threshold sends every fill over a pipe.
        backend = ProcessShardedBackend(SCHEMA, workers=2,
                                        fanout_threshold=0)
    yield Database(SCHEMA, ACCESS, backend=backend)
    backend.close()


@pytest.fixture(scope="module")
def respawns(db) -> list:
    """The engine's respawn budget, spent one item per respawn."""
    return [None] * RESPAWNS


def _respawn(db, respawns: list) -> None:
    """Kill every shard worker and rebuild the fleet off the request
    path; only the process-sharded engine has workers."""
    peers = getattr(db.backend, "_worker_peers", [])
    if not peers or not respawns:
        return
    respawns.pop()
    for peer in peers:
        peer.process.kill()
        peer.process.join()
    assert db.backend.health_check()["workers_respawned"] == len(peers)


def _keys(db) -> list[list]:
    """Per requested constraint, the code key of every domain X-value."""
    code = db.dictionary.encode
    return [[code(a) for a in range(3)],
            [(code(a), code(c)) for a in range(3) for c in range(2)]]


def _bits(entry) -> tuple:
    views, length = entry
    return length, [bytes(view) for view in views]


def _check(db, cache: FetchCache, keys: list[list]) -> None:
    # The coordinator's own store on procshard, the engine elsewhere.
    store = getattr(db.backend, "_store", db.backend)
    for constraint, batch in zip(REQUESTED, keys):
        entries, hits = cache.lookup_many_encoded(db, constraint, batch)
        assert all(hits), "a maintained entry was dropped"
        fresh = db.fetch_many_encoded(constraint, batch)
        truth = store.fetch_many_encoded(constraint, batch)
        assert list(map(_bits, entries)) == list(map(_bits, truth))
        assert list(map(_bits, fresh)) == list(map(_bits, truth))


@settings(max_examples=40, deadline=None)
@given(initial=st.lists(rows, max_size=16), batches=batches)
# A delete, then workers rebuilt from the store's rows: a write-order
# group would read (0,2),(0,1) from the store, (0,1),(0,2) after.
@example(initial=[(0, 0, 0), (0, 1, 0), (0, 2, 0)],
         batches=[("delete", [(0, 0, 0)]), ("respawn", [])])
def test_maintained_entries_are_fresh_reads(db, respawns, initial, batches):
    db.clear()
    db.insert_many("R", initial)
    keys = _keys(db)
    start = db.generation("R")
    cache = FetchCache(capacity=64)
    cache.attach_maintenance(db)
    try:
        for constraint, batch in zip(REQUESTED, keys):
            cache.lookup_many_encoded(db, constraint, batch)
        for kind, batch in batches:
            if kind == "delete":
                db.delete_many("R", batch)
            elif kind == "insert":
                db.insert_many("R", batch)
            else:
                _respawn(db, respawns)
            _check(db, cache, keys)
        assert cache.maintenance_fallbacks == 0
        assert cache.maintained_deltas == db.generation("R") - start
    finally:
        cache.detach_maintenance()
