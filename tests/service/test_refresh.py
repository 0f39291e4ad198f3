"""A maintained fetch-cache entry *is* a fresh read.

Random single- and multi-row insert/delete batches run against a
database with an attached :class:`~repro.service.FetchCache` whose
entries cover every key of a small domain.  After every batch each
entry must still be served from the cache and be bit-identical — row
order included — to ``fetch_many_encoded`` of its key: a write refreshes
the groups it changed from the index rather than patching the cached
copy.

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
batches = st.lists(st.tuples(st.booleans(),
                             st.lists(rows, min_size=1, max_size=4)),
                   min_size=1, max_size=12)


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


def _keys(db) -> list[list]:
    """Per requested constraint, the code key of every domain X-value."""
    code = db.dictionary.encode
    return [[code(a) for a in range(3)],
            [(code(a), code(c)) for a in range(3) for c in range(2)]]


def _bits(entry) -> tuple:
    views, length = entry
    return length, [bytes(view) for view in views]


def _check(db, cache: FetchCache, keys: list[list]) -> None:
    for constraint, batch in zip(REQUESTED, keys):
        entries, hits = cache.lookup_many_encoded(db, constraint, batch)
        assert all(hits), "a maintained entry was dropped"
        fresh = db.fetch_many_encoded(constraint, batch)
        assert list(map(_bits, entries)) == list(map(_bits, fresh))


@settings(max_examples=40, deadline=None)
@given(initial=st.lists(rows, max_size=16), batches=batches)
# Deleting a group's first row moves its last row into the gap.
@example(initial=[(0, 0, 0), (0, 1, 0), (0, 2, 0)],
         batches=[(True, [(0, 0, 0)])])
def test_maintained_entries_are_fresh_reads(db, initial, batches):
    db.clear()
    db.insert_many("R", initial)
    keys = _keys(db)
    start = db.generation("R")
    cache = FetchCache(capacity=64)
    cache.attach_maintenance(db)
    try:
        for constraint, batch in zip(REQUESTED, keys):
            cache.lookup_many_encoded(db, constraint, batch)
        for deleting, batch in batches:
            if deleting:
                db.delete_many("R", batch)
            else:
                db.insert_many("R", batch)
            _check(db, cache, keys)
        assert cache.maintenance_fallbacks == 0
        assert cache.maintained_deltas == db.generation("R") - start
    finally:
        cache.detach_maintenance()
