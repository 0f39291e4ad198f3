"""The cached fetch step: one probe per step, one join per column.

``CachingExecutor._fetch_flat_encoded`` must return the rows the plain
storage read returns and book exactly the per-key accounting, on every
mix of hits and misses — while an all-hit step does no per-key work in
Python (no ``extend_column`` call, one ``LruDict.get_many``).  A step
the cache cannot maintain (a detached cache, or a constraint that
resolves through a key permutation or a row projection) reads through:
every lookup a miss, nothing stored."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from repro import AccessConstraint, AccessSchema, Database, Schema
from repro.engine import Executor, columns
from repro.engine.executor import AccessStats
from repro.service import CachingExecutor, FetchCache
from repro.service.lru import LruDict
from repro.storage import encoding
from repro.storage.disk import DiskBackend

WIDE = AccessConstraint("R", ("A", "B"), ("C",), 50)    # width 3
NARROW = AccessConstraint("R", ("A",), ("B",), 50)      # width 2
WHOLE = AccessConstraint("R", (), ("A",), 50)           # width 1
SPREAD = AccessConstraint("R", ("A",), ("B", "C"), 50)  # width 3
# Resolved onto an attached index, never equal to one: WIDE's X in
# another order, and a projection of SPREAD's rows.
PERMUTED = AccessConstraint("R", ("B", "A"), ("C",), 50)
NARROWER = AccessConstraint("R", ("A",), ("C",), 50)


def _memory(database, tmp_path):
    return database


def _disk(database, tmp_path):
    return database.with_backend(DiskBackend(database.schema, tmp_path))


@pytest.fixture(params=[_memory, _disk], ids=["memory", "disk"])
def db(request, tmp_path):
    schema = Schema.from_dict({"R": ("A", "B", "C")})
    database = Database(schema,
                        AccessSchema(schema, [WIDE, NARROW, WHOLE, SPREAD]))
    # Group sizes 1..4 per A; B ranges over A's own B-values; C is
    # unique.  "ghost" is stored and then deleted: a code whose groups
    # are all empty.
    database.insert_many("R", [(a, 10 * a + b, 1000 + 10 * a + b)
                               for a in range(8) for b in range(a % 4 + 1)])
    database.insert("R", ("ghost", "ghost", "ghost"))
    database.delete("R", ("ghost", "ghost", "ghost"))
    database = request.param(database, tmp_path)
    yield database
    database.backend.close()


def _keys(db, constraint, values):
    """Executor-shaped keys: bare codes for a one-attribute X, code
    tuples otherwise, ``()`` for an empty X."""
    lookup = db.dictionary.lookup_codes
    if len(constraint.x) == 1:
        return lookup(values)
    return [tuple(lookup(value)) for value in values]


def _per_key_stats(db, constraint, keys, cached):
    """The accounting a per-key loop books: one lookup per key, each a
    hit (its rows from the cache) or a miss (its rows from storage)."""
    stats = AccessStats(index_lookups=len(keys))
    for key, (_, length) in zip(keys, db.fetch_many_encoded(constraint,
                                                             keys)):
        if key in cached:
            stats.fetch_cache_hits += 1
            stats.tuples_from_cache += length
        else:
            stats.fetch_cache_misses += 1
            stats.tuples_fetched += length
    return stats


def _rows(cols, length):
    rows = Counter(zip(*cols))
    assert sum(rows.values()) == length
    return rows


@pytest.mark.parametrize("maintained", [True, False],
                         ids=["maintained", "read-through"])
@pytest.mark.parametrize("constraint", [WIDE, NARROW, WHOLE],
                         ids=["width3", "width2", "width1"])
def test_cached_step_equals_plain_read_and_per_key_accounting(
        db, constraint, maintained):
    cache = FetchCache(capacity=64)
    if maintained:
        cache.attach_maintenance(db)
    caching, plain = CachingExecutor(db, cache), Executor(db)
    width = len(constraint.x) + len(constraint.y)
    if not constraint.x:
        first, second = [()], []
    elif len(constraint.x) == 1:
        # Zero-row groups: 10 is stored (as a B) but is no A, "ghost"
        # lost its row, "never" was never stored (a sentinel code).
        first = _keys(db, constraint, [0, 1, 10, "ghost", "never"])
        second = _keys(db, constraint, [2, 3, 7])
    else:
        # (1, 20) pairs A=1 with A=2's B: a zero-row group.
        first = _keys(db, constraint, [(0, 0), (1, 10), (1, 20)])
        second = _keys(db, constraint, [(3, 31), (3, 33), (7, 72)])
    steps = [first,                                 # all misses
             second[:1] + first[:1] + second[1:],   # a hit among misses
             first + second,                        # all hits
             []]                                    # no keys at all
    cached: set = set()
    lookups = 0
    for keys in steps:
        stats, want = AccessStats(), AccessStats()
        cols, length = caching._fetch_flat_encoded(constraint, keys, stats)
        plain_cols, plain_length = plain._fetch_flat_encoded(
            constraint, keys, want)
        assert len(cols) == width
        assert _rows(cols, length) == _rows(plain_cols, plain_length)
        assert stats == _per_key_stats(db, constraint, keys, cached)
        if maintained:
            cached.update(keys)
        else:
            assert len(cache) == 0
        lookups += len(keys)
        info = cache.info()
        assert info.hits + info.misses == lookups
    if maintained:
        cache.detach_maintenance()


@pytest.mark.parametrize("case", ["permuted", "narrower", "detached"])
def test_an_unmaintainable_step_reads_through_across_a_write(db, case):
    """Read, write, read again: the answers and accounting are the
    plain executor's (each lookup also a cache miss), on the executor
    step and the lookup API alike, and the cache never stores."""
    cache = FetchCache(capacity=64)
    if case != "detached":
        cache.attach_maintenance(db)
    constraint, values = {
        "permuted": (PERMUTED, [(10, 1), (0, 0), (31, 3), (99, 9)]),
        "narrower": (NARROWER, [1, 3, 7, "never"]),
        "detached": (NARROW, [1, 3, 7, "never"]),
    }[case]
    caching, plain = CachingExecutor(db, cache), Executor(db)
    lookups = 0
    for write in (None, ("R", (1, 10, 1099)), None):
        if write is not None:
            db.insert(*write)
            continue
        keys = _keys(db, constraint, values)
        stats, want = AccessStats(), AccessStats()
        cols, length = caching._fetch_flat_encoded(constraint, keys, stats)
        plain_cols, plain_length = plain._fetch_flat_encoded(
            constraint, keys, want)
        assert _rows(cols, length) == _rows(plain_cols, plain_length)
        assert stats == replace(want, fetch_cache_misses=len(keys))
        assert len(cache) == 0
        entries, hits = cache.lookup_many_encoded(db, constraint, keys)
        assert not any(hits)
        assert [_rows(*entry) for entry in entries] == [
            _rows(*entry) for entry in db.fetch_many_encoded(constraint,
                                                              keys)]
        assert len(cache) == 0
        lookups += 2 * len(keys)
    info = cache.info()
    assert info.hits == 0 and info.misses == lookups
    assert cache.bypassed_lookups == lookups
    cache.detach_maintenance()


def test_mutating_a_returned_column_leaves_the_cache_intact(db):
    cache = FetchCache(capacity=64)
    cache.attach_maintenance(db)
    caching = CachingExecutor(db, cache)
    keys = _keys(db, NARROW, [1, 2, 3])
    caching._fetch_flat_encoded(NARROW, keys, AccessStats())  # fill
    cols, length = caching._fetch_flat_encoded(NARROW, keys, AccessStats())
    before = _rows(cols, length)
    for column in cols:
        column[0] = -99
        column.append(-99)
    stats = AccessStats()
    again, again_length = caching._fetch_flat_encoded(NARROW, keys, stats)
    assert stats.fetch_cache_hits == 3
    assert _rows(again, again_length) == before
    cache.detach_maintenance()


def test_an_all_hit_step_probes_once_and_never_extends(db, monkeypatch):
    cache = FetchCache(capacity=64)
    cache.attach_maintenance(db)
    caching = CachingExecutor(db, cache)
    keys = _keys(db, NARROW, list(range(8)))
    caching._fetch_flat_encoded(NARROW, keys, AccessStats())  # fill

    calls = Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    extend = counted("extend_column", encoding.extend_column)
    for module in (encoding, columns):
        monkeypatch.setattr(module, "extend_column", extend)
    monkeypatch.setattr(LruDict, "get_many",
                        counted("get_many", LruDict.get_many))
    stats = AccessStats()
    _, length = caching._fetch_flat_encoded(NARROW, keys, stats)
    assert stats.fetch_cache_hits == len(keys) and length > len(keys)
    assert calls == {"get_many": 1}
    cache.detach_maintenance()
