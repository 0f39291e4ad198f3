"""The fetch cache's self-tuning bypass: a cache whose LRU turns over
without serving a hit stops probing and filling, re-engages when hits
come back, and never changes an answer or an access count."""

from __future__ import annotations

import random

import pytest

from repro import AccessConstraint, AccessSchema, Database, Schema
from repro.core import is_boundedly_evaluable
from repro.engine import Executor
from repro.query import parse_query
from repro.service import BoundedQueryService, CachingExecutor, FetchCache
from repro.service.fetchcache import _BYPASS_CEILING
from repro.storage.disk import DiskBackend
from repro.workload.accidents import AccidentScale, simple_accidents

TEMPLATE = "Q(y) :- R(x, y), x = $a"


@pytest.fixture
def db():
    schema = Schema.from_dict({"R": ("A", "B")})
    access = AccessSchema(schema, [AccessConstraint("R", ("A",), ("B",), 8)])
    database = Database(schema, access)
    database.insert_many("R", [(a, 100 * a + b) for a in range(400)
                               for b in range(2)])
    return database


def service_on(db, capacity):
    service = BoundedQueryService(db, fetch_cache_size=capacity)
    service.register_template("t", TEMPLATE)
    return service


def ask(service, a):
    return service.execute_template("t", {"a": a})


def test_distinct_keys_on_a_starved_cache_enter_the_bypass(db):
    service = service_on(db, capacity=4)
    cache = service.fetch_cache
    for a in range(200):
        result = ask(service, a)
        assert result.answers == {(100 * a,), (100 * a + 1,)}
    assert cache.bypassed_lookups > 150
    # Only the probes filled: nowhere near one eviction per request.
    assert cache.info().evictions < 20
    info = cache.info()
    assert info.hits == 0 and info.misses == 200


def test_a_zipf_hot_pool_never_bypasses(db):
    service = service_on(db, capacity=64)
    cache = service.fetch_cache
    pool = list(range(48))
    weights = [1 / (rank + 1) for rank in range(len(pool))]
    rng = random.Random(7)
    for a in rng.choices(pool, weights, k=3000):
        ask(service, a)
    assert cache.bypassed_lookups == 0
    assert cache.info().hit_rate > 0.95


def test_the_run_doubles_to_its_ceiling_and_a_hit_resets_it(db):
    cache = FetchCache(capacity=2)
    cache.attach_maintenance(db)
    constraint = db.access_schema.constraints[0]
    codes = iter(db.dictionary.encode(a) for a in range(400))

    def probe():
        return cache.lookup_many_encoded(db, constraint, [next(codes)])

    def bypassed_run():
        steps = 0
        while cache.bypass_step(constraint, 1):
            steps += 1
        return steps

    probe()
    assert bypassed_run() == 0  # one fill: the LRU has not turned over
    probe()
    runs = []
    for _ in range(13):
        runs.append(bypassed_run())
        probe()
    assert runs == [min(2 ** i, _BYPASS_CEILING) for i in range(13)]
    hot = db.dictionary.encode(399)
    cache.lookup_many_encoded(db, constraint, [hot])
    bypassed_run()
    _, hits = cache.lookup_many_encoded(db, constraint, [hot])
    assert hits == [True]
    assert bypassed_run() == 0


def test_a_shift_back_to_a_hot_pool_re_engages(db):
    service = service_on(db, capacity=4)
    cache = service.fetch_cache
    for a in range(100, 400):  # cold: drives the run up
        ask(service, a)
    run = cache._bypass_run
    assert run >= 16
    # Hot: at most the rest of this run, one probe that fills, a run
    # twice as long, and a probe that hits.
    for step in range(1, 3 * run + 3):
        if ask(service, 7).stats.fetch_cache_hits:
            break
    else:
        pytest.fail("the cache never re-engaged")
    assert step <= 3 * run + 2
    bypassed = cache.bypassed_lookups
    for _ in range(50):
        stats = ask(service, 7).stats
        assert stats.fetch_cache_hits == stats.index_lookups == 1
    assert cache.bypassed_lookups == bypassed


def test_a_write_during_bypass_still_repairs_maintained_entries(db):
    service = service_on(db, capacity=4)
    cache = service.fetch_cache
    # Fills 0-3 trigger a one-step run (4 skipped), 5 probes and
    # doubles it (6, 7 skipped), 8 probes: a four-step run is ahead.
    for a in range(9):
        ask(service, a)
    assert cache._bypass_left == 4
    before = cache.maintained_entries
    db.insert("R", (8, 999))  # a=8 was the last fill: still cached
    assert cache.maintained_entries == before + 1
    bypassed = cache.bypassed_lookups
    assert ask(service, 8).answers == {(800,), (801,), (999,)}
    assert cache.bypassed_lookups == bypassed + 1
    entries, hits = cache.lookup_many_encoded(
        db, db.access_schema.constraints[0], [db.dictionary.encode(8)])
    assert hits == [True]
    cols, length = entries[0]
    assert db.dictionary.decode_rows(cols, length) == \
        {(8, 800), (8, 801), (8, 999)}


def test_racing_threads_share_slots_and_answers_stay_exact():
    """Lock-free bypass state under contention: a race may mis-time a
    probe but never changes an answer or the per-request accounting,
    and concurrent first sights of a constraint agree on one slot."""
    import sys
    import threading

    schema = Schema.from_dict({"R": ("A", "B")})
    access = AccessSchema(schema, [AccessConstraint("R", ("A",), ("B",), 8),
                                   AccessConstraint("R", ("B",), ("A",), 8)])
    database = Database(schema, access)
    database.insert_many("R", [(a, 1000 + a) for a in range(300)])
    service = BoundedQueryService(database, fetch_cache_size=4)
    service.register_template("by_a", "Q(y) :- R(x, y), x = $v")
    service.register_template("by_b", "Q(x) :- R(x, y), y = $v")
    barrier = threading.Barrier(6)
    failures = []

    def client(seed):
        rng = random.Random(seed)
        barrier.wait(timeout=10)
        for _ in range(150):
            a = rng.choice([3, 3, 3, rng.randrange(300)])
            if rng.random() < 0.5:
                result = service.execute_template("by_a", {"v": a})
                want = {(1000 + a,)}
            else:
                result = service.execute_template("by_b", {"v": 1000 + a})
                want = {(a,)}
            stats = result.stats
            if (result.answers != want
                    or stats.fetch_cache_hits + stats.fetch_cache_misses
                    != stats.index_lookups):
                failures.append((a, result.answers, stats))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client, args=(seed,))
                   for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    cache = service.fetch_cache
    assert sorted(cache._slots.values()) == list(range(len(cache._slots)))
    assert len(cache._slots) == len(cache._constraints) == 2


# -- identical to the plain executor, on every engine ----------------------

NARROW = ("Q(xa) :- Accident(aid, d, t), Casualty(cid, aid, cl, vid), "
          "Vehicle(vid, dri, xa), d = '{district}', t = '{date}'")


def _memory(database, tmp_path):
    return database


def _disk(database, tmp_path):
    return database.with_backend(DiskBackend(database.schema, tmp_path))


def _procshard(database, tmp_path):
    from repro.storage.procshard import ProcessShardedBackend
    return database.with_backend(ProcessShardedBackend(
        database.schema, workers=2, fanout_threshold=0))


@pytest.mark.parametrize("rehome", [_memory, _disk, _procshard],
                         ids=["memory", "disk", "procshard"])
def test_bypass_is_invisible_in_answers_and_accounting(rehome, tmp_path):
    base = simple_accidents(AccidentScale(days=8, max_accidents_per_day=12))
    bindings = sorted({(district, date)
                       for _, district, date in base.relation_tuples(
                           "Accident")})
    db = rehome(base, tmp_path)
    try:
        plans = {}

        def plan_for(binding):
            if binding not in plans:
                text = NARROW.format(district=binding[0], date=binding[1])
                plans[binding] = is_boundedly_evaluable(
                    parse_query(text), db.access_schema).witness["plan"]
            return plans[binding]

        # Cold (drives the bypass up), hot (re-engages: one binding's
        # fetches fit the cache, so a probe eventually lands on a step
        # an earlier probe filled), cold again.
        rng = random.Random(3)
        traffic = (bindings[:12] + [bindings[12]] * 200
                   + rng.sample(bindings[13:], 30))
        cache = FetchCache(capacity=32)
        cache.attach_maintenance(db)
        lookups = 0
        for binding in traffic:
            plan = plan_for(binding)
            plain = Executor(db).execute(plan)
            cached = CachingExecutor(db, cache).execute(plan)
            assert cached.answers == plain.answers
            stats, want = cached.stats, plain.stats
            assert stats.index_lookups == want.index_lookups
            assert (stats.tuples_fetched + stats.tuples_from_cache
                    == want.tuples_fetched)
            assert (stats.fetch_cache_hits + stats.fetch_cache_misses
                    == stats.index_lookups)
            lookups += stats.index_lookups
        info = cache.info()
        assert info.hits + info.misses == lookups
        assert cache.bypassed_lookups > 0 and info.hits > 0
        cache.detach_maintenance()
    finally:
        db.backend.close()
