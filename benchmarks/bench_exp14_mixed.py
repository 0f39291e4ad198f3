"""EXP-14 — mixed read/write traffic: incremental cache maintenance.

Not a paper experiment: this measures the write story the ROADMAP adds
on top of the reproduction.  Before PR 10 every write bumped the
written relation's generation and thereby cold-started the *entire*
fetch cache for that relation; under even 10% writes a serving tier
spent most of its time re-fetching entries whose content the writes
never touched.  With incremental maintenance the backend surfaces a
per-write delta (exactly which distinct projections appeared or
disappeared, per attached constraint) and the fetch cache applies it to
the directly addressed entries, leaving every other entry warm.

Claims checked here:

* under a mixed workload with **10% writes**, the fetch-cache hit rate
  stays **>= 60%** (hard trajectory floor) on the memory *and* the disk
  engine;
* the maintained caches keep storage work low: storage
  ``tuples_fetched`` and index lookups per request are recorded for
  both engines and for a one-entry (no-cache) service over the same
  template, pool, seed and writes, which must fetch more tuples from
  storage per request than the maintained memory run;
* answers served through maintained caches are **bit-identical** to a
  cold uncached service and to the naive scan evaluator, for every
  binding, *after* all the writes have landed;
* p95 request latency under writes is reported for the trajectory
  record (warn-only: wall clock).

Every run is single-threaded on ``random.Random(14)``, so the per-request
counts are deterministic counters of the code.

Run with ``python -m pytest benchmarks/bench_exp14_mixed.py -x -q``.
"""

from __future__ import annotations

import random
import statistics

import pytest

from repro.engine.naive import evaluate_cq
from repro.query import parse_cq
from repro.service import BoundedQueryService
from repro.storage.disk import disk_backend_factory
from repro.workload.accidents import AccidentScale, simple_accidents

from _harness import ExperimentLog

TEMPLATE = ("Q(xa) :- Accident(aid, d, t), Casualty(cid, aid, cl, vid), "
            "Vehicle(vid, dri, xa), d = $district, t = $date")

SCALE = AccidentScale(days=90, max_accidents_per_day=30)
REQUESTS = 400
DISTINCT_BINDINGS = 16
WRITE_FRACTION = 0.10


@pytest.fixture(scope="module")
def log():
    experiment = ExperimentLog(
        "EXP-14", "mixed read/write traffic: incremental cache maintenance")
    yield experiment
    experiment.flush()


def bound_text(binding) -> str:
    return (f"Q(xa) :- Accident(aid, '{binding['district']}', "
            f"'{binding['date']}'), Casualty(cid, aid, cl, vid), "
            "Vehicle(vid, dri, xa)")


def run_mixed(db, *, write_fraction: float, fetch_cache_size: int = 4096):
    """Drive one mixed read/write loop against a fresh service.

    Writes rotate over all three relations the template reads: insert a
    brand-new casualty (fresh cid, random existing accident and
    vehicle), or rewrite (delete + reinsert) one existing accident or
    vehicle row.  Every write bumps its relation's generation; the
    rewrites leave the instance's *content* unchanged, which is exactly
    the traffic incremental maintenance wins on: the deltas refresh the
    touched entries in place and every other entry stays warm.  With
    ``fetch_cache_size=1`` the service keeps (almost) nothing between
    requests: the no-cache contrast.
    """
    service = BoundedQueryService(db, fetch_cache_size=fetch_cache_size)
    service.register_template("drivers", TEMPLATE)

    rng = random.Random(14)
    accidents = db.relation_tuples("Accident")
    vehicles = db.relation_tuples("Vehicle")
    casualties = db.relation_tuples("Casualty")
    next_cid = 0
    classes = sorted({row[2] for row in casualties})
    pool = [{"district": row[1], "date": row[2]}
            for row in rng.sample(accidents, DISTINCT_BINDINGS)]

    for binding in pool:  # prime
        service.execute_template("drivers", binding)

    before = service.stats().fetch_cache
    latencies = []
    tuples_fetched = index_lookups = 0
    writes = 0
    for _ in range(REQUESTS):
        if rng.random() < write_fraction:
            kind = rng.randrange(3)
            if kind == 0:
                row = (f"c-new-{next_cid}", rng.choice(accidents)[0],
                       rng.choice(classes), rng.choice(vehicles)[0])
                db.insert("Casualty", row)
                next_cid += 1
            elif kind == 1:
                row = rng.choice(accidents)
                db.delete("Accident", row)
                db.insert("Accident", row)
            else:
                row = rng.choice(vehicles)
                db.delete("Vehicle", row)
                db.insert("Vehicle", row)
            writes += 1
        result = service.execute_template("drivers", rng.choice(pool))
        latencies.append(result.latency_s)
        tuples_fetched += result.stats.tuples_fetched
        index_lookups += result.stats.index_lookups
    after = service.stats().fetch_cache

    hits = after.hits - before.hits
    misses = after.misses - before.misses
    latencies.sort()
    return {
        "service": service,
        "pool": pool,
        "writes": writes,
        "hit_rate": hits / max(hits + misses, 1),
        "tuples_fetched_per_request": tuples_fetched / REQUESTS,
        "index_lookups_per_request": index_lookups / REQUESTS,
        "p50_ms": statistics.median(latencies) * 1e3,
        "p95_ms": latencies[min(len(latencies) - 1,
                                int(len(latencies) * 0.95))] * 1e3,
    }


@pytest.fixture(scope="module")
def mixed(log, tmp_path_factory):
    """The measured runs: maintained memory + disk, and a one-entry
    (no-cache) memory service for contrast."""
    runs = {}
    databases = {}

    databases["memory"] = simple_accidents(SCALE)
    runs["memory"] = run_mixed(databases["memory"],
                               write_fraction=WRITE_FRACTION)

    data_dir = tmp_path_factory.mktemp("exp14-disk")
    databases["disk"] = simple_accidents(
        SCALE, backend_factory=disk_backend_factory(data_dir))
    runs["disk"] = run_mixed(databases["disk"],
                             write_fraction=WRITE_FRACTION)

    no_cache = run_mixed(simple_accidents(SCALE),
                         write_fraction=WRITE_FRACTION, fetch_cache_size=1)
    arms = {**runs, "no_cache": no_cache}

    log.row("")
    log.table(
        ["run", "writes", "hit rate", "tuples/req", "lookups/req", "p50",
         "p95"],
        [[label, run["writes"], f"{run['hit_rate']:.1%}",
          f"{run['tuples_fetched_per_request']:.2f}",
          f"{run['index_lookups_per_request']:.2f}",
          f"{run['p50_ms']:.3f}ms", f"{run['p95_ms']:.3f}ms"]
         for label, run in arms.items()])
    for label, run in runs.items():
        cache = run["service"].fetch_cache
        log.row(f"{label}: {cache.maintained_deltas} deltas applied in "
                f"place ({cache.maintained_entries} entries updated), "
                f"{cache.maintenance_fallbacks} fallbacks")
    log.row("")
    log.row(f"claim: fetch-cache hit rate stays >= 60% at "
            f"{WRITE_FRACTION:.0%} writes; a one-entry cache fetches "
            f"{no_cache['tuples_fetched_per_request']:.2f} storage tuples "
            f"per request.")
    log.row(f"measured: memory {runs['memory']['hit_rate']:.1%}, "
            f"disk {runs['disk']['hit_rate']:.1%}")

    log.metric("write_fraction", WRITE_FRACTION)
    log.metric("requests", REQUESTS)
    for label, run in runs.items():
        log.metric(f"hit_rate_10pct_writes_{label}",
                   round(run["hit_rate"], 4))
        cache = run["service"].fetch_cache
        log.metric(f"maintained_deltas_{label}", cache.maintained_deltas)
        log.metric(f"maintenance_fallbacks_{label}",
                   cache.maintenance_fallbacks)
    for label, run in arms.items():
        log.metric(f"p95_ms_{label}", round(run["p95_ms"], 4))
        log.metric(f"tuples_fetched_per_request_{label}",
                   round(run["tuples_fetched_per_request"], 4))
        log.metric(f"index_lookups_per_request_{label}",
                   round(run["index_lookups_per_request"], 4))
    # Hard floors: the fresh hit rate alone must clear them, baseline
    # or not — this is the headline claim.
    log.gate("hit_rate_10pct_writes_memory", min_value=0.6)
    log.gate("hit_rate_10pct_writes_disk", min_value=0.6)

    yield {"runs": runs, "databases": databases, "no_cache": no_cache}
    databases["disk"].backend.close()


@pytest.mark.bench_correctness
def test_maintained_answers_bit_identical(mixed):
    """After all writes have landed, every binding's answer through the
    maintained caches equals a cold uncached service's and the naive
    scan evaluator's — on both engines."""
    for label, run in mixed["runs"].items():
        db = mixed["databases"][label]
        cold_service = BoundedQueryService(db)
        for binding in run["pool"]:
            warm = run["service"].execute_template("drivers", binding)
            cold = cold_service.execute(bound_text(binding))
            naive = evaluate_cq(parse_cq(bound_text(binding)), db)
            assert warm.answers == cold.answers == naive, (label, binding)
            assert warm.bounded and cold.bounded


@pytest.mark.bench_correctness
def test_maintenance_keeps_cache_warm_under_writes(mixed):
    for label, run in mixed["runs"].items():
        assert run["hit_rate"] >= 0.6, (label, run["hit_rate"])
        assert run["writes"] > 0
        assert run["service"].fetch_cache.maintained_deltas > 0, label
    # The contrast: the same traffic (as many index lookups), but
    # without a cache to keep warm it reads measurably more tuples
    # from storage per request.
    arms = [*mixed["runs"].values(), mixed["no_cache"]]
    assert len({arm["index_lookups_per_request"] for arm in arms}) == 1
    assert (mixed["no_cache"]["tuples_fetched_per_request"]
            > mixed["runs"]["memory"]["tuples_fetched_per_request"])
