"""EXP-11 — durability: disk-engine recovery time and fetch overhead.

Not a paper experiment: this measures the durable storage engine.  The
paper's bounded-evaluation guarantee is about *how much* data a query
touches; the disk engine's job is to make that data survive a restart
without giving the guarantee back.  Claims checked:

* answers and access accounting (index lookups, tuples fetched) are
  **bit-identical** between the memory engine and the disk engine, and
  between a disk engine and its own reopened (recovered) self — these
  are counter assertions and run in the non-continue-on-error
  ``bench_correctness`` CI step;
* recovery is **complete**: every row written before the close is back
  after the reopen, whether it came from the WAL, a snapshot, or a
  snapshot plus a WAL tail, and write generations are preserved;
* cold-open time (WAL replay vs. snapshot segments) and the disk
  engine's read-path overhead vs. memory are **reported** — wall-clock
  on shared runners is noise, so these numbers carry no hard
  assertions.

Run with ``python -m pytest benchmarks/bench_exp11_durability.py -x -q``.
"""

from __future__ import annotations

import random

import pytest

from repro import Database, is_boundedly_evaluable
from repro.engine import optimize
from repro.engine.executor import AccessStats, Executor
from repro.obs import MetricsRegistry, attach_storage_collector
from repro.query import parse_query
from repro.storage.disk import DiskBackend, disk_backend_factory
from repro.workload.accidents import AccidentScale, simple_accidents

from _harness import ExperimentLog, timed

SCALE = AccidentScale(days=40, max_accidents_per_day=60)
QUERIES = 6
OPEN_REPEAT = 3
FETCH_REPEAT = 10


@pytest.fixture(scope="module")
def log():
    experiment = ExperimentLog(
        "EXP-11", "durability: disk-engine recovery and fetch overhead")
    yield experiment
    experiment.flush()


class RecordingExecutor(Executor):
    """Harvests the (constraint, X-value batch) pairs a plan issues so
    the overhead comparison replays *real* traffic: each fetch step's
    code keys, decoded (every key here is a stored value)."""

    def __init__(self, db):
        super().__init__(db)
        self.batches: list[tuple[object, list[tuple]]] = []

    def _fetch_flat_encoded(self, constraint, keys, stats):
        decode = self.db.dictionary.decode
        code_keys = ([(key,) for key in keys] if len(constraint.x) == 1
                     else keys)
        self.batches.append((constraint, [tuple(map(decode, key))
                                          for key in code_keys]))
        return super()._fetch_flat_encoded(constraint, keys, stats)


def accident_queries(db):
    rng = random.Random(11)
    dates = sorted({row[2] for row in db.relation_tuples("Accident")})
    return [
        (f"drivers-on[{date}]",
         f"Q(xa) :- Accident(aid, d, t), Casualty(cid, aid, cl, vid), "
         f"Vehicle(vid, dri, xa), t = '{date}'")
        for date in rng.sample(dates, QUERIES)
    ]


def compile_plans(db, queries):
    plans = []
    for label, text in queries:
        decision = is_boundedly_evaluable(parse_query(text),
                                          db.access_schema)
        assert decision.is_yes, f"{label} must be bounded: {decision.reason}"
        plans.append((label, optimize(decision.witness["plan"])))
    return plans


def run_all(executor, plans):
    stats = AccessStats()
    answers = []
    for _, plan in plans:
        result = executor.execute(plan)
        stats.merge(result.stats)
        answers.append(result.answers)
    return answers, stats


def replay(db, batches):
    return [db.fetch_flat(constraint, x_values)
            for constraint, x_values in batches]


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    """One memory oracle instance plus the same instance built straight
    onto a disk engine, with the query workload compiled once."""
    data_dir = tmp_path_factory.mktemp("exp11") / "data"
    memory_db = simple_accidents(SCALE)
    disk_db = simple_accidents(
        SCALE, backend_factory=disk_backend_factory(data_dir))
    queries = accident_queries(memory_db)
    plans = compile_plans(memory_db, queries)
    return {
        "data_dir": data_dir,
        "memory_db": memory_db,
        "disk_db": disk_db,
        "plans": plans,
    }


def reopen(setup) -> Database:
    """Close whatever holds the data directory and recover it."""
    setup["disk_db"].backend.close()
    memory_db = setup["memory_db"]
    db = Database(memory_db.schema, memory_db.access_schema,
                  backend=DiskBackend(memory_db.schema, setup["data_dir"]))
    setup["disk_db"] = db
    return db


@pytest.mark.bench_correctness
def test_identical_answers_and_accounting_across_media_and_restart(
        setup, log):
    memory_db, disk_db = setup["memory_db"], setup["disk_db"]
    plans = setup["plans"]
    reference, ref_stats = run_all(Executor(memory_db), plans)
    disk_answers, disk_stats = run_all(Executor(disk_db), plans)

    assert disk_answers == reference
    assert disk_stats.index_lookups == ref_stats.index_lookups
    assert disk_stats.tuples_fetched == ref_stats.tuples_fetched

    generations = {name: disk_db.generation(name)
                   for name in memory_db.schema.relation_names()}
    recovered = reopen(setup)
    assert recovered.summary() == memory_db.summary()
    for name, generation in generations.items():
        assert recovered.generation(name) == generation
    recovered_answers, recovered_stats = run_all(Executor(recovered), plans)
    assert recovered_answers == reference
    assert recovered_stats.index_lookups == ref_stats.index_lookups
    assert recovered_stats.tuples_fetched == ref_stats.tuples_fetched

    log.row("")
    log.row(f"identity: {len(plans)} queries bit-identical on "
            "memory / disk / recovered-disk "
            f"({ref_stats.index_lookups} lookups, "
            f"{ref_stats.tuples_fetched} tuples everywhere)")
    log.metric("db_size", memory_db.size())
    log.metric("index_lookups", ref_stats.index_lookups)
    log.metric("tuples_fetched", ref_stats.tuples_fetched)
    log.metric("answers_total",
               sum(len(answers) for answers in reference))


def test_cold_open_and_fetch_overhead_report(setup, log):
    memory_db = setup["memory_db"]
    schema = memory_db.schema
    data_dir = setup["data_dir"]
    plans = setup["plans"]
    size = memory_db.size()

    # -- cold open from the WAL (no snapshot yet) -------------------------
    setup["disk_db"].backend.close()

    def cold_open():
        backend = DiskBackend(schema, data_dir)
        rows = sum(backend.relation_size(name)
                   for name in schema.relation_names())
        backend.close()
        return rows

    wal_s, wal_rows = timed(cold_open, repeat=OPEN_REPEAT)
    assert wal_rows == size  # completeness is a hard (counter) claim

    # -- cold open from a snapshot ---------------------------------------
    compacting = DiskBackend(schema, data_dir)
    compacting.snapshot()
    compacting.close()
    snap_s, snap_rows = timed(cold_open, repeat=OPEN_REPEAT)
    assert snap_rows == size

    # -- index rebuild (attach) on a recovered engine --------------------
    recovered = reopen(setup)
    attach_s, _ = timed(
        lambda: recovered.attach_access_schema(memory_db.access_schema),
        repeat=OPEN_REPEAT)

    # -- read-path overhead: replay real fetch batches -------------------
    recorder = RecordingExecutor(memory_db)
    for _, plan in plans:
        recorder.execute(plan)
    batches = recorder.batches
    memory_s, memory_rows = timed(
        lambda: replay(memory_db, batches), repeat=FETCH_REPEAT)
    disk_s, disk_rows = timed(
        lambda: replay(recovered, batches), repeat=FETCH_REPEAT)
    assert [frozenset(batch) for batch in disk_rows] == \
        [frozenset(batch) for batch in memory_rows]
    overhead = disk_s / max(memory_s, 1e-9)

    log.row("")
    log.row(f"-- cold open (|D| = {size} rows, best of {OPEN_REPEAT}) --")
    log.table(
        ["recovery path", "time", "rows/s"],
        [["WAL replay", f"{wal_s * 1e3:.1f}ms",
          f"{size / max(wal_s, 1e-9):,.0f}"],
         ["snapshot segments", f"{snap_s * 1e3:.1f}ms",
          f"{size / max(snap_s, 1e-9):,.0f}"],
         ["index rebuild (attach)", f"{attach_s * 1e3:.1f}ms", "-"]])
    log.row(f"fetch overhead, disk vs memory, replaying "
            f"{len(batches)} real batches: {overhead:.2f}x "
            "(read path is the same in-memory indexes; report-only)")
    log.metric("rows_recovered", size)
    log.metric("cold_open_wal_ms", round(wal_s * 1e3, 3))
    log.metric("cold_open_snapshot_ms", round(snap_s * 1e3, 3))
    log.metric("attach_index_build_ms", round(attach_s * 1e3, 3))
    log.metric("fetch_overhead_disk_vs_memory_ratio", round(overhead, 3))
    # The recovered engine's own tallies (snapshot rows loaded, WAL
    # tail replayed, torn bytes skipped), mirrored through the storage
    # collector so BENCH_exp-11.json diffs the recovery trajectory
    # under the same repro_storage_* names `repro stats` exposes.
    registry = MetricsRegistry()
    attach_storage_collector(registry, recovered.backend)
    log.metric("observability", registry.as_flat_dict())
    recovered.backend.close()
