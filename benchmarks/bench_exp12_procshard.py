"""EXP-12 — process-parallel sharded storage over the encoded boundary.

Not a paper experiment: this measures the PR 8 ``procshard`` backend —
shard worker *processes* behind the encoded fetch boundary.  The paper's
bounded-evaluation contract is what makes the topology cheap to cross: a
fetch batch ships as ``(constraint id, encoded X-key codes)`` and comes
back as flat ``array('q')`` code columns, so the per-row IPC cost is 8
bytes per column, not a pickled value tuple.  Claims checked:

* replaying 1M+-row synthetic fetch traffic, the encoded boundary on
  procshard (4 workers) and on an in-process ``MemoryBackend`` return
  **bit-identical** rows and ``|D_Q|`` accounting to a plain per-key
  ``db.fetch`` loop, and end-to-end answers agree — process fan-out
  changes topology, never answers (``bench_correctness``);
* the IPC toll is reported honestly: procshard vs the same encoded
  replay in process (``procshard_ipc_overhead_ratio``, warn-only
  wall-clock — on one box the hop can only cost; the win is cores and
  isolation).  End-to-end latency is judged by the ledger's
  ``procshard_fanout`` workload, not here;
* the RPC ledger is deterministic: logical bytes shipped/received and
  request counts are pure functions of the replayed traffic, recorded
  as hard counter metrics;
* a worker fleet over a durable disk writer serves reads that are
  identical to the writer's, row order included, across inserts and
  deletes (the standalone CI smoke, no 1M fixture needed).

Run with ``python -m pytest benchmarks/bench_exp12_procshard.py -x -q``.
"""

from __future__ import annotations

import random

import pytest

from repro import is_boundedly_evaluable
from repro.engine import optimize
from repro.engine.executor import AccessStats, Executor
from repro.obs import MetricsRegistry
from repro.query import parse_query
from repro.schema.access import AccessConstraint, AccessSchema
from repro.schema.relation import Schema
from repro.storage.database import Database
from repro.storage.procshard import ProcessShardedBackend

from _harness import ExperimentLog, timed, timed_median

#: |R| = N_KEYS * GROUP_SIZE rows — the ISSUE's 1M+ floor.
N_KEYS = 150_000
GROUP_SIZE = 7
WORKERS = 4
N_BATCHES = 40
KEYS_PER_BATCH = 1_500
#: Best-of repeats; the fixture is big, so keep the multiplier small.
BOUNDARY_REPEAT = 3
E2E_REPEAT = 3
N_QUERIES = 8
BOUND = 16


@pytest.fixture(scope="module")
def log():
    experiment = ExperimentLog(
        "EXP-12", "process-sharded storage over the encoded boundary")
    yield experiment
    experiment.flush()


# -- workload -----------------------------------------------------------------


def build_schema():
    schema = Schema.from_dict({"R": ("A", "B", "C")})
    aschema = AccessSchema(
        schema, [AccessConstraint("R", ("A",), ("B", "C"), BOUND)])
    return schema, aschema


def synthetic_rows(n_keys: int, group_size: int) -> list[tuple]:
    """``n_keys`` X-groups of ``group_size`` distinct rows.  Values are
    strings, as in the paper's real datasets (dates, ids, names): a
    value-space lookup pays string hashing and comparison, while the
    encoded paths ship nothing but int codes — the dictionary trade
    this whole repo is built on.  B and C reuse values across groups so
    the code space stays small and shared."""
    return [(f"k{key}", f"b{(key * 31 + j) % 50_000}", f"c{j}")
            for key in range(n_keys) for j in range(group_size)]


def fetch_traffic(constraint, rng: random.Random):
    """Synthetic bounded-plan traffic: batches of distinct X-keys, the
    shape ``_fetch_flat_encoded`` sees from specialized fetch steps."""
    return [(constraint,
             [(f"k{key}",)
              for key in rng.sample(range(N_KEYS), KEYS_PER_BATCH)])
            for _ in range(N_BATCHES)]


def point_queries(rng: random.Random):
    return [(f"group[{key}]",
             f"Q(b, c) :- R(a, b, c), a = 'k{key}'")
            for key in rng.sample(range(N_KEYS), N_QUERIES)]


# -- replay helpers -----------------------------------------------------------


def replay_per_key(db, batches):
    """The reference: one plain ``db.fetch`` per X-value, rows as
    sorted value tuples per batch."""
    return [sorted(row for x_value in x_values
                   for row in db.fetch(constraint, x_value))
            for constraint, x_values in batches]


def encode_batches(db, batches):
    """Value-space batches translated into the code-space keys the
    specialized fetch closures issue (bare codes for scalar X)."""
    encode = db.dictionary.encode
    return [(constraint, [encode(x_value[0]) for x_value in x_values])
            for constraint, x_values in batches]


def replay_encoded(executor, coded_batches):
    stats = AccessStats()
    out = [executor._fetch_flat_encoded(constraint, keys, stats)
           for constraint, keys in coded_batches]
    return out, stats


def decoded_multisets(db, encoded_out):
    """Encoded replay output decoded back to sorted value-row lists,
    one per batch.  Row order inside a flat batch is storage-layout
    dependent (procshard concatenates per-worker parts), so multiset
    identity is the meaningful comparison."""
    decode_rows = db.dictionary.decode_rows
    return [sorted(decode_rows(cols, length))
            for cols, length in encoded_out]


# -- plan + execution helpers -------------------------------------------------


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


# -- the boundary replay (identity + reported IPC toll) -----------------------


def run_boundary(db, proc, batches, log, failures):
    memory_executor = Executor(db)
    proc_executor = Executor(proc)
    coded_mem = encode_batches(db, batches)
    coded_proc = encode_batches(proc, batches)

    reference = replay_per_key(db, batches)
    encoded_s, (encoded_out, encoded_stats) = timed(
        lambda: replay_encoded(memory_executor, coded_mem),
        repeat=BOUNDARY_REPEAT)
    proc_s, (proc_out, proc_stats) = timed(
        lambda: replay_encoded(proc_executor, coded_proc),
        repeat=BOUNDARY_REPEAT)

    # Bit-identical rows, batch for batch, on both encoded paths, and
    # the per-key loop's |D_Q| accounting: one lookup per X-value, every
    # row counted.  Violations are collected here and asserted in the
    # bench_correctness test.
    x_total = sum(len(x_values) for _, x_values in batches)
    tuples = sum(len(rows) for rows in reference)
    for path_name, path_db, out, stats in (
            ("memory/encoded", db, encoded_out, encoded_stats),
            (f"procshard[{WORKERS}]/encoded", proc, proc_out, proc_stats)):
        if decoded_multisets(path_db, out) != reference:
            failures.append(f"{path_name}: fetched rows differ")
        if stats.index_lookups != x_total or stats.tuples_fetched != tuples:
            failures.append(
                f"{path_name}: accounting differs "
                f"({stats.index_lookups}/{stats.tuples_fetched} vs "
                f"{x_total}/{tuples})")

    ipc_ratio = proc_s / max(encoded_s, 1e-9)
    log.row("")
    log.row(f"-- boundary: {len(batches)} fetch batches, {x_total} "
            f"X-keys, {tuples} tuples out of |R| = {db.size()} "
            f"(best of {BOUNDARY_REPEAT}) --")
    log.table(
        ["boundary", "time", "rows/sec"],
        [["memory/encoded", f"{encoded_s * 1e3:.2f}ms",
          f"{int(tuples / max(encoded_s, 1e-9)):,}"],
         [f"procshard[{WORKERS}]/encoded", f"{proc_s * 1e3:.2f}ms",
          f"{int(tuples / max(proc_s, 1e-9)):,}"]])
    log.row(f"IPC toll vs in-process encoded: {ipc_ratio:.1f}x "
            "(one hop, one box — the hop can only cost here)")
    log.metric("procshard_ipc_overhead_ratio", round(ipc_ratio, 2))
    log.metric("memory_encoded_boundary_ms", round(encoded_s * 1e3, 3))
    log.metric("procshard_boundary_ms", round(proc_s * 1e3, 3))
    log.metric("boundary_x_keys", x_total)
    log.metric("boundary_tuples", tuples)
    return proc_executor, coded_proc


def rpc_ledger(proc, proc_executor, coded_proc, log):
    """One extra replay with the RPC counters bracketed: logical bytes
    (key and result codes x 8) and request counts are deterministic
    functions of the traffic — hard trajectory counters, unlike any
    wall-clock number this file emits."""
    before = dict(proc.backend.counters())
    replay_encoded(proc_executor, coded_proc)
    after = proc.backend.counters()
    delta = {key: after[key] - before.get(key, 0)
             for key in ("rpc_requests_total", "rpc_bytes_shipped_total",
                         "rpc_bytes_received_total", "worker_reads_total")}
    log.row("")
    log.row("-- RPC ledger for one replay (logical bytes: codes x 8, "
            "deterministic) --")
    log.table(["counter", "per replay"],
              [[key, f"{value:,}"] for key, value in delta.items()])
    return delta


# -- the end-to-end comparison (identity + reported times) --------------------


def run_end_to_end(db, proc, plans, log, failures):
    configs = [
        ("memory/columnar", Executor(db)),
        (f"procshard[{WORKERS}]/columnar", Executor(proc)),
    ]
    rows = []
    timings = {}
    baseline_answers = baseline_stats = None
    for config_name, executor in configs:
        seconds, (answers, stats) = timed_median(
            lambda executor=executor: run_all(executor, plans),
            repeat=E2E_REPEAT)
        timings[config_name] = seconds
        if baseline_answers is None:
            baseline_answers, baseline_stats = answers, stats
        else:
            if answers != baseline_answers:
                failures.append(f"{config_name}: answers differ")
            if (stats.index_lookups != baseline_stats.index_lookups
                    or stats.tuples_fetched
                    != baseline_stats.tuples_fetched):
                failures.append(
                    f"{config_name}: end-to-end accounting differs")
        rows.append([config_name, f"{seconds * 1e3:.2f}ms",
                     stats.index_lookups, stats.tuples_fetched])

    log.row("")
    log.row(f"-- end-to-end: {len(plans)} point queries on |R| = "
            f"{db.size()} (median of {E2E_REPEAT}; the ledger's "
            "procshard_fanout workload judges this latency) --")
    log.table(["config", "time", "index lookups", "tuples fetched"], rows)
    log.metric("end_to_end_median_ms", {
        config: round(seconds * 1e3, 3)
        for config, seconds in timings.items()})
    log.metric("end_to_end_tuples_fetched", baseline_stats.tuples_fetched)
    log.metric("end_to_end_index_lookups", baseline_stats.index_lookups)
    return baseline_stats


def registry_dump(stats: AccessStats, ledger: dict,
                  dictionary_entries: int) -> dict:
    """The access accounting and the RPC ledger mirrored through a
    :class:`~repro.obs.metrics.MetricsRegistry`, so BENCH_exp-12.json
    carries the same metric names a scraped procshard service exposes."""
    registry = MetricsRegistry()
    registry.counter("repro_fetch_calls_total").set_total(stats.fetch_calls)
    registry.counter(
        "repro_index_lookups_total").set_total(stats.index_lookups)
    registry.counter(
        "repro_tuples_fetched_total").set_total(stats.tuples_fetched)
    for key, value in ledger.items():
        registry.counter(f"repro_storage_{key}").set_total(value)
    registry.gauge(
        "repro_storage_dictionary_entries").set(dictionary_entries)
    return registry.as_flat_dict()


@pytest.fixture(scope="module")
def measured(log):
    """The 1M+-row workload, measured once; identity violations are
    collected for the bench_correctness test."""
    failures: list[str] = []
    schema, aschema = build_schema()
    db = Database(schema)
    db.insert_many("R", synthetic_rows(N_KEYS, GROUP_SIZE))
    db.attach_access_schema(aschema)
    # fanout_threshold=0: every encoded fetch crosses the process
    # boundary — this benchmark must price the hop, not dodge it.
    proc = db.with_backend(ProcessShardedBackend(
        schema, workers=WORKERS, fanout_threshold=0))
    try:
        constraint = next(iter(aschema))
        batches = fetch_traffic(constraint, random.Random(12))
        proc_executor, coded_proc = run_boundary(
            db, proc, batches, log, failures)
        ledger = rpc_ledger(proc, proc_executor, coded_proc, log)
        plans = compile_plans(db, point_queries(random.Random(34)))
        e2e_stats = run_end_to_end(db, proc, plans, log, failures)

        totals = AccessStats()
        totals.merge(e2e_stats)
        log.metric("rows_total", db.size())
        log.metric("observability",
                   registry_dump(totals, ledger, len(db.dictionary)))
        gauges = proc.backend.gauges()
        log.row("")
        log.row(f"gauges: dictionary {gauges['dictionary_bytes']:,} bytes, "
                f"{gauges['workers_alive']} workers alive")
    finally:
        proc.backend.close()
    return {"failures": failures}


@pytest.mark.bench_correctness
def test_identical_rows_and_accounting_on_every_path(measured):
    assert not measured["failures"], measured["failures"][:5]


# -- worker smoke (standalone: CI runs this without the 1M fixture) -----------


SMOKE_KEYS = 120


@pytest.mark.bench_correctness
def test_procshard_worker_smoke(tmp_path):
    """2 workers over a disk writer on a small load, every read fanned
    out: each key must be answered with the coordinator store's rows,
    code for code and in the same order, before any write and after an
    insert round and a delete round that the workers must apply."""
    schema, aschema = build_schema()
    backend = ProcessShardedBackend(
        schema, workers=2, data_dir=tmp_path / "shard", fanout_threshold=0)
    db = Database(schema, backend=backend)
    try:
        initial = synthetic_rows(SMOKE_KEYS, 3)
        db.insert_many("R", initial)
        db.attach_access_schema(aschema)
        constraint = next(iter(aschema))
        keys = [f"k{key}" for key in range(0, SMOKE_KEYS, 3)]
        rounds = [(None, []),
                  (db.insert_many, [(f"k{key}", f"b{key + 7}", "c5")
                                    for key in range(SMOKE_KEYS)]),
                  (db.delete_many, initial[::2])]

        def per_key(entries):
            return [[list(column) for column in cols]
                    for cols, _ in entries]

        for round_no, (write, rows) in enumerate(rounds):
            if write is not None:
                size = db.relation_size("R")
                write("R", rows)
                assert db.relation_size("R") != size, \
                    f"round {round_no} wrote nothing"
            coded = [db.dictionary.encode(key) for key in keys]
            expected = per_key(
                backend._store.fetch_many_encoded(constraint, coded))
            got = per_key(db.fetch_many_encoded(constraint, coded))
            assert got == expected, f"round {round_no}: rows differ"

        counters = backend.counters()
        assert counters["worker_reads_total"] > 0, \
            "the workers never served a read"
        assert counters["local_reads_total"] == 0, \
            "a read fell back to the coordinator's store"
        assert backend.gauges()["workers_alive"] == 2
    finally:
        backend.close()
