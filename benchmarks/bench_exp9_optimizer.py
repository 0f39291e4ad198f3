"""EXP-9 — optimizer pipeline: optimized physical vs. logical execution.

Not a paper experiment: this measures the rule-based optimizer and the
batch executor the engine refactor added.  The paper certifies the
*logical* bounded plan (what is fetched is bounded by Q and A alone);
this experiment checks that the physical plan the optimizer derives is
a pure win on top of that guarantee.  Claims checked:

* on join-heavy workloads (accidents Q0-style 3-way joins and
  Graph-Search-style social queries encoded relationally), the
  optimized physical executor is **>= 2x faster** than direct logical
  interpretation (which materializes every ``×`` before selecting);
* answers are **bit-identical** between the two, for every query;
* optimization never *adds* data access: tuples fetched by the
  physical plan never exceed the logical interpretation's;
* the rule trace is reported per rule as plan-size deltas.

The columnar section then replays the storage boundary where the
dictionary-encoded fast path lives (pre-encoded columns vs tuple fetch
plus encode: the two must decode to the same rows, a
``bench_correctness`` check; the speedup is reported), and reports
per-operator throughput plus the steady-state cost of bulk dictionary
encoding.

Run with ``python -m pytest benchmarks/bench_exp9_optimizer.py -x -q``.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict

import pytest

from repro import (AccessConstraint, AccessSchema, Database, Schema,
                   is_boundedly_evaluable)
from repro.engine import (Executor, execute_plan, interpret_logical,
                          optimize)
from repro.engine.executor import AccessStats
from repro.engine.optimizer.specialize import specialized_plan
from repro.query import parse_query
from repro.storage.encoding import ValueDictionary, int_column
from repro.storage.statistics import TableStatistics
from repro.workload.accidents import AccidentScale, simple_accidents
from repro.workload.social import (CITIES, INTERESTS, SocialScale,
                                   relational_social)

from _harness import ExperimentLog, timed

REPEAT = 3
MIN_SPEEDUP = 2.0
BOUNDARY_KEYS = 500
BOUNDARY_FANOUT = 60


@pytest.fixture(scope="module")
def log():
    experiment = ExperimentLog(
        "EXP-9", "optimizer: physical vs logical execution")
    yield experiment
    experiment.flush()


# -- workloads ----------------------------------------------------------------


def accident_queries():
    db = simple_accidents(AccidentScale(days=90, max_accidents_per_day=30))
    rng = random.Random(9)
    accidents = rng.sample(db.relation_tuples("Accident"), 6)
    queries = [
        (f"drivers[{district}@{date}]",
         f"Q(xa) :- Accident(aid, '{district}', '{date}'), "
         "Casualty(cid, aid, cl, vid), Vehicle(vid, dri, xa)")
        for _, district, date in accidents
    ]
    queries.append((
        "day-pair",
        "Q(d1, d2) :- Accident(a1, d1, t), Accident(a2, d2, t), "
        f"t = '{accidents[0][2]}'"))
    return db, queries


def social_db(scale: SocialScale | None = None) -> Database:
    """The social graph of EXP-3, encoded relationally (see
    ``repro.workload.social.relational_social``)."""
    return relational_social(scale or SocialScale(persons=1500))


def social_queries(db: Database):
    rng = random.Random(23)
    people = sorted({row[0] for row in db.relation_tuples("Friend")})
    queries = []
    for me in rng.sample(people, 4):
        city = rng.choice(CITIES)
        interest = rng.choice(INTERESTS)
        queries.append((
            f"graph-search[{me}]",
            f"Q(f) :- Friend(me, f), LivesIn(f, c), Likes(f, i), "
            f"me = '{me}', c = '{city}', i = '{interest}'"))
        queries.append((
            f"friends-of-friends[{me}]",
            f"Q(g) :- Friend(me, f), Friend(f, g), LivesIn(g, c), "
            f"me = '{me}', c = '{city}'"))
    return queries


# -- the experiment -----------------------------------------------------------


def run_workload(name, db, queries, log, failures):
    statistics = TableStatistics.from_database(db)
    rows = []
    deltas = defaultdict(lambda: [0, 0])  # rule -> [fired, steps removed]
    total_logical = total_physical = 0.0
    for label, text in queries:
        query = parse_query(text)
        decision = is_boundedly_evaluable(query, db.access_schema)
        assert decision.is_yes, f"{label} must be bounded: {decision.reason}"
        plan = decision.witness["plan"]
        physical = optimize(plan, statistics)
        for firing in physical.trace.firings:
            deltas[firing.rule][0] += firing.fired
            deltas[firing.rule][1] += (firing.steps_before
                                       - firing.steps_after)

        logical_s, reference = timed(
            lambda: interpret_logical(plan, db), repeat=REPEAT)
        physical_s, optimized = timed(
            lambda: execute_plan(physical, db), repeat=REPEAT)

        if optimized.answers != reference.answers:
            failures.append(f"{name}/{label}: answers differ")
        if (optimized.stats.tuples_fetched
                > reference.stats.tuples_fetched):
            failures.append(
                f"{name}/{label}: optimization added data access "
                f"({optimized.stats.tuples_fetched} > "
                f"{reference.stats.tuples_fetched} tuples)")

        total_logical += logical_s
        total_physical += physical_s
        rows.append([label, len(plan), len(physical),
                     f"{logical_s * 1e3:.2f}ms",
                     f"{physical_s * 1e3:.3f}ms",
                     f"{logical_s / max(physical_s, 1e-9):.1f}x",
                     len(optimized.answers)])

    speedup = total_logical / max(total_physical, 1e-9)
    log.row("")
    log.row(f"-- {name} (|D| = {db.size()}) --")
    log.table(["query", "logical ops", "physical ops", "logical",
               "physical", "speedup", "answers"], rows)
    log.row(f"workload speedup: {speedup:.1f}x "
            f"({total_logical * 1e3:.1f}ms -> {total_physical * 1e3:.1f}ms)")
    return speedup, deltas


# -- the columnar section -----------------------------------------------------


def compiled_plans(db, queries):
    statistics = TableStatistics.from_database(db)
    plans = []
    for label, text in queries:
        decision = is_boundedly_evaluable(parse_query(text),
                                          db.access_schema)
        assert decision.is_yes, f"{label} must be bounded"
        plans.append((label, optimize(decision.witness["plan"],
                                      statistics)))
    return plans


def per_operator_rates(db, queries, repeat=REPEAT):
    """Rows produced per second by each specialized operator closure,
    measured by stepping the warm program one closure at a time."""
    executor = Executor(db)
    totals: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
    for _, physical in compiled_plans(db, queries):
        spec, consts = specialized_plan(physical, db.dictionary)
        for _ in range(repeat):
            stats = AccessStats()
            batches = []
            for step, op_name in zip(spec.steps, spec.labels):
                start = time.perf_counter()
                batch = step(batches, consts, executor, stats)
                elapsed = time.perf_counter() - start
                totals[op_name][0] += elapsed
                totals[op_name][1] += batch.length
                batches.append(batch)
    return {op: int(produced / max(seconds, 1e-9))
            for op, (seconds, produced) in sorted(totals.items())}


def boundary_db() -> Database:
    """A deterministic high-fanout instance sized so one vectorized
    fetch moves ``BOUNDARY_KEYS * BOUNDARY_FANOUT`` rows."""
    schema = Schema.from_dict({"R": ("A", "B", "C")})
    access = AccessSchema(schema, [
        AccessConstraint("R", ("A",), ("B", "C"), BOUNDARY_FANOUT)])
    db = Database(schema, access)
    for key in range(BOUNDARY_KEYS):
        for i in range(BOUNDARY_FANOUT):
            db.insert("R", (f"key-{key}", f"val-{key}-{i}", i))
    return db


def boundary_replay(log, failures):
    """Replay the storage boundary both ways.

    Crossing it as Python tuples would leave the columnar operators to
    dictionary-encode and transpose every batch; incremental encoding
    at insert time moves all of that off the read path, so
    ``fetch_flat_encoded`` just splices pre-encoded array slices.  Both
    reads must decode to the same rows; the speedup is reported,
    independent of how few rows a bounded query moves."""
    db = boundary_db()
    constraint = list(db.access_schema)[0]
    x_values = [(f"key-{key}",) for key in range(BOUNDARY_KEYS)]
    dictionary = db.dictionary
    codes = [dictionary.encode(value) for (value,) in x_values]

    def tuple_fetch():
        rows = db.fetch_flat(constraint, x_values)
        coded = list(map(dictionary.encode_row, rows))
        return [int_column(col) for col in zip(*coded)], len(coded)

    def encoded_fetch():
        return db.fetch_flat_encoded(constraint, codes)

    tuple_s, (tuple_cols, n_rows) = timed(tuple_fetch, repeat=REPEAT)
    encoded_s, (cols, length) = timed(encoded_fetch, repeat=REPEAT)
    if length != n_rows or (dictionary.decode_rows(cols, length)
                            != dictionary.decode_rows(tuple_cols, n_rows)):
        failures.append("boundary replay: encoded fetch decoded to a "
                        "different row set")
    speedup = tuple_s / max(encoded_s, 1e-9)
    log.row("")
    log.row(f"-- storage boundary replay ({BOUNDARY_KEYS} keys x "
            f"{BOUNDARY_FANOUT} rows = {length} rows/fetch) --")
    log.table(["path", "ms/fetch", "rows/sec"],
              [["tuple fetch + encode", f"{tuple_s * 1e3:.3f}",
                f"{int(length / max(tuple_s, 1e-9)):,}"],
               ["pre-encoded columns", f"{encoded_s * 1e3:.3f}",
                f"{int(length / max(encoded_s, 1e-9)):,}"]])
    log.row(f"boundary speedup: {speedup:.1f}x")
    return speedup, int(length / max(encoded_s, 1e-9))


def encode_overhead(db):
    """Steady-state cost of bulk-encoding the whole instance into a
    fresh dictionary — the price insert-time encoding amortizes away
    from the read path."""
    all_rows = [row for name in sorted(db.summary())
                for row in db.relation_tuples(name)]

    def bulk_encode():
        fresh = ValueDictionary()
        encode_row = fresh.encode_row
        for row in all_rows:
            encode_row(row)
        return len(fresh)

    seconds, dict_size = timed(bulk_encode, repeat=REPEAT)
    return seconds, len(all_rows), dict_size


@pytest.fixture(scope="module")
def measured(log):
    """Run both workloads once; identity violations are *collected*
    here and asserted in the bench_correctness test, wall-clock
    thresholds in the (noise-tolerant) speedup test."""
    failures: list[str] = []
    accident_db, acc_queries = accident_queries()
    acc_speedup, acc_deltas = run_workload(
        "accidents", accident_db, acc_queries, log, failures)

    social = social_db()
    soc_speedup, soc_deltas = run_workload(
        "social", social, social_queries(social), log, failures)

    merged = defaultdict(lambda: [0, 0])
    for deltas in (acc_deltas, soc_deltas):
        for rule, (fired, removed) in deltas.items():
            merged[rule][0] += fired
            merged[rule][1] += removed
    log.row("")
    log.row("-- per-rule plan-size deltas (both workloads) --")
    log.table(["rule", "rewrites", "steps removed"],
              [[rule, fired, removed]
               for rule, (fired, removed) in merged.items()])
    log.metric("accidents_speedup", round(acc_speedup, 2))
    log.metric("social_speedup", round(soc_speedup, 2))
    log.metric("rule_firings",
               {rule: fired for rule, (fired, _) in merged.items()})

    boundary_speedup, boundary_rate = boundary_replay(log, failures)
    op_rates = per_operator_rates(social, social_queries(social))
    encode_s, encoded_rows, dict_size = encode_overhead(accident_db)
    log.row("")
    log.row("-- per-operator throughput (social, warm closures) --")
    log.table(["operator", "rows out/sec"],
              [[op, f"{rate:,}"] for op, rate in op_rates.items()])
    log.row(f"bulk encode overhead: {encoded_rows} rows -> "
            f"{dict_size} dictionary entries in {encode_s * 1e3:.2f}ms")

    log.metric("columnar_boundary_speedup", round(boundary_speedup, 1))
    log.metric("columnar_boundary_rows_per_sec", boundary_rate)
    log.metric("operator_rows_per_sec", op_rates)
    log.metric("encode_overhead_ms", round(encode_s * 1e3, 3))
    log.metric("encode_rows_per_sec",
               int(encoded_rows / max(encode_s, 1e-9)))
    return {"failures": failures, "acc_speedup": acc_speedup,
            "soc_speedup": soc_speedup, "merged": merged}


@pytest.mark.bench_correctness
def test_identical_answers_and_no_added_access(measured):
    assert not measured["failures"], measured["failures"][:5]
    # The tentpole rules actually fired (deterministic counters).
    merged = measured["merged"]
    assert merged["product-to-hash-join"][0] > 0
    assert merged["select-into-fetch"][0] > 0


def test_optimizer_speedup(measured):
    acc_speedup = measured["acc_speedup"]
    soc_speedup = measured["soc_speedup"]
    # The join-heavy workloads must show the headline win.
    assert acc_speedup >= MIN_SPEEDUP, f"accidents: only {acc_speedup:.1f}x"
    assert soc_speedup >= MIN_SPEEDUP, f"social: only {soc_speedup:.1f}x"

