"""Inputs come from the seed and nothing else; the oracle is right."""

import hashlib
import random

import pytest
from repro.core.bep import is_boundedly_evaluable
from repro.engine.naive import evaluate
from repro.query.parser import parse_query

import data
from spans import Recorder, median_us
from workloads import (READ, WORKLOADS, ServicePath, Staged, drive,
                       service_answer)


def fingerprint(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def test_the_generators_the_ledger_calls_are_pinned():
    """``repro.workload`` makes the rows and the ad-hoc queries; a
    change there that moves the benchmark's inputs shows here."""
    db = data.instance(48, 5)
    rows = data.rows_of(db)
    assert {name: len(relation) for name, relation in rows.items()} == {
        "Accident": 1007, "Casualty": 2146, "Vehicle": 2146}
    assert fingerprint(rows) == "5d780e2c9991d328"
    requests = data.adhoc_requests(data.Oracle(rows), db, 5, 100)
    assert fingerprint([text for text, _ in requests]) == "a977927209689d68"


def test_same_seed_same_rows_other_seed_other_rows():
    first, again, other = (data.rows_of(data.instance(48, seed))
                           for seed in (5, 5, 6))
    assert first == again
    assert first != other


def test_rows_satisfy_the_access_constraints():
    db = data.instance(48, 3, max_per_day=160)
    assert db.satisfies()
    oracle = data.Oracle(data.rows_of(db))
    # What the oracle's fact table relies on.
    assert set(oracle.casualties) == set(oracle.accident)
    assert all(len(group) == 1 for group in oracle.vehicles.values())
    assert len(oracle.vehicles) == len(oracle.facts())


def nested_loop(rows, district, date):
    return {(age,)
            for aid, where, when in rows["Accident"]
            if where == district and when == date
            for _, of, _, vid in rows["Casualty"] if of == aid
            for vehicle, _, age in rows["Vehicle"] if vehicle == vid}


def test_oracle_matches_a_nested_loop_over_the_raw_rows():
    rows = data.rows_of(data.instance(12, 9))
    oracle = data.Oracle(rows)
    district, date = data.narrow_candidates(oracle)[7]
    expected = nested_loop(rows, district, date)
    assert expected and oracle.narrow(district, date) == expected
    assert oracle.wide(date) >= expected
    # A write the read observes: the oracle follows it there and back.
    victim = next(row for row in rows["Vehicle"] if (row[2],) in expected)
    without = dict(rows, Vehicle=[row for row in rows["Vehicle"]
                                  if row != victim])
    oracle.apply("delete", "Vehicle", victim)
    assert oracle.narrow(district, date) == nested_loop(without, district,
                                                        date)
    oracle.apply("insert", "Vehicle", victim)
    assert oracle.narrow(district, date) == expected


def test_adhoc_oracle_agrees_with_the_naive_evaluator_on_fifty_queries():
    db = data.instance(48, 9)
    oracle = data.Oracle(data.rows_of(db))
    requests = data.adhoc_requests(oracle, db, 9, 50)
    for text, expected in requests:
        assert evaluate(parse_query(text), db) == expected, text
    assert sum(1 for _, expected in requests if expected) >= 10


def test_adhoc_texts_are_distinct_bounded_and_seeded():
    db = data.instance(48, 2)
    oracle = data.Oracle(data.rows_of(db))
    requests = data.adhoc_requests(oracle, db, 2, 200)
    texts = [text for text, _ in requests]
    assert len(set(texts)) == 200 and "$" not in "".join(texts)
    assert all(is_boundedly_evaluable(parse_query(text),
                                      db.access_schema).is_yes
               for text in texts[:30])
    assert sum(text.startswith("Q(xa)") for text in texts) == 8
    assert len({text.split(":-")[1].count("(") for text in texts}) == 3
    assert requests == data.adhoc_requests(oracle, db, 2, 200)
    assert texts != [text for text, _ in
                     data.adhoc_requests(oracle, db, 3, 200)]


def test_zipf_sequence_apportions_shares_exactly():
    pool = list(range(48))
    first = data.zipf_sequence(pool, 2000, random.Random(1))
    second = data.zipf_sequence(pool, 2000, random.Random(2))
    assert first != second
    assert sorted(first) == sorted(second)  # same composition
    assert len(first) == 2000
    hottest = max(set(first), key=first.count)
    assert hottest == 24 and first.count(hottest) == 449  # 1/H(48) share


def test_stratified_picks_one_per_band_from_its_middle():
    candidates = list(range(1000))
    picks = data.stratified(candidates, 10, random.Random(4))
    assert [pick // 100 for pick in picks] == list(range(10))
    assert all(40 <= pick % 100 < 60 for pick in picks)
    assert data.stratified(candidates[:5], 10, random.Random(4)) == [
        0, 1, 2, 3, 4]


def test_fixed_cost_selections_follow_their_targets_not_the_population():
    oracle = data.Oracle(data.rows_of(data.instance(48, 7)))
    candidates = data.narrow_candidates(oracle)
    costs = {(district, date): oracle.cost(date, district)
             for district, date in candidates}
    targets = [20, 20, 20, 41, 60]
    picks = data.at_costs(oracle, candidates, targets)
    assert len(set(picks)) == len(picks)  # without replacement
    assert all(abs(costs[pick] - target) <= 2
               for pick, target in zip(picks, targets))
    # The wide template's ladder: fixed rungs, repeats allowed.
    dates = data.cost_ladder(oracle, 10, 200)
    rungs = [200 * (step + 0.5) / 10 for step in range(10)]
    nearest = [min(oracle.by_date, key=lambda date: abs(
        oracle.cost(date) - rung)) for rung in rungs]
    assert [oracle.cost(date) for date in dates] == [
        oracle.cost(date) for date in nearest]


def test_every_scale_instance_serves_the_same_dq_as_the_largest(tmp_path):
    workload = WORKLOADS["cold_fetch_scale"](3, True, tmp_path)
    try:
        workload.setup()
        played = workload.round()
    finally:
        workload.close()
    assert played.failed == 0
    per_size = played.extra["dq"]
    assert list(per_size) == [12, 24, 48]
    assert abs(per_size[24] / per_size[48] - 1) < 0.05
    # 12 days have fewer bindings than a round has requests: no choice.
    assert abs(per_size[12] / per_size[48] - 1) < 0.25


@pytest.mark.parametrize("name", ["warm_template", "mixed_write_disk"])
def test_same_seed_identical_requests_and_counts(name, tmp_path):
    def run(seed, where):
        where.mkdir()
        workload = WORKLOADS[name](seed, True, where)
        try:
            workload.setup()
            played = workload.round()
            return workload.ops, played
        finally:
            workload.close()

    ops, played = run(4, tmp_path / "a")
    ops_again, played_again = run(4, tmp_path / "b")
    ops_other, _ = run(5, tmp_path / "c")
    assert ops == ops_again
    assert (played.dq, played.ops, played.failed) == (
        played_again.dq, played_again.ops, 0)
    assert ops != ops_other
    assert sum(1 for op in ops if op[0] == READ) == len(played.latencies)


def test_staged_replay_answers_like_the_service_and_times_its_own_wrapper():
    """``service.overhead_us`` is the staged request's self time — not
    what is left of the real service's span after the stages."""
    db = data.instance(12, 4)
    oracle = data.Oracle(data.rows_of(db))
    ops = [(READ, {"district": district, "date": date},
            oracle.narrow(district, date))
           for district, date in data.narrow_candidates(oracle)[:40]]
    path = ServicePath(db, data.NARROW).keep()
    service = [path.persistent.execute_template("t", op[1]) for op in ops]
    recorder = Recorder()
    staged = Staged(recorder, path)
    results, scale = drive(recorder, db, ops, staged.call, None)
    staged.close()
    path.release(path.persistent)
    assert [r.answers for r in results] == [r.answers for r in service]
    assert [r.answers for r in results] == [op[2] for op in ops]
    assert [r.stats.tuples_fetched + r.stats.tuples_from_cache
            for r in results] == [service_answer(r, r.answers)
                                  for r in service]
    assert scale > 0 and {span[5] for span in recorder.spans} == {scale}
    requests = recorder.per_request("staged.request")
    assert len(requests) == len(ops)
    stages = {"templates.bind", "optimizer.specialize", "executor.execute"}
    assert stages < set(requests[0])
    for tally in requests:
        whole, own, _ = tally["staged.request"]
        assert own == pytest.approx(
            whole - sum(tally[stage][0] for stage in stages))
    assert median_us(requests, "staged.request", self_time=True) > 0


def test_a_wrong_answer_an_error_and_a_fallback_all_count_as_failed():
    class Stats:
        tuples_fetched, tuples_from_cache = 3, 4

    class Result:
        answers, bounded, stats = {(1,)}, True, Stats

    assert service_answer(Result, {(1,)}) == 7
    assert service_answer(Result, {(2,)}) is None
    assert service_answer(ValueError("boom"), {(1,)}) is None
    fallback = type("Fallback", (Result,), {"bounded": False})
    assert service_answer(fallback, {(1,)}) is None
