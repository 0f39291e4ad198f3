"""Simulated production traffic against the bounded-evaluation service.

A dashboard backend serves the same handful of parameterized lookups
over and over — exactly the workload :class:`repro.service.
BoundedQueryService` is built for.  This demo:

1. generates a synthetic UK-accidents instance (Example 1.1's schema
   with its access constraints ψ1–ψ4);
2. registers two templates (drivers involved on a district+day; the
   district of a given accident);
3. fires a skewed stream of requests — a few hot bindings dominate, a
   long tail of cold ones — through a batch;
4. inserts fresh accidents mid-stream and shows the fetch cache
   invalidating (no stale answers), then prints the service counters.

Run with::

    PYTHONPATH=src python examples/service_traffic.py
"""

from __future__ import annotations

import random

from repro.service import BatchRequest, BoundedQueryService
from repro.workload.accidents import AccidentScale, simple_accidents

DRIVERS = ("Q(xa) :- Accident(aid, d, t), Casualty(cid, aid, cl, vid), "
           "Vehicle(vid, dri, xa), d = $district, t = $date")
DISTRICT = "Q(d) :- Accident(aid, d, t), aid = $aid"


def main() -> None:
    rng = random.Random(1979)
    db = simple_accidents(AccidentScale(days=90, max_accidents_per_day=40))
    print(f"database: {db}")

    service = BoundedQueryService(db)
    for name, text in [("drivers", DRIVERS), ("district", DISTRICT)]:
        template = service.register_template(name, text)
        print(template)

    # Zipf-ish traffic: 3 hot (district, date) pairs get ~80% of requests.
    accidents = db.relation_tuples("Accident")
    hot = rng.sample(accidents, 3)
    tail = rng.sample(accidents, 40)
    requests = []
    for _ in range(400):
        row = rng.choice(hot) if rng.random() < 0.8 else rng.choice(tail)
        if rng.random() < 0.7:
            requests.append(BatchRequest(
                template="drivers",
                params={"district": row[1], "date": row[2]}))
        else:
            requests.append(BatchRequest(
                template="district", params={"aid": row[0]}))

    report = service.execute_batch(requests)
    print()
    print("-- steady-state traffic " + "-" * 40)
    print(report.summary())

    # A write lands mid-stream: the per-relation generation bump makes
    # every cached Accident fetch stale, so the next requests see it.
    aid, district, date = "a999999", hot[0][1], hot[0][2]
    before = service.execute_template("district", {"aid": aid})
    db.insert("Accident", (aid, district, date))
    after = service.execute_template("district", {"aid": aid})
    print()
    print("-- write invalidation " + "-" * 43)
    print(f"district({aid}) before insert: {sorted(before.answers)}")
    print(f"district({aid}) after insert:  {sorted(after.answers)}")
    assert after.answers == {(district,)}

    print()
    print("-- service counters " + "-" * 45)
    print(service.stats())


if __name__ == "__main__":
    main()
