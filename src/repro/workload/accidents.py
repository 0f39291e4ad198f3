"""Synthetic UK road-accident data (the stand-in for dataset [1]).

The paper's Example 1.1 runs on the UK traffic-accident data 1979–2005:
Accident (7.5M), Casualty (10M), Vehicle (13.5M) tuples, satisfying

    ψ1: Accident(date -> aid, 610)        # <= 610 accidents per day
    ψ2: Casualty(aid -> vid, 192)         # <= 192 vehicles per accident
    ψ3: Accident(aid -> (district, date), 1)
    ψ4: Vehicle(vid -> (driver, age), 1)

We cannot ship the data, so this generator produces instances *of any
size* that satisfy exactly those constraints (plus realistic skew: two
vehicles per accident on average, matching the paper's "the chances are
that we need to access 610 × 2 × 2 tuples only").  Bounded evaluation
depends on the constraints a dataset satisfies, not on its values, so
plan shapes and access counts transfer.

Two flavours:

* :func:`simple_accidents` — the paper's simplified 3-relation schema,
  used by Q0 and the EXP-1/EXP-4 benchmarks;
* :func:`extended_accidents` — a wider schema (severity, weather, road
  class, age bands, ...) whose discovered access schema has dozens of
  constraints, standing in for the paper's "84 simple access
  constraints" (EXP-2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from ..schema.access import AccessConstraint, AccessSchema
from ..schema.relation import Schema
from ..storage.backend import StorageBackend
from ..storage.database import Database

#: Optional storage-engine hook shared by the workload generators: a
#: callable from the generated schema to the backend the instance
#: should live on.
BackendFactory = Optional[Callable[[Schema], StorageBackend]]

DISTRICTS = [
    "Queens Park", "Soho", "Camden", "Islington", "Hackney", "Brixton",
    "Greenwich", "Croydon", "Ealing", "Harrow", "Ilford", "Sutton",
    "Leith", "Morningside", "Partick", "Didsbury", "Jericho", "Heaton",
]
SEVERITIES = ["fatal", "serious", "slight"]
WEATHER = ["fine", "rain", "snow", "fog", "wind"]
ROAD_TYPES = ["motorway", "a-road", "b-road", "minor"]
CASUALTY_CLASSES = ["driver", "passenger", "pedestrian"]
AGE_BANDS = ["0-15", "16-25", "26-45", "46-65", "66+"]
MAKES = ["ford", "vauxhall", "bmw", "toyota", "honda", "rover", "mini"]


def simple_schema() -> Schema:
    """The 3-relation schema of Example 1.1."""
    return Schema.from_dict({
        "Accident": ("aid", "district", "date"),
        "Casualty": ("cid", "aid", "class", "vid"),
        "Vehicle": ("vid", "driver", "age"),
    })


def canonical_access_schema(schema: Schema | None = None,
                            per_day: int = 610,
                            per_accident: int = 192) -> AccessSchema:
    """ψ1–ψ4 of Example 1.1 (bounds adjustable, as the paper allows:
    "possibly with cardinality bounds mildly adjusted")."""
    schema = schema or simple_schema()
    return AccessSchema(schema, [
        AccessConstraint("Accident", ("date",), ("aid",), per_day),
        AccessConstraint("Casualty", ("aid",), ("vid",), per_accident),
        AccessConstraint("Accident", ("aid",), ("district", "date"), 1),
        AccessConstraint("Vehicle", ("vid",), ("driver", "age"), 1),
    ])


@dataclass
class AccidentScale:
    """Size knobs for the generator."""

    days: int = 30
    max_accidents_per_day: int = 40
    mean_casualties: float = 2.0
    max_casualties: int = 12
    seed: int = 20150531  # PODS'15 started May 31 2015.


def _dates(days: int) -> list[str]:
    dates = []
    day, month, year = 1, 1, 1979
    for _ in range(days):
        dates.append(f"{day}/{month}/{year}")
        day += 1
        if day > 28:
            day = 1
            month += 1
            if month > 12:
                month = 1
                year += 1
    return dates


def simple_accidents(scale: AccidentScale | None = None,
                     access_schema: AccessSchema | None = None,
                     backend_factory: BackendFactory = None) -> Database:
    """Generate a simple-schema instance satisfying ψ1–ψ4.

    Total size is roughly ``days * max_accidents_per_day / 2 *
    (1 + 2 * mean_casualties)`` tuples.  ``backend_factory`` picks the
    storage engine, e.g. ``disk_backend_factory(data_dir)``
    (default: the in-memory engine).
    """
    scale = scale or AccidentScale()
    rng = random.Random(scale.seed)
    schema = simple_schema()
    db = Database(schema, access_schema or canonical_access_schema(schema),
                  backend=backend_factory(schema) if backend_factory
                  else None)

    # Rows are collected in generation order and loaded with one write
    # per relation.
    rows: dict[str, list[tuple]] = {
        name: [] for name in schema.relation_names()}
    aid = cid = vid = 0
    for date in _dates(scale.days):
        accidents_today = rng.randint(1, scale.max_accidents_per_day)
        for _ in range(accidents_today):
            aid += 1
            district = rng.choice(DISTRICTS)
            rows["Accident"].append((f"a{aid}", district, date))
            n_casualties = min(scale.max_casualties, max(1, round(
                rng.expovariate(1.0 / scale.mean_casualties))))
            for _ in range(n_casualties):
                cid += 1
                vid += 1
                rows["Vehicle"].append((
                    f"v{vid}",
                    f"driver{rng.randrange(10 ** 6)}",
                    rng.randint(17, 90),
                ))
                rows["Casualty"].append((
                    f"c{cid}", f"a{aid}",
                    rng.choice(CASUALTY_CLASSES), f"v{vid}",
                ))
    for name, relation_rows in rows.items():
        db.insert_many(name, relation_rows)
    return db


def extended_schema() -> Schema:
    """A wider accident schema for constraint discovery (EXP-2)."""
    return Schema.from_dict({
        "Accident": ("aid", "district", "date", "severity", "weather",
                     "road_type"),
        "Casualty": ("cid", "aid", "class", "age_band", "vid"),
        "Vehicle": ("vid", "make", "driver", "age"),
    })


def extended_access_schema(schema: Schema | None = None,
                           per_day: int = 610,
                           per_accident: int = 192) -> AccessSchema:
    """A curated access schema over the extended schema.

    The analogue of the paper's "84 simple access constraints": keys on
    every relation, the per-day and per-accident fan-out bounds, and the
    FK back-pointers.  Deliberately *not* every discoverable constraint:
    a query whose only selection is, say, ``weather`` stays uncovered,
    which is what produces a coverage *rate* below 100% (EXP-2) — on a
    toy-sized instance blind discovery finds a tight bound for every
    attribute pair and trivializes the experiment.
    """
    schema = schema or extended_schema()
    return AccessSchema(schema, [
        AccessConstraint("Accident", ("aid",),
                         ("district", "date", "severity", "weather",
                          "road_type"), 1),
        AccessConstraint("Accident", ("date",), ("aid",), per_day),
        AccessConstraint("Casualty", ("cid",),
                         ("aid", "class", "age_band", "vid"), 1),
        AccessConstraint("Casualty", ("aid",),
                         ("cid", "class", "age_band", "vid"), per_accident),
        AccessConstraint("Casualty", ("vid",),
                         ("cid", "aid", "class", "age_band"), 2),
        AccessConstraint("Vehicle", ("vid",), ("make", "driver", "age"), 1),
    ])


def extended_accidents(scale: AccidentScale | None = None,
                       backend_factory: BackendFactory = None) -> Database:
    """Generate an extended-schema instance (no access schema attached;
    callers usually discover one)."""
    scale = scale or AccidentScale()
    rng = random.Random(scale.seed + 1)
    schema = extended_schema()
    db = Database(schema, backend=backend_factory(schema)
                  if backend_factory else None)

    rows: dict[str, list[tuple]] = {
        name: [] for name in schema.relation_names()}
    aid = cid = vid = 0
    for date in _dates(scale.days):
        for _ in range(rng.randint(1, scale.max_accidents_per_day)):
            aid += 1
            rows["Accident"].append((
                f"a{aid}", rng.choice(DISTRICTS), date,
                rng.choices(SEVERITIES, weights=[1, 5, 20])[0],
                rng.choices(WEATHER, weights=[10, 5, 1, 1, 2])[0],
                rng.choice(ROAD_TYPES),
            ))
            n_casualties = min(scale.max_casualties, max(1, round(
                rng.expovariate(1.0 / scale.mean_casualties))))
            for _ in range(n_casualties):
                cid += 1
                vid += 1
                rows["Vehicle"].append((
                    f"v{vid}", rng.choice(MAKES),
                    f"driver{rng.randrange(10 ** 6)}",
                    rng.randint(17, 90),
                ))
                rows["Casualty"].append((
                    f"c{cid}", f"a{aid}", rng.choice(CASUALTY_CLASSES),
                    rng.choice(AGE_BANDS), f"v{vid}",
                ))
    for name, relation_rows in rows.items():
        db.insert_many(name, relation_rows)
    return db
