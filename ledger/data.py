"""Seeded inputs and the pure-Python oracle.

The rows are ``repro.workload.accidents.simple_accidents`` and the
ad-hoc queries ``repro.workload.qgen.random_cq`` — the generators every
figure in the ROADMAP was measured on — driven by the run's seed and
nothing else.  ``ledger/tests/test_ledger_inputs.py`` pins both by
fingerprint, so a later change to ``repro.workload`` that moves the
benchmark's inputs fails a ledger test instead of passing as a gain.

What is made here is the request sequencing and the oracle.  The
sequencing is built so that a seed varies the keys and not the amount
of work: binding pools are drawn at fixed quantiles of the candidates'
|D_Q| (:func:`stratified`) or nearest to fixed |D_Q| targets
(:func:`at_costs`, :func:`cost_ladder`), Zipf shares are apportioned,
not drawn (:func:`zipf_sequence`), and the ad-hoc shapes come from one
fixed ``random_cq`` stream (:data:`SHAPE_SEED`), only their constants
from the run's seed.

The oracle never touches the engine: it answers both templates and
every qgen query from plain dicts over the generated rows, and mirrors
the writes of the mixed workload.
"""

from __future__ import annotations

import bisect
import math
import random

from repro.core.bep import is_covered
from repro.query.ast import CQ, Equality
from repro.query.terms import Const
from repro.storage.database import Database
from repro.workload.accidents import AccidentScale, simple_accidents
from repro.workload.qgen import accident_workload_config, random_cq

NARROW = ("Q(xa) :- Accident(aid, d, t), Casualty(cid, aid, cl, vid), "
          "Vehicle(vid, dri, xa), d = $district, t = $date")
WIDE = ("Q(xa) :- Accident(aid, d, t), Casualty(cid, aid, cl, vid), "
        "Vehicle(vid, dri, xa), t = $date")

#: Column order of the oracle's joined fact table.
FACT = ("cid", "aid", "class", "vid", "district", "date", "driver", "age")
_COLUMN = {name: position for position, name in enumerate(FACT)}


def instance(days: int, seed: int, max_per_day: int = 40,
             backend_factory=None) -> Database:
    """The paper's three-relation accident instance with ψ1–ψ4
    attached, on the memory backend unless a factory says otherwise."""
    return simple_accidents(
        AccidentScale(days=days, max_accidents_per_day=max_per_day,
                      seed=seed), backend_factory=backend_factory)


def rows_of(db: Database) -> dict[str, list[tuple]]:
    """The raw rows by relation name, in insertion order."""
    return {name: db.relation_tuples(name)
            for name in db.schema.relation_names()}


def user_bytes(row: tuple) -> int:
    """Bytes of user data in one row: its values as text, no framing."""
    return sum(len(str(value)) for value in row)


class Oracle:
    """Ground truth over the generated rows, in plain dicts.

    ``by_date`` and the accident attributes never change; casualty and
    vehicle rows can be deleted and re-inserted (:meth:`apply`), which
    is all the mixed workload writes.
    """

    def __init__(self, rows: dict[str, list[tuple]]):
        self.rows = rows
        self.by_date: dict[str, list[tuple]] = {}
        for aid, district, date in rows["Accident"]:
            self.by_date.setdefault(date, []).append((aid, district))
        self.accident = {aid: (district, date)
                         for aid, district, date in rows["Accident"]}
        #: aid -> live Casualty rows; vid -> live Vehicle rows.
        self.casualties: dict[str, set] = {}
        self.vehicles: dict[str, set] = {}
        for row in rows["Casualty"]:
            self.casualties.setdefault(row[1], set()).add(row)
        for row in rows["Vehicle"]:
            self.vehicles.setdefault(row[0], set()).add(row)
        self._facts = None

    def apply(self, kind: str, relation: str, row: tuple) -> None:
        """Mirror one write (``"insert"``/``"delete"``)."""
        index, key = ((self.casualties, row[1]) if relation == "Casualty"
                      else (self.vehicles, row[0]))
        if kind == "insert":
            index.setdefault(key, set()).add(row)
        else:
            index[key].discard(row)

    def _ages(self, aids) -> set[tuple]:
        ages = set()
        for aid in aids:
            for casualty in self.casualties.get(aid, ()):
                for vehicle in self.vehicles.get(casualty[3], ()):
                    ages.add((vehicle[2],))
        return ages

    def narrow(self, district: str, date: str) -> set[tuple]:
        """Answers of :data:`NARROW` for one binding."""
        return self._ages(aid for aid, where in self.by_date.get(date, ())
                          if where == district)

    def wide(self, date: str) -> set[tuple]:
        """Answers of :data:`WIDE` for one binding."""
        return self._ages(aid for aid, _ in self.by_date.get(date, ()))

    def cost(self, date: str, district: str | None = None) -> int:
        """Tuples the bounded plan touches for one binding — the |D_Q|
        that pools are stratified on."""
        todays = self.by_date.get(date, ())
        matching = [aid for aid, where in todays
                    if district is None or where == district]
        linked = sum(len(self.casualties.get(aid, ())) for aid in matching)
        return (len(todays) * (1 if district is None else 2) + 2 * linked)

    # -- qgen queries ------------------------------------------------------

    def facts(self) -> list[tuple]:
        """The three-way join, one :data:`FACT` row per casualty.

        ``simple_accidents`` gives every accident at least one casualty
        and every casualty exactly one vehicle, so each sub-join along
        qgen's foreign-key edges is a projection of this table.
        """
        if self._facts is None:
            vehicle = {row[0]: row for row in self.rows["Vehicle"]}
            self._facts = [
                (cid, aid, cls, vid, *self.accident[aid],
                 vehicle[vid][1], vehicle[vid][2])
                for cid, aid, cls, vid in self.rows["Casualty"]]
            self._fact_index = {}
            for attribute in ("aid", "vid", "date"):
                index: dict = {}
                column = _COLUMN[attribute]
                for fact in self._facts:
                    index.setdefault(fact[column], []).append(fact)
                self._fact_index[attribute] = index
        return self._facts

    def adhoc(self, query: CQ, schema) -> set[tuple]:
        """Answers of one ``random_cq`` query over the original rows:
        its constant selections filter the fact table, its head
        projects it.  (Join equalities hold in every fact row.)"""
        candidates = self.facts()
        attribute = {
            term: name for atom in query.atoms for name, term in
            zip(schema.relation(atom.relation).attributes, atom.terms)}
        checks = [(attribute[eq.left], eq.right.value)
                  for eq in query.equalities if eq.is_var_const]
        for name, value in checks:
            if name in self._fact_index:
                candidates = self._fact_index[name].get(value, ())
                break
        columns = [(_COLUMN[name], value) for name, value in checks]
        project = [_COLUMN[attribute[var]] for var in query.head]
        return {tuple(fact[p] for p in project) for fact in candidates
                if all(fact[c] == value for c, value in columns)}


#: Seed of the ``random_cq`` stream the ad-hoc shapes come from, the
#: same for every run (qgen's own default year).  What a request costs
#: to compile follows its shape, and the p50 sits between two shape
#: classes: with shapes drawn from the run's seed it moved by 7-10 %
#: from seed to seed, and |D_Q| by 11 %.  The run's seed picks the
#: constants.
SHAPE_SEED = 20150531
#: |D_Q| of the days ad-hoc date selections name: the median day of the
#: base instance (20 accidents, two casualties and vehicles each).
ADHOC_DAY_COST = 100


def adhoc_requests(oracle: Oracle, db: Database, seed: int,
                   count: int) -> list[tuple[str, set]]:
    """``count`` distinct ``(query text, expected answers)`` pairs,
    constants inlined: the first covered (hence boundedly evaluable)
    draws of ``random_cq`` under EXP-2's selection probabilities (cut
    down to the three-relation schema), their constants re-drawn from
    the run's seed, and every 25th request the narrow query.
    """
    shapes, rng = random.Random(SHAPE_SEED), random.Random(seed)
    schema, access = db.schema, db.access_schema
    config = accident_workload_config(schema)
    pools = {
        (relation, name): list(pool)
        for (relation, name), pool in config.selectable.items()
        if name in schema.relation(relation).attributes}
    config.selectable = pools
    # As many dates as EXP-2's pool has, those whose day costs closest
    # to ADHOC_DAY_COST tuples: a date selection touches the whole day,
    # and execution is not what this workload varies.
    near = sorted(oracle.by_date, key=lambda date: (
        abs(oracle.cost(date) - ADHOC_DAY_COST), date))
    pools["Accident", "date"] = near[:min(
        len(near) // 5, len(pools["Accident", "date"]))]
    narrow = iter(stratified(narrow_candidates(oracle), count // 25 + 1,
                             rng))
    out, seen = [], set()
    while len(out) < count:
        if len(out) % 25 == 24:
            district, date = next(narrow)
            out.append((NARROW.replace("$district", repr(district))
                        .replace("$date", repr(date)),
                        oracle.narrow(district, date)))
            continue
        shape = random_cq(shapes, config, name="Q")
        # Covered is the PTIME sufficient condition for boundedly
        # evaluable (Theorem 3.11); the full decision costs 10x as
        # much on the draws it would reject.
        if not is_covered(shape, access).is_yes:
            continue
        attribute = {
            term: (atom.relation, name) for atom in shape.atoms
            for name, term in zip(schema.relation(atom.relation).attributes,
                                  atom.terms)}
        # A text already used: the same shape with other constants, so
        # that request i has the same shape for every seed (a shape
        # whose few bindings are used up is passed over).
        for _ in range(20):
            query = CQ(shape.name, shape.head, shape.atoms, [
                Equality(eq.left,
                         Const(rng.choice(pools[attribute[eq.left]])))
                if eq.is_var_const else eq for eq in shape.equalities])
            text = str(query)
            if text not in seen:
                seen.add(text)
                out.append((text, oracle.adhoc(query, schema)))
                break
    return out


def stratified(candidates: list, count: int, rng: random.Random) -> list:
    """``count`` distinct picks from ``candidates`` (sorted by cost),
    one from the middle fifth of each of ``count`` equal quantile
    bands, in band order.  The middle fifth, because a band's edges
    hold its atypical members (see :func:`narrow_candidates`)."""
    count = min(count, len(candidates))
    width = len(candidates) / count
    return [candidates[int((band + 0.4 + 0.2 * rng.random()) * width)]
            for band in range(count)]


def at_costs(oracle: Oracle, candidates: list, targets: list) -> list:
    """For each target |D_Q|, the not yet taken ``(district, date)`` of
    ``candidates`` (sorted by cost) whose cost is nearest."""
    costed = [(oracle.cost(date, district), (district, date))
              for district, date in candidates]
    picks = []
    for target in targets:
        at = bisect.bisect_left(costed, (target,))
        near = min(range(max(0, at - 1), min(len(costed), at + 1)),
                   key=lambda index: abs(costed[index][0] - target))
        picks.append(costed.pop(near)[1])
    return picks


def cost_ladder(oracle: Oracle, steps: int, top: int) -> list[str]:
    """``steps`` dates whose |D_Q| under the wide template is nearest
    to the rungs of an even ladder from 0 to ``top`` (the same date
    twice where an instance has fewer days than rungs).  The rungs are
    fixed, so the work of a round does not move with the few hundred
    days one seed happens to draw."""
    by_cost = sorted((oracle.cost(date), date) for date in oracle.by_date)
    costs = [cost for cost, _ in by_cost]
    dates = []
    for step in range(steps):
        rung = top * (step + 0.5) / steps
        at = bisect.bisect_left(costs, rung)
        dates.append(min(by_cost[max(0, at - 1):at + 1],
                         key=lambda entry: abs(entry[0] - rung))[1])
    return dates


def narrow_candidates(oracle: Oracle) -> list[tuple[str, str]]:
    """Every ``(district, date)`` with a non-empty answer, cheapest
    first; equal |D_Q| is ordered by how it splits into accidents and
    matching accidents, so the middle of a cost band is also typical in
    shape (ties then by value: the order depends on the instance
    alone)."""
    keyed = [(oracle.cost(date, district), len(todays),
              sum(where == district for _, where in todays), date, district)
             for date, todays in oracle.by_date.items()
             for district in {where for _, where in todays}]
    keyed.sort()
    return [(district, date) for *_, date, district in keyed]


def zipf_sequence(pool: list, count: int, rng: random.Random) -> list:
    """``count`` requests over ``pool`` (sorted by cost), rank ``r``
    getting its exact 1/r share, in seeded order.

    Ranks are laid over the cost bands by a fixed stride from the
    middle band, and shares are apportioned, not drawn: which *keys*
    are hot depends on the seed (it chose the pool), how many requests
    each cost band receives does not — so a percentile of the latency
    distribution sits in the same band for every seed.
    """
    n = len(pool)
    stride = max(1, round(n * 0.618))
    while math.gcd(stride, n) != 1:
        stride += 1
    ranked = [pool[(n // 2 + rank * stride) % n] for rank in range(n)]
    harmonic = sum(1.0 / (rank + 1) for rank in range(n))
    shares = [count / ((rank + 1) * harmonic) for rank in range(n)]
    counts = [int(share) for share in shares]
    # Largest remainders take what rounding down left over.
    for rank in sorted(range(n), key=lambda r: counts[r] - shares[r])[
            :count - sum(counts)]:
        counts[rank] += 1
    sequence = [member for member, times in zip(ranked, counts)
                for _ in range(times)]
    rng.shuffle(sequence)
    return sequence
