"""``key-projection`` folding changes how many ops run, never what they
compute or fetch.

Each plan is optimized twice, with and without the rule.  Both runs
must decode to the same answers, make the same fetch calls, index
lookups and tuples fetched (each audited against a per-key replay by
:func:`fetch_audit.audited`), and the folded run may hold no larger an
intermediate.  The generated plans are the covered qgen CQs and the
accident templates the ledger serves; the count pin below holds those
templates to the shape the rule exists for.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.core import analyze_coverage
from repro.engine import build_bounded_plan, optimize
from repro.engine.naive import evaluate
from repro.engine.optimizer import DEFAULT_RULES, SemiJoinOp
from repro.engine.optimizer.rules import KeyProjectionFolding
from repro.engine.optimizer.specialize import specialize
from repro.query import parse_cq, parse_query
from repro.service.templates import bind_physical_plan
from repro.storage.statistics import TableStatistics
from repro.workload.accidents import AccidentScale, simple_accidents
from repro.workload.qgen import accident_workload_config, random_cq

from fetch_audit import audited

#: The ledger's two templates (``ledger/data.py``), copied so tier-1
#: pins their shape without importing the benchmark.
NARROW = ("Q(xa) :- Accident(aid, d, t), Casualty(cid, aid, cl, vid), "
          "Vehicle(vid, dri, xa), d = $district, t = $date")
WIDE = ("Q(xa) :- Accident(aid, d, t), Casualty(cid, aid, cl, vid), "
        "Vehicle(vid, dri, xa), t = $date")
TEMPLATES = {"narrow": (NARROW, frozenset({"district", "date"})),
             "wide": (WIDE, frozenset({"date"}))}

DB = simple_accidents(AccidentScale(days=6, max_accidents_per_day=6))
STATISTICS = TableStatistics.from_database(DB)
CONFIG = accident_workload_config(DB.schema)
DISTRICTS = sorted({row[1] for row in DB.relation_tuples("Accident")})
DATES = sorted({row[2] for row in DB.relation_tuples("Accident")})
WITHOUT = tuple(rule for rule in DEFAULT_RULES
                if rule is not KeyProjectionFolding)


def template_plan(text):
    coverage = analyze_coverage(parse_cq(text), DB.access_schema)
    assert coverage.is_covered
    return build_bounded_plan(coverage)


PLANS = {name: template_plan(text) for name, (text, _) in TEMPLATES.items()}


def binding(name, district, date):
    """``(bind, oracle answers)`` for one binding of template ``name``."""
    text, parameters = TEMPLATES[name]
    values = {"district": district, "date": date}
    values = {key: values[key] for key in parameters}
    concrete = text.replace("$district", repr(district)) \
        .replace("$date", repr(date))

    def bind(physical):
        return bind_physical_plan(physical, parameters, values)
    return bind, evaluate(parse_query(concrete), DB)


def check_folding_is_invisible(plan, bind=None, logical=None):
    """Run ``plan`` optimized with and without the rule; return the
    folded answers."""
    runs = []
    for rules in (DEFAULT_RULES, WITHOUT):
        physical = optimize(plan, STATISTICS, rules=rules)
        executable = physical if bind is None else bind(physical)
        result, _ = audited(DB, executable, logical)
        runs.append(result)
    folded, plain = runs
    assert folded.answers == plain.answers
    for field in ("fetch_calls", "index_lookups", "tuples_fetched"):
        assert getattr(folded.stats, field) == getattr(plain.stats, field)
    assert folded.stats.max_intermediate <= plain.stats.max_intermediate
    return folded.answers


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_qgen_queries_fetch_and_answer_alike(seed):
    query = random_cq(random.Random(seed), CONFIG)
    coverage = analyze_coverage(query, DB.access_schema)
    if coverage.is_covered:
        plan = build_bounded_plan(coverage)
        assert check_folding_is_invisible(plan, logical=plan) == \
            evaluate(query, DB)


def test_the_qgen_property_exercises_both_rewrites():
    """Guard against the property passing on plans the rule leaves
    alone: fixed seeds must yield folded fetches and semi-joins."""
    folded = semi_joins = 0
    for seed in range(60):
        coverage = analyze_coverage(random_cq(random.Random(seed), CONFIG),
                                    DB.access_schema)
        if coverage.is_covered:
            physical = optimize(build_bounded_plan(coverage), STATISTICS)
            firings = {f.rule: f.fired for f in physical.trace.firings}
            folded += firings["key-projection"] > 0
            semi_joins += any(isinstance(op, SemiJoinOp)
                              for op in physical.steps)
    assert folded >= 10 and semi_joins >= 5


@given(name=st.sampled_from(sorted(TEMPLATES)),
       district=st.sampled_from(DISTRICTS + ["Nowhere"]),
       date=st.sampled_from(DATES + ["1/1/1900"]))
@settings(max_examples=40, deadline=None)
def test_templates_fetch_and_answer_alike(name, district, date):
    bind, oracle = binding(name, district, date)
    assert check_folding_is_invisible(PLANS[name], bind) == oracle


def test_templates_run_at_most_three_gathers_in_eleven_ops():
    date = DATES[0]
    district = next(row[1] for row in DB.relation_tuples("Accident")
                    if row[2] == date)
    for name in TEMPLATES:
        physical = optimize(PLANS[name], STATISTICS)
        spec = specialize(physical)
        assert spec.op_counts.get("gather", 0) <= 3, physical.explain()
        assert len(spec) <= 11, physical.explain()
        bind, oracle = binding(name, district, date)
        result, _ = audited(DB, bind(physical))
        assert result.answers == oracle and oracle


def test_semi_join_rows_are_bounded_by_the_probe_side():
    physical = optimize(PLANS["narrow"], STATISTICS)
    joins = [index for index, op in enumerate(physical.steps)
             if isinstance(op, SemiJoinOp)]
    assert joins
    for index in joins:
        probe = physical.steps[index].probe
        assert physical.estimates[index] == physical.estimates[probe]
    # Without the rule the same joins multiply their inputs' bounds.
    plain = optimize(PLANS["narrow"], STATISTICS, rules=WITHOUT)
    assert max(plain.estimates) > max(physical.estimates)
