"""Unit tests for the optimizer pipeline: lowering, each rewrite rule,
the trace, physical-plan binding, and executor dispatch."""

from __future__ import annotations

import pytest

from repro import (AccessConstraint, AccessSchema, Database, ExecutionError,
                   Schema)
from repro.core import analyze_coverage
from repro.engine import (ColEq, ConstEq, ConstOp, FetchOp, Plan, ProductOp,
                          ProjectOp, RenameOp, SelectOp, UnionOp,
                          build_bounded_plan, build_union_plan, execute_plan,
                          interpret_logical, optimize)
from repro.engine.optimizer import (CrossJoinOp, FusedFetchOp, HashJoinOp,
                                    PhysicalPlan)
from repro.query import parse_cq, parse_ucq
from repro.query.terms import Param
from repro.service.templates import bind_physical_plan
from repro.storage.statistics import TableStatistics


@pytest.fixture
def world():
    schema = Schema.from_dict({"R": ("A", "B"), "S": ("B", "C")})
    r_ab = AccessConstraint("R", ("A",), ("B",), 3)
    s_bc = AccessConstraint("S", ("B",), ("C",), 1)
    aschema = AccessSchema(schema, [r_ab, s_bc])
    db = Database(schema, aschema)
    db.insert_many("R", [(1, 10), (1, 11), (2, 12)])
    db.insert_many("S", [(10, "x"), (11, "y"), (12, "z")])
    return schema, aschema, r_ab, s_bc, db


def bounded_plan(text, aschema):
    coverage = analyze_coverage(parse_cq(text), aschema)
    return build_bounded_plan(coverage)


# -- pipeline basics ----------------------------------------------------------


def test_unoptimized_lowering_matches_logical(world):
    *_, aschema, r_ab, s_bc, db = world
    plan = bounded_plan("Q(z) :- R(x, y), S(y, z), x = 1", aschema)
    direct = optimize(plan, rules=())
    assert isinstance(direct, PhysicalPlan)
    assert execute_plan(direct, db).answers == \
        interpret_logical(plan, db).answers == {("x",), ("y",)}


def test_trace_reports_rules_and_step_counts(world):
    *_, aschema, _, _, db = world
    plan = bounded_plan("Q(z) :- R(x, y), S(y, z), x = 1", aschema)
    physical = optimize(plan)
    trace = physical.trace
    assert trace.logical_steps == len(plan)
    assert trace.physical_steps == len(physical)
    assert len(physical) < len(plan)
    assert "product-to-hash-join" in trace.fired_rules()
    assert "select-into-fetch" in trace.fired_rules()
    assert "optimizer:" in trace.explain()
    assert execute_plan(physical, db).answers == \
        interpret_logical(plan, db).answers


def test_physical_explain_lists_every_step(world):
    *_, aschema, _, _, db = world
    physical = optimize(bounded_plan("Q(y) :- R(x, y), x = 1", aschema),
                        TableStatistics.from_database(db))
    text = physical.explain()
    assert "physical plan" in text
    for index in range(len(physical)):
        assert f"T{index} = " in text
    assert "rows <=" in text  # estimates are annotated


# -- individual rules ---------------------------------------------------------


def test_join_becomes_hash_join_without_products(world):
    *_, aschema, _, _, db = world
    plan = bounded_plan("Q(z) :- R(x, y), S(y, z), x = 1", aschema)
    physical = optimize(plan)
    kinds = [type(op) for op in physical.steps]
    assert HashJoinOp in kinds
    assert CrossJoinOp not in kinds
    assert execute_plan(physical, db).answers == {("x",), ("y",)}


def test_constant_selection_fuses_into_fetch(world):
    *_, aschema, _, _, db = world
    # x = 1 pins the fetch; the verification select lands on the fetch
    # output and must be fused.
    plan = bounded_plan("Q(y) :- R(x, y), x = 1", aschema)
    physical = optimize(plan)
    fused = [op for op in physical.steps if isinstance(op, FusedFetchOp)]
    assert fused
    assert execute_plan(physical, db).answers == {(10,), (11,)}


def test_shared_fetch_is_not_fused(world):
    _, _, r_ab, _, db = world
    # Hand-written plan: the fetch feeds both a select and a union, so
    # fusing the select's condition into it would corrupt the union arm.
    plan = Plan("shared")
    const = plan.add(ConstOp("k", 1))
    fetch = plan.add(FetchOp(const, ("k",), r_ab, ("fa", "fb")))
    selected = plan.add(SelectOp(fetch, (ConstEq("fb", 10),)))
    plan.add(UnionOp((fetch, selected)))
    physical = optimize(plan)
    assert not any(isinstance(op, FusedFetchOp) for op in physical.steps)
    assert execute_plan(physical, db).answers == \
        interpret_logical(plan, db).answers == {(1, 10), (1, 11)}


def test_common_subplan_merges_duplicate_fetches_across_disjuncts(world):
    *_, aschema, _, _, db = world
    union = parse_ucq("Q(y) :- R(x, y), x = 1 ; "
                      "Q(y) :- R(x, y), x = 1, y = 11")
    coverages = [analyze_coverage(d, aschema) for d in union.disjuncts]
    plan = build_union_plan(coverages)
    physical = optimize(plan)
    assert "common-subplan" in physical.trace.fired_rules()
    # Both disjuncts fetch R(A=1); the physical plan runs it once.
    assert len(physical.fetch_ops()) < len(plan.fetch_ops())
    optimized = execute_plan(physical, db)
    reference = interpret_logical(plan, db)
    assert optimized.answers == reference.answers == {(10,), (11,)}
    assert optimized.stats.index_lookups < reference.stats.index_lookups


def test_dead_steps_are_counted(world):
    *_, aschema, _, _, _ = world
    physical = optimize(bounded_plan("Q(y) :- R(x, y), x = 1", aschema))
    firing = {f.rule: f for f in physical.trace.firings}["dead-step"]
    assert firing.fired > 0


def test_join_ordering_builds_on_the_smaller_side(world):
    _, _, r_ab, s_bc, db = world
    # left: bound-3 fetch; right: bound-1 fetch -> default build=right
    # is already optimal.  Swap the sides and the rule must flip it.
    def join_plan(first, second):
        plan = Plan("join")
        ka = plan.add(ConstOp("ka", 1))
        left = plan.add(FetchOp(ka, ("ka",), first, ("la", "lb")))
        kb = plan.add(ConstOp("kb", 10))
        right = plan.add(FetchOp(kb, ("kb",), second, ("rb", "rc")))
        cross = plan.add(ProductOp(left, right))
        plan.add(SelectOp(cross, (ColEq("lb", "rb"),)))
        return plan

    flipped = optimize(join_plan(s_bc, r_ab))  # left bound 1 < right 3
    join = next(op for op in flipped.steps if isinstance(op, HashJoinOp))
    assert join.build == "left"
    kept = optimize(join_plan(r_ab, s_bc))     # right bound 1 < left 3
    join = next(op for op in kept.steps if isinstance(op, HashJoinOp))
    assert join.build == "right"


def test_pruning_reconciles_downstream_renames(world):
    """Regression: narrowing a join input must also narrow a live
    downstream rename-projection that listed the dropped column for an
    output nothing needs (hand-written plan shape; the builder's own
    projections collapse before pruning)."""
    _, _, r_ab, s_bc, db = world
    plan = Plan("handwritten")
    ka = plan.add(ConstOp("ka", 1))
    f1 = plan.add(FetchOp(ka, ("ka",), r_ab, ("a", "b")))
    kb = plan.add(ConstOp("kb", 10))
    f2 = plan.add(FetchOp(kb, ("kb",), s_bc, ("c", "d")))
    cross = plan.add(ProductOp(f1, f2))
    selected = plan.add(SelectOp(cross, (ColEq("b", "c"),)))
    renamed = plan.add(RenameOp(
        selected, (("a", "w"), ("b", "x"), ("c", "y"), ("d", "z"))))
    filtered = plan.add(SelectOp(renamed, (ConstEq("w", 1),)))
    plan.add(ProjectOp(filtered, ("w",)))
    physical = optimize(plan)
    assert execute_plan(physical, db).answers == \
        interpret_logical(plan, db).answers == {(1,)}


def test_projection_pushdown_narrows_join_inputs(world):
    *_, aschema, _, _, db = world
    plan = bounded_plan("Q(z) :- R(x, y), S(y, z), x = 1", aschema)
    physical = optimize(plan)
    assert "projection-pushdown" in physical.trace.fired_rules()
    joins = [op for op in physical.steps if isinstance(op, HashJoinOp)]
    # Every join output is at most as wide as the logical σ(×) pair's.
    assert all(len(op.out_columns) <= 4 for op in joins)


# -- physical-plan binding ----------------------------------------------------


def test_binding_fills_constant_slots_without_copying_the_plan(world):
    *_, aschema, _, _, db = world
    template = bounded_plan("Q(y) :- R(x, y), x = $who", aschema)
    physical = optimize(template)
    assert any(isinstance(v, Param) for v in physical.constants)
    bound = bind_physical_plan(physical, frozenset({"who"}), {"who": 1})
    assert bound.plan is physical  # no op is copied
    assert len(bound.values) == len(physical.constants)
    assert not any(isinstance(v, Param) for v in bound.values)
    assert execute_plan(bound, db).answers == {(10,), (11,)}


# -- executor dispatch --------------------------------------------------------


def test_executor_rejects_non_plans(world):
    *_, db = world
    with pytest.raises(ExecutionError, match="expected a logical Plan"):
        execute_plan("not a plan", db)


def test_logical_plans_memoize_their_physical_form(world):
    *_, aschema, _, _, db = world
    plan = bounded_plan("Q(y) :- R(x, y), x = 1", aschema)
    execute_plan(plan, db)
    first = plan._physical_cache[1]
    execute_plan(plan, db)
    assert plan._physical_cache[1] is first
