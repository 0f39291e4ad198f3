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
                                    PhysicalPlan, SemiJoinOp)
from repro.engine.optimizer.graph import Graph, Node
from repro.engine.optimizer.rules import ProductSelectToHashJoin
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
    # A one-column key side makes the hash join a semi-join.
    assert SemiJoinOp in kinds
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


def test_stranded_steps_never_reach_the_physical_plan(world):
    *_, aschema, _, _, db = world
    plan = bounded_plan("Q(y) :- R(x, y), x = 1", aschema)
    physical = optimize(plan)
    unit = physical.trace.firings[0]
    assert unit.rule == "unit-product"
    assert unit.fired and unit.steps_after < unit.steps_before
    # Every step but the result feeds a later one: what the rewrites
    # stranded was never emitted.
    fed = {source for op in physical.steps for source in op.inputs()}
    assert fed == set(range(len(physical) - 1))
    assert len(physical) == physical.trace.firings[-1].steps_after
    assert execute_plan(physical, db).answers == \
        interpret_logical(plan, db).answers


def test_replace_redirects_nodes_added_since_the_last_walk():
    """A rule may replace a node that a node it added earlier in the
    same pass reads (pruning narrows a projection, then its source)."""
    source = Node("unit", [], ())
    graph = Graph(Node("project", [source], ()), "g")
    graph.topo()
    narrowed = Node("project", [source], ())
    graph.replace(graph.result, narrowed)
    again = Node("project", [source], ())
    graph.replace(source, again)
    assert narrowed.inputs == [again] and again.inputs == [source]
    assert graph.topo() == [source, again, narrowed]


def test_rewrite_matches_what_a_replacement_creates(world):
    """σ over (A × B) × C: the outer rewrite leaves σ(A × B) behind as
    the left join input, and only a rewrite that re-matches its own
    output turns that into the second hash join."""
    _, _, r_ab, s_bc, db = world
    plan = Plan("two-joins")
    fetches = []
    for key, value, constraint, columns in (("k1", 1, r_ab, ("a", "b")),
                                            ("k2", 1, r_ab, ("c", "d")),
                                            ("k3", 10, s_bc, ("e", "f"))):
        source = plan.add(ConstOp(key, value))
        fetches.append(plan.add(FetchOp(source, (key,), constraint,
                                        columns)))
    left = plan.add(ProductOp(fetches[0], fetches[1]))
    product = plan.add(ProductOp(left, fetches[2]))
    plan.add(SelectOp(product, (ColEq("b", "d"), ColEq("d", "e"))))
    physical = optimize(plan, rules=(ProductSelectToHashJoin,))
    kinds = [type(op) for op in physical.steps]
    assert kinds.count(HashJoinOp) == 2 and CrossJoinOp not in kinds
    assert physical.trace.firings[0].fired == 2
    assert execute_plan(physical, db).answers == \
        interpret_logical(plan, db).answers == {(1, 10, 1, 10, 10, "x")}


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
    joins = [op for op in physical.steps
             if isinstance(op, (HashJoinOp, SemiJoinOp))]
    # Every join output is at most as wide as the logical σ(×) pair's.
    assert joins and all(len(op.out_columns) <= 4 for op in joins)


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
