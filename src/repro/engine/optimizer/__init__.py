"""Rule-based optimizer: logical bounded plans -> physical plans.

The logical :class:`~repro.engine.plan.Plan` is the paper-facing IR —
what :func:`~repro.engine.builder.build_bounded_plan` emits and
:meth:`~repro.engine.plan.Plan.check_bounded_under` certifies.  This
package turns it into a :class:`~repro.engine.optimizer.physical.
PhysicalPlan` of batch-oriented physical operators via a pipeline of
independent rewrite rules, each recorded in an
:class:`~repro.engine.optimizer.pipeline.OptimizationTrace`:

* ``unit-product`` — ``{()} × T`` becomes ``T`` (the builder seeds
  every CQ with the unit table);
* ``product-to-hash-join`` — σ over × becomes a hash join with
  per-side residual filters (subsumes the executor's old
  ``fused_join_products`` pattern scan);
* ``common-subplan`` — hash-consing over the DAG, eliminating
  duplicate fetches and shared sub-plans across UCQ disjuncts;
* ``select-into-fetch`` — σ directly over a fetch is fused into the
  fetch, filtering rows as they arrive from storage;
* ``projection-pushdown`` — collapses projection chains and prunes
  columns that no downstream op reads, narrowing join inputs;
* ``key-projection`` — fetches read their keys through a projection
  in place, and a hash join against a one-column projection becomes a
  semi-join against that column's set.

The working graph is what is reachable from the result: a node a
rewrite strands is never visited again, and finalization emits only
reachable steps.

No rule reads instance statistics: a covered query's row bounds come
from its access constraints alone (the cost certificate), so a plan's
steps depend on the query and the access schema only.

Optimization happens *once* per (query, access schema); the physical
plan is what services cache and executors run.
"""

from .physical import (BatchFetchOp, BoundPlan, ColCheck, ConstCheck,
                       ConstScanOp, CrossJoinOp, DifferenceOp,
                       DistinctUnionOp, EmptyScanOp, FilterOp, FusedFetchOp,
                       GatherOp, HashJoinOp, PhysicalOp, PhysicalPlan,
                       SemiJoinOp, UnitScanOp)
from .pipeline import (DEFAULT_RULES, OptimizationTrace, RuleFiring,
                       ensure_physical, optimize)
from .specialize import SpecializedPlan, specialized_plan

__all__ = [
    "PhysicalPlan", "BoundPlan", "PhysicalOp", "UnitScanOp", "EmptyScanOp",
    "ConstScanOp", "BatchFetchOp", "FusedFetchOp", "GatherOp", "FilterOp",
    "HashJoinOp", "SemiJoinOp", "CrossJoinOp", "DistinctUnionOp",
    "DifferenceOp", "ConstCheck", "ColCheck",
    "optimize", "ensure_physical", "OptimizationTrace", "RuleFiring",
    "DEFAULT_RULES",
    "SpecializedPlan", "specialized_plan",
]
