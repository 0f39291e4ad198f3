"""Query execution: naive baseline, logical plans, the rule-based
optimizer, the batch-oriented physical executor, and cost bounds."""

from .builder import build_bounded_plan, build_empty_plan, build_union_plan
from .cost import FetchBound, PlanCost, static_bounds
from .executor import (AccessStats, Batch, ExecutionResult, Executor,
                       Table, execute_plan, interpret_logical)
from .naive import (ScanStats, evaluate, evaluate_cq, evaluate_fo,
                    evaluate_positive, evaluate_ucq)
from .optimizer import (OptimizationTrace, PhysicalPlan, ensure_physical,
                        optimize)
from .plan import (ColEq, ConstEq, ConstOp, DiffOp, EmptyOp, FetchOp, Plan,
                   ProductOp, ProjectOp, RenameOp, SelectOp, UnionOp, UnitOp)

__all__ = [
    "Plan", "UnitOp", "EmptyOp", "ConstOp", "FetchOp", "ProjectOp",
    "SelectOp", "RenameOp", "ProductOp", "UnionOp", "DiffOp",
    "ColEq", "ConstEq",
    "PhysicalPlan", "OptimizationTrace", "optimize", "ensure_physical",
    "Executor", "ExecutionResult", "AccessStats",
    "Table", "Batch", "execute_plan", "interpret_logical",
    "build_bounded_plan", "build_union_plan", "build_empty_plan",
    "static_bounds", "PlanCost", "FetchBound",
    "ScanStats", "evaluate", "evaluate_cq", "evaluate_ucq",
    "evaluate_positive", "evaluate_fo",
]
