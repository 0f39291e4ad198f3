"""The optimizer pipeline: lower → rules → finalize, with a trace.

``optimize(plan)`` is the one-time static step that replaces the old
executor's per-execution pattern scanning.  Its output — a
:class:`~repro.engine.optimizer.physical.PhysicalPlan` — is what plan
caches store and what the batch executor runs; re-running a cached
physical plan never touches the optimizer again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...obs.trace import span
from ..plan import Plan
from .graph import finalize, lower_plan
from .physical import PhysicalPlan
from .rules import (CommonSubplanElimination, KeyProjectionFolding,
                    ProductSelectToHashJoin, ProjectionPushdown,
                    SelectIntoFetchPushdown, TrivialProductElimination)

#: The default pass order.  Trivial products go first (they put filters
#: directly over fetches), then join discovery (it exposes fetch-side
#: filters).  Sharing runs *before* fetch fusion: a fetch merged across
#: disjuncts saves an index lookup — the paper's currency — which beats
#: fusing a residual filter into each copy; fusion then applies only to
#: fetches that stayed single-consumer.  Pruning, then key-projection
#: folding (which reads through the projections pruning leaves on fetch
#: and join inputs) close the pipeline.
DEFAULT_RULES: tuple[type, ...] = (
    TrivialProductElimination,
    ProductSelectToHashJoin,
    CommonSubplanElimination,
    SelectIntoFetchPushdown,
    ProjectionPushdown,
    KeyProjectionFolding,
)


@dataclass
class RuleFiring:
    """One rule's pass over the graph."""

    rule: str
    fired: int
    steps_before: int
    steps_after: int

    def __str__(self) -> str:
        note = f"{self.fired} rewrite(s)" if self.fired else "no match"
        return (f"{self.rule}: {note}, "
                f"{self.steps_before} -> {self.steps_after} steps")


@dataclass
class OptimizationTrace:
    """What the pipeline did to one plan, rule by rule."""

    logical_steps: int
    physical_steps: int = 0
    firings: list[RuleFiring] = field(default_factory=list)

    def fired_rules(self) -> list[str]:
        return [firing.rule for firing in self.firings if firing.fired]

    def total_rewrites(self) -> int:
        return sum(firing.fired for firing in self.firings)

    def explain(self) -> str:
        lines = [f"optimizer: {self.logical_steps} logical -> "
                 f"{self.physical_steps} physical steps, "
                 f"{self.total_rewrites()} rewrite(s)"]
        for firing in self.firings:
            lines.append(f"  {firing}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.explain()


def optimize(plan: Plan, statistics=None,
             rules=DEFAULT_RULES) -> PhysicalPlan:
    """Lower ``plan``, run the rule pipeline, emit a physical plan.

    ``statistics`` is an optional
    :class:`~repro.storage.statistics.TableStatistics`, or a zero-arg
    callable producing one.  It only caps the per-step ``[rows <= N]``
    estimates that ``repro explain`` prints; the steps themselves
    depend on the plan and the access constraints alone.  ``rules`` may
    be overridden (e.g. with ``()``) to get a direct, unoptimized
    lowering for A/B comparison.
    """
    with span("optimize"):
        if callable(statistics):
            statistics = statistics()
        graph = lower_plan(plan)
        trace = OptimizationTrace(logical_steps=len(plan))
        steps = len(graph.topo())
        for rule in (rule_type() for rule_type in rules):
            # A rule that did not fire left the graph as it was.
            before, fired = steps, rule.apply(graph)
            if fired:
                steps = len(graph.topo())
            trace.firings.append(RuleFiring(rule.name, fired, before, steps))
        physical = finalize(graph, logical=plan, trace=trace,
                            statistics=statistics)
        trace.physical_steps = len(physical)
        return physical


def ensure_physical(plan) -> PhysicalPlan:
    """``plan`` as a physical plan, optimizing (and memoizing on the
    logical plan object) when needed.

    Logical plans are append-only, so the memo is keyed by step count —
    the same discipline the old ``fused_join_products`` cache used.
    """
    if isinstance(plan, PhysicalPlan):
        return plan
    cached = getattr(plan, "_physical_cache", None)
    if cached is not None and cached[0] == len(plan.steps):
        return cached[1]
    physical = optimize(plan)
    plan._physical_cache = (len(plan.steps), physical)
    return physical
