"""The optimizer's working IR: a mutable DAG of name-addressed nodes.

Lowering turns the logical :class:`~repro.engine.plan.Plan` (a step
list) into a graph of :class:`Node` objects; rewrite rules mutate the
graph by replacing nodes; finalization emits the positional
:class:`~repro.engine.optimizer.physical.PhysicalPlan`.  Keeping names
during rewriting (and resolving positions only once, at the end) is
what lets rules insert, fuse and share nodes without index bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Hashable

from ...errors import PlanError
from ...schema.access import AccessConstraint
from ..columns import column_index
from ..plan import (ColEq, Condition, ConstEq, ConstOp, DiffOp, EmptyOp,
                    FetchOp, Plan, ProductOp, ProjectOp, RenameOp, SelectOp,
                    UnionOp, UnitOp)
from .physical import (BatchFetchOp, Check, ColCheck, ConstCheck,
                       ConstScanOp, CrossJoinOp, DifferenceOp,
                       DistinctUnionOp, EmptyScanOp, FilterOp, FusedFetchOp,
                       GatherOp, HashJoinOp, PhysicalOp, PhysicalPlan,
                       SemiJoinOp, UnitScanOp)

# Node kinds; "rename" disappears at lowering (it becomes a project).
KINDS = ("unit", "empty", "const", "fetch", "project", "filter",
         "cross", "hashjoin", "semijoin", "union", "diff")


@dataclass(eq=False)
class Node:
    """One operator in the working DAG.  Identity (not value) equality:
    two structurally equal nodes are distinct until a rule merges them."""

    kind: str
    inputs: list["Node"]
    columns: tuple[str, ...]
    # Kind-specific payload (unused fields stay at their defaults):
    value: Hashable = None                        # const
    constraint: AccessConstraint | None = None    # fetch
    x_columns: tuple[str, ...] = ()               # fetch
    filters: tuple[Condition, ...] = ()           # fetch (fused residuals)
    src_columns: tuple[str, ...] = ()             # project
    conditions: tuple[Condition, ...] = ()        # filter
    # hashjoin: (lcol, rcol) pairs.  semijoin: one (key column of
    # inputs[0], probe column of inputs[1]) pair.
    pairs: tuple[tuple[str, str], ...] = ()
    side: str = "right"  # semijoin: where the key column is emitted


class Graph:
    """A rewritable DAG with a designated result node.

    The graph is what is reachable from ``result`` and nothing else:
    a node a rewrite strands is simply never visited again.  Rules
    change edges through :meth:`replace` only, so the last walk stays
    valid until the next replacement.
    """

    def __init__(self, result: Node, name: str):
        self.result = result
        self.name = name
        self._order: list[Node] = []  # the last walk
        self._added: list[Node] = []  # replacements since the last walk

    def topo(self) -> list[Node]:
        """Reachable nodes, inputs before consumers (iterative DFS).
        The graph is walked again only if it changed since the last
        walk; callers must not mutate the list."""
        if self._order and not self._added:
            return self._order
        order: list[Node] = []
        seen: set[Node] = set()
        stack: list[tuple[Node, bool]] = [(self.result, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            for child in node.inputs:
                if child not in seen:
                    stack.append((child, False))
        self._order, self._added = order, []
        return order

    def uses(self, node: Node) -> int:
        """How many input edges point at ``node``, as of the last
        walk."""
        return sum(child is node for consumer in self._order
                   for child in consumer.inputs)

    def replace(self, old: Node, new: Node) -> None:
        """Redirect every reference to ``old`` (including the result) to
        ``new``.  ``new``'s own inputs are left alone, so wrapping a
        node (``new`` consuming ``old``) does not create a cycle."""
        if self.result is old:
            self.result = new
        for node in chain(self._order, self._added):
            if node is not new and old in node.inputs:
                node.inputs = [new if child is old else child
                               for child in node.inputs]
        self._added.append(new)

    def rewrite(self, match) -> int:
        """Run ``match`` to a fixpoint and return how many nodes it
        replaced.  Each round replaces the first node, inputs before
        consumers, for which ``match(node)`` returns a replacement,
        then starts over, so what a replacement creates is matched in
        turn."""
        fired = 0
        while True:
            for node in self.topo():
                new = match(node)
                if new is not None:
                    self.replace(node, new)
                    fired += 1
                    break
            else:
                return fired


# -- lowering -----------------------------------------------------------------


def lower_plan(plan: Plan) -> Graph:
    """Translate a logical plan into the working DAG, one node per live
    step.  Renames become projections (a gather is free in the batch
    executor), every other op maps one-to-one."""
    nodes: list[Node] = []
    for index, op in enumerate(plan.steps):
        columns = plan.columns_of(index)
        if isinstance(op, UnitOp):
            node = Node("unit", [], ())
        elif isinstance(op, EmptyOp):
            node = Node("empty", [], columns)
        elif isinstance(op, ConstOp):
            node = Node("const", [], columns, value=op.value)
        elif isinstance(op, FetchOp):
            node = Node("fetch", [nodes[op.source]], op.out_columns,
                        constraint=op.constraint, x_columns=op.x_columns)
        elif isinstance(op, ProjectOp):
            node = Node("project", [nodes[op.source]], columns,
                        src_columns=op.src_columns)
        elif isinstance(op, SelectOp):
            node = Node("filter", [nodes[op.source]], columns,
                        conditions=op.conditions)
        elif isinstance(op, RenameOp):
            source = nodes[op.source]
            node = Node("project", [source], columns,
                        src_columns=source.columns)
        elif isinstance(op, ProductOp):
            node = Node("cross", [nodes[op.left], nodes[op.right]], columns)
        elif isinstance(op, UnionOp):
            node = Node("union", [nodes[s] for s in op.sources], columns)
        elif isinstance(op, DiffOp):
            node = Node("diff", [nodes[op.left], nodes[op.right]], columns)
        else:
            raise PlanError(f"cannot lower unknown op {op!r}")
        nodes.append(node)
    if not nodes:
        raise PlanError("cannot lower an empty plan")
    return Graph(nodes[-1], plan.name)


# -- row estimation -----------------------------------------------------------


def estimate_rows(order: list[Node],
                  statistics=None) -> dict[int, int | None]:
    """Static per-node row bounds over a topological ``order``,
    ``id(node) -> bound`` (None when a non-constant constraint cannot be
    evaluated).

    The same abstract interpretation as
    :func:`repro.engine.cost.static_bounds`' generic path, evaluated at
    the statistics' database size and capped by relation sizes when a
    :class:`~repro.storage.statistics.TableStatistics` is supplied.
    """
    from ..cost import constraint_lookup_bound

    db_size = getattr(statistics, "db_size", None)
    bounds: dict[int, int | None] = {}
    for node in order:
        ins = [bounds[id(child)] for child in node.inputs]
        if node.kind in ("unit", "const"):
            bound = 1
        elif node.kind == "empty":
            bound = 0
        elif node.kind == "fetch":
            per_lookup = constraint_lookup_bound(node.constraint, db_size)
            bound = (None if per_lookup is None or ins[0] is None
                     else ins[0] * per_lookup)
            if statistics is not None and bound is not None:
                relation_size = statistics.relation_size(
                    node.constraint.relation_name)
                if relation_size is not None:
                    bound = min(bound, relation_size)
        elif node.kind in ("project", "filter"):
            bound = ins[0]
        elif node.kind in ("cross", "hashjoin"):
            bound = (None if ins[0] is None or ins[1] is None
                     else ins[0] * ins[1])
        elif node.kind == "semijoin":
            bound = ins[1]  # a subset of the probe side's rows
        elif node.kind == "union":
            bound = None if any(b is None for b in ins) else sum(ins)
        elif node.kind == "diff":
            bound = ins[0]
        else:
            raise PlanError(f"cannot estimate unknown node kind {node.kind}")
        bounds[id(node)] = bound
    return bounds


# -- finalization -------------------------------------------------------------


def _checks(conditions: tuple[Condition, ...],
            columns: tuple[str, ...]) -> tuple[Check, ...]:
    checks: list[Check] = []
    for condition in conditions:
        if isinstance(condition, ConstEq):
            checks.append(ConstCheck(column_index(columns, condition.column),
                                     condition.value))
        elif isinstance(condition, ColEq):
            checks.append(ColCheck(column_index(columns, condition.left),
                                   column_index(columns, condition.right)))
        else:
            raise PlanError(f"unknown condition {condition!r}")
    return tuple(checks)


def finalize(graph: Graph, *, logical=None, trace=None,
             statistics=None) -> PhysicalPlan:
    """Resolve names to positions and emit the physical plan."""
    order = graph.topo()
    index_of = {id(node): i for i, node in enumerate(order)}
    row_bounds = estimate_rows(order, statistics)
    steps: list[PhysicalOp] = []
    estimates: list[int | None] = []
    for node in order:
        if node.kind == "unit":
            op: PhysicalOp = UnitScanOp()
        elif node.kind == "empty":
            op = EmptyScanOp(node.columns)
        elif node.kind == "const":
            op = ConstScanOp(node.columns, node.value)
        elif node.kind == "fetch":
            source = node.inputs[0]
            x_positions = tuple(column_index(source.columns, c)
                                for c in node.x_columns)
            if node.filters:
                op = FusedFetchOp(index_of[id(source)], x_positions,
                                  node.constraint, node.columns,
                                  _checks(node.filters, node.columns))
            else:
                op = BatchFetchOp(index_of[id(source)], x_positions,
                                  node.constraint, node.columns)
        elif node.kind == "project":
            source = node.inputs[0]
            positions = tuple(column_index(source.columns, c)
                              for c in node.src_columns)
            op = GatherOp(index_of[id(source)], positions, node.columns)
        elif node.kind == "filter":
            source = node.inputs[0]
            op = FilterOp(index_of[id(source)],
                          _checks(node.conditions, source.columns),
                          node.columns)
        elif node.kind == "cross":
            left, right = node.inputs
            op = CrossJoinOp(index_of[id(left)], index_of[id(right)],
                             node.columns)
        elif node.kind == "hashjoin":
            left, right = node.inputs
            op = HashJoinOp(
                index_of[id(left)], index_of[id(right)],
                tuple(column_index(left.columns, a) for a, _ in node.pairs),
                tuple(column_index(right.columns, b) for _, b in node.pairs),
                node.columns)
        elif node.kind == "semijoin":
            keys, probe = node.inputs
            (key, probe_key), = node.pairs
            op = SemiJoinOp(
                index_of[id(keys)], column_index(keys.columns, key),
                index_of[id(probe)], column_index(probe.columns, probe_key),
                node.side, node.columns)
        elif node.kind == "union":
            op = DistinctUnionOp(tuple(index_of[id(s)] for s in node.inputs),
                                 node.columns)
        elif node.kind == "diff":
            left, right = node.inputs
            op = DifferenceOp(index_of[id(left)], index_of[id(right)],
                              node.columns)
        else:
            raise PlanError(f"cannot finalize unknown node kind {node.kind}")
        steps.append(op)
        estimates.append(row_bounds[id(node)])
    certificate = getattr(logical, "certificate", None)
    return PhysicalPlan(graph.name, steps, logical=logical,
                        certificate=certificate, trace=trace,
                        estimates=estimates)
