"""Bounded graph-pattern matching (the graph analogue of Section 3).

A pattern is *covered* by a graph access schema when a bounded fetch
plan exists:

* every pattern node is reachable from a designated constant or a
  count-bounded label through degree-bounded edges (the analogue of the
  ``cov`` fixpoint), and
* every pattern edge is checkable through an adjacency index in at
  least one direction (the analogue of condition (c)).

``analyze_pattern`` computes the plan and its static candidate bound —
a product of label/degree bounds, independent of the graph size;
``bounded_match`` executes it, touching the graph only through index
lookups and counting every fetched node.  Agreement with the brute
matcher is property-tested in ``tests/graph/test_bounded_match.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from ..errors import PlanError
from .access import GraphAccessSchema
from .graph import Graph
from .pattern import Pattern, PatternEdge


@dataclass(frozen=True)
class PlanStep:
    """One step of a bounded pattern plan.

    kinds: ``seed-const`` (bind a designated node), ``seed-label``
    (label-index fetch), ``expand`` (adjacency fetch covering a new
    node), ``verify`` (adjacency membership check for a residual edge).
    """

    kind: str
    node: str | None = None
    edge: PatternEdge | None = None
    direction: str | None = None
    bound: int = 1

    def __str__(self) -> str:
        if self.kind == "seed-const":
            return f"seed {self.node} from its designated constant"
        if self.kind == "seed-label":
            return f"seed {self.node} from its label index (<= {self.bound})"
        if self.kind == "expand":
            return (f"expand {self.edge} [{self.direction}] "
                    f"(<= {self.bound} per binding)")
        return f"verify {self.edge} [{self.direction}]"


@dataclass
class PatternCoverage:
    """Result of analysing one pattern against a graph access schema."""

    pattern: Pattern
    access: GraphAccessSchema
    steps: list[PlanStep]
    covered: set[str]
    uncovered: list[str]
    unverified_edges: list[PatternEdge]

    @property
    def is_covered(self) -> bool:
        return not self.uncovered and not self.unverified_edges

    def candidate_bound(self) -> int:
        """Static bound on bindings examined: the product of seed and
        expansion bounds (graph-size independent)."""
        bound = 1
        for step in self.steps:
            if step.kind in ("seed-label", "expand"):
                bound *= step.bound
        return bound

    def explain(self) -> str:
        lines = [f"pattern coverage of {self.pattern}"]
        lines += [f"  {step}" for step in self.steps]
        if self.is_covered:
            lines.append(f"  => covered; candidate bound "
                         f"{self.candidate_bound()}")
        else:
            if self.uncovered:
                lines.append(f"  => uncovered nodes: {self.uncovered}")
            if self.unverified_edges:
                lines.append(
                    "  => unverifiable edges: "
                    + ", ".join(str(e) for e in self.unverified_edges))
        return "\n".join(lines)


def analyze_pattern(pattern: Pattern,
                    access: GraphAccessSchema) -> PatternCoverage:
    """Compute a bounded fetch plan for a pattern, if one exists."""
    steps: list[PlanStep] = []
    covered: set[str] = set()
    expanded_edges: set[PatternEdge] = set()

    for node in pattern.constants():
        steps.append(PlanStep("seed-const", node=node.name))
        covered.add(node.name)

    def try_expand() -> bool:
        for edge in pattern.edges:
            src_node, dst_node = pattern.node(edge.src), pattern.node(edge.dst)
            if edge.src in covered and edge.dst not in covered:
                bound = access.degree_bound(src_node.label, edge.edge_label,
                                            "out")
                if bound is not None:
                    steps.append(PlanStep("expand", edge=edge,
                                          direction="out", bound=bound))
                    covered.add(edge.dst)
                    expanded_edges.add(edge)
                    return True
            if edge.dst in covered and edge.src not in covered:
                bound = access.degree_bound(dst_node.label, edge.edge_label,
                                            "in")
                if bound is not None:
                    steps.append(PlanStep("expand", edge=edge,
                                          direction="in", bound=bound))
                    covered.add(edge.src)
                    expanded_edges.add(edge)
                    return True
        return False

    def try_label_seed() -> bool:
        for node in pattern.nodes:
            if node.name in covered or node.label is None:
                continue
            bound = access.label_bound(node.label)
            if bound is not None:
                steps.append(PlanStep("seed-label", node=node.name,
                                      bound=bound))
                covered.add(node.name)
                return True
        return False

    progress = True
    while progress:
        progress = try_expand()
        if not progress:
            progress = try_label_seed()

    uncovered = [n.name for n in pattern.nodes if n.name not in covered]

    unverified: list[PatternEdge] = []
    for edge in pattern.edges:
        if edge in expanded_edges:
            continue  # The expansion fetch already pins this edge.
        if edge.src not in covered or edge.dst not in covered:
            unverified.append(edge)
            continue
        src_label = pattern.node(edge.src).label
        dst_label = pattern.node(edge.dst).label
        out_ok = access.degree_bound(src_label, edge.edge_label,
                                     "out") is not None
        in_ok = access.degree_bound(dst_label, edge.edge_label,
                                    "in") is not None
        if out_ok:
            steps.append(PlanStep("verify", edge=edge, direction="out",
                                  bound=access.degree_bound(
                                      src_label, edge.edge_label, "out")))
        elif in_ok:
            steps.append(PlanStep("verify", edge=edge, direction="in",
                                  bound=access.degree_bound(
                                      dst_label, edge.edge_label, "in")))
        else:
            unverified.append(edge)

    return PatternCoverage(pattern=pattern, access=access, steps=steps,
                           covered=covered, uncovered=uncovered,
                           unverified_edges=unverified)


@dataclass
class GraphAccessStats:
    """What bounded matching touched (the graph analogue of |D_Q|)."""

    index_lookups: int = 0
    nodes_fetched: int = 0
    bindings_peak: int = 0


def bounded_match(pattern: Pattern, graph: Graph,
                  access: GraphAccessSchema,
                  coverage: PatternCoverage | None = None,
                  injective: bool = True,
                  stats: GraphAccessStats | None = None) -> list[tuple]:
    """Execute the bounded plan of a covered pattern.

    Touches the graph only through the label and adjacency indexes;
    raises :class:`PlanError` when the pattern is not covered.
    """
    if coverage is None:
        coverage = analyze_pattern(pattern, access)
    if not coverage.is_covered:
        raise PlanError(f"pattern {pattern.name} is not covered: "
                        f"{coverage.explain()}")
    stats = stats if stats is not None else GraphAccessStats()

    bindings: list[dict[str, Hashable]] = [{}]
    for step in coverage.steps:
        if step.kind == "seed-const":
            node = pattern.node(step.node)
            if (not graph.has_node(node.constant)
                    or (node.label is not None
                        and graph.label_of(node.constant) != node.label)):
                return []
            for binding in bindings:
                binding[node.name] = node.constant
        elif step.kind == "seed-label":
            node = pattern.node(step.node)
            pool = graph.nodes_by_label(node.label)
            stats.index_lookups += 1
            stats.nodes_fetched += len(pool)
            bindings = [dict(b, **{node.name: candidate})
                        for b in bindings for candidate in pool]
        elif step.kind == "expand":
            edge = step.edge
            new_bindings = []
            for binding in bindings:
                if step.direction == "out":
                    anchor, fresh = edge.src, edge.dst
                    neighbors = graph.out_neighbors(binding[anchor],
                                                    edge.edge_label)
                else:
                    anchor, fresh = edge.dst, edge.src
                    neighbors = graph.in_neighbors(binding[anchor],
                                                   edge.edge_label)
                stats.index_lookups += 1
                stats.nodes_fetched += len(neighbors)
                wanted_label = pattern.node(fresh).label
                wanted_const = pattern.node(fresh).constant
                for candidate in neighbors:
                    if (wanted_label is not None
                            and graph.label_of(candidate) != wanted_label):
                        continue
                    if wanted_const is not None and candidate != wanted_const:
                        continue
                    new_bindings.append(dict(binding, **{fresh: candidate}))
            bindings = new_bindings
        else:  # verify
            edge = step.edge
            kept = []
            for binding in bindings:
                if step.direction == "out":
                    neighbors = graph.out_neighbors(binding[edge.src],
                                                    edge.edge_label)
                    hit = binding[edge.dst] in neighbors
                else:
                    neighbors = graph.in_neighbors(binding[edge.dst],
                                                   edge.edge_label)
                    hit = binding[edge.src] in neighbors
                stats.index_lookups += 1
                stats.nodes_fetched += len(neighbors)
                if hit:
                    kept.append(binding)
            bindings = kept
        stats.bindings_peak = max(stats.bindings_peak, len(bindings))
        if not bindings:
            return []

    results: set[tuple] = set()
    for binding in bindings:
        if injective and len(set(binding.values())) != len(binding):
            continue
        results.add(tuple(binding[name] for name in pattern.output))
    return sorted(results, key=repr)
