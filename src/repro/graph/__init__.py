"""Graph substrate: labelled graphs, their relational encoding and
pattern compilation for bounded matching, and the brute-force baseline
(Example 1.1 / [11])."""

from .graph import Graph
from .matcher import MatchStats, subgraph_match
from .pattern import Pattern, PatternEdge, PatternNode
from .relational import (bounded_match, edge_relation, graph_database,
                         match_rows, node_relation, pattern_coverage,
                         pattern_plan, pattern_query)

__all__ = [
    "Graph",
    "Pattern", "PatternNode", "PatternEdge",
    "edge_relation", "node_relation", "graph_database",
    "pattern_query", "pattern_coverage", "pattern_plan", "match_rows",
    "bounded_match",
    "subgraph_match", "MatchStats",
]
