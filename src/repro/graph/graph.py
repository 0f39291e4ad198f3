"""A labelled directed graph store with adjacency and label indexes.

The substrate for the graph-pattern half of Example 1.1 ("60% of graph
pattern queries via subgraph isomorphism are boundedly evaluable under
simple access constraints", citing [11]).  Nodes carry one label; edges
carry one edge-label.  The store maintains a label index (label -> node
ids) and adjacency indexes per edge label (both directions), which the
baseline matcher reads.  Bounded matching reads the graph's relational
encoding instead (``repro.graph.relational``), where label counts and
degrees are access constraints.
"""

from __future__ import annotations

from typing import Hashable, Iterator

from ..errors import SchemaError


class Graph:
    """A directed graph with node labels and edge labels.

    >>> g = Graph()
    >>> g.add_node(1, "person")
    >>> g.add_node(2, "city")
    >>> g.add_edge(1, "lives_in", 2)
    >>> g.out_neighbors(1, "lives_in")
    [2]
    """

    def __init__(self):
        self._labels: dict[Hashable, str] = {}
        self._by_label: dict[str, list[Hashable]] = {}
        self._out: dict[tuple[Hashable, str], list[Hashable]] = {}
        self._in: dict[tuple[Hashable, str], list[Hashable]] = {}
        self._edges: set[tuple[Hashable, str, Hashable]] = set()

    # -- construction -----------------------------------------------------------

    def add_node(self, node: Hashable, label: str) -> None:
        existing = self._labels.get(node)
        if existing is not None:
            if existing != label:
                raise SchemaError(
                    f"node {node!r} already has label {existing!r}")
            return
        self._labels[node] = label
        self._by_label.setdefault(label, []).append(node)

    def add_edge(self, src: Hashable, edge_label: str, dst: Hashable) -> None:
        if src not in self._labels or dst not in self._labels:
            raise SchemaError(
                f"edge ({src!r}, {edge_label!r}, {dst!r}) references an "
                "unknown node; add nodes first")
        key = (src, edge_label, dst)
        if key in self._edges:
            return
        self._edges.add(key)
        self._out.setdefault((src, edge_label), []).append(dst)
        self._in.setdefault((dst, edge_label), []).append(src)

    # -- reading ---------------------------------------------------------------

    def has_node(self, node: Hashable) -> bool:
        return node in self._labels

    def label_of(self, node: Hashable) -> str:
        return self._labels[node]

    def nodes(self) -> Iterator[Hashable]:
        return iter(self._labels)

    def nodes_by_label(self, label: str) -> list[Hashable]:
        """Index lookup: all nodes with a label."""
        return list(self._by_label.get(label, ()))

    def out_neighbors(self, node: Hashable, edge_label: str) -> list[Hashable]:
        """Adjacency index lookup, out direction."""
        return list(self._out.get((node, edge_label), ()))

    def in_neighbors(self, node: Hashable, edge_label: str) -> list[Hashable]:
        """Adjacency index lookup, in direction."""
        return list(self._in.get((node, edge_label), ()))

    def has_edge(self, src: Hashable, edge_label: str, dst: Hashable) -> bool:
        return (src, edge_label, dst) in self._edges

    def edges(self) -> Iterator[tuple[Hashable, str, Hashable]]:
        """Every edge, in insertion order per (source, edge label)."""
        return ((src, edge_label, dst)
                for (src, edge_label), dsts in self._out.items()
                for dst in dsts)

    def num_nodes(self) -> int:
        return len(self._labels)

    def num_edges(self) -> int:
        return len(self._edges)

    def node_labels(self) -> set[str]:
        return set(self._by_label)

    def __str__(self) -> str:
        return (f"Graph({self.num_nodes()} nodes, {self.num_edges()} edges, "
                f"labels={sorted(self._by_label)})")
