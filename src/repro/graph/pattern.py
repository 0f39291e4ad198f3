"""Graph pattern queries.

A pattern is a small labelled graph to be matched in a big data graph
via subgraph isomorphism (injective homomorphism).  Pattern nodes may be

* labelled variables ("some person"),
* *designated constants* — a concrete node id, like the "me" of
  Facebook Graph Search ("find me all my friends in NYC who like
  cycling", the paper's Section 1 example).

Designated constants are the graph analogue of instantiated parameters
(Section 5): they are what typically makes a pattern boundedly
evaluable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

from ..errors import QueryError


@dataclass(frozen=True)
class PatternNode:
    """One pattern node: a variable name, an optional required label and
    an optional designated constant node id."""

    name: str
    label: str | None = None
    constant: Hashable | None = None

    def __str__(self) -> str:
        parts = [self.name]
        if self.label is not None:
            parts.append(f":{self.label}")
        if self.constant is not None:
            parts.append(f"={self.constant!r}")
        return "".join(parts)


@dataclass(frozen=True)
class PatternEdge:
    """A required edge ``src --edge_label--> dst`` between pattern nodes."""

    src: str
    edge_label: str
    dst: str

    def __str__(self) -> str:
        return f"{self.src} -{self.edge_label}-> {self.dst}"


class Pattern:
    """A graph pattern with an output list (the nodes to report).

    >>> p = Pattern("friends",
    ...             [PatternNode("me", "person", constant=0),
    ...              PatternNode("f", "person")],
    ...             [PatternEdge("me", "friend", "f")],
    ...             output=("f",))
    >>> len(p.nodes)
    2
    """

    def __init__(self, name: str, nodes: Iterable[PatternNode],
                 edges: Iterable[PatternEdge],
                 output: Iterable[str] | None = None):
        self.name = name or "P"
        self.nodes: tuple[PatternNode, ...] = tuple(nodes)
        self.edges: tuple[PatternEdge, ...] = tuple(edges)
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise QueryError(f"duplicate pattern node names in {self.name}")
        self._by_name = {n.name: n for n in self.nodes}
        for edge in self.edges:
            for endpoint in (edge.src, edge.dst):
                if endpoint not in self._by_name:
                    raise QueryError(
                        f"edge {edge} references unknown node {endpoint!r}")
        self.output: tuple[str, ...] = tuple(
            output if output is not None else names)
        for out in self.output:
            if out not in self._by_name:
                raise QueryError(f"output {out!r} is not a pattern node")

    def node(self, name: str) -> PatternNode:
        return self._by_name[name]

    def constants(self) -> list[PatternNode]:
        return [n for n in self.nodes if n.constant is not None]

    def edges_of(self, name: str) -> list[PatternEdge]:
        return [e for e in self.edges if name in (e.src, e.dst)]

    def __str__(self) -> str:
        nodes = ", ".join(str(n) for n in self.nodes)
        edges = ", ".join(str(e) for e in self.edges)
        return f"{self.name}[{nodes} | {edges}]"
