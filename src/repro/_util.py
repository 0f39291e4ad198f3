"""Small internal utilities shared across the library.

Nothing in this module is part of the public API.
"""

from __future__ import annotations

import itertools
from typing import Hashable, Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T", bound=Hashable)


class UnionFind:
    """Disjoint-set forest over hashable elements.

    Elements are added lazily on first use.  Used for the ``eq`` and
    ``eq+`` equivalence classes of query variables (paper, Section 3.2)
    and for the FD-chase.
    """

    def __init__(self, elements: Iterable[T] = ()):
        self._parent: dict[T, T] = {}
        self._rank: dict[T, int] = {}
        for element in elements:
            self.add(element)

    def add(self, element: T) -> None:
        if element not in self._parent:
            self._parent[element] = element
            self._rank[element] = 0

    def find(self, element: T) -> T:
        self.add(element)
        root = element
        while self._parent[root] != root:
            root = self._parent[root]
        # Path compression.
        while self._parent[element] != root:
            self._parent[element], element = root, self._parent[element]
        return root

    def union(self, a: T, b: T) -> T:
        """Merge the classes of ``a`` and ``b``; return the new root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        return ra

    def same(self, a: T, b: T) -> bool:
        return self.find(a) == self.find(b)

    def classes(self) -> list[set[T]]:
        """Return all equivalence classes as a list of sets."""
        by_root: dict[T, set[T]] = {}
        for element in self._parent:
            by_root.setdefault(self.find(element), set()).add(element)
        return list(by_root.values())

    def class_of(self, element: T) -> set[T]:
        root = self.find(element)
        return {e for e in self._parent if self.find(e) == root}

    def elements(self) -> Iterator[T]:
        return iter(self._parent)

    def copy(self) -> "UnionFind":
        clone = UnionFind()
        clone._parent = dict(self._parent)
        clone._rank = dict(self._rank)
        return clone


class FreshNames:
    """Generates fresh variable names that do not clash with a base set.

    >>> gen = FreshNames({"x", "y"})
    >>> gen.fresh("x")
    'x_1'
    >>> gen.fresh("x")
    'x_2'
    >>> gen.fresh("z")
    'z'
    """

    def __init__(self, taken: Iterable[str] = ()):
        self._taken = set(taken)
        self._counters: dict[str, int] = {}

    def fresh(self, stem: str = "v") -> str:
        if stem not in self._taken:
            self._taken.add(stem)
            return stem
        counter = self._counters.get(stem, 0)
        while True:
            counter += 1
            candidate = f"{stem}_{counter}"
            if candidate not in self._taken:
                self._counters[stem] = counter
                self._taken.add(candidate)
                return candidate

    def reserve(self, name: str) -> None:
        self._taken.add(name)


def powerset(items: Sequence[T], min_size: int = 0,
             max_size: int | None = None) -> Iterator[tuple[T, ...]]:
    """Iterate subsets of ``items`` by increasing size.

    >>> list(powerset([1, 2]))
    [(), (1,), (2,), (1, 2)]
    """
    upper = len(items) if max_size is None else min(max_size, len(items))
    for size in range(min_size, upper + 1):
        yield from itertools.combinations(items, size)


def set_partitions(items: Sequence[T]) -> Iterator[list[list[T]]]:
    """Iterate all partitions of ``items`` into non-empty blocks.

    Uses the standard recursive "element joins an existing block or opens
    a new one" scheme; the number of partitions is the Bell number of
    ``len(items)``, so callers must keep inputs small (the paper's
    decision problems are NP-hard and worse; BEP is EXPSPACE-complete
    for CQ, Theorem 3.4).

    >>> sorted(len(p) for p in set_partitions([1, 2, 3]))
    [1, 2, 2, 2, 3]
    """
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        for i, block in enumerate(partition):
            yield partition[:i] + [[first] + block] + partition[i + 1:]
        yield [[first]] + partition


def constrained_partitions(
    items: Sequence[T],
    must_merge: Iterable[tuple[T, T]] = (),
    must_differ: Iterable[tuple[T, T]] = (),
) -> Iterator[list[list[T]]]:
    """Partitions of ``items`` respecting forced equalities/disequalities.

    ``must_merge`` pairs always share a block; ``must_differ`` pairs never
    do.  Forced-equal items are first fused into super-elements, then the
    partitions of the fused universe are filtered by the disequalities.
    """
    fusion = UnionFind(items)
    for a, b in must_merge:
        fusion.union(a, b)
    representatives: dict[T, list[T]] = {}
    for item in items:
        representatives.setdefault(fusion.find(item), []).append(item)
    reps = list(representatives)
    differ_pairs = [(fusion.find(a), fusion.find(b)) for a, b in must_differ]
    for bad_a, bad_b in differ_pairs:
        if bad_a == bad_b:
            return  # Contradictory requirements: no partitions at all.
    for rep_partition in set_partitions(reps):
        block_of = {rep: i for i, block in enumerate(rep_partition) for rep in block}
        if any(block_of[a] == block_of[b] for a, b in differ_pairs):
            continue
        yield [
            [item for rep in block for item in representatives[rep]]
            for block in rep_partition
        ]


def stable_unique(items: Iterable[T]) -> list[T]:
    """Deduplicate preserving first-seen order."""
    seen: set[T] = set()
    result: list[T] = []
    for item in items:
        if item not in seen:
            seen.add(item)
            result.append(item)
    return result


def cross_product(pools: Sequence[Sequence[T]]) -> Iterator[tuple[T, ...]]:
    """``itertools.product`` with an early exit for empty pools."""
    if any(len(pool) == 0 for pool in pools):
        return iter(())
    return itertools.product(*pools)
