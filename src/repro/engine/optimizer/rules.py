"""Rewrite rules over the optimizer DAG.

Each rule is independent: it inspects the graph, rewrites what it can,
and reports how many times it fired.  Most rules are a ``match``
function that :meth:`Graph.rewrite` runs to a fixpoint.  Rules
preserve *set-semantics results* — every rewrite is one of the
classical algebraic identities (σ distributes over ×; σ commutes with
fetch materialization; π can be pushed below ⨝ for columns nothing
downstream reads; identical subexpressions denote identical tables; a
set of keys is the same set read through a projection or in place) —
so optimized and unoptimized plans are answer-identical on every
instance (property-tested in ``tests/engine/test_optimizer_property.py``).

None of the rules adds data access: fetches are only merged (hash
consing), narrowed (fused residual checks filter *after* the index
lookup, which the access accounting already counted), re-pointed at a
projection's source (the same distinct keys) or dropped (stranded by
a rewrite), so the builder's cost certificate remains a sound bound
for the physical plan.
"""

from __future__ import annotations

from ..plan import ColEq, Condition, ConstEq
from .graph import Graph, Node


class Rule:
    """Base class; ``apply`` returns how many rewrites fired.  By
    default it runs the rule's ``match(node)``, the replacement for
    ``node`` or ``None``, through :meth:`Graph.rewrite`."""

    name: str = "rule"

    def apply(self, graph: Graph) -> int:
        return graph.rewrite(self.match)

    def match(self, node: Node) -> Node | None:
        raise NotImplementedError


class TrivialProductElimination(Rule):
    """``unit × X`` (or ``X × unit``) → ``X``.

    The builder seeds every CQ with the unit table and products against
    it on each expansion, so the identity fires on nearly every bounded
    plan; removing the product early lets the filter above it sit
    directly on a fetch, where ``select-into-fetch`` can fuse it.
    """

    name = "unit-product"

    @staticmethod
    def match(node: Node) -> Node | None:
        if node.kind == "cross":
            left, right = node.inputs
            if left.kind == "unit":
                return right
            if right.kind == "unit":
                return left
        return None


class ProductSelectToHashJoin(Rule):
    """``σ(A × B)`` → per-side residual filters + hash join.

    Conditions over one side's columns move below the product; ColEq
    conditions spanning both sides become equi-join pairs.  With no
    cross-side pair the product survives, but the pushed-down side
    filters still shrink it.  This subsumes the old executor's
    ``Plan.fused_join_products`` pattern scan — and, unlike it, also
    fires when the product has other consumers or the plan was written
    by hand.
    """

    name = "product-to-hash-join"

    def match(self, node: Node) -> Node | None:
        if node.kind != "filter" or node.inputs[0].kind != "cross":
            return None
        cross = node.inputs[0]
        left, right = cross.inputs
        split = self._split(node.conditions, set(left.columns),
                            set(right.columns))
        if split is None or not any(split):
            return None
        left_conds, right_conds, pairs = split
        if left_conds:
            left = Node("filter", [left], left.columns,
                        conditions=tuple(left_conds))
        if right_conds:
            right = Node("filter", [right], right.columns,
                         conditions=tuple(right_conds))
        if pairs:
            return Node("hashjoin", [left, right], cross.columns,
                        pairs=tuple(pairs))
        return Node("cross", [left, right], cross.columns)

    @staticmethod
    def _split(conditions, left_columns: set, right_columns: set):
        left_conds: list[Condition] = []
        right_conds: list[Condition] = []
        pairs: list[tuple[str, str]] = []
        for condition in conditions:
            if isinstance(condition, ConstEq):
                if condition.column in left_columns:
                    left_conds.append(condition)
                elif condition.column in right_columns:
                    right_conds.append(condition)
                else:
                    return None
            elif isinstance(condition, ColEq):
                a, b = condition.left, condition.right
                if a in left_columns and b in left_columns:
                    left_conds.append(condition)
                elif a in right_columns and b in right_columns:
                    right_conds.append(condition)
                elif a in left_columns and b in right_columns:
                    pairs.append((a, b))
                elif a in right_columns and b in left_columns:
                    pairs.append((b, a))
                else:
                    return None
            else:
                return None
        return left_conds, right_conds, pairs


class SelectIntoFetchPushdown(Rule):
    """``σ(fetch(...))`` → a fetch with fused residual checks.

    Conditions over the fetch's own output columns are applied to each
    row as it arrives from the index, before it is materialized into a
    batch.  Only fires when the filter is the fetch's sole consumer —
    otherwise fusing would change what the shared fetch feeds others.
    """

    name = "select-into-fetch"

    def apply(self, graph: Graph) -> int:
        return graph.rewrite(lambda node: self._fuse(graph, node))

    def _fuse(self, graph: Graph, node: Node) -> Node | None:
        if node.kind != "filter" or node.inputs[0].kind != "fetch":
            return None
        fetch = node.inputs[0]
        fetch_columns = set(fetch.columns)
        fusable = tuple(c for c in node.conditions
                        if self._over(c, fetch_columns))
        if not fusable or graph.uses(fetch) != 1:
            return None
        residual = tuple(c for c in node.conditions
                         if not self._over(c, fetch_columns))
        fused = Node("fetch", list(fetch.inputs), fetch.columns,
                     constraint=fetch.constraint, x_columns=fetch.x_columns,
                     filters=fetch.filters + fusable)
        if residual:
            return Node("filter", [fused], node.columns, conditions=residual)
        return fused

    @staticmethod
    def _over(condition: Condition, columns: set) -> bool:
        if isinstance(condition, ConstEq):
            return condition.column in columns
        if isinstance(condition, ColEq):
            return condition.left in columns and condition.right in columns
        return False


class ProjectionPushdown(Rule):
    """Collapse projection chains and prune columns nothing reads.

    A required-columns analysis runs over the DAG (conservatively
    treating ∪/− as needing every column); join inputs and fetch
    sources carrying unrequired columns are wrapped in (or narrowed to)
    a projection.  Narrower batches mean smaller hash tables and more
    duplicate collapses before joins — sound under set semantics
    because the dropped columns feed no downstream condition, key or
    output.
    """

    name = "projection-pushdown"

    def apply(self, graph: Graph) -> int:
        # Left to right: collapse, prune, collapse what pruning left.
        return (graph.rewrite(self.match) + self._prune(graph)
                + graph.rewrite(self.match))

    @staticmethod
    def match(node: Node) -> Node | None:
        """π(π(x)) → π(x), and identity-π elimination."""
        if node.kind != "project":
            return None
        source = node.inputs[0]
        if node.src_columns == node.columns == source.columns:
            return source
        if source.kind == "project":
            # Compose: this project's src names are the inner's out
            # names; rewrite in terms of the inner's source.
            inner_of = dict(zip(source.columns, source.src_columns))
            return Node("project", list(source.inputs), node.columns,
                        src_columns=tuple(inner_of[c]
                                          for c in node.src_columns))
        return None

    # -- column pruning -----------------------------------------------------

    @staticmethod
    def _required(graph: Graph, order: list[Node]) -> dict[int, set]:
        required: dict[int, set] = {id(node): set() for node in order}
        required[id(graph.result)] = set(graph.result.columns)
        for node in reversed(order):
            needs = required[id(node)]
            if node.kind == "project":
                src = required[id(node.inputs[0])]
                for src_column, out_column in zip(node.src_columns,
                                                  node.columns):
                    if out_column in needs:
                        src.add(src_column)
            elif node.kind == "filter":
                src = required[id(node.inputs[0])]
                src |= needs
                for condition in node.conditions:
                    if isinstance(condition, ConstEq):
                        src.add(condition.column)
                    elif isinstance(condition, ColEq):
                        src.add(condition.left)
                        src.add(condition.right)
            elif node.kind == "fetch":
                required[id(node.inputs[0])] |= set(node.x_columns)
            elif node.kind in ("cross", "hashjoin"):
                left, right = node.inputs
                required[id(left)] |= needs & set(left.columns)
                required[id(right)] |= needs & set(right.columns)
                for a, b in node.pairs:
                    required[id(left)].add(a)
                    required[id(right)].add(b)
            else:
                # union/diff members and anything else: keep every column.
                for child in node.inputs:
                    required[id(child)] |= set(child.columns)
        return required

    def _prune(self, graph: Graph) -> int:
        fired = 0
        order = graph.topo()
        required = self._required(graph, order)
        # Narrow the inputs of joins and fetches (where batch width costs).
        for node in order:
            if node.kind not in ("cross", "hashjoin", "fetch"):
                continue
            for child in list(node.inputs):
                needs = required.get(id(child))
                if needs is None or needs >= set(child.columns):
                    continue
                keep = tuple(c for c in child.columns if c in needs)
                if child.kind == "project":
                    keep_src = tuple(s for s, o in zip(child.src_columns,
                                                       child.columns)
                                     if o in needs)
                    narrowed = Node("project", list(child.inputs), keep,
                                    src_columns=keep_src)
                else:
                    narrowed = Node("project", [child], keep,
                                    src_columns=keep)
                graph.replace(child, narrowed)
                required[id(narrowed)] = set(keep)
                fired += 1
        if fired:
            self._reconcile(graph)
        return fired

    @staticmethod
    def _reconcile(graph: Graph) -> None:
        """Propagate narrowed columns downstream, inputs before
        consumers.

        Filters mirror their input's columns and joins concatenate
        their inputs'.  A projection may still list a dropped source
        column — by the required-columns analysis only when the
        corresponding *output* is needed by no consumer (union/diff
        consumers demand every column, so their arms are never
        narrowed) — and drops those (src, out) pairs."""
        for node in graph.topo():
            if node.kind == "filter":
                node.columns = node.inputs[0].columns
            elif node.kind in ("cross", "hashjoin"):
                node.columns = (node.inputs[0].columns
                                + node.inputs[1].columns)
            elif node.kind == "project":
                available = set(node.inputs[0].columns)
                kept = [(src, out) for src, out
                        in zip(node.src_columns, node.columns)
                        if src in available]
                node.src_columns = tuple(src for src, _ in kept)
                node.columns = tuple(out for _, out in kept)


class CommonSubplanElimination(Rule):
    """Hash-consing over the DAG, up to column renaming.

    The plan builder fresh-names every step, so duplicate sub-plans
    across UCQ disjuncts are *alpha-equivalent*, never textually equal.
    Node signatures therefore trace through projection chains down to
    base positions: two nodes with the same signature denote the same
    table up to column names.  The duplicate is replaced by the
    original — behind a rename-projection when names differ, which the
    batch executor runs as zero-copy column relabeling.  Each merged
    fetch is an index lookup the executor no longer repeats.

    One topo pass suffices: merges happen bottom-up, and signatures see
    *through* the rename-projections earlier merges inserted.  A node's
    projection chain is traced once per pass: in topological order its
    inputs are settled before it is visited, so the trace cannot change
    afterwards.
    """

    name = "common-subplan"

    def apply(self, graph: Graph) -> int:
        fired = 0
        seen: dict[tuple, Node] = {}
        self._chains: dict[Node, tuple | None] = {}
        for node in graph.topo():
            signature = self._signature(node)
            if signature is None:
                continue
            existing = seen.get(signature)
            if existing is None:
                seen[signature] = node
                continue
            if existing is node:
                continue
            if existing.columns == node.columns:
                graph.replace(node, existing)
            else:
                graph.replace(node, Node("project", [existing], node.columns,
                                         src_columns=existing.columns))
            fired += 1
        return fired

    # -- signatures ---------------------------------------------------------

    def _through_projects(self, node: Node):
        """``(base, positions)``: the nearest non-projection ancestor
        and, per output column, its position there — or ``None`` when a
        duplicate-named intermediate makes the mapping ambiguous.
        Memoized per node for the pass (the memo keeps its nodes alive,
        so a node made later never meets a dead one's entry)."""
        chains = self._chains
        if node in chains:
            return chains[node]
        traced = None
        if node.kind != "project":
            traced = node, tuple(range(len(node.columns)))
        else:
            source = node.inputs[0]
            inner = (self._through_projects(source)
                     if len(set(source.columns)) == len(source.columns)
                     else None)
            if inner is not None:
                base, positions = inner
                traced = base, tuple(
                    positions[source.columns.index(c)]
                    for c in node.src_columns)
        chains[node] = traced
        return traced

    def _traced_input(self, child: Node):
        traced = self._through_projects(child)
        if traced is None:
            return None
        base, positions = traced
        return (id(base), positions)

    @staticmethod
    def _positional(conditions, columns: tuple[str, ...]):
        if len(set(columns)) != len(columns):
            return None
        resolved = []
        for condition in conditions:
            if isinstance(condition, ConstEq):
                resolved.append(("c", columns.index(condition.column),
                                 condition.value))
            elif isinstance(condition, ColEq):
                resolved.append(("k", columns.index(condition.left),
                                 columns.index(condition.right)))
            else:
                return None
        return tuple(resolved)

    def _signature(self, node: Node):
        inputs = []
        for child in node.inputs:
            traced = self._traced_input(child)
            if traced is None:
                return None
            inputs.append(traced)
        if node.kind == "unit":
            payload = ()
        elif node.kind == "empty":
            payload = (len(node.columns),)
        elif node.kind == "const":
            payload = (node.value,)
        elif node.kind == "fetch":
            # A fetch reads only its X-projection of the source, so the
            # signature composes the X-positions through to the base.
            source = node.inputs[0]
            if len(set(source.columns)) != len(source.columns):
                return None
            traced = self._through_projects(source)
            if traced is None:
                return None
            base, base_positions = traced
            x_positions = tuple(
                base_positions[source.columns.index(c)]
                for c in node.x_columns)
            filters = self._positional(node.filters, node.columns)
            if filters is None:
                return None
            payload = (node.constraint, x_positions, filters)
            inputs = [id(base)]
        elif node.kind == "project":
            traced = self._through_projects(node)
            if traced is None:
                return None
            base, positions = traced
            payload = (positions,)
            inputs = [id(base)]
        elif node.kind == "filter":
            payload = (self._positional(node.conditions,
                                        node.inputs[0].columns),)
            if payload[0] is None:
                return None
        elif node.kind == "hashjoin":
            left, right = node.inputs
            try:
                payload = (tuple(
                    (left.columns.index(a), right.columns.index(b))
                    for a, b in node.pairs),)
            except ValueError:
                return None
        elif node.kind in ("cross", "union", "diff"):
            payload = ()
        else:
            return None
        signature = (node.kind, tuple(inputs), payload)
        try:
            hash(signature)
        except TypeError:  # unhashable payload (e.g. exotic constant)
            return None
        return signature


def _distinct(columns: tuple[str, ...]) -> bool:
    return len(set(columns)) == len(columns)


class KeyProjectionFolding(Rule):
    """Read key columns in place instead of through a projection.

    Two consumers read a projection only as a set of keys, so the
    deduplicated batch it would build is wasted (late materialization):

    * a fetch over a projection reads its X-columns from the
      projection's source, mapped through ``src_columns``.  A fetch
      dedups its keys itself, so π-then-fetch equals fetch-on-source;
    * a one-pair hash join whose left (else right) input is a
      one-column projection becomes a ``semijoin``: that side is
      ``set(column)`` of the projection's source, the other side is
      filtered by membership, and the key is emitted where the join
      put the projection's column.  The rows are the join's: the
      projected side was deduped, so each probe row matched at most
      once.

    The projections nothing reads any more fall out of the graph.  A
    fetch still sees the same distinct keys, so data access is
    unchanged.
    """

    name = "key-projection"

    def apply(self, graph: Graph) -> int:
        fired = 0
        for node in graph.topo():
            if node.kind == "fetch":
                fired += self._fold_fetch(graph, node)
            elif node.kind == "hashjoin" and len(node.pairs) == 1:
                fired += self._semijoin(graph, node)
        return fired

    @staticmethod
    def _fold_fetch(graph: Graph, fetch: Node) -> int:
        fired, source, x_columns = 0, fetch.inputs[0], fetch.x_columns
        while (source.kind == "project" and _distinct(source.columns)
               and _distinct(source.inputs[0].columns)):
            src_of = dict(zip(source.columns, source.src_columns))
            x_columns = tuple(src_of[c] for c in x_columns)
            source = source.inputs[0]
            fired += 1
        if fired:
            graph.replace(fetch, Node(
                "fetch", [source], fetch.columns, constraint=fetch.constraint,
                x_columns=x_columns, filters=fetch.filters))
        return fired

    @staticmethod
    def _semijoin(graph: Graph, join: Node) -> int:
        (left_key, right_key), = join.pairs
        left, right = join.inputs
        for side, keys, probe, probe_key in (("left", left, right, right_key),
                                             ("right", right, left, left_key)):
            if (keys.kind == "project" and len(keys.columns) == 1
                    and _distinct(keys.inputs[0].columns)):
                graph.replace(join, Node(
                    "semijoin", [keys.inputs[0], probe], join.columns,
                    pairs=((keys.src_columns[0], probe_key),), side=side))
                return 1
        return 0
