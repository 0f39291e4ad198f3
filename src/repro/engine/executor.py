"""Columnar physical-plan execution with access accounting.

The executor runs :class:`~repro.engine.optimizer.physical.PhysicalPlan`
steps batch-at-a-time over *encoded* columns: every intermediate is a
:class:`~repro.engine.columns.Batch` of dictionary codes (see
:class:`~repro.storage.encoding.ValueDictionary`), fetched rows arrive
from storage as pre-encoded ``array('q')`` columns, joins hash int
codes instead of value tuples, and the only Python-value work in a
request is decoding the final batch.  Before its first run a plan is
*specialized* (:mod:`~repro.engine.optimizer.specialize`): one closure
per op with positions and key widths baked in, so the warm path
interprets nothing per batch; constants arrive per request as a vector
of codes the steps index by slot.  Handed a *logical*
:class:`~repro.engine.plan.Plan`, it first runs the one-time optimizer
(memoized on the plan object).

Every tuple that crosses the storage boundary is counted, so the
numbers reported here — fetch calls, index lookups, tuples fetched —
are the paper's ``|D_Q|``-style quantities (Section 2) and what
EXP-1/EXP-4 plot.  Code-distinctness equals value-distinctness (the
dictionary is a bijection), so there is one index lookup per distinct
X-value of a fetch step.

Value tuples stop at the storage boundary: the only fetch hook is
:meth:`Executor._fetch_flat_encoded`.  :func:`interpret_logical` keeps
the direct tuple-at-a-time interpretation of the logical IR (no
optimizer, no fusion, ``db.fetch`` per X-value) as the reference
semantics — property tests and the EXP-9 benchmark compare the
optimized pipeline against it bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..deadline import current_deadline
from ..errors import ExecutionError
from ..obs.trace import span
from ..storage.database import Database
from ..storage.statistics import TableStatistics
from .columns import Batch, column_index
from .optimizer.physical import BoundPlan, PhysicalPlan
from .optimizer.pipeline import ensure_physical
from .optimizer.specialize import specialized_plan
from .plan import (ColEq, ConstEq, ConstOp, DiffOp, EmptyOp, FetchOp, Op,
                   Plan, ProductOp, ProjectOp, RenameOp, SelectOp, UnionOp,
                   UnitOp)

__all__ = [
    "AccessStats", "Batch", "ExecutionResult", "Executor", "Table",
    "execute_plan", "interpret_logical",
]


@dataclass
class Table:
    """A named-column table with set semantics (the result format)."""

    columns: tuple[str, ...]
    rows: set[tuple]

    def column_index(self, name: str) -> int:
        return column_index(self.columns, name)

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class AccessStats:
    """What the plan touched: the empirical ``|D_Q|`` ingredients."""

    fetch_calls: int = 0
    #: Distinct index lookups (one per distinct X-value per fetch op).
    index_lookups: int = 0
    #: Tuples returned by *cold* index lookups — the data genuinely
    #: accessed in storage; this is the honest ``|D_Q|`` number even
    #: when a fetch cache is in front of the index.
    tuples_fetched: int = 0
    #: Lookups answered by a fetch cache without touching storage
    #: (always 0 under the plain executor).
    fetch_cache_hits: int = 0
    #: Lookups that went through a fetch cache but missed.
    fetch_cache_misses: int = 0
    #: Tuples served from the fetch cache instead of storage.
    tuples_from_cache: int = 0
    #: Largest intermediate batch (plan-side work, not data access).
    max_intermediate: int = 0
    ops_executed: int = 0
    #: Batches executed per physical-op kind (``hash_join``,
    #: ``batch_fetch``, ...) — the shape of the work, not its size.
    op_counts: dict = field(default_factory=dict)

    def observe_table(self, table) -> None:
        self.max_intermediate = max(self.max_intermediate, len(table))

    def merge(self, other: "AccessStats") -> None:
        """Fold another request's accounting into this one (batch totals)."""
        self.fetch_calls += other.fetch_calls
        self.index_lookups += other.index_lookups
        self.tuples_fetched += other.tuples_fetched
        self.fetch_cache_hits += other.fetch_cache_hits
        self.fetch_cache_misses += other.fetch_cache_misses
        self.tuples_from_cache += other.tuples_from_cache
        self.max_intermediate = max(self.max_intermediate,
                                    other.max_intermediate)
        self.ops_executed += other.ops_executed
        for key, count in other.op_counts.items():
            self.op_counts[key] = self.op_counts.get(key, 0) + count


@dataclass
class ExecutionResult:
    """The final table plus accounting."""

    table: Table
    stats: AccessStats

    @property
    def answers(self) -> set[tuple]:
        return self.table.rows

    @property
    def boolean(self) -> bool:
        """For Boolean (zero-column) results: is the answer 'true'?"""
        return bool(self.table.rows)


class Executor:
    """Executes plans against one database instance — the columnar path.

    Accepts a logical :class:`Plan` (optimized once, memoized on the
    plan), a ready :class:`PhysicalPlan` (e.g. from a service's plan
    cache — no optimizer work at all) or a :class:`BoundPlan` (one
    binding of a template).  The plan is specialized once, on first
    contact; each execution looks its constants up in the database's
    value dictionary, runs the pre-built closures over encoded batches
    and decodes only the final result.
    """

    def __init__(self, db: Database):
        self.db = db

    def _resolve(self, plan) -> BoundPlan:
        if isinstance(plan, Plan):
            if not plan.steps:
                raise ExecutionError("cannot execute an empty plan")
            plan = ensure_physical(
                plan, lambda: TableStatistics.from_database(self.db))
        if isinstance(plan, (PhysicalPlan, BoundPlan)):
            return BoundPlan.of(plan)
        raise ExecutionError(
            f"cannot execute a {type(plan).__name__}; expected a "
            "logical Plan, a PhysicalPlan or a BoundPlan")

    def execute(self, plan) -> ExecutionResult:
        bound = self._resolve(plan)
        dictionary = self.db.dictionary
        spec, consts = specialized_plan(bound, dictionary)
        stats = AccessStats()
        batches: list[Batch] = []
        append = batches.append
        largest = 0
        deadline = current_deadline()
        with span("execute"):
            for step, label in zip(spec.steps, spec.labels):
                if deadline is not None:
                    # Between-steps is the executor's cancellation
                    # point: a batch in flight always completes (the
                    # storage layer has its own finer-grained checks),
                    # partial pipelines never leak out.
                    deadline.check(f"executor:{label}")
                batch = step(batches, consts, self, stats)
                if batch.length > largest:
                    largest = batch.length
                append(batch)
        stats.op_counts.update(spec.op_counts)
        stats.ops_executed += len(spec.steps)
        stats.max_intermediate = max(stats.max_intermediate, largest)
        final = batches[-1]
        # A never-stored constant can reach the answer (a const scan
        # crossed into the output); its sentinel decodes to its value.
        sentinels = (dict(zip(consts, bound.values))
                     if consts and min(consts) < 0 else None)
        with span("decode"):
            rows = dictionary.decode_rows(final.cols, final.length,
                                          sentinels)
        return ExecutionResult(Table(final.columns, rows), stats)

    # -- the storage boundary -------------------------------------------------

    def _fetch_flat_encoded(self, constraint, keys: Sequence,
                            stats: AccessStats):
        """One batched trip to storage: a fetch step's distinct code
        keys in, the concatenated ``(code columns, length)`` out.  One
        index lookup per key (the dictionary is a bijection, so the
        batch of distinct codes is exactly the batch of distinct
        X-values), every returned tuple counted.  Subclasses may
        interpose a per-key cache here (see
        ``repro.service.fetchcache.CachingExecutor``).

        This call is also the process-sharding RPC surface: under a
        :class:`~repro.storage.procshard.ProcessShardedBackend` the key
        batch fans out to shard worker processes and the columns come
        back over pipes — with the same answers and the same
        ``AccessStats``, because accounting happens here and in the
        specialized fetch step, never inside an engine.  (``fetch_calls``
        and the ``fetch`` span are counted at the call site, the
        specialized step closure.)"""
        deadline = current_deadline()
        if deadline is not None:
            deadline.check("fetch_flat_encoded")
        cols, length = self.db.fetch_flat_encoded(constraint, keys)
        stats.index_lookups += len(keys)
        stats.tuples_fetched += length
        return cols, length


# -- the logical reference interpreter ---------------------------------------


def interpret_logical(plan: Plan, db: Database,
                      stats: AccessStats | None = None) -> ExecutionResult:
    """Direct tuple-at-a-time interpretation of the *logical* IR.

    No optimizer, no join fusion, no batches: every step materializes a
    row set exactly as the paper's plan semantics reads.  This is the
    reference the optimized pipeline is property-tested against, and
    the "unoptimized" baseline of the EXP-9 benchmark.
    """
    stats = stats if stats is not None else AccessStats()
    tables: list[Table] = []

    def run(op: Op) -> Table:
        if isinstance(op, UnitOp):
            return Table((), {()})
        if isinstance(op, EmptyOp):
            return Table(op.columns, set())
        if isinstance(op, ConstOp):
            return Table((op.column,), {(op.value,)})
        if isinstance(op, FetchOp):
            source = tables[op.source]
            positions = [source.column_index(c) for c in op.x_columns]
            x_values = {tuple(row[p] for p in positions)
                        for row in source.rows}
            stats.fetch_calls += 1
            rows: set[tuple] = set()
            for x_value in x_values:
                fetched = db.fetch(op.constraint, x_value)
                stats.index_lookups += 1
                stats.tuples_fetched += len(fetched)
                rows.update(fetched)
            return Table(op.out_columns, rows)
        if isinstance(op, ProjectOp):
            source = tables[op.source]
            positions = [source.column_index(c) for c in op.src_columns]
            rows = {tuple(row[p] for p in positions) for row in source.rows}
            columns = (op.out_columns if op.out_columns is not None
                       else op.src_columns)
            return Table(tuple(columns), rows)
        if isinstance(op, SelectOp):
            source = tables[op.source]
            checks = []
            for condition in op.conditions:
                if isinstance(condition, ColEq):
                    checks.append((source.column_index(condition.left),
                                   source.column_index(condition.right),
                                   None))
                elif isinstance(condition, ConstEq):
                    checks.append((source.column_index(condition.column),
                                   condition.value))
                else:
                    raise ExecutionError(
                        f"unknown condition {condition!r}")
            rows = {row for row in source.rows
                    if all(row[c[0]] == row[c[1]] if len(c) == 3
                           else row[c[0]] == c[1] for c in checks)}
            return Table(source.columns, rows)
        if isinstance(op, RenameOp):
            mapping = dict(op.mapping)
            source = tables[op.source]
            return Table(tuple(mapping.get(c, c) for c in source.columns),
                         set(source.rows))
        if isinstance(op, ProductOp):
            left, right = tables[op.left], tables[op.right]
            rows = {l + r for l in left.rows for r in right.rows}
            return Table(left.columns + right.columns, rows)
        if isinstance(op, UnionOp):
            rows = set()
            for source in op.sources:
                rows |= tables[source].rows
            return Table(tables[op.sources[0]].columns, rows)
        if isinstance(op, DiffOp):
            left, right = tables[op.left], tables[op.right]
            return Table(left.columns, left.rows - right.rows)
        raise ExecutionError(f"unknown op {op!r}")

    if not plan.steps:
        raise ExecutionError("cannot execute an empty plan")
    for op in plan.steps:
        table = run(op)
        stats.ops_executed += 1
        stats.observe_table(table)
        tables.append(table)
    return ExecutionResult(tables[-1], stats)


def execute_plan(plan, db: Database) -> ExecutionResult:
    """Convenience wrapper: optimize (if needed) and run against ``db``."""
    return Executor(db).execute(plan)
