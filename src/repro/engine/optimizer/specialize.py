"""Per-template operator specialization: compile once, interpret nothing.

When a :class:`~repro.engine.optimizer.physical.PhysicalPlan` first
executes, this module lowers it to a :class:`SpecializedPlan`: one
closure per physical op, with every shape-dependent decision — column
positions, key widths, check layout, permutation-vs-dedup — resolved
*at closure-creation time* (a hash join always builds on its right
input, so there is no build side to choose).  The warm path then runs
``step(batches, consts, executor, stats)`` per op and never
isinstance-dispatches, never re-reads op fields, never touches a column
name.

A step refers to each of its constants by *slot*: an index into the
``consts`` vector it is handed at run time, in
:attr:`~repro.engine.optimizer.physical.PhysicalPlan.constants`
order.  The specialized plan therefore depends on the op shapes only —
not on the constants' values, not on any database's dictionary — and is
built once per template and memoized on it.  Every binding of a
``$param`` template (a :class:`~repro.engine.optimizer.physical.
BoundPlan`) runs the same steps; what differs per request is the code
vector, looked up without interning
(:meth:`~repro.storage.encoding.ValueDictionary.lookup_codes`).

Steps consume and produce encoded :class:`~repro.engine.columns.Batch`
objects; the only Python-value work left in an execution is decoding
the final batch.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress

from ...errors import ExecutionError
from ...obs.trace import span
from ..columns import Batch, deduped_batch
from .physical import (BatchFetchOp, BoundPlan, ConstCheck, ConstScanOp,
                       CrossJoinOp, DifferenceOp, DistinctUnionOp,
                       EmptyScanOp, FilterOp, FusedFetchOp, GatherOp,
                       HashJoinOp, PhysicalPlan, SemiJoinOp, UnitScanOp,
                       op_constants, op_label)

__all__ = ["SpecializedPlan", "specialize", "specialized_plan"]


class SpecializedPlan:
    """A plan compiled to per-op closures over encoded batches.

    ``op_counts`` is the batches one execution runs per op label —
    a shape fact, counted here once instead of per step per request.
    """

    __slots__ = ("steps", "labels", "result_columns", "op_counts")

    def __init__(self, steps: list, labels: list[str],
                 result_columns: tuple[str, ...]):
        self.steps = steps
        self.labels = labels
        self.result_columns = result_columns
        self.op_counts = dict(Counter(labels))

    def __len__(self) -> int:
        return len(self.steps)


# -- step factories -----------------------------------------------------------
#
# Each ``_make_*`` runs once per plan *shape* and returns the per-batch
# step.  ``slots`` holds the op's constant slots: indices into the
# ``consts`` code vector each step receives at run time.


def _make_unit(op, plan, slots):
    def step(batches, consts, executor, stats):
        return Batch((), [], 1, True)
    return step


def _make_empty(op, plan, slots):
    out_columns = op.out_columns

    def step(batches, consts, executor, stats):
        return Batch(out_columns, [[] for _ in out_columns], 0, True)
    return step


def _make_const(op, plan, slots):
    out_columns = op.out_columns
    slot = slots[0]

    def step(batches, consts, executor, stats):
        return Batch(out_columns, [[consts[slot]]], 1, True)
    return step


def _make_gather(op, plan, slots):
    source, positions = op.source, op.positions
    out_columns = op.out_columns
    source_width = len(plan.steps[source].out_columns)
    # A permutation gather of distinct rows shares columns untouched;
    # whether it IS a permutation is a shape fact, decided here once.
    permutation = (len(positions) == source_width
                   and sorted(positions) == list(range(source_width)))

    if not positions:
        def step(batches, consts, executor, stats):
            src = batches[source]
            return Batch(out_columns, [], 1 if src.length else 0, True)
    elif permutation:
        def step(batches, consts, executor, stats):
            src = batches[source]
            cols = [src.cols[p] for p in positions]
            if src.distinct:
                return Batch(out_columns, cols, src.length, True)
            return deduped_batch(out_columns, cols, src.length)
    else:
        def step(batches, consts, executor, stats):
            src = batches[source]
            return deduped_batch(
                out_columns, [src.cols[p] for p in positions], src.length)
    return step


def _compile_checks(checks, slots):
    """Split a check tuple into shape facts: ``(position, slot)`` pairs
    for const checks and col-check position pairs."""
    const_positions = [c.position for c in checks
                       if isinstance(c, ConstCheck)]
    col_pairs = [(c.left, c.right) for c in checks
                 if not isinstance(c, ConstCheck)]
    return list(zip(const_positions, slots)), col_pairs


def _make_filter(op, plan, slots):
    source, out_columns = op.source, op.out_columns
    const_checks, col_pairs = _compile_checks(op.checks, slots)

    if len(const_checks) == 1 and not col_pairs:
        (position, slot), = const_checks

        def step(batches, consts, executor, stats):
            src = batches[source]
            code = consts[slot]
            selected = [i for i, value in enumerate(src.cols[position])
                        if value == code]
            return Batch(out_columns,
                         [list(map(col.__getitem__, selected))
                          for col in src.cols],
                         len(selected), src.distinct)
    elif not const_checks and len(col_pairs) == 1:
        left_pos, right_pos = col_pairs[0]

        def step(batches, consts, executor, stats):
            src = batches[source]
            selected = [i for i, pair in enumerate(
                zip(src.cols[left_pos], src.cols[right_pos]))
                if pair[0] == pair[1]]
            return Batch(out_columns,
                         [list(map(col.__getitem__, selected))
                          for col in src.cols],
                         len(selected), src.distinct)
    else:
        def step(batches, consts, executor, stats):
            src = batches[source]
            cols = src.cols
            selected = range(src.length)
            for position, slot in const_checks:
                column, code = cols[position], consts[slot]
                selected = [i for i in selected if column[i] == code]
            for left_pos, right_pos in col_pairs:
                left, right = cols[left_pos], cols[right_pos]
                selected = [i for i in selected if left[i] == right[i]]
            selected = list(selected)
            return Batch(out_columns,
                         [list(map(col.__getitem__, selected))
                          for col in cols],
                         len(selected), src.distinct)
    return step


def _make_fetch(op, plan, slots):
    source, x_positions = op.source, op.x_positions
    constraint, out_columns = op.constraint, op.out_columns
    checks = op.checks if isinstance(op, FusedFetchOp) else ()
    const_checks, col_pairs = _compile_checks(checks, slots)

    if len(x_positions) == 1:
        key_position = x_positions[0]

        def keys_of(src):
            # Scalar X: bare int codes, deduped in one C-level pass.
            return list(dict.fromkeys(src.cols[key_position]))
    elif not x_positions:
        def keys_of(src):
            return [()] if src.length else []
    else:
        def keys_of(src):
            return list(dict.fromkeys(
                zip(*[src.cols[p] for p in x_positions])))

    def step(batches, consts, executor, stats):
        keys = keys_of(batches[source])
        stats.fetch_calls += 1
        # The whole batch of distinct X-codes crosses the storage
        # boundary in ONE vectorized call.
        with span("fetch"):
            cols, length = executor._fetch_flat_encoded(
                constraint, keys, stats)
        if const_checks or col_pairs:
            selected = range(length)
            for position, slot in const_checks:
                column, code = cols[position], consts[slot]
                selected = [i for i in selected if column[i] == code]
            for left_pos, right_pos in col_pairs:
                left, right = cols[left_pos], cols[right_pos]
                selected = [i for i in selected if left[i] == right[i]]
            selected = list(selected)
            cols = [list(map(col.__getitem__, selected)) for col in cols]
            length = len(selected)
        # Per-X results are distinct and carry their X-prefix, so the
        # concatenation over distinct X-codes is duplicate-free (and
        # filtering cannot introduce duplicates).
        return Batch(out_columns, cols, length, True)
    return step


def _make_hash_join(op, plan, slots):
    left_source, right_source = op.left, op.right
    out_columns = op.out_columns
    build_key, probe_key = op.right_key, op.left_key
    single = len(build_key) == 1
    if single:
        build_pos, probe_pos = build_key[0], probe_key[0]

    def step(batches, consts, executor, stats):
        probe, build = batches[left_source], batches[right_source]
        buckets = {}
        duplicates = False
        if single:
            # Int-code keys: no per-row tuple construction at all.
            for i, code in enumerate(build.cols[build_pos]):
                prev = buckets.get(code)
                if prev is None:
                    buckets[code] = i
                elif type(prev) is int:
                    buckets[code] = [prev, i]
                    duplicates = True
                else:
                    prev.append(i)
            probe_keys = probe.cols[probe_pos]
        else:
            build_cols = [build.cols[p] for p in build_key]
            for i, key in enumerate(zip(*build_cols)):
                prev = buckets.get(key)
                if prev is None:
                    buckets[key] = i
                elif type(prev) is int:
                    buckets[key] = [prev, i]
                    duplicates = True
                else:
                    prev.append(i)
            probe_keys = zip(*[probe.cols[p] for p in probe_key])
        build_index: list[int] = []
        probe_index: list[int] = []
        if not duplicates:
            # Key-distinct build side (the common case): every bucket
            # is a bare int, the probe loop does one C-level dict probe
            # (via map) and two appends per match.
            build_append = build_index.append
            probe_append = probe_index.append
            for j, i in enumerate(map(buckets.get, probe_keys)):
                if i is not None:
                    build_append(i)
                    probe_append(j)
        else:
            for j, key in enumerate(probe_keys):
                bucket = buckets.get(key)
                if bucket is None:
                    continue
                if type(bucket) is int:
                    build_index.append(bucket)
                    probe_index.append(j)
                else:
                    build_index.extend(bucket)
                    probe_index.extend([j] * len(bucket))
        # map(__getitem__) gathers run the row loop in C.
        cols = ([list(map(column.__getitem__, probe_index))
                 for column in probe.cols]
                + [list(map(column.__getitem__, build_index))
                   for column in build.cols])
        return Batch(out_columns, cols, len(build_index),
                     probe.distinct and build.distinct)
    return step


def _make_semi_join(op, plan, slots):
    keys_source, key_position = op.keys, op.key_position
    probe_source, probe_position = op.probe, op.probe_position
    out_columns = op.out_columns
    key_left = op.side == "left"

    def step(batches, consts, executor, stats):
        keys = set(batches[keys_source].cols[key_position])
        probe = batches[probe_source]
        cols, length = probe.cols, probe.length
        column = cols[probe_position]
        # A probe side fetched by these very keys matches in full: then
        # its columns are shared, not copied.
        if not all(map(keys.__contains__, column)):
            selected = list(compress(range(length),
                                     map(keys.__contains__, column)))
            cols = [list(map(col.__getitem__, selected)) for col in cols]
            length = len(selected)
        key = cols[probe_position]
        return Batch(out_columns, [key, *cols] if key_left else [*cols, key],
                     length, probe.distinct)
    return step


def _make_cross(op, plan, slots):
    left_source, right_source = op.left, op.right
    out_columns = op.out_columns

    def step(batches, consts, executor, stats):
        left, right = batches[left_source], batches[right_source]
        l_count, r_count = left.length, right.length
        cols = [[column[i] for i in range(l_count)
                 for _ in range(r_count)] for column in left.cols]
        for column in right.cols:
            # memoryview (cache-served columns) lacks ``*``.
            if type(column) is memoryview:
                column = list(column)
            cols.append(column * l_count)
        return Batch(out_columns, cols, l_count * r_count,
                     left.distinct and right.distinct)
    return step


def _make_union(op, plan, slots):
    sources, out_columns = op.sources, op.out_columns
    width = len(out_columns)

    if len(sources) == 1:
        only = sources[0]

        def step(batches, consts, executor, stats):
            src = batches[only]
            if src.distinct:
                return Batch(out_columns, src.cols, src.length, True)
            return deduped_batch(out_columns, src.cols, src.length)
    else:
        def step(batches, consts, executor, stats):
            cols = [[] for _ in range(width)]
            total = 0
            for source in sources:
                src = batches[source]
                for position in range(width):
                    cols[position].extend(src.cols[position])
                total += src.length
            return deduped_batch(out_columns, cols, total)
    return step


def _make_difference(op, plan, slots):
    left_source, right_source = op.left, op.right
    out_columns = op.out_columns
    width = len(out_columns)

    def step(batches, consts, executor, stats):
        left, right = batches[left_source], batches[right_source]
        rows = left.rows() - right.rows()
        if not width:
            return Batch(out_columns, [], 1 if rows else 0, True)
        if rows:
            cols = [list(column) for column in zip(*rows)]
        else:
            cols = [[] for _ in range(width)]
        return Batch(out_columns, cols, len(rows), True)
    return step


_FACTORIES = {
    UnitScanOp: _make_unit,
    EmptyScanOp: _make_empty,
    ConstScanOp: _make_const,
    GatherOp: _make_gather,
    FilterOp: _make_filter,
    BatchFetchOp: _make_fetch,
    FusedFetchOp: _make_fetch,
    HashJoinOp: _make_hash_join,
    SemiJoinOp: _make_semi_join,
    CrossJoinOp: _make_cross,
    DistinctUnionOp: _make_union,
    DifferenceOp: _make_difference,
}


def specialize(plan: PhysicalPlan) -> SpecializedPlan:
    """``plan``'s specialized steps, built at most once per plan object
    and shared by every binding of it."""
    spec = plan.__dict__.get("_specialized")
    if spec is not None:
        return spec
    with span("specialize"):
        steps, labels = [], []
        slot = 0
        for op in plan.steps:
            factory = _FACTORIES.get(type(op))
            if factory is None:
                raise ExecutionError(f"unknown physical op {op!r}")
            n_consts = len(op_constants(op))
            steps.append(factory(op, plan, range(slot, slot + n_consts)))
            labels.append(op_label(type(op)))
            slot += n_consts
        spec = SpecializedPlan(steps, labels, plan.result_columns)
    plan._specialized = spec
    return spec


def specialized_plan(plan: PhysicalPlan | BoundPlan,
                     dictionary) -> tuple[SpecializedPlan, list[int]]:
    """The template's shared steps plus this binding's code vector.

    The codes are looked up in ``dictionary`` per call and never
    interned: a value the database has never stored gets a negative
    sentinel code that matches no stored row.  Nothing here is
    memoized per binding, so a sentinel cannot outlive the insert that
    gives its value a real code.
    """
    bound = BoundPlan.of(plan)
    return (specialize(bound.plan),
            dictionary.lookup_codes(bound.values))
