"""The physical plan IR: positional, batch-oriented operators.

Where logical ops address columns by *name*, physical ops carry
pre-resolved *positions*, so the executor never does string lookups on
the hot path.  Selections appear as tuples of checks
(:class:`ConstCheck` / :class:`ColCheck`); equi-joins as
:class:`HashJoinOp` with key positions, or as
:class:`SemiJoinOp` when one side is a one-column key set; fetches
optionally carry fused residual checks (:class:`FusedFetchOp`) applied
to rows as they arrive from storage.

A :class:`PhysicalPlan` is the unit the service's plan cache stores and
the batch executor runs.  A ``$param`` template binds without copying
it: a :class:`BoundPlan` pairs the shared *optimized* plan with one
binding's constants, so the warm path never re-optimizes or rebuilds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Sequence, Union

from ...errors import PlanError
from ...schema.access import AccessConstraint

#: Physical-op class -> metric label (``HashJoinOp`` -> ``hash_join``),
#: filled lazily so new op kinds need no registration here.
_OP_LABELS: dict[type, str] = {}


def op_label(op_type: type) -> str:
    """The metric/profiling label for a physical-op class."""
    label = _OP_LABELS.get(op_type)
    if label is None:
        name = op_type.__name__
        if name.endswith("Op"):
            name = name[:-2]
        label = re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()
        _OP_LABELS[op_type] = label
    return label


@dataclass(frozen=True)
class ConstCheck:
    """Row passes when the value at ``position`` equals ``value``."""

    position: int
    value: Hashable

    def describe(self, columns: tuple[str, ...]) -> str:
        return f"{columns[self.position]} = {self.value!r}"


@dataclass(frozen=True)
class ColCheck:
    """Row passes when the values at ``left`` and ``right`` are equal."""

    left: int
    right: int

    def describe(self, columns: tuple[str, ...]) -> str:
        return f"{columns[self.left]} = {columns[self.right]}"


Check = Union[ConstCheck, ColCheck]


class PhysicalOp:
    """Base class: every physical op names its output columns."""

    out_columns: tuple[str, ...]

    def inputs(self) -> tuple[int, ...]:
        return ()


@dataclass(frozen=True)
class UnitScanOp(PhysicalOp):
    """One row, no columns (the nullary unit)."""

    out_columns: tuple[str, ...] = ()

    def __str__(self) -> str:
        return "unit()"


@dataclass(frozen=True)
class EmptyScanOp(PhysicalOp):
    """No rows at all."""

    out_columns: tuple[str, ...]

    def __str__(self) -> str:
        return f"empty({', '.join(self.out_columns)})"


@dataclass(frozen=True)
class ConstScanOp(PhysicalOp):
    """A single-row, single-column constant."""

    out_columns: tuple[str, ...]
    value: Hashable

    def __str__(self) -> str:
        return f"const {self.value!r} as {self.out_columns[0]}"


@dataclass(frozen=True)
class BatchFetchOp(PhysicalOp):
    """Index fetch: one lookup per distinct X-value in the source batch."""

    source: int
    x_positions: tuple[int, ...]
    constraint: AccessConstraint
    out_columns: tuple[str, ...]

    def inputs(self) -> tuple[int, ...]:
        return (self.source,)

    def __str__(self) -> str:
        xs = ", ".join(str(p) for p in self.x_positions) or "()"
        return (f"fetch(T{self.source}[{xs}], {self.constraint}) "
                f"as ({', '.join(self.out_columns)})")


@dataclass(frozen=True)
class FusedFetchOp(PhysicalOp):
    """Fetch with fused residual checks, applied per fetched row before
    the row enters the batch (``select-into-fetch`` pushdown)."""

    source: int
    x_positions: tuple[int, ...]
    constraint: AccessConstraint
    out_columns: tuple[str, ...]
    checks: tuple[Check, ...]

    def inputs(self) -> tuple[int, ...]:
        return (self.source,)

    def __str__(self) -> str:
        xs = ", ".join(str(p) for p in self.x_positions) or "()"
        conds = " and ".join(c.describe(self.out_columns)
                             for c in self.checks)
        return (f"fused-fetch(T{self.source}[{xs}], {self.constraint}; "
                f"{conds}) as ({', '.join(self.out_columns)})")


@dataclass(frozen=True)
class GatherOp(PhysicalOp):
    """Column gather: projection (and renaming) by position."""

    source: int
    positions: tuple[int, ...]
    out_columns: tuple[str, ...]

    def inputs(self) -> tuple[int, ...]:
        return (self.source,)

    def __str__(self) -> str:
        cols = ", ".join(str(p) for p in self.positions)
        return (f"gather(T{self.source}; [{cols}]) "
                f"as ({', '.join(self.out_columns)})")


@dataclass(frozen=True)
class FilterOp(PhysicalOp):
    """Filter a batch by a conjunction of positional checks."""

    source: int
    checks: tuple[Check, ...]
    out_columns: tuple[str, ...]

    def inputs(self) -> tuple[int, ...]:
        return (self.source,)

    def __str__(self) -> str:
        conds = " and ".join(c.describe(self.out_columns)
                             for c in self.checks)
        return f"filter(T{self.source}; {conds})"


@dataclass(frozen=True)
class HashJoinOp(PhysicalOp):
    """Equi-join: build a hash table on the right side's keys, probe
    with the left's.  Output columns are left's then right's, as the
    logical ``σ(×)`` pair it replaces would produce."""

    left: int
    right: int
    left_key: tuple[int, ...]
    right_key: tuple[int, ...]
    out_columns: tuple[str, ...]

    def inputs(self) -> tuple[int, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        pairs = ", ".join(f"L{a}=R{b}"
                          for a, b in zip(self.left_key, self.right_key))
        return f"hash-join(T{self.left}, T{self.right}; {pairs})"


@dataclass(frozen=True)
class SemiJoinOp(PhysicalOp):
    """Equi-join against a one-column projection, run as a semi-join:
    the ``probe`` rows whose key is in the set of ``T<keys>``'s
    ``key_position`` column, with that key repeated as the first
    (``side="left"``) or last (``"right"``) output column — where the
    hash join it replaces put the projection's column."""

    keys: int
    key_position: int
    probe: int
    probe_position: int
    side: str  # "left" | "right"
    out_columns: tuple[str, ...]

    def inputs(self) -> tuple[int, ...]:
        return (self.keys, self.probe)

    def __str__(self) -> str:
        return (f"semi-join(T{self.probe}[{self.probe_position}] in "
                f"T{self.keys}[{self.key_position}]; key={self.side})")


@dataclass(frozen=True)
class CrossJoinOp(PhysicalOp):
    """Cartesian product of two batches."""

    left: int
    right: int
    out_columns: tuple[str, ...]

    def inputs(self) -> tuple[int, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"cross(T{self.left}, T{self.right})"


@dataclass(frozen=True)
class DistinctUnionOp(PhysicalOp):
    """Union of same-arity batches with duplicate elimination."""

    sources: tuple[int, ...]
    out_columns: tuple[str, ...]

    def inputs(self) -> tuple[int, ...]:
        return self.sources

    def __str__(self) -> str:
        return "union(" + ", ".join(f"T{s}" for s in self.sources) + ")"


@dataclass(frozen=True)
class DifferenceOp(PhysicalOp):
    """Set difference of two same-arity batches."""

    left: int
    right: int
    out_columns: tuple[str, ...]

    def inputs(self) -> tuple[int, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"difference(T{self.left}, T{self.right})"


class PhysicalPlan:
    """An executable physical plan: a topo-ordered list of physical ops.

    Carries the logical plan it was lowered from, the builder's cost
    certificate (optimization never increases data access, so the
    certificate's bounds stay valid), the optimizer's rule trace, and
    optional per-step row estimates.
    """

    def __init__(self, name: str, steps: list[PhysicalOp], *,
                 logical=None, certificate=None, trace=None,
                 estimates: list | None = None):
        if not steps:
            raise PlanError("physical plan has no steps")
        self.name = name
        self.steps = steps
        self.logical = logical
        self.certificate = certificate
        self.trace = trace
        self.estimates = estimates

    @property
    def result_index(self) -> int:
        return len(self.steps) - 1

    @property
    def result_columns(self) -> tuple[str, ...]:
        return self.steps[-1].out_columns

    def fetch_ops(self) -> list[PhysicalOp]:
        return [op for op in self.steps
                if isinstance(op, (BatchFetchOp, FusedFetchOp))]

    @cached_property
    def constants(self) -> tuple[Hashable, ...]:
        """Every constant the plan mentions, in step order with repeats
        — the slot order of the specialized steps' code vector."""
        return tuple(value for op in self.steps
                     for value in op_constants(op))

    def explain(self) -> str:
        lines = [f"physical plan {self.name}:"]
        for index, op in enumerate(self.steps):
            estimate = ""
            if self.estimates is not None and self.estimates[index] is not None:
                estimate = f"  [rows <= {self.estimates[index]}]"
            lines.append(f"  T{index} = {op}{estimate}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        return self.explain()


def op_constants(op: PhysicalOp) -> tuple[Hashable, ...]:
    """The constants ``op`` mentions, in order: a const scan's value,
    or the values of a filter's or fused fetch's const checks."""
    if isinstance(op, ConstScanOp):
        return (op.value,)
    if isinstance(op, (FilterOp, FusedFetchOp)):
        return tuple(c.value for c in op.checks if isinstance(c, ConstCheck))
    return ()


class BoundPlan:
    """One binding of a template: the shared :class:`PhysicalPlan` plus
    the bound values in :attr:`PhysicalPlan.constants` order.

    Binding copies no op: shape, positions, certificate and specialized
    steps are value-independent and stay on the template.
    """

    __slots__ = ("plan", "values")

    def __init__(self, plan: PhysicalPlan, values: Sequence[Hashable]):
        self.plan = plan
        self.values = values

    @classmethod
    def of(cls, plan: "PhysicalPlan | BoundPlan") -> "BoundPlan":
        """``plan`` as a binding; a physical plan binds its own
        constants."""
        if isinstance(plan, BoundPlan):
            return plan
        return cls(plan, plan.constants)
