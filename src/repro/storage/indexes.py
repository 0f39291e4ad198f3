"""Hash indexes backing access constraints.

An access constraint ``R(X -> Y, N)`` promises an index on ``X`` for
``Y``: given an ``X``-value ``a``, retrieve ``D_Y(X = a)`` without
scanning ``R`` (paper, Section 2).  :class:`AccessIndex` is that index:
a hash map from ``X``-projections to the set of distinct ``Y``-
projections (plus the combined ``X∪Y`` rows the ``fetch`` plan operator
returns).

When built with a :class:`~repro.storage.encoding.ValueDictionary`
(every shipped backend does this), the index *additionally* maintains
an encoded mirror of each group: per ``X``-key, one ``array('q')``
column per ``X∪Y`` attribute holding dictionary codes, pre-built at
insert time.  Keys into the encoded mirror are bare int codes when
``|X| == 1`` (the hot case) and code tuples otherwise.

:func:`gather_codes` is the one read over such a mirror — here and in
the process-sharded worker's :class:`~repro.storage.procshard.worker.
CodeIndex` alike: a key batch in, concatenated code columns plus
per-key row counts out (compressed sparse row), with one probe of the
whole batch and one C-level join per column.  Every engine's
``read_codes`` ends in it.  :meth:`AccessIndex.lookup` stays as the
value-level oracle tests rebuild indexes with.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..errors import ConstraintViolation
from ..schema.access import AccessConstraint
from ..schema.relation import RelationSchema
from .encoding import ValueDictionary, int_column

Tuple = tuple


class _EncodedGroup:
    """One X-key's rows as pre-built code columns.

    ``pos`` maps each distinct Y-code tuple to its row position so a
    deletion can swap-remove in O(columns) — row order within a group
    is meaningless under set semantics, so the swap is free.
    """

    __slots__ = ("cols", "pos")

    def __init__(self, width: int):
        self.cols = [int_column() for _ in range(width)]
        self.pos: dict[Tuple, int] = {}

    def append(self, row_codes: Sequence[int], y_key: Tuple) -> None:
        self.pos[y_key] = len(self.cols[0]) if self.cols else len(self.pos)
        for column, code in zip(self.cols, row_codes):
            column.append(code)

    def discard(self, y_key: Tuple, y_start: int) -> None:
        position = self.pos.pop(y_key, None)
        if position is None or not self.cols:
            return
        last = len(self.cols[0]) - 1
        if position != last:
            for column in self.cols:
                column[position] = column[last]
            moved = tuple(column[position]
                          for column in self.cols[y_start:])
            self.pos[moved] = position
        for column in self.cols:
            column.pop()

    def __len__(self) -> int:
        return len(self.cols[0]) if self.cols else len(self.pos)


def gather_codes(groups: dict, width: int, keys: Sequence,
                 row_proj: "tuple[int, ...] | None" = None,
                 dedup: bool = False) -> tuple[list, list[int]]:
    """Every row of a key batch, CSR-shaped: ``(cols, counts)``.

    ``groups`` maps code keys to :class:`_EncodedGroup`; ``cols`` are
    freshly built ``array('q')`` columns holding each key's rows in key
    order (groups mutate in place under the caller's lock, so nothing
    internal may leak) and ``counts[i]`` is the row count of
    ``keys[i]``.  ``row_proj`` selects and orders the output columns
    from a wider index's ``X∪Y`` layout; ``dedup`` then collapses the
    rows that projection made equal, per key.
    """
    found = list(map(groups.get, keys))
    if dedup:
        unique = [() if group is None
                  else dict.fromkeys(zip(*[group.cols[p] for p in row_proj]))
                  for group in found]
        rows = [row for group in unique for row in group]
        cols = ([int_column(column) for column in zip(*rows)] if rows
                else [int_column() for _ in row_proj])
        return cols, list(map(len, unique))
    counts = [0 if group is None else len(group.pos) for group in found]
    parts = [group.cols for group in found if group is not None]
    if row_proj is not None:
        width = len(row_proj)
        parts = [[cols[p] for p in row_proj] for cols in parts]
    if len(parts) == 1:
        return [column[:] for column in parts[0]], counts
    if not parts:
        return [int_column() for _ in range(width)], counts
    return [int_column(b"".join(column)) for column in zip(*parts)], counts


class AccessIndex:
    """The index for one access constraint over one relation instance.

    ``lookup`` implements the paper's ``fetch`` primitive: for an
    X-value, return the distinct ``X∪Y`` projections, in deterministic
    insertion order.  The number of distinct Y-values per X-value is the
    quantity the cardinality bound constrains; ``max_group_size`` exposes
    the observed maximum so instances can be validated.
    """

    def __init__(self, constraint: AccessConstraint, relation: RelationSchema,
                 dictionary: ValueDictionary | None = None):
        self.constraint = constraint
        self.relation = relation
        self.dictionary = dictionary
        self.x_positions = constraint.x_positions(relation)
        self.y_positions = constraint.y_positions(relation)
        #: Width of a fetched row (and of every encoded group column).
        self.width = len(self.x_positions) + len(self.y_positions)
        #: Encoded keys are bare int codes exactly when ``|X| == 1``.
        self.scalar_key = len(self.x_positions) == 1
        # x-projection -> ordered dict of distinct y-projections, each
        # mapped to the number of stored rows producing it.  The count
        # makes row deletion exact: a projection disappears only when
        # its last witness row is removed (X∪Y may be a strict subset
        # of the relation's attributes, so projections can be shared).
        self._groups: dict[Tuple, dict[Tuple, int]] = {}
        # code key -> _EncodedGroup mirror (None without a dictionary:
        # ad-hoc validation indexes skip the columnar machinery).
        self.encoded: dict | None = (
            {} if dictionary is not None else None)

    def add(self, row: Sequence,
            coded_row: Sequence[int] | None = None) -> bool:
        """Register one stored row.

        Backends that bulk-encode pass ``coded_row`` (the full
        relation row as dictionary codes, computed once per row across
        all of the relation's indexes); otherwise the index encodes
        on demand — either way a value is interned exactly once.

        Returns True exactly when a *new distinct projection* appeared
        (the row is its group's first witness) — the projection-level
        effect write-delta emission reports to read-side caches; a
        row whose ``X∪Y`` projection was already witnessed changes no
        fetch result and returns False.
        """
        x_value = tuple(row[i] for i in self.x_positions)
        y_value = tuple(row[i] for i in self.y_positions)
        group = self._groups.setdefault(x_value, {})
        count = group.get(y_value, 0)
        group[y_value] = count + 1
        if count:
            return False
        if self.encoded is None:
            return True
        # First witness of this X∪Y projection: mirror it encoded.
        if coded_row is None:
            coded_row = self.dictionary.encode_row(row)
        key = (coded_row[self.x_positions[0]] if self.scalar_key
               else tuple(coded_row[i] for i in self.x_positions))
        entry = self.encoded.get(key)
        if entry is None:
            entry = self.encoded[key] = _EncodedGroup(self.width)
        y_key = tuple(coded_row[i] for i in self.y_positions)
        entry.append([coded_row[i] for i in self.x_positions]
                     + [coded_row[i] for i in self.y_positions], y_key)
        return True

    def remove(self, row: Sequence,
               coded_row: Sequence[int] | None = None) -> bool:
        """Unregister one stored row (callers pass only rows they
        actually deleted, exactly once per deletion).

        Returns True exactly when the row's distinct projection
        *disappeared* (it was the last witness) — the dual of
        :meth:`add`'s return.  ``coded_row`` may be passed by callers
        that already encoded the row (delta emission does); otherwise
        the index encodes on demand, and only when the encoded mirror
        actually needs updating.
        """
        x_value = tuple(row[i] for i in self.x_positions)
        y_value = tuple(row[i] for i in self.y_positions)
        group = self._groups.get(x_value)
        if group is None:
            return False
        count = group.get(y_value)
        if count is None:
            return False
        if count > 1:
            group[y_value] = count - 1
            return False
        del group[y_value]
        if not group:
            del self._groups[x_value]
        if self.encoded is None:
            return True
        if coded_row is None:
            coded_row = self.dictionary.encode_row(row)
        key = (coded_row[self.x_positions[0]] if self.scalar_key
               else tuple(coded_row[i] for i in self.x_positions))
        entry = self.encoded.get(key)
        if entry is not None:
            entry.discard(tuple(coded_row[i] for i in self.y_positions),
                          len(self.x_positions))
            if not entry.pos:
                del self.encoded[key]
        return True

    def remove_all(self) -> None:
        self._groups.clear()
        if self.encoded is not None:
            self.encoded.clear()

    def lookup(self, x_value: Tuple) -> list[Tuple]:
        """Distinct ``X∪Y`` projections for one X-value (possibly empty).

        The returned rows concatenate the X-value with each distinct
        Y-value, matching the ``fetch(X ∈ T, R, Y)`` operator that
        returns ``D_XY(X = a)``.
        """
        group = self._groups.get(tuple(x_value))
        if group is None:
            return []
        return [x_value + y_value for y_value in group]

    def group_size(self, x_value: Tuple) -> int:
        group = self._groups.get(tuple(x_value))
        return 0 if group is None else len(group)

    def max_group_size(self) -> int:
        if not self._groups:
            return 0
        return max(len(group) for group in self._groups.values())

    def x_values(self) -> Iterator[Tuple]:
        return iter(self._groups)

    def validate(self, db_size: int) -> None:
        """Raise :class:`ConstraintViolation` if some group exceeds the bound."""
        limit = self.constraint.bound(db_size)
        for x_value, group in self._groups.items():
            if len(group) > limit:
                raise ConstraintViolation(self.constraint, x_value, len(group))

    def __len__(self) -> int:
        return len(self._groups)
