"""Hash indexes backing access constraints.

An access constraint ``R(X -> Y, N)`` promises an index on ``X`` for
``Y``: given an ``X``-value ``a``, retrieve ``D_Y(X = a)`` without
scanning ``R`` (paper, Section 2).

Indexes hold dictionary codes only (dictionary-coded storage in the
sense of Abadi, Madden and Ferreira, SIGMOD 2006).  :class:`CodeIndex`
is the one witness-counted code-group index that every engine and
shard worker keeps: per ``X``-key, one ``array('q')`` column per
``X∪Y`` attribute holding the distinct projections, each counted by
its witness rows and sorted by Y-key, so a group's row order follows
from its content alone.  Keys are bare int codes when ``|X| == 1`` (the
hot case) and code tuples otherwise.  :class:`AccessIndex` binds one to
a constraint over a relation and decodes on the way out of its
value-level reads, which tests and cardinality checks use.

:func:`gather_codes` is the one read over a code-group map: a key
batch in, concatenated code columns plus per-key row counts out
(compressed sparse row), with one probe of the whole batch and one
C-level join per column.  Every engine's ``read_codes`` ends in it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from ..schema.access import AccessConstraint
from ..schema.relation import RelationSchema
from .encoding import COLUMN_TYPECODE, ValueDictionary, int_column


class _EncodedGroup:
    """One X-key's distinct ``X∪Y`` projections as code columns, kept
    sorted by Y-key (the Y codes, compared as a tuple when ``|Y| > 1``).

    The order is a function of the group's content and the dictionary,
    not of the write history, so any two copies built from the same
    rows under the same dictionary agree bit for bit (sorted
    projections over dictionary codes, as in C-Store).  ``extra``
    counts the witnesses beyond the first of the Y-keys that more than
    one stored row produces, and stays None until one does: a
    projection with one witness costs its codes and nothing else.
    """

    __slots__ = ("cols", "extra")

    def __init__(self, row_codes: Sequence[int]):
        """A group holding its first projection, ``row_codes``."""
        self.cols = [array(COLUMN_TYPECODE, (code,)) for code in row_codes]
        self.extra: dict | None = None


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
    counts = [0 if group is None else len(group.cols[0])
              for group in found]
    parts = [group.cols for group in found if group is not None]
    if row_proj is not None:
        width = len(row_proj)
        parts = [[cols[p] for p in row_proj] for cols in parts]
    if len(parts) == 1:
        return [column[:] for column in parts[0]], counts
    if not parts:
        return [int_column() for _ in range(width)], counts
    return [int_column(b"".join(column)) for column in zip(*parts)], counts


class CodeIndex:
    """One constraint's witness-counted code groups.

    Rows arrive as ``X∪Y`` code tuples: the first ``x_len`` codes are
    the X-key, the rest the Y-key.  ``encoded`` maps each key to its
    :class:`_EncodedGroup` — what :func:`gather_codes` reads.  A write
    finds its projection by binary search over the sorted Y-keys and
    inserts or deletes in place: O(log N) compares plus an O(N) shift
    of each column, N being the constraint's bound.
    """

    __slots__ = ("x_len", "width", "scalar_key", "scalar_y", "encoded")

    def __init__(self, x_len: int, width: int):
        self.x_len = x_len
        self.width = width
        self.scalar_key = x_len == 1
        self.scalar_y = width - x_len == 1
        self.encoded: dict = {}

    def _keys(self, row_codes: Sequence[int]) -> tuple:
        """The X-key and Y-key of one ``X∪Y`` code row."""
        x_len = self.x_len
        return (row_codes[0] if self.scalar_key
                else tuple(row_codes[:x_len]),
                row_codes[x_len] if self.scalar_y
                else tuple(row_codes[x_len:]))

    def _find(self, group: _EncodedGroup, y_key) -> tuple[int, bool]:
        """Where ``y_key`` belongs among ``group``'s sorted Y-keys, and
        whether it is already there."""
        cols = group.cols
        if self.scalar_y:
            rows = cols[self.x_len]
            position = bisect_left(rows, y_key)
            return position, (position < len(rows)
                              and rows[position] == y_key)
        y_cols = cols[self.x_len:]

        def row_key(i: int) -> tuple:
            return tuple(column[i] for column in y_cols)

        rows = range(len(cols[0]))
        position = bisect_left(rows, y_key, key=row_key)
        return position, (position < len(rows)
                          and row_key(position) == y_key)

    def add(self, row_codes: Sequence[int]) -> bool:
        """Register one stored row's projection.

        Returns True exactly when the projection is new (the row is its
        first witness) — the effect write-delta emission reports to
        read-side caches; a further witness changes no fetch result.
        """
        key, y_key = self._keys(row_codes)
        group = self.encoded.get(key)
        if group is None:
            self.encoded[key] = _EncodedGroup(row_codes)
            return True
        position, present = self._find(group, y_key)
        if present:
            extra = group.extra
            if extra is None:
                group.extra = {y_key: 1}
            else:
                extra[y_key] = extra.get(y_key, 0) + 1
            return False
        for column, code in zip(group.cols, row_codes):
            column.insert(position, code)
        return True

    def remove(self, row_codes: Sequence[int]) -> bool:
        """Unregister one stored row's projection (callers pass only
        rows they actually deleted, once per deletion).

        Returns True exactly when the projection *disappeared* (the row
        was its last witness) — the dual of :meth:`add`'s return.
        """
        key, y_key = self._keys(row_codes)
        group = self.encoded.get(key)
        if group is None:
            return False
        extra = group.extra
        if extra is not None and y_key in extra:
            witnesses = extra.pop(y_key)
            if witnesses > 1:
                extra[y_key] = witnesses - 1
            elif not extra:
                group.extra = None
            return False
        position, present = self._find(group, y_key)
        if not present:
            return False
        if len(group.cols[0]) == 1:
            del self.encoded[key]
            return True
        for column in group.cols:
            del column[position]
        return True

    def remove_all(self) -> None:
        self.encoded.clear()

    def group_count(self) -> int:
        return len(self.encoded)


def row_projector(positions: Sequence[int]) -> Callable[[Sequence], tuple]:
    """A C-level projection of a row onto ``positions``, always a tuple."""
    if len(positions) == 1:
        position = positions[0]
        return lambda row: (row[position],)
    return itemgetter(*positions) if positions else (lambda row: ())


class AccessIndex:
    """The index for one access constraint over one relation instance:
    a :class:`CodeIndex` over the relation's encoded rows.

    ``lookup`` implements the paper's ``fetch`` primitive for one
    X-value, decoded.  The number of distinct Y-values per X-value is
    the quantity the cardinality bound constrains; :meth:`groups`
    exposes it to :meth:`~repro.storage.database.Database.check`.  An
    index built without a ``dictionary`` interns into a private one.
    """

    def __init__(self, constraint: AccessConstraint, relation: RelationSchema,
                 dictionary: ValueDictionary | None = None):
        self.constraint = constraint
        self.dictionary = (dictionary if dictionary is not None
                           else ValueDictionary())
        self.x_positions = constraint.x_positions(relation)
        self.y_positions = constraint.y_positions(relation)
        self.codes = CodeIndex(len(self.x_positions),
                               len(self.x_positions) + len(self.y_positions))
        #: Width of a fetched row (and of every group column).
        self.width = self.codes.width
        #: Code keys are bare int codes exactly when ``|X| == 1``.
        self.scalar_key = self.codes.scalar_key
        #: code key -> _EncodedGroup, what :func:`gather_codes` reads.
        self.encoded = self.codes.encoded
        #: A coded relation row -> its X∪Y code row.
        self.project = row_projector(self.x_positions + self.y_positions)
        #: A coded relation row -> its code key.
        self.key = (itemgetter(self.x_positions[0]) if self.scalar_key
                    else row_projector(self.x_positions))

    def add(self, row: Sequence,
            coded_row: Sequence[int] | None = None) -> bool:
        """Register one stored row (``coded_row``: its codes, if known);
        True exactly when its ``X∪Y`` projection is new."""
        return bool(self.add_coded(
            [coded_row or self.dictionary.encode_row(row)]))

    def add_coded(self, coded_rows: Sequence[Sequence[int]]) -> list:
        """Register a batch of stored rows, given as full code rows;
        returns the ones whose projection is new."""
        add, project = self.codes.add, self.project
        return [coded for coded in coded_rows if add(project(coded))]

    def remove_coded(self, coded_rows: Sequence[Sequence[int]]) -> list:
        """Unregister a batch of deleted rows, given as full code rows;
        returns the ones whose projection disappeared."""
        remove, project = self.codes.remove, self.project
        return [coded for coded in coded_rows if remove(project(coded))]

    def remove_all(self) -> None:
        self.codes.remove_all()

    def lookup(self, x_value: tuple) -> list[tuple]:
        """Distinct ``X∪Y`` projections for one X-value (possibly empty),
        decoded — the ``fetch(X ∈ T, R, Y)`` operator's ``D_XY(X = a)``."""
        codes = self.dictionary.lookup_codes(x_value)
        if any(code < 0 for code in codes):
            return []  # a value never stored
        group = self.encoded.get(codes[0] if self.scalar_key
                                 else tuple(codes))
        if group is None:
            return []
        decode = self.dictionary.decode
        return list(zip(*[list(map(decode, column))
                          for column in group.cols]))

    def groups(self) -> Iterator[tuple[tuple, int]]:
        """``(x_value, distinct-Y count)`` per X-key, decoded."""
        decode = self.dictionary.decode
        for key, group in self.encoded.items():
            yield ((decode(key),) if self.scalar_key
                   else tuple(map(decode, key))), len(group.cols[0])

    def __len__(self) -> int:
        return len(self.encoded)
