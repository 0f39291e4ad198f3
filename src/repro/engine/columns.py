"""The executor's column model: encoded batches and column helpers.

Intermediate results flow through the physical operators as
:class:`Batch` objects — one integer column per attribute, row-aligned,
carrying dictionary *codes* rather than Python values (see
:class:`~repro.storage.encoding.ValueDictionary`).  Columns at the
storage boundary are ``array('q')`` (or readonly memoryviews over
them, when served from a cache); columns built by operators are plain
lists of codes.  Every operator treats columns as immutable once a
batch is published — sharing column references across batches is the
normal case, never a copy hazard.

Also here: :func:`column_index`, the shared column-name resolution used
by every layer that still addresses columns by name (result tables,
the logical reference interpreter, physical lowering), so a missing
column always raises the same :class:`~repro.errors.ExecutionError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import ExecutionError
from ..storage.encoding import (ValueDictionary, extend_column, int_column,
                                readonly_view)

__all__ = [
    "Batch", "deduped_batch", "column_index",
    "ValueDictionary", "int_column", "extend_column", "readonly_view",
]


@dataclass(slots=True)
class Batch:
    """A columnar intermediate: one code column per attribute.

    ``distinct`` records whether the rows are known duplicate-free;
    ops that cannot introduce duplicates propagate it, so deduplication
    runs only where projection or union may actually have merged rows.
    """

    columns: tuple[str, ...]
    cols: list
    length: int
    distinct: bool

    def rows(self) -> set[tuple]:
        """The batch's rows as a set of code tuples."""
        if not self.columns:
            return {()} if self.length else set()
        return set(zip(*self.cols))

    def __len__(self) -> int:
        return self.length


def deduped_batch(columns: tuple[str, ...], cols: list, length: int) -> Batch:
    """Rebuild ``cols`` with duplicate rows removed (first-seen order).

    Dedup keys are the column entries themselves — integer codes on the
    columnar path, so no row tuples are built at all in the common
    single-column case, and multi-column keys are small int tuples.
    """
    if not columns:
        return Batch(columns, [], 1 if length else 0, True)
    if len(cols) == 1:
        column = list(dict.fromkeys(cols[0]))
        return Batch(columns, [column], len(column), True)
    rows = list(dict.fromkeys(zip(*cols)))
    if rows:
        new_cols = [list(column) for column in zip(*rows)]
    else:
        new_cols = [[] for _ in columns]
    return Batch(columns, new_cols, len(rows), True)


def column_index(columns: Sequence[str], name: str) -> int:
    """Position of ``name`` in ``columns``; :class:`ExecutionError` if absent."""
    try:
        return list(columns).index(name)
    except ValueError:
        raise ExecutionError(
            f"no column {name!r}; columns are {tuple(columns)}"
        ) from None
