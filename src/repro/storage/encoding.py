"""Dictionary encoding: the value <-> integer-code bijection columns ride on.

The columnar data plane never moves Python values through operators —
it moves small integer *codes*.  :class:`ValueDictionary` is the
interning table that makes that sound: an append-only bijection from
hashable values to dense ints, so

* ``code(a) == code(b)  <=>  a == b`` (one dictionary per backend —
  join keys cross relations, so codes must be comparable across every
  relation and shard of one database), and
* decoding is a plain list index, lock-free under the GIL.

Encoding happens **once, at insert/attach time**, inside the storage
backend (see :class:`~repro.storage.indexes.AccessIndex`); executors
only ever *decode* the final result batch.  Python equality quirks
(``1 == True == 1.0`` share one code; two distinct ``NaN`` objects get
two codes) mirror exactly how ``dict``/``set`` keys behave, so decoded
answers are ``==``-identical to the tuple-at-a-time reference.

This module also hosts the integer-column primitives shared by storage
and engine (``array('q')`` construction, memoryview freezing, typed
concatenation) — it sits below both layers, so neither import
direction cycles.
"""

from __future__ import annotations

import sys
import threading
from array import array
from itertools import chain, filterfalse
from typing import Hashable, Iterable, Sequence

#: The machine layout of every encoded column: signed 64-bit ints.
COLUMN_TYPECODE = "q"


def int_column(values: Iterable[int] = ()) -> array:
    """A fresh signed-64 integer column."""
    return array(COLUMN_TYPECODE, values)


def readonly_view(column: array) -> memoryview:
    """Freeze a column: a zero-copy readonly ``memoryview`` over it.

    Cache layers hand these out instead of the backing arrays so no
    consumer can mutate a shared entry in place (writes raise).
    """
    return memoryview(column).toreadonly()


def extend_column(out: array, column) -> None:
    """Append ``column`` onto the array ``out``.

    Arrays take the C ``memcpy``-style fast path; readonly memoryviews
    (cache entries) are blitted via ``frombytes`` on the raw buffer;
    anything else (plain lists of codes) falls back to iteration.
    """
    if type(column) is memoryview:
        out.frombytes(column.cast("B"))
    else:
        out.extend(column)


#: A key of no caller's type (see ``ValueDictionary.__init__``).
_ANY_KEY = object()


class ValueDictionary:
    """Append-only interning table from hashable values to dense codes.

    >>> d = ValueDictionary()
    >>> d.encode("x"), d.encode("y"), d.encode("x")
    (0, 1, 0)
    >>> d.decode(1)
    'y'
    >>> len(d)
    2

    Thread-safety: lookups of already-interned values and all decodes
    are lock-free (the GIL orders list appends before the dict publish
    below); only the first encode of a *new* value takes the lock.
    Codes are never reassigned or removed — deletion of rows does not
    shrink the dictionary (values are interned, not refcounted), which
    keeps every outstanding cache entry valid for the lifetime of the
    backend.  Only writes intern; queries use :meth:`lookup_codes`.
    """

    __slots__ = ("_codes", "_values", "_lock")

    def __init__(self) -> None:
        # Start in CPython's any-key table layout: a str-only dict
        # resizes to three times its size at its first other key, so a
        # batch load reaching its ints late would keep a larger table.
        self._codes: dict[Hashable, int] = {_ANY_KEY: 0}
        del self._codes[_ANY_KEY]
        self._values: list[Hashable] = []
        self._lock = threading.Lock()

    def encode(self, value: Hashable) -> int:
        """The code for ``value``, interning it on first sight."""
        code = self._codes.get(value)
        if code is not None:
            return code
        with self._lock:
            code = self._codes.get(value)
            if code is None:
                code = len(self._values)
                # Publish the value *before* the code becomes visible,
                # so a lock-free decode of a just-returned code always
                # finds it.
                self._values.append(value)
                self._codes[value] = code
        return code

    def encode_row(self, row: Sequence[Hashable]) -> tuple[int, ...]:
        """Encode one stored row positionally."""
        codes = self._codes
        try:
            return tuple(codes[value] for value in row)
        except KeyError:
            return tuple(self.encode(value) for value in row)

    def encode_rows(self, rows: Sequence[Sequence[Hashable]]
                    ) -> list[tuple[int, ...]]:
        """Encode a batch of stored rows — exactly the codes
        :meth:`encode_row` row after row would give.

        New values are interned in row-major first-sight order under
        one lock hold, with C-level loops, and published values first,
        codes second, as :meth:`encode` does.

        >>> d = ValueDictionary()
        >>> d.encode_rows([("x", 1), (True, "y")])
        [(0, 1), (1, 2)]
        """
        codes = self._codes
        lookup = codes.__getitem__
        try:
            return [tuple(map(lookup, row)) for row in rows]
        except KeyError:
            pass
        with self._lock:
            # dict.fromkeys dedups as encode's lookups do (1, True and
            # 1.0 are one key; distinct NaN objects two) and keeps each
            # key's first-seen object, the one encode would intern.
            fresh = list(filterfalse(
                codes.__contains__,
                dict.fromkeys(chain.from_iterable(rows))))
            start = len(self._values)
            self._values.extend(fresh)
            codes.update(zip(fresh, range(start, start + len(fresh))))
        return [tuple(map(lookup, row)) for row in rows]

    def lookup_codes(self, values: Sequence[Hashable]) -> list[int]:
        """The codes of ``values`` *without interning* — the read
        path's lookup, so a query can never grow the dictionary.

        A value never stored gets a negative *sentinel* code, which
        equals no stored code: a fetch key or equality check on it
        matches nothing.  Sentinels are ``-1, -2, ...`` per distinct
        unknown value in ``values``, so equal values still share a
        code.  They are only meaningful alongside ``values`` (see
        :meth:`decode_rows`) and must not be kept past the call: once
        the value is stored it has a real code.
        """
        codes = self._codes
        try:
            return [codes[value] for value in values]
        except KeyError:
            pass
        out: list[int] = []
        unknown: list[Hashable] = []
        for value in values:
            code = codes.get(value)
            if code is None:
                if value in unknown:
                    code = -1 - unknown.index(value)
                else:
                    unknown.append(value)
                    code = -len(unknown)
            out.append(code)
        return out

    def lookup_keys(self, x_values: Sequence[Sequence[Hashable]],
                    width: int) -> list:
        """Fetch keys for X-value tuples of ``width`` values, through
        :meth:`lookup_codes` (so never interning): bare codes when
        ``width == 1``, code tuples otherwise."""
        codes = self.lookup_codes(
            [value for x_value in x_values for value in x_value])
        if width == 1:
            return codes
        if width:
            return [tuple(codes[i:i + width])
                    for i in range(0, len(codes), width)]
        return [()] * len(x_values)

    def decode(self, code: int) -> Hashable:
        return self._values[code]

    def decode_rows(self, cols: Sequence, length: int,
                    sentinels: dict[int, Hashable] | None = None
                    ) -> set[tuple]:
        """Decode row-aligned code columns into a set of value tuples —
        the one place the columnar executor rematerializes Python
        values (the final answer).  ``sentinels`` maps the negative
        codes of a :meth:`lookup_codes` call back to their values."""
        if not cols:
            return {()} if length else set()
        values = self._values
        if sentinels:
            def value_of(code):
                return values[code] if code >= 0 else sentinels[code]
            return set(zip(*([value_of(code) for code in col]
                             for col in cols)))
        return set(zip(*([values[code] for code in col] for col in cols)))

    def values_from(self, start: int) -> list:
        """The interned values with codes ``start..len-1`` — the *delta*
        a coordinator ships to workers that already know the
        first ``start`` codes.  Codes are assigned densely in insertion
        order, so the slice alone reconstructs the mapping remotely."""
        return self._values[start:]

    def footprint_bytes(self) -> int:
        """An estimate of the resident size of the interning table:
        container overhead plus the values themselves (interned once,
        shared by ``_codes`` keys and ``_values`` slots).  Surfaced as
        the ``repro_storage_dictionary_bytes`` gauge."""
        values = self._values
        total = sys.getsizeof(self._codes) + sys.getsizeof(values)
        total += sum(sys.getsizeof(value) for value in values)
        # each dict entry also interns an int code object
        total += 28 * len(values)
        return total

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: Hashable) -> bool:
        return value in self._codes
