"""The reference for a plan's access accounting.

:func:`audited` runs a plan on a :class:`RecordingExecutor` and checks
its ``AccessStats`` against a per-key ``db.fetch`` replay of the fetch
steps it made: ``fetch_calls`` is the number of steps,
``index_lookups`` the number of keys and ``tuples_fetched`` the rows
``db.fetch`` returns for them.  Given the logical plan, the run must
also fetch no more than :func:`interpret_logical` does and than the
plan's cost certificate allows.
"""

from __future__ import annotations

from repro.engine import Executor, interpret_logical, static_bounds


class RecordingExecutor(Executor):
    """Records each fetch step as ``(constraint, X-values)``.  A key
    holding a never-stored constant's sentinel code records as
    ``None``: it matches no stored row."""

    def __init__(self, db):
        super().__init__(db)
        self.steps: list[tuple[object, list]] = []

    def _fetch_flat_encoded(self, constraint, keys, stats):
        decode = self.db.dictionary.decode
        code_keys = ([(key,) for key in keys] if len(constraint.x) == 1
                     else keys)
        self.steps.append((constraint, [
            None if any(code < 0 for code in key)
            else tuple(map(decode, key)) for key in code_keys]))
        return super()._fetch_flat_encoded(constraint, keys, stats)


def audited(db, plan, logical=None):
    """Run ``plan`` on ``db`` and check its accounting (see the module
    docstring).  Returns the result and, when ``logical`` is given, its
    :func:`interpret_logical` reference result."""
    executor = RecordingExecutor(db)
    result = executor.execute(plan)
    stats = result.stats
    lookups = [(constraint, x_value)
               for constraint, x_values in executor.steps
               for x_value in x_values]
    assert stats.fetch_calls == len(executor.steps)
    assert stats.index_lookups == len(lookups)
    assert stats.tuples_fetched == sum(
        len(db.fetch(constraint, x_value))
        for constraint, x_value in lookups if x_value is not None)
    if logical is None:
        return result, None
    reference = interpret_logical(logical, db)
    assert stats.tuples_fetched <= reference.stats.tuples_fetched
    assert stats.tuples_fetched <= static_bounds(
        logical, db_size=db.size()).fetch_bound
    return result, reference
