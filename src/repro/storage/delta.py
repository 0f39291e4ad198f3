"""Per-write deltas: what a write changed, at index-group granularity.

Bounded fetch results are X-key-indexed sets of distinct ``X∪Y``
projections, so the unit of change a read-side cache cares about is not
"row inserted/deleted" but "projection appeared/disappeared under this
X-key of this constraint's index".  The indexes already know the
difference — :class:`~repro.storage.indexes.CodeIndex` counts the
witness rows of each projection — so backends can emit *exact*
group-level deltas at no extra bookkeeping cost: a projection shared
by several stored rows changes nothing until its last witness goes.

One :class:`WriteDelta` describes one effective write batch (one
generation bump) of one relation.  Backends emit it *inside* the lock
that serializes the relation's generation bumps, immediately after the
bump, so listeners observe a gap-free, ordered stream::

    old_generation == (previous delta's new_generation)

A listener that has applied every delta since generation ``g`` holds
content identical to a fresh fetch at the current generation — that is
the invariant :class:`~repro.service.fetchcache.FetchCache` maintains
its entries by.  Deltas that cannot be described exactly (a full
``clear``, recovery, a schema reattach) are emitted with
``maintainable=False``, telling listeners to fall back to invalidation.

>>> delta = WriteDelta.wipe("R", 3, 4)
>>> delta.maintainable, delta.new_generation
(False, 4)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..schema.access import AccessConstraint

#: One projection-level change: the X-key (a bare int code for
#: scalar-X constraints, a code tuple otherwise — the fetch cache's key
#: convention) and the ``X∪Y`` dictionary codes (what cache entries
#: hold).
Change = tuple[object, tuple]


@dataclass
class ConstraintDelta:
    """The projection-level changes one write batch made to one
    attached constraint's index groups."""

    added: list[Change] = field(default_factory=list)
    removed: list[Change] = field(default_factory=list)


@dataclass
class WriteDelta:
    """One effective write batch of one relation, as seen by its
    indexes, bracketed by the generations it moved between.

    ``constraints`` maps each *attached*
    :class:`~repro.schema.access.AccessConstraint` to its
    :class:`ConstraintDelta`.  ``AccessConstraint`` is a frozen
    dataclass, so a structurally equal requested constraint addresses
    the same dict slot — listeners key their entries by requested
    constraints and still receive the attached-keyed deltas.

    ``maintainable=False`` means the write cannot be described as
    projection changes (``clear``, recovery, schema reattach): listeners
    must drop what they hold for ``relation`` and resynchronize at
    ``new_generation``.
    """

    relation: str
    old_generation: int
    new_generation: int
    constraints: dict[AccessConstraint, ConstraintDelta] = \
        field(default_factory=dict)
    maintainable: bool = True

    @classmethod
    def wipe(cls, relation: str, old_generation: int,
             new_generation: int) -> "WriteDelta":
        """A non-maintainable delta: everything a listener holds for
        ``relation`` is suspect; invalidate and resume at
        ``new_generation``."""
        return cls(relation=relation, old_generation=old_generation,
                   new_generation=new_generation, maintainable=False)


#: The listener signature backends call (synchronously, under the
#: write lock) for every emitted delta.
WriteListener = Callable[[WriteDelta], None]


class DeltaRecorder:
    """Accumulates one write batch's projection changes.

    Backends create one per observed write batch and feed it, per
    index, the coded rows whose :meth:`AccessIndex.add_coded` or
    ``remove_coded`` reported a projection-level effect;
    :meth:`finish` seals the recording into a :class:`WriteDelta` once
    the generation bump is known.
    """

    __slots__ = ("relation", "_constraints")

    def __init__(self, relation: str):
        self.relation = relation
        self._constraints: dict[AccessConstraint, ConstraintDelta] = {}

    @staticmethod
    def _change(index, coded_row: Sequence[int]) -> Change:
        row_codes = index.project(coded_row)
        return (row_codes[0] if index.scalar_key
                else row_codes[:len(index.x_positions)], row_codes)

    def _delta(self, index) -> ConstraintDelta:
        delta = self._constraints.get(index.constraint)
        if delta is None:
            delta = self._constraints[index.constraint] = ConstraintDelta()
        return delta

    def record(self, index, coded_rows: Sequence[Sequence[int]],
               removed: bool) -> None:
        """The rows' projections appeared under their X-keys — or, when
        ``removed``, the rows were their projections' last witnesses."""
        delta = self._delta(index)
        (delta.removed if removed else delta.added).extend(
            self._change(index, coded) for coded in coded_rows)

    def finish(self, old_generation: int,
               new_generation: int) -> WriteDelta:
        return WriteDelta(relation=self.relation,
                          old_generation=old_generation,
                          new_generation=new_generation,
                          constraints=self._constraints)
