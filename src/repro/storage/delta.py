"""Per-write deltas: which index groups a write changed.

Bounded fetch results are X-key-indexed sets of distinct ``X∪Y``
projections, so the unit of change a read-side cache cares about is not
"row inserted/deleted" but "the group under this X-key of this
constraint's index changed".  The indexes already know when that
happens — :class:`~repro.storage.indexes.CodeIndex` counts the witness
rows of each projection — so a projection shared by several stored rows
changes nothing until its last witness goes, and its key is not named.

One :class:`WriteDelta` describes one effective write batch (one
generation bump) of one relation: per attached constraint, the X-keys
whose group the batch changed, plus ``read``, the backend's read of
such groups at the delta's generation.  A listener replaces what it
holds for a named key with that read, so a maintained entry *is* the
index's content at the delta's generation, row order included — the
same order any copy of the index holds, groups being sorted by Y codes.
Backends emit the delta *inside* the lock that serializes the
relation's generation bumps, immediately after the bump, so listeners
observe a gap-free, ordered stream::

    old_generation == (previous delta's new_generation)

Deltas that cannot name their keys (a full ``clear``, recovery, a
schema reattach) are emitted with ``maintainable=False``, telling
listeners to fall back to invalidation.

>>> delta = WriteDelta.wipe("R", 3, 4)
>>> delta.maintainable, delta.new_generation
(False, 4)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..schema.access import AccessConstraint

#: ``read(constraint, keys)``: per key, ``(readonly column views,
#: length)`` of its group — the shape fetch-cache entries hold.
GroupRead = Callable[[AccessConstraint, Sequence], list]


@dataclass
class WriteDelta:
    """One effective write batch of one relation, as seen by its
    indexes, bracketed by the generations it moved between.

    ``keys`` maps each *attached*
    :class:`~repro.schema.access.AccessConstraint` whose index the
    batch changed to the X-keys (a bare int code for scalar-X
    constraints, a code tuple otherwise — the fetch cache's key
    convention) of the changed groups.  ``AccessConstraint`` is a
    frozen dataclass, so a structurally equal requested constraint
    addresses the same dict slot.  ``read`` reads groups of an attached
    constraint at ``new_generation``; it is valid only during the
    listener call, which runs under the write lock.

    ``maintainable=False`` means the write cannot name its keys
    (``clear``, recovery, schema reattach): listeners must drop what
    they hold for ``relation`` and resynchronize at ``new_generation``.
    """

    relation: str
    old_generation: int
    new_generation: int
    keys: dict[AccessConstraint, list] = field(default_factory=dict)
    read: GroupRead | None = None
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
