"""The pluggable storage-engine boundary.

A covered query touches a bounded fragment ``D_Q`` through the indexes
an access schema promises — *how* those indexes and rows are laid out
is the storage engine's business, not the engine's.  This module pins
that boundary down as :class:`StorageBackend`, a narrow batched access
protocol:

* ``fetch_many(constraint, x_values)`` — the vectorized form of the
  paper's ``fetch`` primitive: one call answers a whole batch of
  distinct X-values, so executors never loop single lookups across the
  storage boundary;
* ``scan(relation)`` — the full-scan path bounded plans avoid (kept
  separate so benchmarks can tell the two apart);
* ``insert_rows`` / ``delete_rows`` — set-semantics bulk writes whose
  per-relation ``generation`` bumps *after* the index updates, the
  ordering read-side caches rely on;
* ``generation(relation)`` — the write epoch keying those caches.

This module ships :class:`MemoryBackend` — one dict of rows plus one
:class:`~repro.storage.indexes.AccessIndex` per constraint (the
original ``Database`` internals, extracted) — and :func:`make_backend`,
the by-name factory over it and the two other engines:
:class:`~repro.storage.disk.DiskBackend` (WAL plus snapshots) and
:class:`~repro.storage.procshard.ProcessShardedBackend` (one worker
process per shard).

:class:`~repro.storage.database.Database` is a thin facade over a
backend; everything above storage (executor, caches, service, CLI)
talks to the facade, which forwards through this protocol.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import Iterable, Iterator, Sequence

from ..errors import ExecutionError, StorageError
from ..obs.trace import span
from ..schema.access import AccessConstraint, AccessSchema
from ..schema.relation import Schema
from .delta import DeltaRecorder, WriteDelta, WriteListener
from .encoding import ValueDictionary, int_column
from .indexes import AccessIndex

#: What a sentinel code decodes to on the value-level adapter path: an
#: object equal to no stored value.
_NEVER_STORED = object()

Row = tuple

#: A memoized constraint resolution: the requested constraint itself
#: (kept alive so ``id``-keyed memos can never alias a recreated
#: object), the attached constraint whose index answers it, the key
#: permutation from the requested X-order into the attached index's
#: X-order (or None for identity), the projection from the attached
#: index's X∪Y row layout into the requested constraint's X∪Y columns
#: (or None for identity), and whether that projection can collapse
#: rows (wider attached Y) and therefore needs deduplication.
_Resolution = tuple[AccessConstraint, AccessConstraint,
                    "tuple[int, ...] | None",
                    "tuple[int, ...] | None", bool]


class StorageBackend(ABC):
    """The batched access-method contract every storage engine honours.

    Implementations own the rows, the per-constraint indexes and the
    per-relation write generations; they guarantee

    * set semantics (``insert_rows``/``delete_rows`` report *effective*
      changes only),
    * ``fetch_many`` results identical to looking each X-value up in a
      freshly built per-constraint index, and
    * generation bumps strictly *after* the corresponding index
      updates, so a reader observing epoch ``g`` can cache what it
      fetched under ``g`` without ever pinning pre-write rows under a
      post-write epoch.
    """

    #: Resolution-memo bound; overflow clears the memo (see _resolve).
    _MAX_RESOLUTIONS = 4096

    def __init__(self, schema: Schema):
        self.schema = schema
        self.access_schema: AccessSchema | None = None
        #: One dictionary per backend — NOT per relation: hash-join keys
        #: compare columns from *different* relations, so code equality
        #: must mean value equality database-wide.  Append-only; rows
        #: are encoded once, when they first reach an index.
        self.dictionary = ValueDictionary()
        self._generations: dict[str, int] = {
            name: 0 for name in schema.relation_names()}
        # id(requested constraint) -> resolution against the attached
        # schema; values keep the requested object alive (see
        # _Resolution).
        self._resolutions: dict[int, _Resolution] = {}
        # Write listeners (see add_write_listener).  Mutated rarely;
        # emission iterates a snapshot, so registration during a
        # concurrent write is safe (the registrant simply misses the
        # in-flight delta and starts at the next one).
        self._write_listeners: list[WriteListener] = []

    # -- the protocol ------------------------------------------------------

    @abstractmethod
    def attach_access_schema(self, access_schema: AccessSchema) -> None:
        """(Re)build one index per constraint from the stored rows."""

    @abstractmethod
    def insert_rows(self, relation_name: str,
                    rows: Iterable[Row]) -> int:
        """Insert rows (set semantics); returns the number actually
        added.  Bumps the relation's generation once if any were."""

    @abstractmethod
    def delete_rows(self, relation_name: str,
                    rows: Iterable[Row]) -> int:
        """Delete rows; returns the number actually removed.  Index
        entries go first, the generation bump last."""

    @abstractmethod
    def clear(self) -> None:
        """Remove every row (generations bump; they never reset)."""

    @abstractmethod
    def scan(self, relation_name: str) -> list[Row]:
        """Every row of one relation — the path bounded plans avoid."""

    @abstractmethod
    def fetch_many(self, constraint: AccessConstraint,
                   x_values: Sequence[Row]) -> list[list[Row]]:
        """Index lookups for a batch of X-values, aligned with the
        input: ``result[i]`` is the distinct ``X∪Y`` projections for
        ``x_values[i]``, in the *requested* constraint's column order.
        """

    def fetch_flat(self, constraint: AccessConstraint,
                   x_values: Sequence[Row]) -> list[Row]:
        """The concatenation of :meth:`fetch_many`'s per-X lists, in
        any order.  Executors with no per-X consumer (no fetch cache)
        use this; engines should override it with an alignment-free
        fast path."""
        return [row
                for rows in self.fetch_many(constraint, x_values)
                for row in rows]

    # -- the encoded fetch surface (columnar executor) ---------------------

    def _decoded_keys(self, constraint: AccessConstraint,
                      keys: Sequence) -> list[Row]:
        """Code keys back to X-value tuples — bare int codes for
        scalar-X constraints, code tuples otherwise (the columnar
        executor's key convention).  A negative sentinel code (a
        query constant never stored) decodes to a value equal to no
        stored one, so its key matches nothing."""
        decode_stored = self.dictionary.decode

        def decode(code):
            return decode_stored(code) if code >= 0 else _NEVER_STORED
        if len(constraint.x) == 1:
            return [(decode(key),) for key in keys]
        return [tuple(decode(code) for code in key) for key in keys]

    def fetch_many_encoded(self, constraint: AccessConstraint,
                           keys: Sequence) -> list[tuple[tuple, int]]:
        """Index lookups for a batch of *code* keys, aligned with the
        input: ``result[i]`` is ``(columns, length)`` where ``columns``
        is one freshly built ``array('q')`` of dictionary codes per
        requested ``X∪Y`` attribute.

        This default round-trips through the value-level
        :meth:`fetch_many` so any conforming engine works unmodified;
        the shipped engines override it with index-native encoded
        lookups that never build row tuples at all.
        """
        encode = self.dictionary.encode
        width = len(constraint.x) + len(constraint.y)
        entries = []
        for rows in self.fetch_many(constraint,
                                    self._decoded_keys(constraint, keys)):
            cols = tuple(int_column(encode(row[i]) for row in rows)
                         for i in range(width))
            entries.append((cols, len(rows)))
        return entries

    def fetch_flat_encoded(self, constraint: AccessConstraint,
                           keys: Sequence) -> tuple[list, int]:
        """The alignment-free form of :meth:`fetch_many_encoded`:
        ``(columns, total_rows)`` concatenated over the key batch, in
        any order."""
        encode = self.dictionary.encode
        rows = self.fetch_flat(constraint,
                               self._decoded_keys(constraint, keys))
        width = len(constraint.x) + len(constraint.y)
        cols = [int_column(encode(row[i]) for row in rows)
                for i in range(width)]
        return cols, len(rows)

    @abstractmethod
    def relation_size(self, relation_name: str) -> int:
        ...

    @abstractmethod
    def contains(self, relation_name: str, row: Row) -> bool:
        ...

    @abstractmethod
    def constraint_groups(self, constraint: AccessConstraint
                          ) -> Iterator[tuple[Row, int]]:
        """``(x_value, distinct-Y count)`` pairs for an attached
        constraint — what cardinality validation consumes."""

    @abstractmethod
    def indexes_for(self, relation_name: str) -> list[AccessIndex]:
        """The live index objects over one relation — a white-box hook
        for tests and diagnostics."""

    @abstractmethod
    def describe(self) -> str:
        """A short human-readable engine summary (CLI/bench reporting)."""

    def close(self) -> None:
        """Release engine resources (worker pools, file handles).
        Default: nothing to release."""

    def counters(self) -> dict:
        """The engine's internal tallies as a flat ``name -> number``
        dict (``wal_records_total``-style keys).  Every engine reports
        its dictionary size (the interned-value count the columnar
        plane rides on); engines with more interesting internals (the
        disk engine's WAL, fsync, snapshot and recovery counts) extend
        this; the service and the observability collectors surface
        whatever appears."""
        return {"dictionary_size": len(self.dictionary)}

    def gauges(self) -> dict:
        """Point-in-time *levels* (as opposed to the monotone tallies
        of :meth:`counters`): a flat ``name -> number`` dict surfaced
        as ``repro_storage_<name>`` gauges.  Every engine reports the
        resident footprint of its value dictionary."""
        return {"dictionary_bytes": self.dictionary.footprint_bytes()}

    def histograms(self) -> list:
        """Engine-owned :class:`~repro.obs.metrics.Histogram`
        instruments (already named ``repro_storage_...``) for the
        collector to adopt into the registry.  Default: none."""
        return []

    # -- shared bookkeeping ------------------------------------------------

    def generation(self, relation_name: str) -> int:
        return self._generations[relation_name]

    def write_epoch(self) -> int:
        return sum(self._generations.values())

    # -- the write-delta maintenance hook ----------------------------------

    def add_write_listener(self, listener: WriteListener) -> None:
        """Subscribe to :class:`~repro.storage.delta.WriteDelta`
        notifications — the incremental-maintenance hook read-side
        caches attach to.

        The listener is called synchronously for every effective write,
        inside the lock that serializes the relation's generation
        bumps, immediately after the bump — so the delta stream is
        ordered and gap-free per relation (each delta's
        ``old_generation`` equals the previous one's
        ``new_generation``).  Listeners must be quick and must never
        call back into the backend.

        Delta *collection* is skipped entirely while no listener is
        registered, so unobserved backends pay nothing.

        >>> from repro.schema.relation import Schema
        >>> backend = MemoryBackend(Schema.from_dict({"R": ("A", "B")}))
        >>> seen = []
        >>> backend.add_write_listener(seen.append)
        >>> backend.insert_rows("R", [(1, 2)])
        1
        >>> [(d.relation, d.old_generation, d.new_generation)
        ...  for d in seen]
        [('R', 0, 1)]
        >>> backend.remove_write_listener(seen.append)
        """
        self._write_listeners.append(listener)

    def remove_write_listener(self, listener: WriteListener) -> None:
        """Unsubscribe a listener registered with
        :meth:`add_write_listener` (a no-op if it is not registered)."""
        try:
            self._write_listeners.remove(listener)
        except ValueError:
            pass

    def _recorder(self, relation_name: str) -> DeltaRecorder | None:
        """A fresh per-batch recorder, or None when nobody listens
        (the common case — write paths then skip delta bookkeeping)."""
        if not self._write_listeners:
            return None
        return DeltaRecorder(relation_name)

    def _notify(self, delta: WriteDelta) -> None:
        """Deliver one delta to every listener (callers hold the lock
        that orders the relation's generation bumps)."""
        for listener in tuple(self._write_listeners):
            listener(delta)

    def _notify_wipes(self) -> None:
        """Emit a non-maintainable delta for every relation — what
        ``clear``, recovery and schema reattach tell listeners (callers
        hold the write lock; generations must already be final)."""
        if not self._write_listeners:
            return
        for name, generation in self._generations.items():
            self._notify(WriteDelta.wipe(name, generation, generation))

    # -- constraint resolution (shared by engines) -------------------------

    def _resolve(self, constraint: AccessConstraint) -> _Resolution:
        """Map a requested constraint onto an attached one.

        Analysis code re-creates constraints structurally rather than
        sharing the attached objects, and may request a *narrower* Y
        than some attached index stores.  The resolution precomputes
        the key permutation and row projection that insulate callers
        from the attached index's layout.
        """
        resolution = self._resolutions.get(id(constraint))
        if resolution is not None:
            return resolution
        attached = self._match(constraint)
        key_perm: tuple[int, ...] | None = None
        if attached.x != constraint.x:
            positions = {name: i for i, name in enumerate(constraint.x)}
            key_perm = tuple(positions[name] for name in attached.x)
        row_proj: tuple[int, ...] | None = None
        attached_layout = attached.x + attached.y
        requested_layout = constraint.x + constraint.y
        if attached_layout != requested_layout:
            positions = {name: i for i, name in enumerate(attached_layout)}
            row_proj = tuple(positions[name] for name in requested_layout)
        needs_dedup = constraint.xy_set != attached.xy_set
        resolution = (constraint, attached, key_perm, row_proj, needs_dedup)
        # The memo pins requested constraint objects alive (that is
        # what makes id-keying sound), so it must not grow without
        # bound in a long-running service: wholesale-clear on overflow
        # — it is a pure cache, rebuilt per constraint in one pass.
        if len(self._resolutions) >= self._MAX_RESOLUTIONS:
            self._resolutions.clear()
        self._resolutions[id(constraint)] = resolution
        return resolution

    def _match(self, constraint: AccessConstraint) -> AccessConstraint:
        attached = self.access_schema
        if attached is not None:
            for candidate in attached:
                if candidate is constraint:
                    return candidate
            for candidate in attached:
                if (candidate.relation_name == constraint.relation_name
                        and candidate.x_set == constraint.x_set
                        and constraint.y_set <= candidate.xy_set):
                    return candidate
        raise ExecutionError(
            f"no index available for constraint {constraint}; attach an "
            "access schema containing it before executing bounded plans")

    def _reset_resolutions(self) -> None:
        self._resolutions.clear()

    def _resolved_indexes(self, constraint: AccessConstraint):
        """Resolve ``constraint`` and look up its live index entry in
        the engine's ``_indexes`` map (every engine defines one, keyed
        by ``id(attached constraint)``).

        Resilient against a racing ``attach_access_schema``: a
        resolution memoized against the *old* schema (or stored just
        after the reset) points at discarded indexes — drop it and
        resolve again until the memo and the index map agree.  The
        loop terminates: once an attach completes, either the fresh
        resolution finds its entry or ``_match`` raises the intended
        ``ExecutionError``.
        """
        while True:
            resolution = self._resolve(constraint)
            entry = self._indexes.get(id(resolution[1]))
            if entry is not None:
                return resolution, entry
            self._resolutions.pop(id(constraint), None)

    @staticmethod
    def _project(rows: list[Row], row_proj: tuple[int, ...] | None,
                 needs_dedup: bool) -> list[Row]:
        if row_proj is None:
            return rows
        projected = [tuple(row[i] for i in row_proj) for row in rows]
        if needs_dedup:
            projected = list(dict.fromkeys(projected))
        return projected

    @staticmethod
    def _permute_keys(x_values: Sequence[Row],
                      key_perm: tuple[int, ...] | None) -> Sequence[Row]:
        """``x_values`` must already be tuples (the facade and the
        executor guarantee it); the common no-permutation case is a
        pass-through, not a copy."""
        if key_perm is None:
            return x_values
        return [tuple(x[i] for i in key_perm) for x in x_values]


class MemoryBackend(StorageBackend):
    """The original single-store engine: one dict of rows per relation
    plus one :class:`AccessIndex` per attached constraint.

    A single lock serializes structural mutation and lookup snapshots;
    it is held only for the dict operations themselves, never across
    user code.
    """

    def __init__(self, schema: Schema):
        super().__init__(schema)
        self._rows: dict[str, dict[Row, None]] = {
            name: {} for name in schema.relation_names()}
        self._indexes: dict[int, AccessIndex] = {}
        self._lock = threading.RLock()

    # -- writes ------------------------------------------------------------

    def attach_access_schema(self, access_schema: AccessSchema) -> None:
        with self._lock:
            # Build the full map first, then publish with single
            # assignments: lock-free readers (_resolved_indexes) never
            # observe a partially filled index map.
            indexes: dict[int, AccessIndex] = {}
            by_relation: dict[str, list[AccessIndex]] = {}
            for constraint in access_schema:
                relation = constraint.validate_against(self.schema)
                index = AccessIndex(constraint, relation, self.dictionary)
                indexes[id(constraint)] = index
                by_relation.setdefault(constraint.relation_name,
                                       []).append(index)
            # Bulk-encode each relation's rows exactly once, no matter
            # how many constraints index it.
            with span("encode"):
                encode_row = self.dictionary.encode_row
                for name, relation_indexes in by_relation.items():
                    for row in self._rows[name]:
                        coded = encode_row(row)
                        for index in relation_indexes:
                            index.add(row, coded)
            self._indexes = indexes
            self.access_schema = access_schema
            self._reset_resolutions()
            # Reattach invalidates any constraint->index mapping a
            # listener's entries were maintained under.
            self._notify_wipes()

    def insert_rows(self, relation_name: str, rows: Iterable[Row]) -> int:
        store = self._rows[relation_name]
        added = 0
        with self._lock:
            # The index list must be read under the lock: a concurrent
            # attach_access_schema swaps in rebuilt indexes, and rows
            # registered on the discarded ones would be lost.
            indexes = self.indexes_for(relation_name)
            encode_row = self.dictionary.encode_row
            recorder = self._recorder(relation_name)
            for row in rows:
                if row in store:
                    continue
                store[row] = None
                if indexes:
                    # Encode once per row, not once per index.
                    coded = encode_row(row)
                    for index in indexes:
                        if index.add(row, coded) and recorder is not None:
                            recorder.added(index, coded)
                added += 1
            if added:
                old = self._generations[relation_name]
                self._generations[relation_name] = old + 1
                if recorder is not None:
                    self._notify(recorder.finish(old, old + 1))
        return added

    def delete_rows(self, relation_name: str, rows: Iterable[Row]) -> int:
        store = self._rows[relation_name]
        removed = 0
        with self._lock:
            indexes = self.indexes_for(relation_name)
            encode_row = self.dictionary.encode_row
            recorder = self._recorder(relation_name)
            for row in rows:
                if row not in store:
                    continue
                del store[row]
                coded = (encode_row(row)
                         if indexes and recorder is not None else None)
                for index in indexes:
                    if index.remove(row, coded) and recorder is not None:
                        recorder.removed(index, coded)
                removed += 1
            if removed:
                # After the index updates, like insert: a concurrent
                # reader at the pre-bump epoch may see the deletion
                # early (benign), never cache deleted rows post-bump.
                old = self._generations[relation_name]
                self._generations[relation_name] = old + 1
                if recorder is not None:
                    self._notify(recorder.finish(old, old + 1))
        return removed

    def clear(self) -> None:
        with self._lock:
            for store in self._rows.values():
                store.clear()
            for index in self._indexes.values():
                index.remove_all()
            for name in self._generations:
                self._generations[name] += 1
            self._notify_wipes()

    # -- reads -------------------------------------------------------------

    def scan(self, relation_name: str) -> list[Row]:
        with self._lock:
            return list(self._rows[relation_name])

    def relation_size(self, relation_name: str) -> int:
        return len(self._rows[relation_name])

    def contains(self, relation_name: str, row: Row) -> bool:
        return row in self._rows[relation_name]

    def fetch_many(self, constraint: AccessConstraint,
                   x_values: Sequence[Row]) -> list[list[Row]]:
        (_, _, key_perm, row_proj, dedup), index = \
            self._resolved_indexes(constraint)
        keys = self._permute_keys(x_values, key_perm)
        with self._lock:
            results = index.lookup_many(keys)
        if row_proj is not None:
            results = [self._project(rows, row_proj, dedup)
                       for rows in results]
        return results

    def fetch_flat(self, constraint: AccessConstraint,
                   x_values: Sequence[Row]) -> list[Row]:
        (_, _, key_perm, row_proj, _), index = \
            self._resolved_indexes(constraint)
        if row_proj is not None:  # projection needs per-X deduplication
            return super().fetch_flat(constraint, x_values)
        keys = self._permute_keys(x_values, key_perm)
        with self._lock:
            return index.lookup_flat(keys)

    def fetch_many_encoded(self, constraint: AccessConstraint,
                           keys: Sequence) -> list[tuple[tuple, int]]:
        (_, _, key_perm, row_proj, dedup), index = \
            self._resolved_indexes(constraint)
        keys = self._permute_keys(keys, key_perm)
        with self._lock:
            return index.lookup_many_encoded(keys, row_proj, dedup)

    def fetch_flat_encoded(self, constraint: AccessConstraint,
                           keys: Sequence) -> tuple[list, int]:
        (_, _, key_perm, row_proj, dedup), index = \
            self._resolved_indexes(constraint)
        keys = self._permute_keys(keys, key_perm)
        with self._lock:
            return index.lookup_flat_encoded(keys, row_proj, dedup)

    def constraint_groups(self, constraint: AccessConstraint
                          ) -> Iterator[tuple[Row, int]]:
        _, index = self._resolved_indexes(constraint)
        with self._lock:
            snapshot = [(x, index.group_size(x)) for x in index.x_values()]
        return iter(snapshot)

    def indexes_for(self, relation_name: str) -> list[AccessIndex]:
        return [index for index in self._indexes.values()
                if index.constraint.relation_name == relation_name]

    def describe(self) -> str:
        return "memory"


BACKENDS = ("memory", "disk", "procshard")


def make_backend(name: str, schema: Schema, *, workers: int = 4,
                 replicas: int = 0, data_dir=None, fsync: bool = False,
                 rpc_timeout_s: float | None = None) -> StorageBackend:
    """Build a backend by name — the CLI's ``--backend`` hook.

    ``workers`` is the shard *process* count, ``replicas`` the
    WAL-shipped read-replica process count and ``rpc_timeout_s`` the
    per-RPC peer timeout for ``procshard`` (CLI: ``--shard-workers``,
    ``--replicas``, ``--rpc-timeout``); ``data_dir`` and ``fsync``
    configure ``disk`` and a disk-backed ``procshard`` writer.

    Adding an engine means implementing :class:`StorageBackend` and
    registering it here (see docs/ARCHITECTURE.md, "Adding a backend").
    """
    if name == "memory":
        return MemoryBackend(schema)
    if name == "disk":
        if data_dir is None:
            raise StorageError(
                "the disk backend needs a data directory; pass "
                "data_dir=... (CLI: --data-dir DIR)")
        from .disk import DiskBackend  # deferred: keeps backend.py cycle-free
        return DiskBackend(schema, data_dir, fsync=fsync)
    if name == "procshard":
        from .procshard import ProcessShardedBackend  # deferred, as above
        return ProcessShardedBackend(
            schema, workers=workers, replicas=replicas,
            data_dir=data_dir, fsync=fsync, rpc_timeout_s=rpc_timeout_s)
    raise StorageError(
        f"unknown storage backend {name!r}; available: "
        f"{', '.join(BACKENDS)}")
