"""The pluggable storage-engine boundary.

A covered query touches a bounded fragment ``D_Q`` through the indexes
an access schema promises — *how* those indexes and rows are laid out
is the storage engine's business, not the engine's.  This module pins
that boundary down as :class:`StorageBackend`, a narrow batched access
protocol:

* ``read_codes(constraint, keys)`` — the one read every engine
  implements, the vectorized form of the paper's ``fetch`` primitive:
  a batch of code keys in, concatenated code columns plus per-key row
  counts out (compressed sparse row).  The four public reads —
  ``fetch_flat_encoded``, ``fetch_many_encoded``, ``fetch_many`` and
  ``fetch_flat`` — are adapters over it, written once here;
* ``scan(relation)`` — the full-scan path bounded plans avoid (kept
  separate so benchmarks can tell the two apart);
* ``insert_rows`` / ``delete_rows`` / ``clear`` — set-semantics bulk
  writes whose per-relation ``generation`` bumps *after* the index
  updates, the ordering read-side caches rely on.  Every engine's
  writes run one loop, :meth:`MemoryBackend._write`, with one engine
  hook on the effective rows before they apply;
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
from typing import Callable, Iterable, Iterator, Sequence

from ..errors import ExecutionError, StorageError
from ..obs.trace import span
from ..schema.access import AccessConstraint, AccessSchema
from ..schema.relation import Schema
from .delta import WriteDelta, WriteListener
from .encoding import ValueDictionary, readonly_view
from .indexes import AccessIndex, gather_codes

Row = tuple


def _key_slices(counts: Sequence[int], order: "Sequence | None",
                keys: Sequence) -> list[slice]:
    """Per key of ``keys``, the slice of a ``read_codes`` answer that
    holds its rows.  An engine that answered out of order named the
    keys it answered; equal keys share an answer, so the realignment is
    a dict probe per key."""
    slices = []
    start = 0
    for count in counts:
        slices.append(slice(start, start + count))
        start += count
    if order is None:
        return slices
    by_key = dict(zip(order, slices))
    return [by_key[key] for key in keys]


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
    * ``read_codes`` results identical to looking each X-value up in a
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
    def read_codes(self, constraint: AccessConstraint, keys: Sequence
                   ) -> tuple[list, list[int], "Sequence | None"]:
        """The one read: the paper's ``fetch(X ∈ T, R, Y)`` over a
        batch of code keys, in compressed-sparse-row shape.

        Keys are dictionary codes in the *requested* constraint's X
        order — a bare int when ``|X| == 1``, a code tuple otherwise; a
        negative sentinel code (a value never stored) matches nothing.
        Returns ``(cols, counts, order)``: one freshly built
        ``array('q')`` per requested ``X∪Y`` attribute holding every
        key's distinct projections back to back, ``counts[i]`` rows for
        the ``i``-th key answered, and ``order``, the keys in the order
        they were answered — None when that is the order of ``keys``.
        """

    # -- the public reads: adapters over read_codes, written once ----------
    # Each makes exactly one read_codes call and calls no other public
    # read, so a proxy on any of them times exactly one engine read.

    def fetch_flat_encoded(self, constraint: AccessConstraint,
                           keys: Sequence) -> tuple[list, int]:
        """``(columns, total_rows)`` concatenated over a batch of code
        keys, in any order — the executor's read when no cache
        interposes."""
        cols, _, _ = self.read_codes(constraint, keys)
        return cols, len(cols[0])

    def fetch_many_encoded(self, constraint: AccessConstraint,
                           keys: Sequence) -> list[tuple[tuple, int]]:
        """Code-key reads aligned with ``keys``: ``result[i]`` is
        ``(columns, length)`` for ``keys[i]``, its columns zero-copy
        *readonly* memoryview slices of one batch's arrays — what
        fetch-cache fills store as they are."""
        return self._read_groups(constraint, keys)

    def _read_groups(self, constraint: AccessConstraint,
                     keys: Sequence) -> list[tuple[tuple, int]]:
        """:meth:`fetch_many_encoded` under a private name: the
        ``read`` of the write deltas an engine emits, which therefore
        never passes through a proxy on the public name."""
        cols, counts, order = self.read_codes(constraint, keys)
        slices = _key_slices(counts, order, keys)
        views = [readonly_view(column) for column in cols]
        return list(zip(zip(*[[view[part] for part in slices]
                              for view in views]),
                        [part.stop - part.start for part in slices]))

    def fetch_many(self, constraint: AccessConstraint,
                   x_values: Sequence[Row]) -> list[list[Row]]:
        """Value-level reads aligned with ``x_values``: ``result[i]`` is
        the distinct ``X∪Y`` projections for ``x_values[i]``, in the
        *requested* constraint's column order.  X-values are looked up
        without interning, so a never-stored one reads nothing and the
        dictionary never grows."""
        keys = self.dictionary.lookup_keys(x_values, len(constraint.x))
        cols, counts, order = self.read_codes(constraint, keys)
        rows = self._decoded(cols)
        return [rows[part] for part in _key_slices(counts, order, keys)]

    def fetch_flat(self, constraint: AccessConstraint,
                   x_values: Sequence[Row]) -> list[Row]:
        """The concatenation of :meth:`fetch_many`'s per-X lists, in
        any order."""
        keys = self.dictionary.lookup_keys(x_values, len(constraint.x))
        cols, _, _ = self.read_codes(constraint, keys)
        return self._decoded(cols)

    def _decoded(self, cols: Sequence) -> list[Row]:
        decode = self.dictionary.decode
        return list(zip(*[list(map(decode, column)) for column in cols]))

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
            # An equal attached constraint answers first, so a fetch
            # reads the index a write delta names (same rows, same order).
            for candidate in attached:
                if candidate == constraint:
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
    plus one :class:`AccessIndex` per attached constraint, and the one
    write loop every engine's writes run (:meth:`_write`).

    A single lock serializes structural mutation and lookup snapshots;
    it is held for the dict operations and the write hooks (a WAL
    append, a shipment), never across user code.
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
                for name, relation_indexes in by_relation.items():
                    coded_rows = self.dictionary.encode_rows(
                        list(self._rows[name]))
                    for index in relation_indexes:
                        index.add_coded(coded_rows)
            self._indexes = indexes
            self.access_schema = access_schema
            self._reset_resolutions()
            # Reattach invalidates any constraint->index mapping a
            # listener's entries were maintained under.
            self._notify_wipes()

    def insert_rows(self, relation_name: str, rows: Iterable[Row]) -> int:
        return self._write("i", relation_name, rows)

    def delete_rows(self, relation_name: str, rows: Iterable[Row]) -> int:
        return self._write("d", relation_name, rows)

    def clear(self) -> None:
        self._write("c")

    def _write(self, op: str, relation_name: str | None = None,
               rows: Iterable[Row] = (),
               outer_hook: Callable | None = None) -> int:
        """The one write loop: insert (``"i"``), delete (``"d"``) or
        clear (``"c"``, every relation), returning the effective row
        count.

        Under the lock it keeps the *effective* rows (set semantics),
        hands them to :meth:`_pre_apply` with the post-write
        generations, applies them to rows and indexes (noting the
        X-keys whose groups changed while someone listens), and bumps the
        generations last: a concurrent reader at the pre-bump epoch may
        see the write early (benign), never a pre-write index state
        under the post-bump epoch.  A hook that raises aborts the write
        before anything applies.  An engine wrapping this one (the
        process-sharded coordinator) passes its own hook as
        ``outer_hook``, which runs first on the same effective rows.
        """
        batch = dict.fromkeys(map(tuple, rows))
        deleting = op == "d"
        with self._lock:
            if op == "c":
                effective, touched = [], list(self._rows)
            else:
                store = self._rows[relation_name]
                effective = [row for row in batch
                             if (row in store) == deleting]
                if not effective:
                    return 0
                touched = [relation_name]
            generations = {name: self._generations[name] + 1
                           for name in touched}
            if outer_hook is not None:
                outer_hook(op, relation_name, effective)
            self._pre_apply(op, relation_name, effective, generations)
            touched = None
            if op == "c":
                for store in self._rows.values():
                    store.clear()
                for index in self._indexes.values():
                    index.remove_all()
            else:
                touched = self._apply(store, relation_name, effective,
                                      deleting)
            self._generations.update(generations)
            if op == "c":
                self._notify_wipes()
            elif touched is not None:
                generation = generations[relation_name]
                self._notify(WriteDelta(relation_name, generation - 1,
                                        generation, touched,
                                        self._read_groups))
        return len(effective)

    def _apply(self, store: dict, relation_name: str, rows: list[Row],
               deleting: bool) -> dict | None:
        """Apply effective rows to one relation's row set and indexes
        (callers hold the lock); returns, per attached constraint, the
        X-keys whose group changed, or None when nobody listens."""
        if deleting:
            for row in rows:
                del store[row]
        else:
            store.update(dict.fromkeys(rows))
        # The index list must be read under the lock: a concurrent
        # attach_access_schema swaps in rebuilt indexes, and rows
        # registered on the discarded ones would be lost.
        indexes = self.indexes_for(relation_name)
        # Nobody listens (the common case): skip delta bookkeeping.
        touched = {} if self._write_listeners else None
        if not indexes:
            return touched
        # Encode the batch once, not once per index.
        coded_rows = self.dictionary.encode_rows(rows)
        for index in indexes:
            changed = (index.remove_coded(coded_rows) if deleting
                       else index.add_coded(coded_rows))
            if changed and touched is not None:
                touched[index.constraint] = list(
                    dict.fromkeys(map(index.key, changed)))
        return touched

    def _pre_apply(self, op: str, relation_name: str | None,
                   rows: list[Row], generations: dict[str, int]) -> None:
        """The engine hook :meth:`_write` runs on the effective rows,
        under the write lock, before anything applies; ``generations``
        maps each touched relation to its post-write generation.  The
        disk engine appends its WAL record here; memory has no hook.
        """

    # -- reads -------------------------------------------------------------

    def scan(self, relation_name: str) -> list[Row]:
        with self._lock:
            return list(self._rows[relation_name])

    def relation_size(self, relation_name: str) -> int:
        return len(self._rows[relation_name])

    def contains(self, relation_name: str, row: Row) -> bool:
        return row in self._rows[relation_name]

    def read_codes(self, constraint: AccessConstraint, keys: Sequence
                   ) -> tuple[list, list[int], None]:
        (_, _, key_perm, row_proj, dedup), index = \
            self._resolved_indexes(constraint)
        keys = self._permute_keys(keys, key_perm)
        with self._lock:
            cols, counts = gather_codes(index.encoded, index.width, keys,
                                        row_proj, dedup)
        return cols, counts, None

    def constraint_groups(self, constraint: AccessConstraint
                          ) -> Iterator[tuple[Row, int]]:
        _, index = self._resolved_indexes(constraint)
        with self._lock:
            snapshot = list(index.groups())
        return iter(snapshot)

    def indexes_for(self, relation_name: str) -> list[AccessIndex]:
        return [index for index in self._indexes.values()
                if index.constraint.relation_name == relation_name]

    def describe(self) -> str:
        return "memory"


BACKENDS = ("memory", "disk", "procshard")


def make_backend(name: str, schema: Schema, *, workers: int = 4,
                 data_dir=None, fsync: bool = False,
                 rpc_timeout_s: float | None = None) -> StorageBackend:
    """Build a backend by name — the CLI's ``--backend`` hook.

    ``workers`` is the shard *process* count and ``rpc_timeout_s`` the
    per-RPC peer timeout for ``procshard`` (CLI: ``--shard-workers``,
    ``--rpc-timeout``); ``data_dir`` and ``fsync``
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
            schema, workers=workers, data_dir=data_dir, fsync=fsync,
            rpc_timeout_s=rpc_timeout_s)
    raise StorageError(
        f"unknown storage backend {name!r}; available: "
        f"{', '.join(BACKENDS)}")
