"""A bounded LRU over ``Database.fetch`` results, maintained under
writes.

``fetch(constraint, x_value)`` is the only primitive through which
bounded plans touch data, and an access constraint ``R(X → Y, N)``
certifies that any one result holds at most ``N`` distinct tuples — so
a cache of ``capacity`` entries occupies at most ``capacity · N_max``
tuples.  Memory is certifiably bounded by the same reasoning the plans
themselves enjoy.

Freshness comes in two flavours (the full soundness argument lives in
``docs/ARCHITECTURE.md``):

* **Maintained entries** — for constraints that resolve *exactly*
  against an attached index (same relation, X, Y and bound), entries
  are keyed without a generation and kept current by applying the
  backend's :class:`~repro.storage.delta.WriteDelta` stream: an
  insert/delete touches exactly the entries whose X-key it changed,
  everything else stays warm.  A per-relation *epoch* (the generation
  of the last applied delta) validates lookups; a delta that cannot be
  applied exactly (a ``clear``, recovery, schema reattach, or a gap in
  the stream) falls back to invalidating the relation's maintained
  entries — counted, so dashboards can see maintenance degrade.
* **Generation-keyed entries** — constraints that resolve through a
  key permutation or row projection (structural recreations with a
  different layout) keep the original scheme: the cache key carries
  ``db.generation(relation)``, so any write cold-starts them.  This
  *is* the fallback-to-invalidate path, with no purge needed on the
  write itself (stale entries age out or are swept).

Maintenance is attached per database via :meth:`FetchCache.
attach_maintenance` (the service does this at construction); an
unattached cache behaves exactly like the original generation-keyed
design.

Entries hold dictionary-code columns only: code keys in, code columns
out (:meth:`FetchCache.lookup_many_encoded`).  The value-domain
:meth:`~FetchCache.lookup` / :meth:`~FetchCache.lookup_many` are thin
adapters over it that look X-values up without interning and decode
rows on the way out.

:class:`CachingExecutor` interposes the cache on the executor's fetch
hook and keeps the access accounting honest: cold lookups count toward
``tuples_fetched`` (the empirical ``|D_Q|``), cache hits are tallied
separately as ``fetch_cache_hits`` / ``tuples_from_cache``.

A cache must never cost more than the backend it fronts.  When
``capacity`` consecutive fills were made with no hit served in between
— the LRU turned over completely and served nothing — the cache tells
the executor to *bypass* it: the next fetch steps read straight from
storage, with no probe and no fill.  The run length starts at one step
and doubles, up to :data:`_BYPASS_CEILING`, while the probe steps in
between keep serving nothing; any hit ends it.  The rule reads only
observed hits, never capacity or workload identity, so a hot pool
never triggers it.
"""

from __future__ import annotations

import threading
from itertools import compress
from typing import Sequence

from ..deadline import current_deadline
from ..engine.executor import AccessStats, Executor
from ..schema.access import AccessConstraint
from ..storage.database import Database
from ..storage.delta import WriteDelta
from ..storage.encoding import extend_column, int_column, readonly_view
from .lru import LruDict
from .plancache import CacheInfo

#: Longest bypass run, in fetch steps.  A starved cache probes once per
#: run, and a probe fills (and, starved, evicts) a whole step's keys:
#: the ceiling keeps that below one eviction per request on the
#: fan-out workloads, and bounds how long a shift back to a hot pool
#: waits to be noticed.
_BYPASS_CEILING = 1024


def _encoded_plus(entry, row_codes):
    """``entry`` with one code row appended, or None if it is already
    present (idempotent, copy-on-write: readers keep their views)."""
    views, length = entry
    width = len(row_codes)
    for i in range(length):
        if all(views[c][i] == row_codes[c] for c in range(width)):
            return None
    cols = []
    for c in range(width):
        column = int_column()
        extend_column(column, views[c])
        column.append(row_codes[c])
        cols.append(readonly_view(column))
    return tuple(cols), length + 1


def _encoded_minus(entry, row_codes):
    """``entry`` with one code row removed, or None if it is absent."""
    views, length = entry
    width = len(row_codes)
    position = -1
    for i in range(length):
        if all(views[c][i] == row_codes[c] for c in range(width)):
            position = i
            break
    if position < 0:
        return None
    cols = []
    for c in range(width):
        column = int_column()
        extend_column(column, views[c])
        del column[position]
        cols.append(readonly_view(column))
    return tuple(cols), length - 1


class FetchCache:
    """Thread-safe LRU over per-X-key fetch results.

    Every entry is ``(readonly column views, length)`` under one of two
    key shapes:

    * maintained — ``(slot, code key)``;
    * generation-keyed — ``(slot, code key, generation)``.

    A *slot* is a small int the cache gives each constraint value the
    first time it sees it, so a probe hashes the constraint once per
    fetch step instead of twice per key (frozen-dataclass hashing runs
    in Python).  Entries are what the columnar executor consumes: a
    warm single-key hit hands back zero-copy views that flow straight
    into a batch, and a multi-key step joins its views into one fresh
    array per column — no re-encoding, no row materialization.
    Maintenance rebuilds an entry's arrays copy-on-write, so views
    already handed out stay frozen at the content they were served
    with.

    >>> cache = FetchCache(capacity=128)
    >>> cache.info().size
    0
    >>> cache.maintained_deltas, cache.maintenance_fallbacks
    (0, 0)
    """

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self._entries: LruDict = LruDict(capacity)
        #: Largest cached entry seen, for the memory-bound report
        #: (advisory: updated without a lock).
        self.max_entry_rows = 0
        #: Hits served (advisory counter; the obs layer exports it).
        self.encoded_hits = 0
        # constraint value -> slot, and slot -> constraint.  Slots are
        # assigned under the maintenance lock and never reused.
        self._slots: dict[AccessConstraint, int] = {}
        self._constraints: list[AccessConstraint] = []
        # -- the self-tuning bypass (advisory and lock-free, like
        # max_entry_rows: a race can only mis-time a probe) -------------
        #: Entries filled since the last hit was served.
        self._unread_fills = 0
        #: Current bypass run length in fetch steps (0: not starved).
        self._bypass_run = 0
        #: Steps left to bypass before the next probe.
        self._bypass_left = 0
        #: Index lookups that skipped the cache because it was starved.
        self.bypassed_lookups = 0
        # -- incremental maintenance state ---------------------------------
        # Serializes delta application, epoch reads/writes and the
        # store-a-fill decision.  Never held while calling into the
        # backend (writers call the listener while holding the backend
        # lock, so the reverse order would deadlock).
        self._maintenance_lock = threading.Lock()
        #: relation -> generation of the last applied delta.  Invariant:
        #: a relation with no epoch has no maintained entries.
        self._epochs: dict[str, int] = {}
        self._backend = None
        # Maintainability verdicts, memoized per slot (constraint
        # *value*) against the identity of the backend's attached schema.
        self._verdicts: dict[int, bool] = {}
        self._verdict_schema = None
        #: Deltas applied to maintained entries in place.
        self.maintained_deltas = 0
        #: Cached entries updated (not dropped) by delta application.
        self.maintained_entries = 0
        #: Deltas that could not be applied exactly (wipe, epoch gap,
        #: schema reattach) and fell back to invalidation.
        self.maintenance_fallbacks = 0
        #: Entries dropped by those fallbacks.
        self.maintenance_invalidations = 0

    # -- maintenance wiring ------------------------------------------------

    def attach_maintenance(self, db: Database) -> None:
        """Subscribe this cache to ``db``'s write-delta stream.

        Constraints that resolve exactly against the attached schema
        switch to maintained (epoch-validated) entries; everything else
        stays generation-keyed.  Idempotent per backend; attaching to a
        different backend detaches from the previous one first.
        """
        backend = db.backend
        if backend is self._backend:
            return
        self.detach_maintenance()
        with self._maintenance_lock:
            self._epochs.clear()
            self._verdicts = {}
            self._verdict_schema = None
            self._backend = backend
        backend.add_write_listener(self._on_delta)

    def detach_maintenance(self) -> int:
        """Unsubscribe and drop every maintained entry (they would go
        silently stale without the delta stream).  Returns the number
        of entries dropped.  Safe to call when not attached."""
        backend = self._backend
        if backend is not None:
            backend.remove_write_listener(self._on_delta)
        with self._maintenance_lock:
            self._backend = None
            self._epochs.clear()
            self._verdicts = {}
            self._verdict_schema = None
            return self._entries.prune(self._is_maintained_key)

    @staticmethod
    def _is_maintained_key(key) -> bool:
        return len(key) == 2

    def _slot(self, constraint: AccessConstraint) -> int:
        """The constraint value's slot, assigned on first sight (the
        one hash of the constraint a probe pays)."""
        slot = self._slots.get(constraint)
        if slot is None:
            with self._maintenance_lock:
                slot = self._slots.get(constraint)
                if slot is None:
                    slot = len(self._constraints)
                    # Mapped back before it is published: whoever sees
                    # the slot can resolve it.
                    self._constraints.append(constraint)
                    self._slots[constraint] = slot
        return slot

    def _maintainable(self, constraint: AccessConstraint, slot: int) -> bool:
        """Can this constraint's entries be maintained by deltas?

        Yes exactly when some attached constraint *equals* it (same
        relation, X, Y and bound): deltas are keyed by the attached
        constraint objects, and frozen-dataclass equality makes the
        requested constraint address the same entries (and the same
        slot).  Anything that resolves through a key permutation, row
        projection or a different bound stays generation-keyed.
        """
        backend = self._backend
        if backend is None:
            return False
        schema = backend.access_schema
        if schema is not self._verdict_schema:
            # A reattach changes the constraint->index mapping; old
            # verdicts (either way) are meaningless against it.
            self._verdicts = {}
            self._verdict_schema = schema
        verdict = self._verdicts.get(slot)
        if verdict is None:
            verdict = schema is not None and any(
                attached == constraint for attached in schema)
            self._verdicts[slot] = verdict
        return verdict

    def _live_get_many(self, relation: str, generation: int,
                       keys: list) -> list:
        """Probe maintained entries: served only while the relation's
        epoch equals the generation the lookup read."""
        with self._maintenance_lock:
            live = self._epochs.get(relation) == generation
        if live:
            return self._entries.get_many(keys)
        # The epoch lags (a delta is in flight) or leads (entries were
        # purged): treat the whole batch as misses, but never purge
        # here — an in-flight delta may be about to repair the entries.
        self._entries.record_misses(len(keys))
        return [None] * len(keys)

    # -- the self-tuning bypass --------------------------------------------

    def bypass_step(self, keys: int) -> bool:
        """Should the caller's next fetch step skip this cache?

        True while a starved cache is inside a bypass run; the step's
        ``keys`` lookups are then counted as misses here (and must be
        counted as misses in the caller's ``AccessStats``) and read
        straight from storage, with no probe and no fill.
        """
        if self._bypass_left <= 0:
            return False
        self._bypass_left -= 1
        self.bypassed_lookups += keys
        self._entries.record_misses(keys)
        return True

    def _observe(self, served: int, filled: int) -> None:
        """Feed one probe's outcome to the bypass rule."""
        if served:
            self._unread_fills = self._bypass_run = self._bypass_left = 0
        elif filled:
            run = self._bypass_run
            if run:
                # A probe after a bypass run served nothing again.
                run = min(2 * run, _BYPASS_CEILING)
            else:
                self._unread_fills += filled
                if self._unread_fills < self.capacity:
                    return
                run = 1  # the LRU turned over without serving a hit
            self._bypass_run = self._bypass_left = run

    # -- lookups -----------------------------------------------------------

    def lookup(self, db: Database, constraint: AccessConstraint,
               x_value: tuple) -> tuple[list[tuple], bool]:
        """Return ``(rows, hit)`` for one index lookup.

        A miss reads through the database and populates the cache;
        entries can never serve rows staler than the write epoch the
        lookup observed.

        >>> from repro import (AccessConstraint, AccessSchema, Database,
        ...                    Schema)
        >>> schema = Schema.from_dict({"R": ("A", "B")})
        >>> access = AccessSchema(schema,
        ...                       [AccessConstraint("R", ("A",), ("B",), 4)])
        >>> db = Database(schema, access)
        >>> db.insert("R", (1, 10))
        >>> cache = FetchCache(capacity=16)
        >>> cache.attach_maintenance(db)
        >>> constraint = access.constraints[0]
        >>> cache.lookup(db, constraint, (1,))
        ([(1, 10)], False)
        >>> db.insert("R", (1, 11))      # maintained: the entry stays warm
        >>> cache.lookup(db, constraint, (1,))
        ([(1, 10), (1, 11)], True)
        >>> cache.maintained_deltas
        1
        """
        rows_per_x, hits = self.lookup_many(db, constraint, (x_value,))
        return rows_per_x[0], hits[0]

    def lookup_many(self, db: Database, constraint: AccessConstraint,
                    x_values: Sequence[tuple]
                    ) -> tuple[list[list[tuple]], list[bool]]:
        """Batched :meth:`lookup`: the value-domain adapter over
        :meth:`lookup_many_encoded`.  Both returned lists align with
        ``x_values``.

        X-values become code keys through the dictionary's
        *non-interning* ``lookup_codes``, so a never-stored X-value is a
        sentinel key that matches nothing and the dictionary never
        grows; entry rows are decoded on the way out.
        """
        dictionary = db.dictionary
        width = len(constraint.x)
        codes = dictionary.lookup_codes(
            [value for x_value in x_values for value in x_value])
        if width == 1:
            keys = codes
        elif width:
            keys = [tuple(codes[i:i + width])
                    for i in range(0, len(codes), width)]
        else:
            keys = [()] * len(x_values)
        entries, hits = self.lookup_many_encoded(db, constraint, keys)
        decode = dictionary.decode
        rows_per_x = [list(zip(*[list(map(decode, column))
                                 for column in cols]))
                      if cols else [()] * length
                      for cols, length in entries]
        return rows_per_x, hits

    def lookup_many_encoded(self, db: Database,
                            constraint: AccessConstraint, keys: Sequence
                            ) -> tuple[list, list[bool]]:
        """Split a batch of dictionary-code keys into hits and misses
        in a single lock pass, then fetch *only* the misses in one
        ``fetch_many_encoded`` trip to storage.  Returns per-key
        ``(column views, length)`` entries and hit flags, both aligned
        with ``keys``.

        Cached columns are readonly memoryviews over arrays built once
        at miss time — warm hits share them by reference, and all
        bookkeeping (entry sizing included) runs on code columns and
        plain lengths; no decoded row is ever materialized here.
        Maintenance replaces an updated entry's arrays wholesale, so
        views handed to in-flight batches stay frozen.  Every call is
        a probe for the bypass rule (:meth:`bypass_step`).

        The generation is read once for the batch: a write racing the
        batch at worst caches fresher rows under the older epoch
        (benign — delta application is idempotent and converges the
        entry), never stale rows under a newer one, because generations
        bump only after the backend's index updates.  An all-hit step
        (the warm path) is one probe of the whole batch and returns
        right after it: no per-key bookkeeping.
        """
        relation = constraint.relation_name
        generation = db.generation(relation)
        slot = self._slot(constraint)
        maintained = self._maintainable(constraint, slot)
        if maintained:
            schema = getattr(self._backend, "access_schema", None)
            cache_keys = [(slot, key) for key in keys]
            cached = self._live_get_many(relation, generation, cache_keys)
        else:
            cache_keys = [(slot, key, generation) for key in keys]
            cached = self._entries.get_many(cache_keys)
        missed = cached.count(None)
        served = len(cached) - missed
        self.encoded_hits += served
        if not missed:
            self._observe(served, 0)
            return cached, [True] * served
        hits = [value is not None for value in cached]
        miss_positions = [i for i, hit in enumerate(hits) if not hit]
        fetched = db.fetch_many_encoded(
            constraint, [keys[i] for i in miss_positions])
        largest = self.max_entry_rows
        puts = []
        for position, (cols, length) in zip(miss_positions, fetched):
            entry = (tuple(readonly_view(column) for column in cols), length)
            cached[position] = entry
            if length > largest:
                largest = length
            puts.append((cache_keys[position], entry))
        self.max_entry_rows = largest
        if maintained:
            self._store_maintained(relation, generation, schema, puts)
        else:
            self._entries.put_many(puts)
        self._observe(served, missed)
        return cached, hits

    def _store_maintained(self, relation: str, stamp: int, schema,
                          items: list) -> None:
        """Store freshly fetched fills for maintained entries.

        ``stamp`` is the generation read *before* the fetch.  Under the
        maintenance lock:

        * if the relation's epoch moved past the stamp, a write (whose
          delta already landed) raced the fetch — the fill might
          predate it, so discard;
        * if the backend's schema object changed since the lookup
          started, the maintainability verdict is void — discard;
        * otherwise store.  A fill *fresher* than its stamp is fine:
          in-flight deltas apply idempotently, so the entry converges
          to current content either way (``docs/ARCHITECTURE.md``
          spells out the argument).
        """
        backend = self._backend
        with self._maintenance_lock:
            if (backend is None or backend is not self._backend
                    or backend.access_schema is not schema):
                return
            epoch = self._epochs.get(relation)
            if epoch is None:
                self._epochs[relation] = stamp
            elif epoch > stamp:
                return
            self._entries.put_many(items)

    # -- delta application (the backend's write listener) ------------------

    def _on_delta(self, delta: WriteDelta) -> None:
        """Apply one write delta to the maintained entries.

        Runs synchronously on the writer's thread, under the backend's
        write lock — so it must stay cheap and must never call back
        into the backend.  Cost is O(changes · touched entries), never
        O(cache).
        """
        relation = delta.relation
        with self._maintenance_lock:
            epoch = self._epochs.get(relation)
            if not delta.maintainable:
                if epoch is not None:
                    dropped = self._purge_relation(relation)
                    self.maintenance_invalidations += dropped
                    self.maintenance_fallbacks += 1
                    self._epochs[relation] = max(epoch,
                                                 delta.new_generation)
                else:
                    self._epochs[relation] = delta.new_generation
                return
            if epoch is None:
                # Nothing maintained yet; start tracking at this write.
                self._epochs[relation] = delta.new_generation
                return
            if delta.new_generation <= epoch:
                return  # duplicate / late delivery: already reflected
            if delta.old_generation != epoch:
                # A gap in the stream (e.g. attached mid-traffic):
                # entries may have missed writes — invalidate.
                dropped = self._purge_relation(relation)
                self.maintenance_invalidations += dropped
                self.maintenance_fallbacks += 1
                self._epochs[relation] = delta.new_generation
                return
            touched = 0
            for constraint, changes in delta.constraints.items():
                touched += self._apply_changes(constraint, changes)
            self._epochs[relation] = delta.new_generation
            self.maintained_deltas += 1
            self.maintained_entries += touched

    def _apply_changes(self, constraint: AccessConstraint,
                       changes) -> int:
        """Apply one constraint's projection changes to whatever
        entries are cached (absent entries are simply not maintained).
        Returns the number of entries updated."""
        # Entries live under the constraint value's slot; no slot means
        # none were ever cached.
        slot = self._slots.get(constraint)
        if slot is None:
            return 0
        entries = self._entries
        touched = 0
        largest = self.max_entry_rows
        for key_code, row_codes in changes.removed:
            key = (slot, key_code)
            entry = entries.get(key, count=False)
            if entry is not None:
                updated = _encoded_minus(entry, row_codes)
                if updated is not None:
                    entries.put(key, updated)
                    touched += 1
        for key_code, row_codes in changes.added:
            key = (slot, key_code)
            entry = entries.get(key, count=False)
            if entry is not None:
                updated = _encoded_plus(entry, row_codes)
                if updated is not None:
                    entries.put(key, updated)
                    touched += 1
                    if updated[1] > largest:
                        largest = updated[1]
        self.max_entry_rows = largest
        return touched

    def _purge_relation(self, relation: str) -> int:
        """Drop the relation's maintained entries (callers hold the
        maintenance lock); generation-keyed entries are left to age
        out as before."""
        def doomed(key) -> bool:
            return (self._is_maintained_key(key)
                    and self._constraints[key[0]].relation_name == relation)
        return self._entries.prune(doomed)

    # -- housekeeping ------------------------------------------------------

    def sweep(self, db: Database) -> int:
        """Purge generation-keyed entries cached under a write
        generation older than the relation's current one.

        Stale generation-keyed entries can never be *served* (the
        lookup key carries the current generation), but they occupy LRU
        slots until recency pushes them out; a periodic sweep — the
        serving tier's housekeeping loop calls this — hands those slots
        back immediately.  Maintained entries are never swept: they are
        kept current by deltas and dropped only by fallback purges.
        Returns the number of entries dropped.
        """
        current: dict[str, int] = {}

        def stale(key) -> bool:
            if self._is_maintained_key(key):
                return False
            generation = key[2]
            relation = self._constraints[key[0]].relation_name
            latest = current.get(relation)
            if latest is None:
                latest = current[relation] = db.generation(relation)
            return generation < latest

        return self._entries.prune(stale)

    def clear(self) -> None:
        with self._maintenance_lock:
            self._entries.clear()
            # Invariant: no maintained entries -> no epochs; fills and
            # deltas re-establish them.
            self._epochs.clear()

    def info(self) -> CacheInfo:
        return CacheInfo(hits=self._entries.hits,
                         misses=self._entries.misses,
                         evictions=self._entries.evictions,
                         size=len(self._entries),
                         capacity=self.capacity)

    def __len__(self) -> int:
        return len(self._entries)


class CachingExecutor(Executor):
    """An executor whose index lookups go through a :class:`FetchCache`.

    With ``fetch_cache=None`` it behaves exactly like the base executor.
    Results are identical either way — the cache only ever returns what
    storage returned for the same (constraint, X-key) at the same write
    epoch, maintained forward by the exact per-write deltas.  A
    step the cache asks to bypass is the base executor's plain storage
    read, its lookups counted as cache misses.
    """

    def __init__(self, db: Database, fetch_cache: FetchCache | None = None):
        super().__init__(db)
        self.fetch_cache = fetch_cache

    def _fetch_flat_encoded(self, constraint, keys: Sequence,
                            stats: AccessStats):
        cache = self.fetch_cache
        if cache is None:
            return super()._fetch_flat_encoded(constraint, keys, stats)
        if cache.bypass_step(len(keys)):
            # A starved cache: a plain storage read, counted as misses.
            stats.fetch_cache_misses += len(keys)
            return super()._fetch_flat_encoded(constraint, keys, stats)
        deadline = current_deadline()
        if deadline is not None:
            deadline.check("fetch_flat_encoded")
        entries, hits = cache.lookup_many_encoded(self.db, constraint, keys)
        n = len(keys)
        stats.index_lookups += n
        if n == 0:
            width = len(constraint.x) + len(constraint.y)
            return [int_column() for _ in range(width)], 0
        views, lengths = zip(*entries)
        total = sum(lengths)
        served = hits.count(True)
        if served == n:
            from_cache = total
        else:
            from_cache = sum(compress(lengths, hits))
            stats.fetch_cache_misses += n - served
            stats.tuples_fetched += total - from_cache
        stats.fetch_cache_hits += served
        stats.tuples_from_cache += from_cache
        if n == 1:
            # Single-key fast path: the cached views flow into the
            # batch directly — zero copies on the warmest path.
            return list(views[0]), total
        # One C-level join per output column over the per-key views:
        # each column is copied once, into a fresh array of its own.
        return [int_column(b"".join(column)) for column in zip(*views)], total
