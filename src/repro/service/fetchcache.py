"""A bounded LRU over ``Database.fetch`` results, maintained under
writes.

``fetch(constraint, x_value)`` is the only primitive through which
bounded plans touch data, and an access constraint ``R(X → Y, N)``
certifies that any one result holds at most ``N`` distinct tuples — so
a cache of ``capacity`` entries occupies at most ``capacity · N_max``
tuples.  Memory is certifiably bounded by the same reasoning the plans
themselves enjoy.

Entries are kept fresh by maintenance (the full soundness argument
lives in ``docs/ARCHITECTURE.md``).  An entry is keyed by its
constraint and X-key and kept current by the backend's
:class:`~repro.storage.delta.WriteDelta` stream: a write names the
X-keys whose group it changed, and each cached entry among them is
refreshed with its group as the index holds it after the write, so an
entry is the index's content at the delta's generation; everything
else stays warm.  A per-relation *epoch* (the generation of the last
applied delta) validates lookups; a delta that cannot name its keys (a
``clear``, recovery, schema reattach) or leaves a gap in the stream
falls back to invalidating the relation's entries — counted, so
dashboards can see maintenance degrade.

Only a constraint that resolves *exactly* against an attached index
(same relation, X, Y and bound) can be maintained: deltas name keys
per attached constraint.  Maintenance is attached per database via
:meth:`FetchCache.attach_maintenance` (the service does this at
construction).  A detached cache, or a constraint that resolves
through a key permutation or row projection, *reads through*: its
lookups go straight to storage with no probe and no fill, counted as
misses.

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
from ..storage.encoding import int_column
from .lru import LruDict
from .plancache import CacheInfo

#: Longest bypass run, in fetch steps.  A starved cache probes once per
#: run, and a probe fills (and, starved, evicts) a whole step's keys:
#: the ceiling keeps that below one eviction per request on the
#: fan-out workloads, and bounds how long a shift back to a hot pool
#: waits to be noticed.
_BYPASS_CEILING = 1024

#: Verdict memo entries before a wholesale clear: the memo pins the
#: constraint objects it has seen, so it must not grow without bound.
_MAX_VERDICTS = 4096


class FetchCache:
    """Thread-safe LRU over per-X-key fetch results.

    Every entry is ``(readonly column views, length)`` under a
    ``(slot, code key)`` key.  A *slot* is a small int the cache gives
    each maintained constraint value the first time it sees it, so a
    probe never hashes the constraint per key.  Entries are
    what the columnar executor consumes: a warm single-key hit hands
    back zero-copy views that flow straight into a batch, and a
    multi-key step joins its views into one fresh array per column —
    no re-encoding, no row materialization.  Maintenance replaces an
    entry with freshly read arrays, so views already handed out stay
    frozen at the content they were served with.

    >>> cache = FetchCache(capacity=128)
    >>> cache.info().size
    0
    >>> cache.maintained_deltas, cache.maintenance_fallbacks
    (0, 0)
    """

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self._entries: LruDict = LruDict(capacity)
        # constraint value -> slot, and slot -> constraint.  Slots are
        # assigned under the maintenance lock and never reused.
        self._slots: dict[AccessConstraint, int] = {}
        self._constraints: list[AccessConstraint] = []
        # -- the self-tuning bypass (advisory and lock-free: a race can
        # only mis-time a probe) ----------------------------------------
        #: Entries filled since the last hit was served.
        self._unread_fills = 0
        #: Current bypass run length in fetch steps (0: not starved).
        self._bypass_run = 0
        #: Steps left to bypass before the next probe.
        self._bypass_left = 0
        #: Index lookups read straight from storage: a starved cache's
        #: bypass runs and the constraints it cannot maintain.
        self.bypassed_lookups = 0
        # -- incremental maintenance state ---------------------------------
        # Serializes delta application, epoch reads/writes and the
        # store-a-fill decision.  Held across a backend call only by the
        # listener, whose delta read runs on the writer thread that
        # already holds the backend lock; any other holder calling into
        # the backend would deadlock against a writer.
        self._maintenance_lock = threading.Lock()
        #: relation -> generation of the last applied delta.  Invariant:
        #: a relation with no epoch has no entries.
        self._epochs: dict[str, int] = {}
        self._backend = None
        # Maintainability verdicts against the identity of the
        # backend's attached schema: id(constraint object) -> (the
        # object, its slot or None: read through).  Pinning the object
        # keeps its id from being reused while the entry lives.
        self._verdicts: dict[int, tuple] = {}
        self._verdict_schema = None
        #: Deltas applied to maintained entries.
        self.maintained_deltas = 0
        #: Cached entries refreshed (not dropped) by delta application.
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
        are then cached (epoch-validated); everything else reads
        through.  Idempotent per backend; attaching to a different
        backend detaches from the previous one first.
        """
        backend = db.backend
        if backend is self._backend:
            return
        self.detach_maintenance()
        with self._maintenance_lock:
            self._backend = backend
        backend.add_write_listener(self._on_delta)

    def detach_maintenance(self) -> int:
        """Unsubscribe and empty the cache (its entries would go
        silently stale without the delta stream); from then on every
        lookup reads through.  Returns the number of entries dropped.
        Safe to call when not attached."""
        backend = self._backend
        if backend is not None:
            backend.remove_write_listener(self._on_delta)
        with self._maintenance_lock:
            self._backend = None
            self._epochs.clear()
            self._verdicts = {}
            self._verdict_schema = None
            dropped = len(self._entries)
            self._entries.clear()
            return dropped

    def _slot(self, constraint: AccessConstraint) -> int:
        """The constraint value's slot, assigned on first sight."""
        with self._maintenance_lock:
            slot = self._slots.get(constraint)
            if slot is None:
                slot = len(self._constraints)
                # Mapped back before it is published: whoever sees the
                # slot can resolve it.
                self._constraints.append(constraint)
                self._slots[constraint] = slot
            return slot

    def _maintained_slot(self, constraint: AccessConstraint) -> int | None:
        """The constraint's slot if deltas can maintain its entries,
        else ``None`` (its lookups read through).  Memoized per
        constraint object, so a warm step never hashes the constraint
        (frozen-dataclass hashing runs in Python).

        Maintainable exactly when the cache is attached and some
        attached constraint *equals* this one (same relation, X, Y and
        bound): deltas are keyed by the attached constraint objects,
        and frozen-dataclass equality makes the requested constraint
        address the same entries (and the same slot).  Anything that
        resolves through a key permutation, row projection or a
        different bound reads through.
        """
        backend = self._backend
        if backend is None:
            return None
        schema = backend.access_schema
        if schema is not self._verdict_schema:
            # A reattach changes the constraint->index mapping; old
            # verdicts (either way) are meaningless against it.
            self._verdicts = {}
            self._verdict_schema = schema
        verdicts = self._verdicts
        verdict = verdicts.get(id(constraint))
        if verdict is None:
            slot = (self._slot(constraint) if schema is not None and any(
                attached == constraint for attached in schema) else None)
            if len(verdicts) >= _MAX_VERDICTS:
                verdicts.clear()
            verdict = verdicts[id(constraint)] = (constraint, slot)
        return verdict[1]

    def _live_get_many(self, relation: str, generation: int,
                       keys: list) -> list:
        """Probe entries: served only while the relation's epoch equals
        the generation the lookup read."""
        with self._maintenance_lock:
            live = self._epochs.get(relation) == generation
        if live:
            return self._entries.get_many(keys)
        # The epoch lags (a delta is in flight) or leads (entries were
        # purged): treat the whole batch as misses, but never purge
        # here — an in-flight delta may be about to repair the entries.
        self._entries.record_misses(len(keys))
        return [None] * len(keys)

    # -- reading through ---------------------------------------------------

    def bypass_step(self, constraint: AccessConstraint, keys: int) -> bool:
        """Should the caller's next fetch step over ``constraint`` skip
        this cache?

        True for a constraint the cache cannot maintain, and while a
        starved cache is inside a bypass run.  The step's ``keys``
        lookups are then counted as misses here (and must be counted
        as misses in the caller's ``AccessStats``) and read straight
        from storage, with no probe and no fill.
        """
        if self._bypass_left > 0:
            self._bypass_left -= 1
        elif self._maintained_slot(constraint) is not None:
            return False
        self._read_through(keys)
        return True

    def _read_through(self, keys: int) -> None:
        self.bypassed_lookups += keys
        self._entries.record_misses(keys)

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
        keys = dictionary.lookup_keys(x_values, len(constraint.x))
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

        Cached columns are the readonly memoryview slices
        ``fetch_many_encoded`` returns, over one array per column of
        the miss batch — warm hits share them by reference, and all
        bookkeeping runs on code columns and plain lengths; no decoded
        row is ever materialized here.
        Maintenance replaces a refreshed entry's arrays wholesale, so
        views handed to in-flight batches stay frozen.  Every call is
        a probe for the bypass rule (:meth:`bypass_step`), except over
        a constraint the cache cannot maintain or for a ``db`` other
        than the attached one: that batch reads through, every key a
        miss.

        The generation is read once for the batch: a write racing the
        batch at worst caches fresher rows under the older epoch
        (benign — that write's delta refreshes the entry from the
        index), never stale rows under a newer one, because generations
        bump only after the backend's index updates.  An all-hit step
        (the warm path) is one probe of the whole batch and returns
        right after it: no per-key bookkeeping.
        """
        relation = constraint.relation_name
        generation = db.generation(relation)
        schema = getattr(self._backend, "access_schema", None)
        slot = self._maintained_slot(constraint)
        if slot is None or db.backend is not self._backend:
            # Entries belong to the attached backend alone.
            self._read_through(len(keys))
            return (db.fetch_many_encoded(constraint, keys),
                    [False] * len(keys))
        cache_keys = [(slot, key) for key in keys]
        cached = self._live_get_many(relation, generation, cache_keys)
        missed = cached.count(None)
        served = len(cached) - missed
        if not missed:
            self._observe(served, 0)
            return cached, [True] * served
        hits = [value is not None for value in cached]
        miss_positions = [i for i, hit in enumerate(hits) if not hit]
        fetched = db.fetch_many_encoded(
            constraint, [keys[i] for i in miss_positions])
        puts = []
        for position, entry in zip(miss_positions, fetched):
            cached[position] = entry
            puts.append((cache_keys[position], entry))
        self._store_maintained(relation, generation, schema, puts)
        self._observe(served, missed)
        return cached, hits

    def _store_maintained(self, relation: str, stamp: int, schema,
                          items: list) -> None:
        """Store freshly fetched fills.

        ``stamp`` is the generation read *before* the fetch.  Under the
        maintenance lock:

        * if the relation's epoch moved past the stamp, a write (whose
          delta already landed) raced the fetch — the fill might
          predate it, so discard;
        * if the backend's schema object changed since the lookup
          started, the maintainability verdict is void — discard;
        * otherwise store.  A fill *fresher* than its stamp is fine:
          the in-flight delta that made it fresher refreshes the entry
          from the index once it lands (``docs/ARCHITECTURE.md``
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
        write lock — so it must stay cheap, and it reads only through
        the delta's own ``read`` (the writer already holds every lock
        that read takes).  Cost is O(rows of the refreshed entries),
        never O(cache).
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
            for constraint, keys in delta.keys.items():
                touched += self._refresh(constraint, keys, delta.read)
            self._epochs[relation] = delta.new_generation
            self.maintained_deltas += 1
            self.maintained_entries += touched

    def _refresh(self, constraint: AccessConstraint, keys: list,
                 read) -> int:
        """Replace the cached entries of one constraint's changed
        ``keys`` with their groups as the delta's ``read`` returns them
        (absent entries are simply not maintained).  Returns the number
        of entries refreshed."""
        # Entries live under the constraint value's slot; no slot means
        # none were ever cached.
        slot = self._slots.get(constraint)
        if slot is None:
            return 0
        cache_keys = [(slot, key) for key in keys]
        cached = self._entries.get_many(cache_keys, count=False)
        present = [key for key, entry in zip(cache_keys, cached)
                   if entry is not None]
        if not present:
            return 0
        fresh = read(constraint, [key for _, key in present])
        self._entries.put_many(zip(present, fresh))
        return len(present)

    def _purge_relation(self, relation: str) -> int:
        """Drop the relation's entries (callers hold the maintenance
        lock)."""
        constraints = self._constraints
        return self._entries.prune(
            lambda key: constraints[key[0]].relation_name == relation)

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

    Results are identical to the base executor's — the cache only ever
    returns what storage returned for the same (constraint, X-key) at
    the same write epoch, refreshed from the index by the per-write
    deltas.  A step the cache reads through (a constraint it cannot
    maintain, or a starved cache's bypass) is the base executor's
    plain storage read, its lookups counted as cache misses.
    """

    def __init__(self, db: Database, fetch_cache: FetchCache):
        super().__init__(db)
        self.fetch_cache = fetch_cache

    def _fetch_flat_encoded(self, constraint, keys: Sequence,
                            stats: AccessStats):
        cache = self.fetch_cache
        if cache.bypass_step(constraint, len(keys)):
            # A plain storage read, counted as misses.
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
