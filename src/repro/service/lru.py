"""One thread-safe bounded LRU map, shared by every service-layer cache.

The plan cache, its source-text front and the fetch cache all need
the same thing: a lock-guarded ``OrderedDict`` with move-to-end on
access, eviction past a capacity, and hit/miss/eviction counters.
Keeping a single implementation keeps their eviction and accounting
behaviour identical.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from itertools import compress, repeat
from operator import is_not
from typing import Any, Sequence

#: Runs an iterator to exhaustion in C, keeping nothing (a deque of
#: length 0 stores no item, so sharing it between callers is safe).
_drain = deque(maxlen=0).extend


class LruDict:
    """A bounded, thread-safe LRU mapping.

    ``None`` is reserved as the miss sentinel and may not be stored
    (nor may a value that compares equal to it).

    >>> lru = LruDict(capacity=2)
    >>> lru.put("a", 1); lru.put("b", 2); lru.put("c", 3)
    >>> lru.get("a") is None, lru.get("c"), lru.evictions
    (True, 3, 1)
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"LRU capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key, count: bool = True):
        """The stored value, or ``None``; refreshes recency on a hit.

        ``count=False`` leaves the hit/miss counters alone (for
        internal bookkeeping lookups that should not skew reported
        rates).
        """
        with self._lock:
            value = self._data.get(key)
            if value is None:
                if count:
                    self.misses += 1
                return None
            self._data.move_to_end(key)
            if count:
                self.hits += 1
            return value

    def get_many(self, keys: Sequence, count: bool = True) -> list:
        """Batched :meth:`get`: one lock pass for a whole key batch,
        returning a value-or-``None`` list aligned with ``keys``.

        Values, counters and recency end up exactly as ``get`` per key
        would leave them (hits refreshed in batch order, a duplicate
        key once per occurrence), but the probe and the refresh each
        run as one C-level pass over the batch; an all-hit batch builds
        no hit mask at all.
        """
        with self._lock:
            data = self._data
            values = list(map(data.get, keys))
            missed = values.count(None)
            hits = (compress(keys, map(is_not, values, repeat(None)))
                    if missed else keys)
            _drain(map(data.move_to_end, hits))
            if count:
                self.hits += len(values) - missed
                self.misses += missed
            return values

    def put_many(self, items) -> None:
        """Batched :meth:`put` of ``(key, value)`` pairs under one lock."""
        with self._lock:
            for key, value in items:
                if value is None:
                    raise ValueError("LruDict cannot store None")
                self._data[key] = value
                self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def put(self, key, value) -> None:
        if value is None:
            raise ValueError("LruDict cannot store None")
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def record_hits(self, count: int) -> None:
        """Count hits decided outside the map (callers that validate a
        :meth:`get` result before honouring it report here, so the
        hit/miss tallies still describe what was actually served)."""
        with self._lock:
            self.hits += count

    def record_misses(self, count: int) -> None:
        """Count misses decided outside the map — e.g. a whole batch
        bypassing :meth:`get_many` because its entries are known to be
        unservable."""
        with self._lock:
            self.misses += count

    def prune(self, predicate) -> int:
        """Drop every entry whose ``predicate(key)`` is true, under one
        lock pass; returns the drop count.  Pruned entries are not
        counted as evictions (they were unservable, not crowded out)."""
        with self._lock:
            doomed = [key for key in self._data if predicate(key)]
            for key in doomed:
                del self._data[key]
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)
