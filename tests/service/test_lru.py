"""LruDict unit tests — batch operations and eviction ordering."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.service.lru import LruDict


def test_put_many_evicts_in_insertion_order_past_capacity():
    lru = LruDict(capacity=2)
    lru.put_many([("a", 1), ("b", 2), ("c", 3), ("d", 4)])
    # Eviction happens once, after the whole batch: the two oldest go.
    assert lru.get("a") is None and lru.get("b") is None
    assert lru.get("c") == 3 and lru.get("d") == 4
    assert lru.evictions == 2
    assert len(lru) == 2


def test_put_many_duplicate_keys_count_once():
    lru = LruDict(capacity=2)
    lru.put_many([("a", 1), ("a", 2), ("b", 3)])
    # The duplicate overwrote in place; nothing needed evicting.
    assert lru.get("a") == 2 and lru.get("b") == 3
    assert lru.evictions == 0


def test_put_many_refreshes_recency_of_existing_keys():
    lru = LruDict(capacity=2)
    lru.put("a", 1)
    lru.put("b", 2)
    # Re-putting "a" moves it to the MRU end, so "b" is the LRU victim.
    lru.put_many([("a", 10), ("c", 3)])
    assert lru.get("b") is None
    assert lru.get("a") == 10 and lru.get("c") == 3


def test_get_many_refreshes_recency_and_counts_in_aggregate():
    lru = LruDict(capacity=2)
    lru.put("a", 1)
    lru.put("b", 2)
    values = lru.get_many(["a", "missing", "b"])
    assert values == [1, None, 2]
    assert (lru.hits, lru.misses) == (2, 1)
    # Both hits were refreshed, "a" before "b": "a" is the LRU victim.
    lru.put("c", 3)
    assert lru.get("a", count=False) is None
    assert lru.get("b", count=False) == 2


def test_get_many_eviction_order_tracks_batch_touch_order():
    lru = LruDict(capacity=3)
    lru.put("a", 1)
    lru.put("b", 2)
    lru.put("c", 3)
    # Touch order within the batch: c first, then a — so after the
    # batch, recency is b < c < a.
    lru.get_many(["c", "a"])
    lru.put("d", 4)  # evicts b, the only untouched key
    assert lru.get("b") is None
    assert lru.get("c") == 3 and lru.get("a") == 1 and lru.get("d") == 4


def test_get_many_count_false_leaves_counters_alone():
    lru = LruDict(capacity=2)
    lru.put("a", 1)
    assert lru.get_many(["a", "nope"], count=False) == [1, None]
    assert (lru.hits, lru.misses) == (0, 0)


def test_put_many_rejects_none_values():
    lru = LruDict(capacity=2)
    with pytest.raises(ValueError, match="cannot store None"):
        lru.put_many([("a", None)])


KEYS = st.sampled_from("abcdefgh")
# Falsy values are still hits: only None is the miss sentinel.
VALUES = st.one_of(st.integers(-2, 2), st.just([]), st.just(""))


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 6),
       stored=st.lists(st.tuples(KEYS, VALUES), max_size=10),
       batch=st.lists(KEYS, max_size=12),
       count=st.booleans())
def test_get_many_equals_one_get_per_key(capacity, stored, batch, count):
    batched, single = LruDict(capacity), LruDict(capacity)
    for lru in (batched, single):
        lru.put_many(stored)
        lru.hits, lru.misses = 3, 5  # counters left untouched must stay
    values = batched.get_many(batch, count=count)
    assert values == [single.get(key, count=count) for key in batch]
    assert (batched.hits, batched.misses) == (single.hits, single.misses)
    if not count:
        assert (batched.hits, batched.misses) == (3, 5)
    # Same recency afterwards, so the next put evicts the same key.
    assert list(batched._data) == list(single._data)
    batched.put("new", 0)
    single.put("new", 0)
    assert list(batched._data) == list(single._data)
    assert batched.evictions == single.evictions


def test_get_many_all_misses_and_duplicates():
    lru = LruDict(capacity=3)
    lru.put_many([("a", 1), ("b", 0), ("c", 3)])
    assert lru.get_many(["x", "y", "x"]) == [None, None, None]
    assert (lru.hits, lru.misses) == (0, 3)
    # Every occurrence refreshes; the last touches are "a" then "b",
    # so recency is c < a < b.
    assert lru.get_many(["a", "b", "a", "b"]) == [1, 0, 1, 0]
    assert (lru.hits, lru.misses) == (4, 3)
    lru.put("d", 4)
    assert list(lru._data) == ["a", "b", "d"]
