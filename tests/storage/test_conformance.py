"""Storage-engine conformance: every shipped engine answers the fetch
surface exactly like an index freshly built from its own rows, across
random insert / delete / clear / re-attach sequences.

After every step, for each attached constraint plus the structurally
re-created variants analysis code requests (narrower Y, reordered Y,
permuted X), four answers must agree as row multisets, for stored and
never-stored keys alike:

* ``fetch_many`` (value keys);
* ``fetch_many_encoded`` (code keys), decoded;
* ``fetch_flat_encoded`` (code keys), decoded;
* an :class:`~repro.storage.indexes.AccessIndex` built from ``scan``.

A value-level ``fetch_many`` of never-stored X-values must also leave
the engine's dictionary untouched: reads never intern values.

This is the harness a new engine must pass — add a fixture branch for
it in ``engine``.  Engine instances are module-scoped (the
process-sharded fleet spawns once) and reset at the start of every
example.
"""

from __future__ import annotations

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import AccessConstraint, AccessSchema, Schema
from repro.storage.backend import MemoryBackend
from repro.storage.disk import DiskBackend
from repro.storage.encoding import ValueDictionary
from repro.storage.indexes import AccessIndex

SCHEMA = Schema.from_dict({"R": ("A", "B", "C"), "S": ("D",)})

#: Re-attach draws a non-empty subset of these: a scalar X with a wide
#: Y, a composite X, a narrow Y that collapses witnesses, and empty Xs
#: (one wide enough that a narrower request projects to one column).
POOL = (
    ("R", ("A",), ("B", "C")),
    ("R", ("A", "B"), ("C",)),
    ("R", ("C",), ("A",)),
    ("R", (), ("B", "C")),
    ("S", (), ("D",)),
)

#: One small domain for every column; ``0`` and ``"0"`` are distinct
#: values and must get distinct codes.
VALUES = (0, 1, 2, "0", "a")
#: Never written anywhere, so a conforming engine never interns them.
NEVER = (10**6, "never-stored")

values = st.sampled_from(VALUES)
r_rows = st.lists(st.tuples(values, values, values), max_size=10)
s_rows = st.lists(st.tuples(values), max_size=3)
access_schemas = st.lists(st.sampled_from(range(len(POOL))), min_size=1,
                          unique=True)
steps = st.sampled_from(("insert", "insert", "delete", "clear", "attach"))


@pytest.fixture(scope="module",
                params=["memory", "disk", "procshard", "procshard-replica"])
def engine(request, tmp_path_factory):
    if request.param == "memory":
        backend = MemoryBackend(SCHEMA)
    elif request.param == "disk":
        backend = DiskBackend(SCHEMA, tmp_path_factory.mktemp("conformance"))
    elif request.param == "procshard":
        from repro.storage.procshard import ProcessShardedBackend
        # A zero fan-out threshold sends every encoded read over a pipe.
        backend = ProcessShardedBackend(SCHEMA, workers=2,
                                        fanout_threshold=0)
    else:
        from repro.storage.procshard import ProcessShardedBackend
        # A durable writer plus a WAL-shipped replica: encoded reads are
        # load-balanced between the shard workers and the replica.
        backend = ProcessShardedBackend(
            SCHEMA, workers=2, replicas=1, fanout_threshold=0,
            data_dir=tmp_path_factory.mktemp("conformance-replica"))
    yield backend
    backend.close()


def _access(pool_ids) -> AccessSchema:
    """Fresh constraint objects on every attach, as a reloaded schema
    would have."""
    return AccessSchema(SCHEMA, [
        AccessConstraint(relation, x, y, 64)
        for relation, x, y in (POOL[i] for i in sorted(pool_ids))])


def _requested(access: AccessSchema) -> list[AccessConstraint]:
    """The attached constraints plus structurally re-created variants
    that resolve onto them through a key permutation or a row
    projection."""
    out = []
    for c in access:
        out.append(AccessConstraint(c.relation_name, c.x, c.y, 64))
        if len(c.y) > 1:
            out.append(AccessConstraint(c.relation_name, c.x, c.y[:1], 64))
            out.append(AccessConstraint(c.relation_name, c.x, c.y[::-1], 64))
        if len(c.x) > 1:
            out.append(AccessConstraint(c.relation_name, c.x[::-1], c.y, 64))
    return out


def _decode(dictionary, cols, length) -> Counter:
    assert all(len(col) == length for col in cols)
    return Counter(tuple(dictionary.decode(code) for code in row)
                   for row in zip(*cols))


def _check(backend) -> None:
    dictionary = backend.dictionary
    for requested in _requested(backend.access_schema):
        oracle = AccessIndex(requested,
                             requested.validate_against(SCHEMA),
                             ValueDictionary())
        for row in backend.scan(requested.relation_name):
            oracle.add(row)
        width = len(requested.x)
        keys = list(dict.fromkeys(
            [*itertools.product(VALUES, repeat=width),
             *((value,) * width for value in NEVER)]))
        want = [Counter(oracle.lookup(key)) for key in keys]

        size = len(dictionary)
        got = backend.fetch_many(requested, keys)
        assert len(dictionary) == size, "a value-level read interned values"
        assert [Counter(rows) for rows in got] == want

        # Code keys exist only for values the engine has interned; the
        # rest of the domain is still covered, as never-stored keys.
        known = [i for i, key in enumerate(keys)
                 if all(value in dictionary for value in key)]
        if not known:
            continue
        codes = [tuple(dictionary.encode(value) for value in keys[i])
                 for i in known]
        if width == 1:
            codes = [key[0] for key in codes]
        local_reads = backend.counters().get("local_reads_total")
        many = backend.fetch_many_encoded(requested, codes)
        assert [_decode(dictionary, *entry) for entry in many] == \
            [want[i] for i in known]
        flat = backend.fetch_flat_encoded(requested, codes)
        assert _decode(dictionary, *flat) == sum(
            (want[i] for i in known), Counter())
        # On the process-sharded engine both encoded reads crossed a pipe.
        assert backend.counters().get("local_reads_total") == local_reads


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fetch_surfaces_agree_with_a_fresh_index(engine, data):
    engine.clear()
    engine.attach_access_schema(_access(data.draw(access_schemas)))
    _check(engine)
    for _ in range(data.draw(st.integers(1, 6), label="steps")):
        step = data.draw(steps)
        if step == "insert":
            engine.insert_rows("R", data.draw(r_rows))
            engine.insert_rows("S", data.draw(s_rows))
        elif step == "delete":
            for relation, absent in (("R", r_rows), ("S", s_rows)):
                stored = engine.scan(relation)
                victims = (data.draw(st.lists(st.sampled_from(stored),
                                              max_size=6))
                           if stored else [])
                # Plus random rows, mostly absent: those must be skipped.
                engine.delete_rows(relation, victims + data.draw(absent))
        elif step == "clear":
            engine.clear()
        else:
            engine.attach_access_schema(_access(data.draw(access_schemas)))
        _check(engine)
