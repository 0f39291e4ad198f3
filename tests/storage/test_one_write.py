"""One write loop per engine, with one hook before anything applies.

Every write — ``insert_rows``, ``delete_rows``, ``clear`` — runs
``MemoryBackend._write``, which calls the engine hook ``_pre_apply``
(disk: the WAL append) once, on exactly the effective rows, with the
post-write generations.  Procshard runs its inner store's loop with
shipping as an outer hook, ahead of the store's.  Against a plain
row-set model, every engine must return effective counts, bump an
effective write's relation by exactly one (``clear``: every relation),
keep rows and index reads (procshard: through its workers) equal to
the model, and apply nothing anywhere when the hook refuses.
"""

from __future__ import annotations

import random

import pytest

from repro import AccessConstraint, AccessSchema, Schema, StorageError
from repro.storage.backend import MemoryBackend
from repro.storage.disk import DiskBackend

SCHEMA = Schema.from_dict({"R": ("A", "B", "C"), "S": ("D",)})
#: Y omits C, so rows share projections and deletes test witness counts.
CONSTRAINT = AccessConstraint("R", ("A",), ("B",), 64)
KEYS = [(a,) for a in range(4)]


@pytest.fixture(scope="module", params=[
    "memory", "disk", "procshard", "procshard-disk"])
def backend(request, tmp_path_factory):
    if request.param == "memory":
        engine = MemoryBackend(SCHEMA)
    elif request.param == "disk":
        engine = DiskBackend(SCHEMA, tmp_path_factory.mktemp("one-write"))
    else:
        from repro.storage.procshard import ProcessShardedBackend
        durable = request.param != "procshard"
        # A zero fan-out threshold sends every read through the workers.
        engine = ProcessShardedBackend(
            SCHEMA, workers=2,
            data_dir=tmp_path_factory.mktemp("one-write") if durable else None,
            fanout_threshold=0)
    engine.attach_access_schema(AccessSchema(SCHEMA, [CONSTRAINT]))
    yield engine
    engine.close()


def state(backend) -> tuple:
    rows = {name: set(backend.scan(name)) for name in ("R", "S")}
    assert all(backend.contains(name, row) and
               backend.relation_size(name) == len(rows[name])
               for name in rows for row in rows[name])
    return (rows, {name: backend.generation(name) for name in rows},
            [sorted(group) for group in backend.fetch_many(CONSTRAINT, KEYS)])


def test_each_write_calls_the_hook_once_on_its_effective_rows(
        backend, monkeypatch):
    backend.clear()
    store = getattr(backend, "_store", backend)
    hook, calls = store._pre_apply, []
    monkeypatch.setattr(store, "_pre_apply",
                        lambda *args: (calls.append(args), hook(*args)))
    model = {"R": set(), "S": set()}
    rng = random.Random(3)
    for _ in range(80):
        generations = {name: backend.generation(name) for name in model}
        op = rng.choice("iiidc")
        if op == "c":
            backend.clear()
            generations = {name: g + 1 for name, g in generations.items()}
            expected = [("c", None, [], generations)]
            model = {"R": set(), "S": set()}
        else:
            relation = rng.choice("RRS")
            arity = SCHEMA.relation(relation).arity
            batch = [tuple(rng.randrange(3) for _ in range(arity))
                     for _ in range(rng.randrange(5))]
            batch += rng.sample(sorted(model[relation]),
                                min(2, len(model[relation])))
            effective = [row for row in dict.fromkeys(batch)
                         if (row in model[relation]) == (op == "d")]
            write = backend.delete_rows if op == "d" else backend.insert_rows
            assert write(relation, batch + batch[:1]) == len(effective)
            expected = []
            if effective:
                generations[relation] += 1
                expected = [(op, relation, effective,
                             {relation: generations[relation]})]
            update = (model[relation].difference_update if op == "d"
                      else model[relation].update)
            update(effective)
        assert calls == expected
        calls.clear()
        assert state(backend) == (model, generations, [
            sorted({(a, b) for a, b, _ in model["R"] if (a,) == key})
            for key in KEYS])


WRITES = {
    "insert": lambda backend: backend.insert_rows(
        "R", [(2, 2, 2), (1, 0, 9)]),
    "delete": lambda backend: backend.delete_rows(
        "R", [(1, 0, 0), (0, 0, 0)]),
    "clear": lambda backend: backend.clear(),
}


@pytest.mark.parametrize("op", WRITES)
def test_a_refused_write_applies_nowhere(backend, monkeypatch, op):
    backend.clear()
    backend.insert_rows("R", [(0, 0, 0), (1, 0, 0), (1, 1, 1)])
    backend.insert_rows("S", [(5,)])
    before = state(backend)

    def rpcs() -> int:
        return backend.counters().get("rpc_requests_total", 0)

    def refuse(*args):
        shipped.append(rpcs() > sent)
        raise StorageError("refused")

    # The engine's own hook refuses.  Procshard must have shipped by
    # then — a shipment that fails after the WAL append would leave the
    # log holding a write the store never applied — and must rebuild.
    store = getattr(backend, "_store", backend)
    with monkeypatch.context() as patch:
        patch.setattr(store, "_pre_apply", refuse)
        shipped: list[bool] = []
        sent = rpcs()
        with pytest.raises(StorageError, match="refused"):
            WRITES[op](backend)
    assert shipped == [store is not backend]
    assert state(backend) == before
    if op == "insert" and isinstance(store, DiskBackend):
        # The disk hook's own refusal: a value JSON cannot carry.
        with pytest.raises(StorageError, match="JSON scalars"):
            backend.insert_rows("R", [(3, 3, 3), (2, b"bytes", 2)])
        assert state(backend) == before
