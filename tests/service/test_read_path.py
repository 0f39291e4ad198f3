"""The read path never interns: bindings to values the database has
never stored leave the value dictionary untouched on every engine,
answer exactly what the scan oracle answers, and see the value as soon
as a write stores it."""

from __future__ import annotations

import pytest

from repro import Database
from repro.engine.naive import evaluate
from repro.errors import ServiceError
from repro.query import parse_query
from repro.service import BoundedQueryService, bind_query
from repro.storage.backend import MemoryBackend
from repro.storage.disk import DiskBackend

TEMPLATES = {
    "by_date": "Q(aid) :- Accident(aid, d, t), t = $date",
    # The bound constant is an output column, carried by a cross join.
    "echo": "Q(t, aid) :- Accident(aid, d, t), t = $date",
    # ... and one whose answer holds a never-stored constant.
    "tagged": "Q(w, d) :- Accident(aid, d, t), aid = $aid, w = $tag",
}

ACCIDENTS = [
    ("a1", "Queens Park", "1/5/2005"),
    ("a2", "Soho", "1/5/2005"),
    ("a3", "Camden", "2/5/2005"),
]


@pytest.fixture(params=["memory", "disk", "procshard-2w"])
def db(request, tmp_path, accident_schema, accident_access):
    if request.param == "memory":
        backend = MemoryBackend(accident_schema)
    elif request.param == "disk":
        backend = DiskBackend(accident_schema, tmp_path)
    else:
        from repro.storage.procshard import ProcessShardedBackend
        # A zero fan-out threshold sends every encoded read over a pipe.
        backend = ProcessShardedBackend(accident_schema, workers=2,
                                        fanout_threshold=0)
    database = Database(accident_schema, accident_access, backend=backend)
    database.insert_many("Accident", ACCIDENTS)
    yield database
    backend.close()


def oracle(db, name, params):
    query = parse_query(TEMPLATES[name])
    return evaluate(bind_query(query, query.parameters(), params), db)


def test_never_stored_bindings_intern_nothing(db):
    service = BoundedQueryService(db)
    for name, text in TEMPLATES.items():
        service.register_template(name, text)
    before = len(db.dictionary)
    for i in range(200):
        value = f"never-{i}"
        for name, params in (("by_date", {"date": value}),
                             ("echo", {"date": value}),
                             ("tagged", {"aid": value, "tag": value})):
            result = service.execute_template(name, params)
            assert result.bounded
            assert result.answers == oracle(db, name, params) == set()
            # A key nobody stored reads no data, not someone else's.
            assert (result.stats.tuples_fetched
                    + result.stats.tuples_from_cache) == 0
    tagged = {"aid": "a1", "tag": "never-0"}
    assert (service.execute_template("tagged", tagged).answers
            == oracle(db, "tagged", tagged)
            == {("never-0", "Queens Park")})
    assert len(db.dictionary) == before

    # The stale-sentinel trap: once a write stores the value, the very
    # same binding must find it.
    db.insert("Accident", ("a9", "Soho", "never-7"))
    for name, expected in (("by_date", {("a9",)}),
                           ("echo", {("never-7", "a9")})):
        params = {"date": "never-7"}
        answers = service.execute_template(name, params).answers
        assert answers == oracle(db, name, params) == expected


def test_unhashable_binding_is_refused_before_any_read(accident_schema,
                                                       accident_access):
    class NoReads(MemoryBackend):
        def read_codes(self, constraint, keys):
            raise AssertionError("the backend was read")

    db = Database(accident_schema, accident_access,
                  backend=NoReads(accident_schema))
    db.insert_many("Accident", ACCIDENTS)
    service = BoundedQueryService(db)
    service.register_template("t", TEMPLATES["by_date"])
    with pytest.raises(ServiceError, match=r"\$date is unhashable"):
        service.execute_template("t", {"date": []})
    assert service.stats().requests == 0
