"""Unit tests for the in-memory database and its indexes."""

from __future__ import annotations

import pytest

from repro import (AccessConstraint, AccessSchema, ConstraintViolation,
                   Database, ExecutionError, LogCardinality, MemoryBackend,
                   Schema, SchemaError)


@pytest.fixture
def schema():
    return Schema.from_dict({"R": ("A", "B"), "S": ("C",)})


@pytest.fixture
def aschema(schema):
    return AccessSchema(schema, [
        AccessConstraint("R", ("A",), ("B",), 2),
        AccessConstraint("S", (), ("C",), 3),
    ])


class TestDatabaseBasics:
    def test_insert_and_size(self, schema):
        db = Database(schema)
        db.insert("R", (1, "x"))
        db.insert("R", (1, "x"))  # Set semantics: duplicate ignored.
        db.insert("S", ("c",))
        assert db.size() == 2
        assert db.relation_size("R") == 1

    def test_arity_check(self, schema):
        db = Database(schema)
        with pytest.raises(SchemaError, match="arity"):
            db.insert("R", (1,))

    def test_unknown_relation(self, schema):
        db = Database(schema)
        with pytest.raises(SchemaError):
            db.insert("T", (1,))

    def test_contains(self, schema):
        db = Database(schema)
        db.insert("R", (1, 2))
        assert ("R", (1, 2)) in db
        assert ("R", (9, 9)) not in db

    def test_active_domain(self, schema):
        db = Database(schema)
        db.insert("R", (1, "x"))
        assert db.active_domain() == {1, "x"}
        assert db.active_domain(extra=["q"]) == {1, "x", "q"}

    def test_active_domain_memo_tracks_write_epoch(self, schema):
        db = Database(schema)
        db.insert("R", (1, "x"))
        first = db.active_domain()
        # Mutating the returned set must not corrupt the memo, and a
        # same-epoch call must not rescan (observable via the memo).
        first.add("junk")
        assert db.active_domain() == {1, "x"}
        assert db._adom_cache[0] == db.write_epoch()
        db.insert("R", (2, "y"))
        assert db.active_domain() == {1, "x", 2, "y"}
        db.delete("R", (1, "x"))
        assert db.active_domain() == {2, "y"}

    def test_delete_and_delete_many(self, schema):
        db = Database(schema)
        db.insert_many("R", [(1, "x"), (2, "y"), (3, "z")])
        assert db.delete("R", (1, "x"))
        assert not db.delete("R", (1, "x"))
        assert db.delete_many("R", [(2, "y"), (3, "z"), (9, "q")]) == 2
        assert db.size() == 0

    def test_clear(self, schema, aschema):
        db = Database(schema, aschema)
        db.insert("R", (1, 2))
        db.clear()
        assert db.size() == 0
        assert db.fetch(aschema.constraints[0], (1,)) == []


class TestAccessSchemaValidation:
    def test_satisfies_within_bound(self, schema, aschema):
        db = Database(schema, aschema)
        db.insert_many("R", [(1, "a"), (1, "b"), (2, "a")])
        assert db.satisfies()

    def test_violation_detected(self, schema, aschema):
        db = Database(schema, aschema)
        db.insert_many("R", [(1, "a"), (1, "b"), (1, "c")])
        assert not db.satisfies()
        with pytest.raises(ConstraintViolation) as excinfo:
            db.check()
        assert excinfo.value.count == 3

    def test_empty_x_constraint(self, schema, aschema):
        db = Database(schema, aschema)
        db.insert_many("S", [("a",), ("b",), ("c",)])
        assert db.satisfies()
        db.insert("S", ("d",))
        assert not db.satisfies()

    def test_check_against_unattached_schema(self, schema):
        db = Database(schema)
        db.insert_many("R", [(1, "a"), (1, "b")])
        strict = AccessSchema(schema, [
            AccessConstraint("R", ("A",), ("B",), 1)])
        assert not db.satisfies(strict)

    def test_nonconstant_bound_uses_db_size(self, schema):
        db = Database(schema)
        aschema = AccessSchema(schema, [
            AccessConstraint("R", ("A",), ("B",), LogCardinality())])
        db.attach_access_schema(aschema)
        # 8 tuples => bound ceil(log2(8)) = 3; each key has <= 3 B-values.
        db.insert_many("R", [(1, i) for i in range(3)])
        db.insert_many("R", [(9, 100 + i) for i in range(3)])
        db.insert_many("R", [(7, 0), (8, 0)])
        assert db.satisfies()
        # Pile 8 values under one key: bound grows only to ceil(log2(16)),
        # so the constraint now fails.
        db.insert_many("R", [(1, 50 + i) for i in range(8)])
        assert not db.satisfies()


class TestFetch:
    def test_fetch_returns_xy_projections(self, schema, aschema):
        db = Database(schema, aschema)
        db.insert_many("R", [(1, "a"), (1, "b"), (2, "c")])
        rows = db.fetch(aschema.constraints[0], (1,))
        assert sorted(rows) == [(1, "a"), (1, "b")]

    def test_fetch_missing_key(self, schema, aschema):
        db = Database(schema, aschema)
        assert db.fetch(aschema.constraints[0], (77,)) == []

    def test_fetch_empty_x(self, schema, aschema):
        db = Database(schema, aschema)
        db.insert_many("S", [("a",), ("b",)])
        rows = db.fetch(aschema.constraints[1], ())
        assert sorted(rows) == [("a",), ("b",)]

    def test_fetch_without_index_fails(self, schema):
        db = Database(schema)
        constraint = AccessConstraint("R", ("A",), ("B",), 2)
        with pytest.raises(ExecutionError, match="no index"):
            db.fetch(constraint, (1,))

    def test_structural_index_matching(self, schema, aschema):
        """A structurally equal (but distinct) constraint finds the index."""
        db = Database(schema, aschema)
        db.insert("R", (1, "a"))
        clone = AccessConstraint("R", ("A",), ("B",), 2)
        assert db.fetch(clone, (1,)) == [(1, "a")]

    def test_index_updates_on_insert_after_attach(self, schema, aschema):
        db = Database(schema, aschema)
        db.insert("R", (5, "z"))
        assert db.fetch(aschema.constraints[0], (5,)) == [(5, "z")]

    def test_mixed_key_batches_are_normalized(self, schema, aschema):
        db = Database(schema, aschema)
        db.insert_many("R", [(1, "a"), (2, "b")])
        constraint = aschema.constraints[0]
        assert db.fetch_many(constraint, [(1,), [2]]) == [[(1, "a")],
                                                          [(2, "b")]]
        assert sorted(db.fetch_flat(constraint, [[1], (2,)])) == \
            [(1, "a"), (2, "b")]

    @pytest.mark.parametrize("method", ["fetch_many", "fetch_flat"])
    def test_backend_type_error_is_not_retried(self, schema, aschema,
                                               method):
        """A backend's TypeError is a real error: the whole backend
        call (on procshard, an RPC fan-out) runs exactly once."""
        calls = []

        class Failing(MemoryBackend):
            def fetch_many(self, constraint, x_values):
                calls.append(list(x_values))
                raise TypeError("boom")

            fetch_flat = fetch_many

        db = Database(schema, aschema, backend=Failing(schema))
        with pytest.raises(TypeError, match="boom"):
            getattr(db, method)(aschema.constraints[0], [(1,), [2]])
        assert calls == [[(1,), (2,)]]


class TestWriteGenerations:
    def test_insert_bumps_generation_after_index_updates(
            self, schema, aschema):
        """A reader observing the post-write epoch must also see the new
        row in every index; otherwise a fetch cache could pin pre-write
        rows under the new epoch forever."""
        db = Database(schema, aschema)
        index = db._indexes_for("R")[0]
        observed = []
        original_add_coded = index.add_coded

        def recording_add_coded(coded_rows):
            observed.append(db.generation("R"))
            return original_add_coded(coded_rows)

        index.add_coded = recording_add_coded
        before = db.generation("R")
        db.insert("R", (1, "a"))
        assert observed == [before]
        assert db.generation("R") == before + 1

    def test_clear_bumps_generations_after_emptying_indexes(
            self, schema, aschema):
        db = Database(schema, aschema)
        db.insert("R", (1, "a"))
        before = db.generation("R")
        index = db._indexes_for("R")[0]
        observed = []
        original_remove_all = index.remove_all

        def recording_remove_all():
            observed.append(db.generation("R"))
            original_remove_all()

        index.remove_all = recording_remove_all
        db.clear()
        assert observed == [before]
        assert db.generation("R") == before + 1


class TestAccessIndex:
    """Distinct-Y counting, seen through the one cardinality check:
    ``R(A -> B)`` drops ``C``, so ``(1, "a", *)`` rows are witnesses of
    one projection and count once."""

    ROWS = [(1, "a", 0), (1, "a", 1), (1, "b", 0)]

    def _db(self, bound: int) -> Database:
        schema = Schema.from_dict({"R": ("A", "B", "C")})
        return Database(schema, AccessSchema(schema, [
            AccessConstraint("R", ("A",), ("B",), bound)]))

    def test_distinct_y_counting(self):
        db = self._db(2)
        db.insert_many("R", self.ROWS)
        assert db.satisfies()
        # One witness left: the projection, and its count, stay.
        db.delete("R", (1, "a", 0))
        assert db.satisfies()
        assert sorted(db.fetch(db.access_schema.constraints[0], (1,))) \
            == [(1, "a"), (1, "b")]

    def test_check_raises_on_distinct_y_over_bound(self):
        db = self._db(1)
        db.insert_many("R", self.ROWS)
        assert not db.satisfies()
        with pytest.raises(ConstraintViolation) as excinfo:
            db.check()
        assert excinfo.value.count == 2
