"""The durable engine: WAL recovery, kill-point truncation, snapshots,
durable generations, and service restart round-trips.

Every recovered state is compared against a :class:`MemoryBackend`
oracle that applied the same effective writes — as *sets*, never
ordered (disk iteration order carries no meaning).
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro import (AccessConstraint, AccessSchema, Database, Schema,
                   StorageError)
from repro.core import is_boundedly_evaluable
from repro.query import parse_query
from repro.service import (BoundedQueryService, CachingExecutor, FetchCache)
from repro.storage.disk import DiskBackend, disk_backend_factory, scan_frames
from repro.workload.accidents import AccidentScale, simple_accidents


@pytest.fixture
def schema():
    return Schema.from_dict({"R": ("A", "B", "C"), "S": ("D",)})


@pytest.fixture
def aschema(schema):
    return AccessSchema(schema, [
        AccessConstraint("R", ("A",), ("B", "C"), 8),
        AccessConstraint("S", (), ("D",), 16),
    ])


def open_db(schema, aschema, data_dir) -> Database:
    return Database(schema, aschema, backend=DiskBackend(schema, data_dir))


def state_of(backend, schema):
    return {name: set(backend.scan(name))
            for name in schema.relation_names()}


class TestReopenRecovery:
    def test_wal_only_round_trip(self, schema, aschema, tmp_path):
        db = open_db(schema, aschema, tmp_path)
        db.insert_many("R", [(i % 4, f"b{i}", i) for i in range(20)])
        db.insert_many("S", [("d1",), ("d2",)])
        db.delete_many("R", [(0, "b0", 0), (1, "b1", 1)])
        expected = state_of(db.backend, schema)
        generations = {name: db.generation(name)
                       for name in schema.relation_names()}
        db.backend.close()

        reopened = open_db(schema, aschema, tmp_path)
        assert state_of(reopened.backend, schema) == expected
        # Generations are durable and monotonic across the restart.
        for name, generation in generations.items():
            assert reopened.generation(name) == generation
        # The rebuilt indexes answer bounded fetches.
        constraint = aschema.constraints[0]
        assert set(reopened.fetch(constraint, (2,))) == \
            {row for row in expected["R"] if row[0] == 2}
        reopened.backend.close()

    def test_snapshot_plus_wal_tail(self, schema, aschema, tmp_path):
        db = open_db(schema, aschema, tmp_path)
        db.insert_many("R", [(i, f"pre{i}", i) for i in range(10)])
        db.backend.snapshot()
        db.insert_many("R", [(i, f"post{i}", i) for i in range(10, 15)])
        db.delete("R", (0, "pre0", 0))
        expected = state_of(db.backend, schema)
        db.backend.close()

        reopened = open_db(schema, aschema, tmp_path)
        assert state_of(reopened.backend, schema) == expected
        reopened.backend.close()

    def test_clear_is_durable(self, schema, aschema, tmp_path):
        db = open_db(schema, aschema, tmp_path)
        db.insert_many("R", [(1, "a", 1), (2, "b", 2)])
        generation = db.generation("R")
        db.clear()
        db.insert("S", ("kept",))
        db.backend.close()

        reopened = open_db(schema, aschema, tmp_path)
        assert state_of(reopened.backend, schema) == \
            {"R": set(), "S": {("kept",)}}
        assert reopened.generation("R") == generation + 1
        reopened.backend.close()

    def test_replaying_already_snapshotted_records_is_noop(
            self, schema, aschema, tmp_path):
        """A crash between publishing a snapshot and truncating the WAL
        re-applies snapshotted records on reopen — must converge."""
        db = open_db(schema, aschema, tmp_path)
        db.insert_many("R", [(1, "a", 1), (2, "b", 2)])
        pre_snapshot_wal = (tmp_path / "wal.log").read_bytes()
        db.backend.snapshot()
        expected = state_of(db.backend, schema)
        generations = {name: db.generation(name)
                       for name in schema.relation_names()}
        db.backend.close()
        # Simulate the un-truncated WAL the crash would leave behind.
        (tmp_path / "wal.log").write_bytes(pre_snapshot_wal)

        reopened = open_db(schema, aschema, tmp_path)
        assert state_of(reopened.backend, schema) == expected
        for name, generation in generations.items():
            assert reopened.generation(name) == generation
        reopened.backend.close()

    def test_orphaned_snapshot_dir_from_crash_is_replaced(
            self, schema, aschema, tmp_path):
        """A crash after the snapshot rename but before CURRENT was
        repointed leaves an unpublished snap dir; the next snapshot
        must replace it, not fail."""
        db = open_db(schema, aschema, tmp_path)
        db.insert("R", (1, "a", 1))
        orphan = tmp_path / "snap-000001"
        orphan.mkdir()
        (orphan / "garbage.seg").write_text("torn\n")
        snap = db.backend.snapshot()
        assert snap == orphan  # same id, rebuilt from live state
        assert not (orphan / "garbage.seg").exists()
        db.backend.close()

        reopened = open_db(schema, aschema, tmp_path)
        assert state_of(reopened.backend, schema)["R"] == {(1, "a", 1)}
        reopened.backend.close()


class TestKillPoints:
    """Truncate the WAL at *every* byte offset: the backend must open
    cleanly, replay exactly the complete records, discard the torn
    tail, and match a MemoryBackend oracle."""

    def _write_ops(self, schema, aschema, data_dir):
        """Three effective write batches; returns the expected row-set
        state after each prefix of batches (index 0 = empty)."""
        db = open_db(schema, aschema, data_dir)
        states = [state_of(db.backend, schema)]
        db.insert_many("R", [(1, "a", 1), (2, "b", 2)])
        states.append(state_of(db.backend, schema))
        db.insert_many("S", [("d1",)])
        states.append(state_of(db.backend, schema))
        db.delete("R", (1, "a", 1))
        states.append(state_of(db.backend, schema))
        db.backend.close()
        return states

    def test_every_truncation_point_recovers_a_record_prefix(
            self, schema, aschema, tmp_path):
        source = tmp_path / "source"
        states = self._write_ops(schema, aschema, source)
        wal_bytes = (source / "wal.log").read_bytes()
        record_ends = [i + 1 for i, byte in enumerate(wal_bytes)
                       if byte == ord("\n")]
        assert len(record_ends) == len(states) - 1

        for cut in range(len(wal_bytes) + 1):
            work = tmp_path / f"cut-{cut}"
            shutil.copytree(source, work)
            (work / "wal.log").write_bytes(wal_bytes[:cut])
            complete = sum(1 for end in record_ends if end <= cut)

            reopened = open_db(schema, aschema, work)
            assert state_of(reopened.backend, schema) == states[complete], \
                f"truncation at byte {cut}"
            # The torn tail is physically discarded: the WAL now ends
            # at the last intact record.
            expected_length = record_ends[complete - 1] if complete else 0
            assert (work / "wal.log").stat().st_size == expected_length
            # And the log accepts new records cleanly after recovery.
            reopened.insert("R", (7, "fresh", cut))
            reopened.backend.close()

            fresh = open_db(schema, aschema, work)
            assert (7, "fresh", cut) in set(fresh.relation_tuples("R"))
            fresh.backend.close()
            shutil.rmtree(work)

    def test_corrupt_byte_discards_record_and_everything_after(
            self, schema, aschema, tmp_path):
        source = tmp_path / "source"
        states = self._write_ops(schema, aschema, source)
        wal = source / "wal.log"
        wal_bytes = bytearray(wal.read_bytes())
        record_ends = [i + 1 for i, byte in enumerate(wal_bytes)
                       if byte == ord("\n")]
        # Flip one payload byte in the middle of the second record:
        # records two AND three must be discarded — nothing after a
        # damaged record can be trusted.
        middle = (record_ends[0] + record_ends[1]) // 2
        wal_bytes[middle] ^= 0xFF
        wal.write_bytes(bytes(wal_bytes))

        reopened = open_db(schema, aschema, source)
        assert state_of(reopened.backend, schema) == states[1]
        assert (source / "wal.log").stat().st_size == record_ends[0]
        reopened.backend.close()

    def test_scan_frames_reports_valid_prefix(self, tmp_path):
        path = tmp_path / "frames.log"
        backend = DiskBackend(Schema.from_dict({"R": ("A",)}), tmp_path)
        backend.insert_rows("R", [(1,), (2,)])
        backend.close()
        records, valid = scan_frames(tmp_path / "wal.log")
        assert records == [["i", "R", 1, [[1], [2]]]]
        assert valid == (tmp_path / "wal.log").stat().st_size
        path.write_bytes(b"deadbeef not-json\n")
        assert scan_frames(path) == ([], 0)

    def test_scan_frame_bytes_matches_scan_frames(self, tmp_path):
        """The byte-range scanner (what replication ships) and the file
        scanner (what recovery reads) are the same function."""
        from repro.storage.disk import scan_frame_bytes
        backend = DiskBackend(Schema.from_dict({"R": ("A",)}), tmp_path)
        backend.insert_rows("R", [(1,), (2,)])
        backend.delete_rows("R", [(1,)])
        backend.close()
        data = (tmp_path / "wal.log").read_bytes()
        assert scan_frame_bytes(data) == scan_frames(tmp_path / "wal.log")
        # A torn suffix is invisible to both.
        assert scan_frame_bytes(data + b"08x torn") == \
            (scan_frame_bytes(data)[0], len(data))


def wal_bootstrap_payload(backend: DiskBackend, aschema) -> dict:
    """A WAL-only replica bootstrap payload (no snapshot yet) — the
    shape ProcessShardedBackend._bootstrap_replica ships."""
    specs = []
    for cid, constraint in enumerate(aschema):
        index = backend._indexes[id(constraint)]
        specs.append((cid, constraint.relation_name,
                      list(index.x_positions), list(index.y_positions)))
    return {"segments": {},
            "generations": {name: 0
                            for name in backend.schema.relation_names()},
            "wal": b"", "values": backend.dictionary.values_from(0),
            "specs": specs, "snapshot_id": backend._snapshot_id}


class TestReplicationKillPoints:
    """The kill-point harness pointed at WAL *shipping*: a replica fed
    a chunk torn at any byte must land in exactly the state a crashed
    writer would recover to at the same truncation point, and converge
    once the remainder arrives."""

    def test_torn_ship_equals_torn_recovery_at_every_offset(
            self, schema, aschema, tmp_path):
        from repro.storage.procshard import ReplicaState
        source = tmp_path / "source"
        states = TestKillPoints()._write_ops(schema, aschema, source)
        wal_bytes = (source / "wal.log").read_bytes()
        record_ends = [i + 1 for i, byte in enumerate(wal_bytes)
                       if byte == ord("\n")]
        reference = DiskBackend(schema, source)
        reference.attach_access_schema(aschema)
        # A live coordinator's dictionary is append-only, so it still
        # holds codes for rows deleted before the ship; the recovered
        # reference dropped them — re-encode the full WAL history.
        for record in scan_frames(source / "wal.log")[0]:
            if record[0] in ("i", "d"):
                for row in record[3]:
                    reference.dictionary.encode_row(tuple(row))
        payload = wal_bootstrap_payload(reference, aschema)

        for cut in range(len(wal_bytes) + 1):
            complete = sum(1 for end in record_ends if end <= cut)
            replica = ReplicaState()
            replica.bootstrap(payload)
            first = replica.apply_wal(wal_bytes[:cut], [])
            # Consumed exactly the intact prefix — byte-identical to
            # what recovery would keep after a crash at this offset.
            assert first["consumed"] == \
                (record_ends[complete - 1] if complete else 0)
            assert {name: set(store)
                    for name, store in replica.stores.items()} == \
                states[complete], f"shipping torn at byte {cut}"
            # The re-shipped remainder completes the log.
            replica.apply_wal(wal_bytes[first["consumed"]:], [])
            assert {name: set(store)
                    for name, store in replica.stores.items()} == \
                states[-1]
        reference.close()

    def test_generations_monotone_across_replica_fleet(
            self, schema, aschema, tmp_path):
        """Replicas at different ship offsets order by generation: the
        further-shipped replica's generation map dominates, and no
        replica ever exceeds the writer."""
        from repro.storage.procshard import ReplicaState
        source = tmp_path / "source"
        TestKillPoints()._write_ops(schema, aschema, source)
        wal_bytes = (source / "wal.log").read_bytes()
        record_ends = [i + 1 for i, byte in enumerate(wal_bytes)
                       if byte == ord("\n")]
        reference = DiskBackend(schema, source)
        reference.attach_access_schema(aschema)
        for record in scan_frames(source / "wal.log")[0]:
            if record[0] in ("i", "d"):  # append-only writer dictionary
                for row in record[3]:
                    reference.dictionary.encode_row(tuple(row))
        payload = wal_bootstrap_payload(reference, aschema)

        fleet = []
        for end in [0, *record_ends]:
            replica = ReplicaState()
            replica.bootstrap(payload)
            replica.apply_wal(wal_bytes[:end], [])
            fleet.append(replica)
        for behind, ahead in zip(fleet, fleet[1:]):
            for name in schema.relation_names():
                assert behind.generations[name] <= ahead.generations[name]
        assert fleet[-1].generations == reference._generations
        reference.close()


class TestDurabilityContract:
    def test_non_durable_value_rejected_before_any_mutation(
            self, schema, aschema, tmp_path):
        db = open_db(schema, aschema, tmp_path)
        db.insert("R", (1, "ok", 1))
        with pytest.raises(StorageError, match="JSON scalars"):
            db.insert("R", (2, ("a", "tuple"), 2))
        # Neither the store, the WAL, nor the generation moved.
        assert state_of(db.backend, schema)["R"] == {(1, "ok", 1)}
        assert db.generation("R") == 1
        db.backend.close()
        reopened = open_db(schema, aschema, tmp_path)
        assert state_of(reopened.backend, schema)["R"] == {(1, "ok", 1)}
        reopened.backend.close()

    def test_one_live_backend_per_directory(self, schema, tmp_path):
        """A second opener would later truncate a WAL the first is
        still appending to — the directory lock refuses it up front."""
        first = DiskBackend(schema, tmp_path)
        with pytest.raises(StorageError, match="already open"):
            DiskBackend(schema, tmp_path)
        first.close()
        second = DiskBackend(schema, tmp_path)  # released on close
        second.close()

    def test_snapshot_on_closed_backend_refuses(self, schema, tmp_path):
        backend = DiskBackend(schema, tmp_path)
        backend.insert_rows("R", [(1, "a", 1)])
        backend.close()
        with pytest.raises(StorageError, match="closed backend"):
            backend.snapshot()
        # The successor's WAL is intact.
        reopened = DiskBackend(schema, tmp_path)
        assert set(reopened.scan("R")) == {(1, "a", 1)}
        reopened.close()

    def test_write_on_closed_backend_refuses(self, schema, aschema,
                                             tmp_path):
        db = open_db(schema, aschema, tmp_path)
        db.insert("R", (1, "a", 1))
        generation = db.generation("R")
        db.backend.close()
        for write in (lambda: db.insert("R", (2, "b", 2)),
                      lambda: db.delete("R", (1, "a", 1)),
                      db.backend.clear):
            with pytest.raises(StorageError,
                               match="closed backend.*reopen the directory"):
                write()
        # Rows and generations are exactly as they were at close.
        assert state_of(db.backend, schema)["R"] == {(1, "a", 1)}
        assert db.generation("R") == generation
        reopened = open_db(schema, aschema, tmp_path)
        assert state_of(reopened.backend, schema)["R"] == {(1, "a", 1)}
        reopened.backend.close()

    def test_mismatched_schema_directory_is_actionable(self, schema,
                                                       tmp_path):
        backend = DiskBackend(schema, tmp_path)
        backend.insert_rows("R", [(1, "a", 1)])
        backend.snapshot()
        backend.close()
        other = Schema.from_dict({"Q": ("Z",)})
        with pytest.raises(StorageError, match="same schema"):
            DiskBackend(other, tmp_path)

    def test_damaged_manifest_is_actionable(self, schema, tmp_path):
        backend = DiskBackend(schema, tmp_path)
        backend.insert_rows("R", [(1, "a", 1)])
        name = backend.snapshot().name
        backend.close()
        manifest = tmp_path / name / "manifest.json"
        manifest.write_text(json.dumps({"format": 99}))
        with pytest.raises(StorageError, match="unsupported manifest"):
            DiskBackend(schema, tmp_path)
        manifest.unlink()
        with pytest.raises(StorageError, match="missing"):
            DiskBackend(schema, tmp_path)


class TestServiceRestart:
    def _service_schema(self):
        schema = Schema.from_dict({"R": ("A", "B")})
        aschema = AccessSchema(schema, [
            AccessConstraint("R", ("A",), ("B",), 64)])
        return schema, aschema

    def test_round_trips_identical_answers_with_cold_caches(self, tmp_path):
        schema, aschema = self._service_schema()
        db = open_db(schema, aschema, tmp_path)
        db.insert_many("R", [(1, i) for i in range(10)] + [(2, 99)])
        service = BoundedQueryService(db)
        query = "Q(y) :- R(x, y), x = 1"
        first = service.execute(query)
        warm = service.execute(query)
        assert warm.stats.tuples_fetched == 0  # served from the cache
        db.insert("R", (1, 10))
        before_restart = service.execute(query)
        assert before_restart.answers == first.answers | {(10,)}
        db.backend.close()

        restarted = open_db(schema, aschema, tmp_path)
        revived = BoundedQueryService(restarted)
        cold = revived.execute(query)
        assert cold.answers == before_restart.answers
        # The revived service's caches are genuinely cold: the first
        # request compiled a plan and fetched from storage, not from
        # any cache.
        assert not cold.plan_cached
        assert cold.stats.tuples_fetched > 0
        assert cold.stats.fetch_cache_hits == 0
        restarted.backend.close()

    def test_durable_generations_invalidate_a_surviving_cache(
            self, tmp_path):
        """Generations are monotonic across restarts, so even a fetch
        cache that outlives the process (simulated here by reusing the
        object, still subscribed to the closed engine) can never serve
        pre-restart rows for a post-restart write epoch: its epoch
        stays at a pre-restart generation."""
        schema, aschema = self._service_schema()
        db = open_db(schema, aschema, tmp_path)
        db.insert_many("R", [(1, 0), (1, 1)])
        plan = is_boundedly_evaluable(
            parse_query("Q(y) :- R(x, y), x = 1"), aschema).witness["plan"]
        cache = FetchCache(capacity=64)
        cache.attach_maintenance(db)
        executor = CachingExecutor(db, cache)
        assert executor.execute(plan).answers == {(0,), (1,)}
        assert len(cache) == 1
        db.backend.close()

        restarted = open_db(schema, aschema, tmp_path)
        restarted.insert("R", (1, 2))  # post-restart write epoch
        result = CachingExecutor(restarted, cache).execute(plan)
        assert result.answers == {(0,), (1,), (2,)}
        assert result.stats.fetch_cache_hits == 0
        restarted.backend.close()


class TestWorkloadFactory:
    def test_accidents_build_straight_onto_disk_and_recover(self, tmp_path):
        scale = AccidentScale(days=3, max_accidents_per_day=4)
        disk_db = simple_accidents(
            scale, backend_factory=disk_backend_factory(tmp_path))
        oracle = simple_accidents(scale)
        assert disk_db.backend.describe().startswith("disk(")
        assert disk_db.summary() == oracle.summary()
        disk_db.backend.close()

        reopened = Database(oracle.schema, oracle.access_schema,
                            backend=DiskBackend(oracle.schema, tmp_path))
        for name in oracle.schema.relation_names():
            assert set(reopened.relation_tuples(name)) == \
                set(oracle.relation_tuples(name))
        reopened.backend.close()

    def test_a_generated_instance_loads_in_one_wal_record_per_relation(
            self, tmp_path):
        """The generator bulk-loads: one write, so one WAL record, per
        relation, and the reopened directory holds the same rows in the
        same per-relation order."""
        scale = AccidentScale(days=4, max_accidents_per_day=6)
        disk_db = simple_accidents(
            scale, backend_factory=disk_backend_factory(tmp_path))
        counters = disk_db.backend.counters()
        assert counters["wal_records_total"] == 3
        assert [record[:3] for record in scan_frames(
            tmp_path / "wal.log")[0]] == [
            ["i", name, 1] for name in disk_db.schema.relation_names()]
        loaded = {name: disk_db.relation_tuples(name)
                  for name in disk_db.schema.relation_names()}
        disk_db.backend.close()

        reopened = DiskBackend(disk_db.schema, tmp_path)
        assert reopened.counters()["replay_records_total"] == 3
        assert {name: reopened.scan(name) for name in loaded} == loaded
        reopened.close()
