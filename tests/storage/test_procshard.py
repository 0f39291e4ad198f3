"""Process-sharded storage: the code-space worker protocol, WAL-shipped
replicas (driven in-process against a MemoryBackend oracle) and the
coordinator's failure handling (worker death, replica staleness,
writer compaction).

The backend-conformance suite in ``test_backend.py`` already runs the
full contract against a live ``procshard`` fleet; this file covers
what conformance cannot see — the wire protocol itself and the
recovery/replication edges.
"""

from __future__ import annotations

import tempfile
import threading
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import AccessConstraint, AccessSchema, Schema
from repro.errors import StorageError
from repro.storage.backend import MemoryBackend
from repro.storage.disk import DiskBackend
from repro.storage.encoding import ValueDictionary
from repro.storage.indexes import AccessIndex, gather_codes
from repro.storage.procshard import (CodeIndex, ProcessShardedBackend,
                                     ReplicaState, WorkerState)
from repro.storage.procshard.replica import ReplicaError


@pytest.fixture
def schema():
    return Schema.from_dict({"R": ("A", "B", "C"), "S": ("D",)})


@pytest.fixture
def aschema(schema):
    return AccessSchema(schema, [
        AccessConstraint("R", ("A",), ("B", "C"), 64),
        AccessConstraint("S", (), ("D",), 64),
    ])


def norm_flat(result):
    """(columns, length) -> a sorted row list, order-free comparison."""
    cols, length = result
    if not cols or not length:
        return length
    return sorted(zip(*[list(col) for col in cols]))


def norm_many(results):
    return [norm_flat(entry) for entry in results]


ROWS = [(i % 7, i, i * 2) for i in range(60)]


def procshard(schema, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("fanout_threshold", 0)
    return ProcessShardedBackend(schema, **kwargs)


def oracle(schema, aschema, rows=ROWS):
    backend = MemoryBackend(schema)
    backend.attach_access_schema(aschema)
    backend.insert_rows("R", rows)
    return backend


def witnesses(index: CodeIndex) -> Counter:
    """Each stored ``X∪Y`` code row of a :class:`CodeIndex`, counted by
    its witness rows."""
    counts: Counter = Counter()
    x_len = index.x_len
    for group in index.encoded.values():
        assert len({len(column) for column in group.cols}) == 1
        extra = group.extra or {}
        for row in zip(*group.cols):
            y_key = row[x_len] if index.scalar_y else row[x_len:]
            counts[row] = 1 + extra.get(y_key, 0)
    return counts


class TestCodeIndex:
    """One witness-counted code-group index serves the in-process
    engines (inside AccessIndex), the shard workers and the replicas,
    all read by the same ``gather_codes``."""

    def _pair(self, schema):
        constraint = AccessConstraint("R", ("A",), ("B", "C"), 64)
        relation = constraint.validate_against(schema)
        dictionary = ValueDictionary()
        access = AccessIndex(constraint, relation, dictionary)
        code = CodeIndex(x_len=1, width=3)
        return access, code, dictionary

    def _fill(self, access, code, dictionary, rows):
        for row in rows:
            coded = dictionary.encode_row(row)
            access.add(row, coded)
            code.add(tuple(coded))

    @given(ops=st.lists(st.tuples(st.booleans(),
                                  st.tuples(st.integers(0, 2),
                                            st.integers(0, 1),
                                            st.integers(0, 3))),
                        max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_every_user_of_the_index_matches_a_row_set_model(self, ops):
        """Random inserts and deletes on a small domain, applied to a
        disk writer (its indexes are the memory engine's), a shard
        worker fed the coordinator's shipments and a replica fed the
        writer's WAL.  After every write each one's code groups hold
        exactly the distinct projections of the model's rows, each with
        as many witnesses as model rows produce it, and all three
        answer a read of every key alike.  ``R(A -> B)`` and
        ``R(B -> A)`` drop ``C``, so witness counts exceed 1."""
        schema = Schema.from_dict({"R": ("A", "B", "C")})
        relation = schema.relation("R")
        access = AccessSchema(schema, [
            AccessConstraint("R", ("A",), ("B",), 64),
            AccessConstraint("R", ("B",), ("A",), 64),
            AccessConstraint("R", ("C",), ("B", "A"), 64),
        ])
        layouts = [constraint.x_positions(relation)
                   + constraint.y_positions(relation)
                   for constraint in access]
        with tempfile.TemporaryDirectory() as data_dir:
            writer = DiskBackend(schema, data_dir)
            writer.attach_access_schema(access)
            dictionary = writer.dictionary
            worker = WorkerState()
            worker.handle(("attach", [
                (cid, len(constraint.x), len(layout))
                for cid, (constraint, layout)
                in enumerate(zip(access, layouts))], {}, []))
            replica = ReplicaState()
            replica.bootstrap({
                "segments": {}, "generations": {"R": 0}, "wal": b"",
                "values": [], "snapshot_id": 0,
                "specs": [(cid, "R", list(constraint.x_positions(relation)),
                           list(constraint.y_positions(relation)))
                          for cid, constraint in enumerate(access)]})
            model: set = set()
            shipped_values = wal_offset = 0
            for inserting, row in ops:
                effective = (row in model) != inserting
                write = writer.insert_rows if inserting \
                    else writer.delete_rows
                assert write("R", [row]) == effective
                if not effective:
                    continue
                (model.add if inserting else model.remove)(row)
                delta = dictionary.values_from(shipped_values)
                shipped_values += len(delta)
                coded = dictionary.encode_row(row)
                worker.handle(("write", [
                    (cid, not inserting, [tuple(coded[p] for p in layout)])
                    for cid, layout in enumerate(layouts)], delta))
                wal = writer._wal_path.read_bytes()[wal_offset:]
                wal_offset += replica.apply_wal(wal, delta)["consumed"]
                for cid, (constraint, layout) in enumerate(
                        zip(access, layouts)):
                    expected = Counter(
                        tuple(dictionary.encode(row[p]) for p in layout)
                        for row in model)
                    users = (writer._indexes[id(constraint)].codes,
                             worker.indexes[cid],
                             replica.indexes[cid][2])
                    for index in users:
                        assert witnesses(index) == expected, constraint
                    keys = list(users[0].encoded)
                    answers = [gather_codes(index.encoded, index.width, keys)
                               for index in users]
                    assert answers[1:] == answers[:1] * 2
            writer.close()

    @given(ops=st.lists(st.tuples(st.booleans(),
                                  st.tuples(*[st.integers(0, 2)] * 4)),
                        max_size=60),
           shuffle=st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_live_groups_equal_a_rebuild_from_the_surviving_rows(
            self, ops, shuffle):
        """Random adds and removes of stored ``(A, B, C, D)`` code rows,
        then a :class:`CodeIndex` rebuilt from the survivors in shuffled
        order: every group's columns are bit-exact and its witness
        counts equal, whatever the write history.  ``A -> B`` and
        ``A -> (C, B)`` drop columns, so projections have several
        witnesses; the second has ``|Y| > 1`` in non-schema order, and
        ``() -> (B, D)`` keeps every row in one group."""
        layouts = [((0,), (1,)), ((0,), (2, 1)), ((), (1, 3))]
        live = [(CodeIndex(len(x), len(x) + len(y)), (*x, *y))
                for x, y in layouts]
        model: set = set()
        for inserting, row in ops:
            if (row in model) == inserting:
                continue  # stores apply only effective writes
            (model.add if inserting else model.remove)(row)
            for index, layout in live:
                projected = tuple(row[p] for p in layout)
                (index.add if inserting else index.remove)(projected)
        survivors = list(model)
        shuffle.shuffle(survivors)
        for index, layout in live:
            rebuilt = CodeIndex(index.x_len, index.width)
            for row in survivors:
                rebuilt.add(tuple(row[p] for p in layout))
            assert index.encoded.keys() == rebuilt.encoded.keys()
            for key, group in index.encoded.items():
                other = rebuilt.encoded[key]
                assert list(map(bytes, group.cols)) == \
                    list(map(bytes, other.cols)), (layout, key)
                assert group.extra == other.extra, (layout, key)
            assert witnesses(index) == Counter(
                tuple(row[p] for p in layout) for row in model)

    def test_witness_counts_survive_projection_collapse(self, schema):
        access, code, dictionary = self._pair(schema)
        # Two distinct rows that collapse onto one group under a (2,)
        # projection — the witness count is what keeps the projected
        # group alive when only one of them is deleted.
        rows = [(1, "a", 10), (1, "b", 10)]
        self._fill(access, code, dictionary, rows)
        key = dictionary.encode(1)
        assert gather_codes(code.encoded, 3, [key], (2,), True) == \
            gather_codes(access.encoded, 3, [key], (2,), True)
        # Removing one witness must not drop the projected group.
        coded = dictionary.encode_row((1, "a", 10))
        access.remove_coded([coded])
        code.remove(tuple(coded))
        got = gather_codes(code.encoded, 3, [key])
        assert got == gather_codes(access.encoded, 3, [key])
        assert got[1] == [1]

    def test_remove_last_witness_drops_group(self, schema):
        access, code, dictionary = self._pair(schema)
        self._fill(access, code, dictionary, [(1, "a", 10)])
        coded = tuple(dictionary.encode_row((1, "a", 10)))
        code.remove(coded)
        assert code.group_count() == 0
        assert gather_codes(code.encoded, 3,
                            [dictionary.encode(1)]) == ([array("q")] * 3, [0])
        # Removing a never-added row is a no-op, not an error.
        code.remove(coded)


class TestWorkerProtocol:
    """Drive WorkerState.handle in-process: requests and replies are
    exactly what crosses the pipe."""

    def _attached(self):
        state = WorkerState()
        # cid 0: R with |X|=1, width 3.
        state.handle(("attach", [(0, 1, 3)], {0: [(1, 2, 3), (1, 4, 5)]},
                      ["v0", "v1"]))
        return state

    def test_attach_then_fetch(self):
        state = self._attached()
        cols, counts = state.handle(("read", 0, [1, 9, 1], None, False))
        assert counts == [2, 0, 2]
        assert sorted(zip(*[list(c) for c in cols])) == \
            [(1, 2, 3), (1, 2, 3), (1, 4, 5), (1, 4, 5)]
        cols, counts = state.handle(("read", 0, [1], (2,), False))
        assert (sorted(cols[0]), counts) == ([3, 5], [2])

    def test_write_applies_delta_and_ops(self):
        state = self._attached()
        state.handle(("write", [(0, False, [(7, 8, 9)])], ["v2"]))
        assert state.values == ["v0", "v1", "v2"]
        assert state.handle(("read", 0, [7], None, False))[1] == [1]
        state.handle(("write", [(0, True, [(7, 8, 9)])], []))
        assert state.handle(("read", 0, [7], None, False))[1] == [0]

    def test_clear_and_stats(self):
        state = self._attached()
        stats = state.handle(("stats",))
        assert stats == {"constraints": 1, "dictionary_size": 2,
                         "groups": 1}
        state.handle(("clear",))
        assert state.handle(("stats",))["groups"] == 0
        assert state.handle(("ping",)) == "pong"

    def test_unknown_op_is_an_error(self):
        with pytest.raises(ValueError, match="unknown worker op"):
            WorkerState().handle(("warp-core-breach",))


def disk_fixture(schema, aschema, tmp_path, rows=ROWS):
    backend = DiskBackend(schema, tmp_path / "writer")
    backend.attach_access_schema(aschema)
    backend.insert_rows("R", rows)
    return backend


def bootstrap_payload(backend: DiskBackend, aschema, *,
                      after_snapshot: bool) -> dict:
    """Build the coordinator's bootstrap payload by hand, from the
    writer's real on-disk state — the same bytes _bootstrap_replica
    ships."""
    import json
    if after_snapshot:
        current = (backend.data_dir / "CURRENT").read_text().strip()
        snap_dir = backend.data_dir / current
        manifest = json.loads((snap_dir / "manifest.json").read_text())
        segments = {name: (snap_dir / f"{name}.seg").read_bytes()
                    for name in backend.schema.relation_names()}
        generations = manifest["generations"]
    else:
        segments = {}
        generations = {name: 0 for name in backend.schema.relation_names()}
    wal = (backend._wal_path.read_bytes()
           if backend._wal_path.is_file() else b"")
    specs = []
    for cid, constraint in enumerate(aschema):
        index = backend._indexes[id(constraint)]
        specs.append((cid, constraint.relation_name,
                      list(index.x_positions), list(index.y_positions)))
    return {"segments": segments, "generations": generations,
            "wal": wal, "values": backend.dictionary.values_from(0),
            "specs": specs, "snapshot_id": backend._snapshot_id}


class TestReplicaState:
    """The replication protocol, driven file-free and process-free
    against the writer's real WAL bytes and a MemoryBackend oracle."""

    def test_bootstrap_from_wal_only(self, schema, aschema, tmp_path):
        writer = disk_fixture(schema, aschema, tmp_path)
        replica = ReplicaState()
        result = replica.bootstrap(
            bootstrap_payload(writer, aschema, after_snapshot=False))
        assert result["generations"] == writer._generations
        assert sorted(replica.stores["R"]) == sorted(ROWS)
        assert result["wal_offset"] == writer._wal_path.stat().st_size
        writer.close()

    def test_bootstrap_from_snapshot_plus_tail(self, schema, aschema,
                                               tmp_path):
        writer = disk_fixture(schema, aschema, tmp_path)
        writer.snapshot()
        tail_rows = [(100 + i, i, i) for i in range(10)]
        writer.insert_rows("R", tail_rows)
        writer.delete_rows("R", ROWS[:5])
        replica = ReplicaState()
        replica.bootstrap(
            bootstrap_payload(writer, aschema, after_snapshot=True))
        assert sorted(replica.stores["R"]) == sorted(writer.scan("R"))
        assert replica.generations == writer._generations
        assert replica.snapshot_id == writer._snapshot_id == 1
        writer.close()

    def test_generation_monotonicity_and_convergent_reapply(
            self, schema, aschema, tmp_path):
        """Re-shipping an already-applied byte range must be a no-op
        (membership checks make application convergent) and can never
        move a generation backwards."""
        writer = disk_fixture(schema, aschema, tmp_path, rows=ROWS[:10])
        wal = writer._wal_path.read_bytes()
        replica = ReplicaState()
        replica.bootstrap(
            bootstrap_payload(writer, aschema, after_snapshot=False))
        before = dict(replica.generations)
        rows_before = sorted(replica.stores["R"])
        replica.apply_wal(wal, [])  # the whole log, again
        assert replica.generations == before
        assert sorted(replica.stores["R"]) == rows_before
        writer.close()

    def test_missed_dictionary_delta_is_a_replica_error(
            self, schema, aschema, tmp_path):
        writer = disk_fixture(schema, aschema, tmp_path, rows=ROWS[:5])
        replica = ReplicaState()
        replica.bootstrap(
            bootstrap_payload(writer, aschema, after_snapshot=False))
        offset = writer._wal_path.stat().st_size
        writer.insert_rows("R", [(999, "unseen-value", 1)])
        chunk = writer._wal_path.read_bytes()[offset:]
        with pytest.raises(ReplicaError, match="re-bootstrap"):
            replica.apply_wal(chunk, [])  # delta withheld on purpose
        writer.close()

    def test_clear_record_replicates(self, schema, aschema, tmp_path):
        writer = disk_fixture(schema, aschema, tmp_path, rows=ROWS[:8])
        replica = ReplicaState()
        replica.bootstrap(
            bootstrap_payload(writer, aschema, after_snapshot=False))
        offset = writer._wal_path.stat().st_size
        writer.clear()
        chunk = writer._wal_path.read_bytes()[offset:]
        replica.apply_wal(chunk, [])
        assert not replica.stores["R"]
        assert replica.generations == writer._generations
        writer.close()

    def test_bootstrap_replays_rows_whose_values_were_never_interned(
            self, schema, aschema, tmp_path):
        """S rows written and cleared while S had no index were never
        interned by the writer; a later schema indexing S must still
        bootstrap, from the rows that survive."""
        r_only = AccessSchema(schema, [aschema.constraints[0]])
        writer = disk_fixture(schema, r_only, tmp_path, rows=ROWS[:3])
        writer.insert_rows("S", [("never-interned",)])
        writer.clear()
        writer.insert_rows("R", ROWS[3:5])
        writer.attach_access_schema(aschema)
        assert "never-interned" not in writer.dictionary
        replica = ReplicaState()
        replica.bootstrap(
            bootstrap_payload(writer, aschema, after_snapshot=False))
        assert sorted(replica.stores["R"]) == sorted(ROWS[3:5])
        assert not replica.stores["S"]
        assert witnesses(replica.indexes[0][2]) == witnesses(
            writer._indexes[id(aschema.constraints[0])].codes)
        writer.close()


class TestProcessShardedBackend:
    """End-to-end coordinator behaviour that conformance cannot reach:
    routing decisions, worker death, replica staleness and compaction."""

    def test_small_batches_stay_local(self, schema, aschema):
        backend = procshard(schema, fanout_threshold=1000)
        backend.attach_access_schema(aschema)
        backend.insert_rows("R", ROWS)
        constraint = aschema.constraints[0]
        keys = [backend.dictionary.encode(k) for k in range(7)]
        want = norm_flat(oracle(schema, aschema).fetch_flat_encoded(
            aschema.constraints[0], keys))
        assert norm_flat(backend.fetch_flat_encoded(constraint, keys)) \
            == want
        counters = backend.counters()
        assert counters["local_reads_total"] >= 1
        assert counters["worker_reads_total"] == 0
        backend.close()

    def test_bulk_batches_fan_out_and_match_oracle(self, schema, aschema):
        backend = procshard(schema)
        backend.attach_access_schema(aschema)
        backend.insert_rows("R", ROWS)
        truth = oracle(schema, aschema)
        constraint = aschema.constraints[0]
        keys = [backend.dictionary.encode(k) for k in range(7)]
        assert norm_flat(backend.fetch_flat_encoded(constraint, keys)) \
            == norm_flat(truth.fetch_flat_encoded(constraint, keys))
        assert norm_many(backend.fetch_many_encoded(constraint, keys)) \
            == norm_many(truth.fetch_many_encoded(constraint, keys))
        counters = backend.counters()
        assert counters["worker_reads_total"] == 2
        assert counters["rpc_requests_total"] > 0
        assert counters["rpc_bytes_shipped_total"] > 0
        assert counters["rpc_bytes_received_total"] > 0
        backend.close()

    def test_worker_death_respawns_and_rebuilds(self, schema, aschema):
        backend = procshard(schema)
        backend.attach_access_schema(aschema)
        backend.insert_rows("R", ROWS)
        truth = oracle(schema, aschema)
        constraint = aschema.constraints[0]
        keys = [backend.dictionary.encode(k) for k in range(7)]
        backend._worker_peers[0].process.kill()
        backend._worker_peers[0].process.join()
        assert norm_flat(backend.fetch_flat_encoded(constraint, keys)) \
            == norm_flat(truth.fetch_flat_encoded(constraint, keys))
        # Death mid-write: the retried shipment lands on the rebuilt
        # worker without double-applying.
        backend._worker_peers[1].process.kill()
        backend._worker_peers[1].process.join()
        extra = [(5, 7777, 0)]
        backend.insert_rows("R", extra)
        truth.insert_rows("R", extra)
        assert norm_flat(backend.fetch_flat_encoded(constraint, keys)) \
            == norm_flat(truth.fetch_flat_encoded(constraint, keys))
        assert backend.counters()["worker_respawns_total"] == 2
        assert backend.gauges()["workers_alive"] == 2
        backend.close()

    def test_gauges_and_histograms_shape(self, schema, aschema):
        backend = procshard(schema)
        backend.attach_access_schema(aschema)
        gauges = backend.gauges()
        assert gauges["workers_alive"] == 2
        assert gauges["replicas_alive"] == 0
        assert gauges["dictionary_bytes"] > 0
        names = [h.name for h in backend.histograms()]
        assert names == ["repro_storage_rpc_roundtrip_seconds"]
        backend.close()

    def test_storage_collector_adopts_rpc_instruments(self, schema,
                                                      aschema):
        from repro.obs import MetricsRegistry, attach_storage_collector
        backend = procshard(schema)
        backend.attach_access_schema(aschema)
        backend.insert_rows("R", ROWS)
        registry = MetricsRegistry()
        attach_storage_collector(registry, backend)
        keys = [backend.dictionary.encode(k) for k in range(7)]
        backend.fetch_flat_encoded(aschema.constraints[0], keys)
        flat = registry.as_flat_dict()
        assert flat["repro_storage_rpc_requests_total"] > 0
        assert flat["repro_storage_dictionary_bytes"] > 0
        assert flat["repro_storage_workers_alive"] == 2
        assert flat["repro_storage_rpc_roundtrip_seconds_count"] > 0
        backend.close()

    def test_snapshot_requires_durable_store(self, schema, aschema):
        backend = procshard(schema)
        with pytest.raises(StorageError, match="durable"):
            backend.snapshot()
        backend.close()


class TestReplicatedBackend:
    """Writer + live replica processes: staleness, catch-up, and the
    generation-epoch contract under concurrent writes."""

    def _replicated(self, schema, aschema, tmp):
        backend = ProcessShardedBackend(
            schema, workers=1, replicas=1, data_dir=tmp.name,
            fanout_threshold=0)
        backend._test_tmpdir = tmp  # pin the directory to the backend
        backend.attach_access_schema(aschema)
        return backend

    def test_replica_reads_identical_to_writer_across_writes(
            self, schema, aschema):
        tmp = tempfile.TemporaryDirectory(prefix="repro-procshard-")
        backend = self._replicated(schema, aschema, tmp)
        truth = MemoryBackend(schema)
        truth.attach_access_schema(aschema)
        constraint = aschema.constraints[0]
        for round_no in range(4):
            rows = [(i % 7, i + round_no * 1000, round_no)
                    for i in range(40)]
            backend.insert_rows("R", rows)
            truth.insert_rows("R", rows)
            keys = [backend.dictionary.encode(k) for k in range(7)]
            want = norm_flat(truth.fetch_flat_encoded(constraint, keys))
            # Cycle through every round-robin slot (writer + replica):
            # all of them must answer with the post-write state.
            for _ in range(backend.replicas + 1):
                assert norm_flat(backend.fetch_flat_encoded(
                    constraint, keys)) == want
        counters = backend.counters()
        assert counters["replica_reads_total"] > 0
        assert counters["replica_catchups_total"] > 0
        assert counters["replica_wal_bytes_shipped_total"] > 0
        assert backend.gauges()["replicas_alive"] == 1
        backend.close()

    def test_reattach_never_serves_rows_a_clear_removed(self, schema,
                                                        aschema):
        """The shrunk sequence of an intermittent conformance failure:
        R rows, S rows written while S had no index, a clear, then two
        attaches, the second indexing S.  The replica's bootstrap used
        to fail on the never-interned S values, and the replica served
        the half-replayed R rows the clear had removed."""
        tmp = tempfile.TemporaryDirectory(prefix="repro-procshard-")
        r_only = AccessSchema(schema, [aschema.constraints[0]])
        backend = self._replicated(schema, r_only, tmp)
        backend.insert_rows("R", ROWS[:3])
        backend.insert_rows("S", [("never-interned",)])
        backend.clear()
        backend.attach_access_schema(r_only)
        backend.attach_access_schema(aschema)
        constraint = aschema.constraints[0]
        keys = sorted({(row[0],) for row in ROWS[:3]})
        for _ in range(2 * (backend.replicas + 1)):
            assert backend.fetch_flat(constraint, keys) == []
        assert backend.counters()["replica_reads_total"] > 0
        backend.close()

    def test_writer_compaction_forces_replica_rebootstrap(
            self, schema, aschema):
        tmp = tempfile.TemporaryDirectory(prefix="repro-procshard-")
        backend = self._replicated(schema, aschema, tmp)
        backend.insert_rows("R", ROWS)
        constraint = aschema.constraints[0]
        keys = [backend.dictionary.encode(k) for k in range(7)]
        for _ in range(2):  # reach the replica slot at least once
            backend.fetch_flat_encoded(constraint, keys)
        boots_before = backend.counters()["replica_bootstraps_total"]
        backend.snapshot()  # truncates the WAL: shipped offsets die
        backend.insert_rows("R", [(3, 888888, 1)])
        truth = MemoryBackend(schema)
        truth.attach_access_schema(aschema)
        truth.insert_rows("R", ROWS + [(3, 888888, 1)])
        want = norm_flat(truth.fetch_flat_encoded(constraint, keys))
        for _ in range(backend.replicas + 1):
            assert norm_flat(backend.fetch_flat_encoded(
                constraint, keys)) == want
        assert backend.counters()["replica_bootstraps_total"] > \
            boots_before
        backend.close()

    def test_generation_epoch_under_concurrent_inserts(self, schema,
                                                       aschema):
        """The acceptance contract: while a writer thread inserts,
        every replica-served read must reflect a generation at least as
        fresh as the one the reader observed before fetching — rows can
        only ever appear *early*, never late."""
        tmp = tempfile.TemporaryDirectory(prefix="repro-procshard-")
        backend = self._replicated(schema, aschema, tmp)
        constraint = aschema.constraints[0]
        backend.insert_rows("R", [(1, 0, 0)])
        failures: list[str] = []
        stop = threading.Event()

        def writer():
            for i in range(1, 120):
                backend.insert_rows("R", [(1, i, 0)])
            stop.set()

        def reader():
            key = [backend.dictionary.encode(1)]
            while not failures:
                observed = backend._generations["R"]
                _, length = backend.fetch_flat_encoded(constraint, key)
                # Generation g published exactly g rows for X=1 (one
                # insert per generation): staleness would show as
                # length < observed.
                if length < observed:
                    failures.append(
                        f"read at generation {observed} returned "
                        f"{length} rows")
                if stop.is_set():
                    break

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader),
                   threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures, failures[:3]
        assert backend.counters()["replica_reads_total"] > 0
        backend.close()
