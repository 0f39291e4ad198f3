"""Process-sharded storage: the code-space worker protocol (driven
in-process against a MemoryBackend oracle) and the coordinator's
routing and failure handling (worker death, a durable writer's writes,
clears, compaction and concurrent inserts).

The backend-conformance suite in ``test_conformance.py`` already runs
the full contract against a live ``procshard`` fleet; this file covers
what conformance cannot see — the wire protocol itself and the
recovery edges.
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
from repro.storage.backend import MemoryBackend, make_backend
from repro.storage.disk import DiskBackend
from repro.storage.encoding import ValueDictionary
from repro.storage.indexes import AccessIndex, gather_codes
from repro.storage.procshard import (CodeIndex, ProcessShardedBackend,
                                     WorkerState)


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
    engines (inside AccessIndex) and the shard workers, both read by
    the same ``gather_codes``."""

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
        disk writer (its indexes are the memory engine's) and a shard
        worker fed the coordinator's shipments.  After every write each
        one's code groups hold exactly the distinct projections of the
        model's rows, each with as many witnesses as model rows produce
        it, and both answer a read of every key alike.  ``R(A -> B)`` and
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
            model: set = set()
            shipped_values = 0
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
                for cid, (constraint, layout) in enumerate(
                        zip(access, layouts)):
                    expected = Counter(
                        tuple(dictionary.encode(row[p]) for p in layout)
                        for row in model)
                    users = (writer._indexes[id(constraint)].codes,
                             worker.indexes[cid])
                    for index in users:
                        assert witnesses(index) == expected, constraint
                    keys = list(users[0].encoded)
                    answers = [gather_codes(index.encoded, index.width, keys)
                               for index in users]
                    assert answers[1] == answers[0]
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

    def test_attach_replaces_every_index_and_the_value_mirror(self):
        """A bootstrap is a full rebuild: constraint ids and rows of the
        previous attach are gone, not merged."""
        state = self._attached()
        state.handle(("attach", [(3, 0, 1)], {3: [(6,)]}, ["w0"]))
        assert state.values == ["w0"]
        assert set(state.indexes) == {3}
        with pytest.raises(KeyError):
            state.handle(("read", 0, [1], None, False))
        assert state.handle(("read", 3, [()], None, False))[1] == [1]

    def test_projected_read_with_dedup_collapses_equal_rows_per_key(self):
        state = self._attached()
        state.handle(("write", [(0, False, [(1, 2, 9), (8, 2, 9)])], []))
        cols, counts = state.handle(("read", 0, [1, 8], (1,), True))
        assert (list(cols[0]), counts) == ([2, 4, 2], [2, 1])
        cols, counts = state.handle(("read", 0, [1, 8], (1,), False))
        assert (sorted(cols[0]), counts) == ([2, 2, 2, 4], [3, 1])

    def test_write_to_an_unattached_constraint_is_an_error(self):
        with pytest.raises(KeyError):
            self._attached().handle(("write", [(5, False, [(1,)])], []))

    def _serve(self):
        """Run worker_main on a thread over a real pipe."""
        import multiprocessing

        from repro.storage.procshard.worker import worker_main
        parent, child = multiprocessing.Pipe()
        thread = threading.Thread(target=worker_main, args=(child,),
                                  daemon=True)
        thread.start()
        return parent, thread

    def test_worker_main_replies_err_and_keeps_serving(self):
        conn, thread = self._serve()
        conn.send(("read", 0, [1], None, False))  # nothing attached
        kind, message = conn.recv()
        assert kind == "err" and message.startswith("KeyError")
        conn.send(("ping",))
        assert conn.recv() == ("ok", "pong")
        conn.send(("stop",))
        assert conn.recv() == ("ok", True)
        thread.join(timeout=5.0)
        assert not thread.is_alive()

    def test_worker_main_returns_when_the_coordinator_goes_away(self):
        conn, thread = self._serve()
        conn.send(("ping",))
        assert conn.recv() == ("ok", "pong")
        conn.close()  # EOF on the worker's end
        thread.join(timeout=5.0)
        assert not thread.is_alive()


class TestProcessShardedBackend:
    """End-to-end coordinator behaviour that conformance cannot reach:
    routing decisions and worker death."""

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

    @pytest.mark.parametrize("knob", [
        "replicas", "retry_policy", "breaker_failure_threshold",
        "breaker_reset_after_s", "close_timeout_s"])
    def test_retired_constructor_knobs_are_refused(self, schema, knob):
        """Read replicas, their retry/breaker tuning and the close
        budget knob are gone; passing one is a TypeError, not a silent
        no-op (``close_timeout_s`` stays a class attribute)."""
        with pytest.raises(TypeError, match=knob):
            ProcessShardedBackend(schema, workers=1, **{knob: 1})
        with pytest.raises(TypeError, match=knob):
            make_backend("procshard", schema, workers=1, **{knob: 1})

    def test_writes_before_attach_ship_nothing_and_attach_bootstraps(
            self, schema, aschema):
        backend = procshard(schema)
        backend.insert_rows("R", ROWS)
        assert backend.counters()["rpc_requests_total"] == 0
        assert backend.gauges()["workers_alive"] == 0
        backend.attach_access_schema(aschema)
        constraint = aschema.constraints[0]
        keys = [backend.dictionary.encode(k) for k in range(7)]
        assert norm_flat(backend.fetch_flat_encoded(constraint, keys)) == \
            norm_flat(oracle(schema, aschema).fetch_flat_encoded(
                constraint, keys))
        assert backend.counters()["worker_reads_total"] == 1
        backend.close()

    def test_writes_without_effective_rows_ship_nothing(self, schema,
                                                        aschema):
        """Only a write's effective rows cross a pipe: re-inserting
        present rows or deleting absent ones sends no RPC and moves no
        generation."""
        backend = procshard(schema)
        backend.attach_access_schema(aschema)
        backend.insert_rows("R", ROWS)
        sent = backend.counters()["rpc_requests_total"]
        generation = backend.generation("R")
        assert backend.insert_rows("R", ROWS[:10]) == 0
        assert backend.delete_rows("R", [(99, 99, 99)]) == 0
        assert backend.counters()["rpc_requests_total"] == sent
        assert backend.generation("R") == generation
        backend.close()

    def test_replica_reads_total_is_reported_and_always_zero(
            self, schema, aschema):
        """The traced ledger runs sum this key into procshard's
        remote-read share, so it stays in the counters at 0."""
        backend = procshard(schema)
        backend.attach_access_schema(aschema)
        backend.insert_rows("R", ROWS)
        keys = [backend.dictionary.encode(k) for k in range(7)]
        backend.fetch_flat_encoded(aschema.constraints[0], keys)
        counters = backend.counters()
        assert counters["worker_reads_total"] == 1
        assert counters["replica_reads_total"] == 0
        backend.close()

    def test_describe_names_workers_store_and_threshold(self, schema,
                                                         tmp_path):
        backend = procshard(schema, workers=3, fanout_threshold=5,
                            data_dir=tmp_path)
        assert backend.describe().startswith(
            "procshard(workers=3, store=disk(")
        assert backend.describe().endswith("threshold=5)")
        backend.close()

    def _worker_stats(self, backend) -> list[dict]:
        return [backend._request(peer, ("stats",), 0)
                for peer in backend._worker_peers]

    def test_worker_value_mirrors_track_the_dictionary_across_respawns(
            self, schema, aschema):
        """Every write ships each worker the dictionary delta it has not
        seen; a respawned worker restarts from the full list, and the
        next delta continues from there."""
        backend = procshard(schema)
        backend.attach_access_schema(aschema)
        backend.insert_rows("R", ROWS)
        assert [s["dictionary_size"] for s in self._worker_stats(backend)] \
            == [len(backend.dictionary)] * 2
        backend._worker_peers[0].process.kill()
        backend._worker_peers[0].process.join()
        # Rows for both shards, values the dictionary has never held.
        fresh = [(k, f"new-{k}", -k) for k in range(7)]
        backend.insert_rows("R", fresh)
        backend.insert_rows("R", [(k, f"newer-{k}", 0) for k in range(7)])
        stats = self._worker_stats(backend)
        assert [s["dictionary_size"] for s in stats] == \
            [len(backend.dictionary)] * 2
        assert backend.counters()["worker_respawns_total"] == 1
        backend.close()

    def test_clear_empties_every_worker_shard(self, schema, aschema):
        backend = procshard(schema)
        backend.attach_access_schema(aschema)
        backend.insert_rows("R", ROWS)
        backend.insert_rows("S", [(1,), (2,)])
        assert all(s["groups"] > 0 for s in self._worker_stats(backend))
        backend.clear()
        assert [s["groups"] for s in self._worker_stats(backend)] == [0, 0]
        keys = [backend.dictionary.encode(k) for k in range(7)]
        assert backend.fetch_flat_encoded(aschema.constraints[0], keys)[1] \
            == 0
        backend.close()


class TestDurableBackend:
    """A disk writer with its worker fleet: writes, clears, compaction
    and the generation-epoch contract under concurrent writes, every
    read served by the workers."""

    def _durable(self, schema, aschema, tmp):
        backend = procshard(schema, data_dir=tmp.name)
        backend._test_tmpdir = tmp  # pin the directory to the backend
        backend.attach_access_schema(aschema)
        return backend

    def test_worker_reads_identical_to_writer_across_writes(
            self, schema, aschema):
        tmp = tempfile.TemporaryDirectory(prefix="repro-procshard-")
        backend = self._durable(schema, aschema, tmp)
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
            assert norm_flat(backend.fetch_flat_encoded(
                constraint, keys)) == want
        counters = backend.counters()
        assert counters["worker_reads_total"] == 4
        assert counters["local_reads_total"] == 0
        assert backend.gauges()["workers_alive"] == 2
        backend.close()

    def test_reattach_never_serves_rows_a_clear_removed(self, schema,
                                                        aschema):
        """The shrunk sequence of an intermittent conformance failure:
        R rows, S rows written while S had no index, a clear, then two
        attaches, the second indexing S.  The re-attach rebuilds every
        worker from the store, which must not bring back the R rows
        the clear removed nor trip over the never-interned S values."""
        tmp = tempfile.TemporaryDirectory(prefix="repro-procshard-")
        r_only = AccessSchema(schema, [aschema.constraints[0]])
        backend = self._durable(schema, r_only, tmp)
        backend.insert_rows("R", ROWS[:3])
        backend.insert_rows("S", [("never-interned",)])
        backend.clear()
        backend.attach_access_schema(r_only)
        backend.attach_access_schema(aschema)
        constraint = aschema.constraints[0]
        keys = sorted({(row[0],) for row in ROWS[:3]})
        assert backend.fetch_flat(constraint, keys) == []
        assert backend.counters()["worker_reads_total"] == 1
        backend.close()

    def test_writer_compaction_keeps_worker_reads_exact(
            self, schema, aschema):
        tmp = tempfile.TemporaryDirectory(prefix="repro-procshard-")
        backend = self._durable(schema, aschema, tmp)
        backend.insert_rows("R", ROWS)
        constraint = aschema.constraints[0]
        keys = [backend.dictionary.encode(k) for k in range(7)]
        backend.snapshot()  # compacts the store; the workers are untouched
        assert backend._store._wal_path.stat().st_size == 0
        backend.insert_rows("R", [(3, 888888, 1)])
        truth = MemoryBackend(schema)
        truth.attach_access_schema(aschema)
        truth.insert_rows("R", ROWS + [(3, 888888, 1)])
        assert norm_flat(backend.fetch_flat_encoded(constraint, keys)) == \
            norm_flat(truth.fetch_flat_encoded(constraint, keys))
        assert backend.counters()["worker_reads_total"] == 1
        backend.close()

    def test_generation_epoch_under_concurrent_inserts(self, schema,
                                                       aschema):
        """While a writer thread inserts, every worker-served read must
        reflect a generation at least as fresh as the one the reader
        observed before fetching — rows can only ever appear *early*,
        never late."""
        tmp = tempfile.TemporaryDirectory(prefix="repro-procshard-")
        backend = self._durable(schema, aschema, tmp)
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
        assert backend.counters()["worker_reads_total"] > 0
        backend.close()

    # -- reopening a durable directory: the fleet bootstraps from recovery --

    def _reopened(self, schema, aschema, data_dir):
        backend = procshard(schema, data_dir=data_dir)
        backend.attach_access_schema(aschema)
        return backend

    @staticmethod
    def _rows(backend, aschema) -> tuple:
        """Every R and S row, read by value through the constraints."""
        r, s = aschema.constraints
        return (sorted(backend.fetch_flat(r, [(k,) for k in range(8)])),
                sorted(backend.fetch_flat(s, [()])))

    def _served(self, backend, aschema) -> tuple:
        """:meth:`_rows`, checked to be served by the workers."""
        before = backend.counters()["worker_reads_total"]
        served = self._rows(backend, aschema)
        assert backend.counters()["worker_reads_total"] == before + 2
        return served

    def _expected(self, schema, aschema, rows_r, rows_s=()) -> tuple:
        truth = MemoryBackend(schema)
        truth.attach_access_schema(aschema)
        truth.insert_rows("R", rows_r)
        truth.insert_rows("S", rows_s)
        return self._rows(truth, aschema)

    def test_reopen_from_wal_only_bootstraps_the_fleet(self, schema,
                                                      aschema, tmp_path):
        backend = self._reopened(schema, aschema, tmp_path)
        backend.insert_rows("R", ROWS)
        backend.delete_rows("R", ROWS[:5])
        backend.insert_rows("S", [(1,), (2,)])
        generations = dict(backend._generations)
        backend.close()
        reopened = self._reopened(schema, aschema, tmp_path)
        assert reopened._generations == generations
        assert self._served(reopened, aschema) == \
            self._expected(schema, aschema, ROWS[5:], [(1,), (2,)])
        reopened.close()

    def test_reopen_from_snapshot_plus_tail_bootstraps_the_fleet(
            self, schema, aschema, tmp_path):
        backend = self._reopened(schema, aschema, tmp_path)
        backend.insert_rows("R", ROWS)
        backend.snapshot()
        tail = [(100 + i, i, i) for i in range(10)]
        backend.insert_rows("R", tail)
        backend.delete_rows("R", ROWS[:5])
        generations = dict(backend._generations)
        backend.close()
        reopened = self._reopened(schema, aschema, tmp_path)
        assert reopened._store._snapshot_id == 1
        assert reopened._generations == generations
        assert self._served(reopened, aschema) == \
            self._expected(schema, aschema, ROWS[5:] + tail)
        reopened.close()

    def test_reopen_after_a_clear_serves_nothing(self, schema, aschema,
                                                 tmp_path):
        backend = self._reopened(schema, aschema, tmp_path)
        backend.insert_rows("R", ROWS[:8])
        backend.insert_rows("S", [(1,)])
        backend.clear()
        generations = dict(backend._generations)
        backend.close()
        reopened = self._reopened(schema, aschema, tmp_path)
        assert reopened._generations == generations
        assert self._served(reopened, aschema) == ([], [])
        reopened.close()

    def test_reopen_bootstraps_past_values_that_were_never_interned(
            self, schema, aschema, tmp_path):
        """S rows written and cleared while S had no index were never
        interned; a reopened fleet indexing S still bootstraps, from
        the rows that survive."""
        r_only = AccessSchema(schema, [aschema.constraints[0]])
        backend = self._reopened(schema, r_only, tmp_path)
        backend.insert_rows("R", ROWS[:3])
        backend.insert_rows("S", [("never-interned",)])
        backend.clear()
        backend.insert_rows("R", ROWS[3:5])
        assert "never-interned" not in backend.dictionary
        backend.close()
        reopened = self._reopened(schema, aschema, tmp_path)
        assert self._served(reopened, aschema) == \
            self._expected(schema, aschema, ROWS[3:5])
        reopened.close()

    def test_torn_wal_reopens_to_a_record_prefix_on_the_workers(
            self, schema, aschema, tmp_path):
        """A WAL cut at a record boundary, or one byte short of it,
        reopens to exactly the complete records, and the fleet serves
        that state and nothing of the torn record."""
        import shutil
        source = tmp_path / "source"
        writer = DiskBackend(schema, source)
        batches = [("R", [(1, 10, 11), (2, 20, 21)]), ("S", [(5,)]),
                   ("R", [(3, 30, 31)])]
        for relation, rows in batches:
            writer.insert_rows(relation, rows)
        writer.delete_rows("R", [(1, 10, 11)])
        writer.close()
        wal = (source / "wal.log").read_bytes()
        ends = [i + 1 for i, byte in enumerate(wal) if byte == ord("\n")]
        assert len(ends) == 4
        for cut in sorted({0, *ends, *(end - 1 for end in ends)}):
            complete = sum(1 for end in ends if end <= cut)
            rows = {"R": set(), "S": set()}
            for relation, batch in batches[:complete]:
                rows[relation].update(batch)
            if complete == 4:
                rows["R"].discard((1, 10, 11))
            work = tmp_path / f"cut-{cut}"
            shutil.copytree(source, work)
            (work / "wal.log").write_bytes(wal[:cut])
            reopened = self._reopened(schema, aschema, work)
            assert self._served(reopened, aschema) == self._expected(
                schema, aschema, sorted(rows["R"]), sorted(rows["S"])), \
                f"WAL cut at byte {cut}"
            reopened.close()

