"""Chaos and resilience integration for the process-sharded backend:
deterministic fault injection, the one respawn-and-retry rule (and
what happens when the replacement fails too), deadline propagation
across the RPC boundary, bounded close() under a hung worker, and the
interpreter-exit orphan sweep.

Every failure here is *injected deterministically* (fault plans count
hook ordinals; nothing fires on wall clock or randomness), and every
surviving read is checked bit-identical against a MemoryBackend
oracle — the acceptance bar is "failures cost latency and counters,
never answers"."""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time

import pytest

from repro import AccessConstraint, AccessSchema, Schema
from repro.deadline import Deadline, deadline_scope
from repro.errors import DeadlineExceeded, StorageError
from repro.faults import Fault, FaultPlan, clear_fault_plan, install_fault_plan
from repro.storage.backend import MemoryBackend, make_backend
from repro.storage.procshard import ProcessShardedBackend


@pytest.fixture(autouse=True)
def _clean_plan():
    clear_fault_plan()
    yield
    clear_fault_plan()


@pytest.fixture
def schema():
    return Schema.from_dict({"R": ("A", "B", "C")})


@pytest.fixture
def aschema(schema):
    return AccessSchema(schema, [
        AccessConstraint("R", ("A",), ("B", "C"), 64),
    ])


ROWS = [(i % 7, i, i * 2) for i in range(60)]


def norm_flat(result):
    cols, length = result
    if not cols or not length:
        return length
    return sorted(zip(*[list(col) for col in cols]))


def procshard(schema, aschema, rows=ROWS, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("fanout_threshold", 0)
    backend = ProcessShardedBackend(schema, **kwargs)
    backend.attach_access_schema(aschema)
    if rows:
        backend.insert_rows("R", rows)
    return backend


def oracle(schema, aschema, rows=ROWS):
    backend = MemoryBackend(schema)
    backend.attach_access_schema(aschema)
    if rows:
        backend.insert_rows("R", rows)
    return backend


def keys_for(backend, count=7):
    return [backend.dictionary.encode(k) for k in range(count)]


def per_key(entries):
    """``fetch_many_encoded`` entries as plain lists, row order kept."""
    return [[list(column) for column in cols] for cols, _ in entries]


#: The first send kills its worker and so does the replacement's
#: bootstrap send: the one retry never gets a live worker.
KILL_WORKER_AND_REPLACEMENT = [Fault("rpc_send", at=1, kind="kill_peer"),
                               Fault("rpc_send", at=2, kind="kill_peer")]


class TestWorkerChaos:
    def test_kill_worker_mid_fetch_respawns_and_answers_identically(
            self, schema, aschema):
        backend = procshard(schema, aschema)
        truth = oracle(schema, aschema)
        constraint = aschema.constraints[0]
        keys = keys_for(backend)
        want = norm_flat(truth.fetch_flat_encoded(constraint, keys))
        assert norm_flat(
            backend.fetch_flat_encoded(constraint, keys)) == want
        sends_so_far = 0  # the plan installs after warm-up, counts fresh
        plan = FaultPlan([Fault("rpc_send", at=sends_so_far + 1,
                                kind="kill_peer")])
        install_fault_plan(plan)
        try:
            got = norm_flat(
                backend.fetch_flat_encoded(constraint, keys))
        finally:
            clear_fault_plan()
        assert got == want
        assert plan.fired == [("rpc_send", 1, "kill_peer")]
        counters = backend.counters()
        assert counters["worker_respawns_total"] >= 1
        assert counters["rpc_retries_total"] >= 1
        assert backend.gauges()["workers_alive"] == 2
        backend.close()

    def test_dropped_reply_counts_a_timeout_and_still_answers(
            self, schema, aschema):
        backend = procshard(schema, aschema)
        truth = oracle(schema, aschema)
        constraint = aschema.constraints[0]
        keys = keys_for(backend)
        want = norm_flat(truth.fetch_flat_encoded(constraint, keys))
        install_fault_plan(FaultPlan([
            Fault("rpc_recv", at=1, kind="drop_reply")]))
        try:
            got = norm_flat(
                backend.fetch_flat_encoded(constraint, keys))
        finally:
            clear_fault_plan()
        assert got == want
        assert backend.counters()["rpc_timeouts_total"] >= 1
        backend.close()

    def test_poisoned_worker_is_never_reused_misaligned(
            self, schema, aschema):
        """After an abandoned request leaves a reply in a pipe, the
        next request must not read that stale reply as its own — the
        poisoned peer is replaced, and answers stay correct."""
        backend = procshard(schema, aschema)
        truth = oracle(schema, aschema)
        constraint = aschema.constraints[0]
        keys = keys_for(backend)
        want = norm_flat(truth.fetch_flat_encoded(constraint, keys))
        # Wedge a real reply into worker 0's pipe that no caller will
        # ever consume — the exact state a timed-out RPC leaves behind.
        peer = backend._worker_peers[0]
        with peer.lock:
            backend._send(peer, ("read", 0, [keys[0]], None, False), 8)
            peer.poisoned = True
        # Reads after the poisoning must not adopt the stale reply
        # (which is a *valid* fetch payload for different keys — the
        # nastiest aliasing case); the peer is replaced instead.
        assert norm_flat(
            backend.fetch_flat_encoded(constraint, keys)) == want
        assert norm_flat(
            backend.fetch_flat_encoded(constraint, keys)) == want
        assert not any(peer is not None and peer.poisoned
                       for peer in backend._worker_peers)
        assert backend.counters()["worker_respawns_total"] >= 1
        backend.close()

    def test_failed_replacement_on_read_falls_back_to_the_store(
            self, schema, aschema):
        backend = procshard(schema, aschema)
        constraint = aschema.constraints[0]
        keys = keys_for(backend)
        want = per_key(backend._store.fetch_many_encoded(constraint, keys))
        plan = FaultPlan(KILL_WORKER_AND_REPLACEMENT)
        install_fault_plan(plan)
        try:
            got = per_key(backend.fetch_many_encoded(constraint, keys))
        finally:
            clear_fault_plan()
        assert got == want
        assert len(plan.fired) == 2
        assert any(peer.poisoned for peer in backend._worker_peers)
        counters = backend.counters()
        assert counters["local_reads_total"] == 1
        assert counters["worker_reads_total"] == 0
        # The next read replaces the poisoned worker and is served by
        # the fleet again.
        assert per_key(backend.fetch_many_encoded(constraint, keys)) == want
        assert backend.counters()["worker_reads_total"] == 1
        assert not any(peer.poisoned for peer in backend._worker_peers)
        backend.close()

    def test_failed_replacement_on_write_raises_and_applies_nothing(
            self, schema, aschema):
        backend = procshard(schema, aschema)
        constraint = aschema.constraints[0]
        rows = sorted(backend.scan("R"))
        generation = backend.generation("R")
        install_fault_plan(FaultPlan(KILL_WORKER_AND_REPLACEMENT))
        try:
            with pytest.raises(StorageError, match="write shipping"):
                backend.insert_rows("R", [(k, 5000 + k, 0) for k in range(7)])
        finally:
            clear_fault_plan()
        assert sorted(backend.scan("R")) == rows
        assert backend.generation("R") == generation
        # The fleet was rebuilt from the unchanged store: worker reads
        # equal the store's, and the write goes through on a retry.
        keys = keys_for(backend)
        assert per_key(backend.fetch_many_encoded(constraint, keys)) == \
            per_key(backend._store.fetch_many_encoded(constraint, keys))
        assert backend.insert_rows("R", [(1, 5001, 0)]) == 1
        assert per_key(backend.fetch_many_encoded(constraint, keys)) == \
            per_key(backend._store.fetch_many_encoded(constraint, keys))
        assert backend.counters()["worker_reads_total"] == 2
        backend.close()

    def test_worker_churn_mid_write_storm_stays_bit_identical(
            self, schema, aschema):
        """Kill a worker while writes stream into a disk writer: every
        read matches the MemoryBackend oracle, and the housekeeping
        pass leaves the fleet whole."""
        tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        backend = procshard(schema, aschema, rows=None, data_dir=tmp.name)
        backend._test_tmpdir = tmp  # pin the directory to the backend
        truth = oracle(schema, aschema, rows=None)
        constraint = aschema.constraints[0]
        for round_no in range(6):
            rows = [(i % 7, i + round_no * 1000, round_no)
                    for i in range(30)]
            backend.insert_rows("R", rows)
            truth.insert_rows("R", rows)
            if round_no in (2, 4):  # churn: SIGKILL a worker mid-storm
                peer = backend._worker_peers[round_no % 2]
                peer.process.kill()
                peer.process.join(timeout=5.0)
            keys = keys_for(backend)
            assert norm_flat(backend.fetch_flat_encoded(
                constraint, keys)) == norm_flat(
                    truth.fetch_flat_encoded(constraint, keys))
        backend.health_check()
        assert backend.gauges()["workers_alive"] == 2
        assert backend.counters()["worker_respawns_total"] == 2
        backend.close()

    def test_one_failure_costs_exactly_one_respawn_and_one_retry(
            self, schema, aschema):
        backend = procshard(schema, aschema)
        constraint = aschema.constraints[0]
        keys = keys_for(backend)
        want = per_key(backend._store.fetch_many_encoded(constraint, keys))
        install_fault_plan(FaultPlan([Fault("rpc_send", 1, "kill_peer")]))
        try:
            got = per_key(backend.fetch_many_encoded(constraint, keys))
        finally:
            clear_fault_plan()
        assert got == want
        counters = backend.counters()
        assert counters["worker_respawns_total"] == 1
        assert counters["rpc_retries_total"] == 1
        assert counters["worker_reads_total"] == 1
        assert counters["local_reads_total"] == 0
        backend.close()

    def test_flapping_worker_never_changes_an_answer(self, schema, aschema):
        """Kills land on reads, bootstraps and retries alike; whichever
        path each one takes (retry on the replacement or fall back to
        the store), every answer equals the oracle's."""
        backend = procshard(schema, aschema)
        truth = oracle(schema, aschema)
        constraint = aschema.constraints[0]
        keys = keys_for(backend)
        want = per_key(truth.fetch_many_encoded(constraint, keys))
        plan = FaultPlan([Fault("rpc_send", at, "kill_peer")
                          for at in range(1, 40, 3)])
        install_fault_plan(plan)
        try:
            for _ in range(10):
                assert per_key(
                    backend.fetch_many_encoded(constraint, keys)) == want
        finally:
            clear_fault_plan()
        assert len(plan.fired) >= 5
        counters = backend.counters()
        assert counters["worker_respawns_total"] >= 5
        assert counters["worker_reads_total"] + \
            counters["local_reads_total"] == 10
        backend.health_check()
        assert backend.gauges()["workers_alive"] == 2
        assert per_key(backend.fetch_many_encoded(constraint, keys)) == want
        backend.close()

    def test_dropped_reply_during_write_shipping_applies_the_write_once(
            self, schema, aschema):
        """The worker applied the batch but its reply was lost: the
        retry lands on a replacement rebuilt from the pre-batch store,
        so the batch is applied exactly once."""
        backend = procshard(schema, aschema)
        truth = oracle(schema, aschema)
        constraint = aschema.constraints[0]
        extra = [(k, 9000 + k, 0) for k in range(7)]
        install_fault_plan(FaultPlan([Fault("rpc_recv", 1, "drop_reply")]))
        try:
            assert backend.insert_rows("R", extra) == 7
        finally:
            clear_fault_plan()
        truth.insert_rows("R", extra)
        keys = keys_for(backend)
        assert norm_flat(backend.fetch_flat_encoded(constraint, keys)) == \
            norm_flat(truth.fetch_flat_encoded(constraint, keys))
        counters = backend.counters()
        assert counters["rpc_timeouts_total"] == 1
        assert counters["rpc_retries_total"] == 1
        assert counters["worker_reads_total"] == 1
        backend.close()

    @pytest.mark.parametrize("op", ["delete", "clear"])
    def test_worker_killed_during_shipping_still_applies_the_write(
            self, schema, aschema, op):
        backend = procshard(schema, aschema)
        truth = oracle(schema, aschema)
        constraint = aschema.constraints[0]
        write = {"delete": lambda engine: engine.delete_rows("R", ROWS[:20]),
                 "clear": lambda engine: engine.clear()}[op]
        install_fault_plan(FaultPlan([Fault("rpc_send", 1, "kill_peer")]))
        try:
            write(backend)
        finally:
            clear_fault_plan()
        write(truth)
        keys = keys_for(backend)
        assert norm_flat(backend.fetch_flat_encoded(constraint, keys)) == \
            norm_flat(truth.fetch_flat_encoded(constraint, keys))
        assert sorted(backend.scan("R")) == sorted(truth.scan("R"))
        counters = backend.counters()
        assert counters["worker_respawns_total"] == 1
        assert counters["worker_reads_total"] == 1
        backend.close()

    def test_slow_link_within_the_timeout_costs_no_respawn(self, schema,
                                                          aschema):
        backend = procshard(schema, aschema)
        constraint = aschema.constraints[0]
        keys = keys_for(backend)
        want = per_key(backend._store.fetch_many_encoded(constraint, keys))
        plan = FaultPlan([Fault("rpc_send", 1, "delay", arg=0.02),
                          Fault("rpc_recv", 2, "delay", arg=0.02)])
        install_fault_plan(plan)
        try:
            got = per_key(backend.fetch_many_encoded(constraint, keys))
        finally:
            clear_fault_plan()
        assert got == want
        assert len(plan.fired) == 2
        counters = backend.counters()
        assert counters["worker_respawns_total"] == 0
        assert counters["rpc_retries_total"] == 0
        assert counters["rpc_timeouts_total"] == 0
        assert counters["worker_reads_total"] == 1
        backend.close()

    def test_crash_mid_wal_append_after_shipping_leaves_workers_on_the_store(
            self, schema, aschema, tmp_path):
        """The batch reached the workers, then the disk writer's WAL
        append tore: the store is unchanged, the fleet is rebuilt to
        match it, and the directory reopens to the pre-write state."""
        backend = procshard(schema, aschema, data_dir=tmp_path)
        constraint = aschema.constraints[0]
        keys = keys_for(backend)
        before = sorted(backend.scan("R"))
        generation = backend.generation("R")
        want = per_key(backend._store.fetch_many_encoded(constraint, keys))
        sent = backend.counters()["rpc_requests_total"]
        install_fault_plan(FaultPlan([
            Fault("wal_append", 1, "torn_tail", arg=4)]))
        try:
            with pytest.raises(StorageError, match="simulated crash"):
                backend.insert_rows("R", [(k, 7000 + k, 1) for k in range(7)])
        finally:
            clear_fault_plan()
        assert backend.counters()["rpc_requests_total"] > sent  # shipped
        assert sorted(backend.scan("R")) == before
        assert backend.generation("R") == generation
        assert per_key(backend.fetch_many_encoded(constraint, keys)) == want
        assert backend.counters()["worker_reads_total"] == 1
        backend.close()
        reopened = ProcessShardedBackend(schema, workers=2,
                                         data_dir=tmp_path)
        assert sorted(reopened.scan("R")) == before
        reopened.close()


class TestHealthCheck:
    def test_restores_a_worker_whose_replacement_failed(self, schema,
                                                        aschema):
        backend = procshard(schema, aschema)
        constraint = aschema.constraints[0]
        keys = keys_for(backend)
        install_fault_plan(FaultPlan(KILL_WORKER_AND_REPLACEMENT))
        try:
            backend.fetch_many_encoded(constraint, keys)
        finally:
            clear_fault_plan()
        assert backend.gauges()["workers_alive"] == 1
        assert backend.health_check() == {"workers_respawned": 1}
        assert backend.gauges()["workers_alive"] == 2
        assert not any(peer.poisoned for peer in backend._worker_peers)
        backend.fetch_many_encoded(constraint, keys)
        counters = backend.counters()
        assert counters["worker_reads_total"] == 1
        assert counters["worker_respawns_total"] == 2
        backend.close()

    def test_a_healthy_fleet_is_left_alone(self, schema, aschema):
        backend = procshard(schema, aschema)
        processes = [peer.process for peer in backend._worker_peers]
        assert backend.health_check() == {"workers_respawned": 0}
        assert [peer.process for peer in backend._worker_peers] == processes
        assert backend.counters()["worker_respawns_total"] == 0
        backend.close()

    def test_before_attach_and_after_close_nothing_spawns(self, schema,
                                                          aschema):
        backend = ProcessShardedBackend(schema, workers=2)
        assert backend.health_check() == {"workers_respawned": 0}
        assert backend.gauges()["workers_alive"] == 0
        backend.attach_access_schema(aschema)
        backend.close()
        assert backend.health_check() == {"workers_respawned": 0}
        assert backend.gauges()["workers_alive"] == 0


class TestDeadlinePropagation:
    def test_expired_deadline_aborts_rpc_with_typed_error(
            self, schema, aschema):
        backend = procshard(schema, aschema)
        constraint = aschema.constraints[0]
        keys = keys_for(backend)
        with deadline_scope(Deadline.after(-1.0)):
            with pytest.raises(DeadlineExceeded):
                backend.fetch_flat_encoded(constraint, keys)
        assert backend.counters()["rpc_deadline_aborts_total"] >= 1
        # The abort happened before anything was sent: no peer holds a
        # stale reply, so nothing needs replacing.
        assert not any(peer is not None and peer.poisoned
                       for peer in backend._worker_peers)
        backend.close()

    def test_generous_deadline_does_not_disturb_answers(
            self, schema, aschema):
        backend = procshard(schema, aschema)
        truth = oracle(schema, aschema)
        constraint = aschema.constraints[0]
        keys = keys_for(backend)
        want = norm_flat(truth.fetch_flat_encoded(constraint, keys))
        with deadline_scope(Deadline.after(60.0)):
            assert norm_flat(
                backend.fetch_flat_encoded(constraint, keys)) == want
        assert backend.counters()["rpc_deadline_aborts_total"] == 0
        backend.close()

    def test_writes_ignore_the_ambient_deadline(self, schema, aschema):
        # Half-shipped writes would drift shards from the store; the
        # write path must complete even under an expired deadline.
        backend = procshard(schema, aschema, rows=None)
        with deadline_scope(Deadline.after(-1.0)):
            assert backend.insert_rows("R", ROWS) == len(ROWS)
        truth = oracle(schema, aschema)
        constraint = aschema.constraints[0]
        keys = keys_for(backend)
        assert norm_flat(
            backend.fetch_flat_encoded(constraint, keys)) == norm_flat(
                truth.fetch_flat_encoded(constraint, keys))
        backend.close()


class TestConfigurableTimeouts:
    def test_rpc_timeout_is_a_constructor_knob(self, schema):
        backend = ProcessShardedBackend(schema, workers=1,
                                        rpc_timeout_s=17.5)
        assert backend.rpc_timeout_s == 17.5
        backend.close()

    def test_default_comes_from_the_class_attribute(self, schema):
        backend = ProcessShardedBackend(schema, workers=1)
        assert backend.rpc_timeout_s == ProcessShardedBackend.RPC_TIMEOUT_S
        backend.close()

    def test_non_positive_timeout_rejected(self, schema):
        with pytest.raises(StorageError, match="rpc_timeout_s"):
            ProcessShardedBackend(schema, workers=1, rpc_timeout_s=0)

    def test_make_backend_passes_the_timeout_through(self, schema):
        backend = make_backend("procshard", schema, workers=1,
                               rpc_timeout_s=3.25)
        assert backend.rpc_timeout_s == 3.25
        backend.close()

    def test_timeouts_total_counter_exists_and_counts(
            self, schema, aschema):
        backend = procshard(schema, aschema)
        assert backend.counters()["rpc_timeouts_total"] == 0
        install_fault_plan(FaultPlan([
            Fault("rpc_recv", at=1, kind="drop_reply")]))
        try:
            backend.fetch_flat_encoded(aschema.constraints[0],
                                       keys_for(backend))
        finally:
            clear_fault_plan()
        assert backend.counters()["rpc_timeouts_total"] == 1
        backend.close()


class TestBoundedClose:
    def test_close_with_hung_worker_returns_within_budget(
            self, schema, aschema):
        backend = procshard(schema, aschema)
        backend.close_timeout_s = 1.0
        # Wedge worker 0 in a long request; its reply will never be
        # consumed, so the polite stop handshake cannot work.
        peer = backend._worker_peers[0]
        peer.conn.send(("sleep", 30.0))
        time.sleep(0.1)  # let the worker start sleeping
        processes = [p.process for p in backend._worker_peers]
        started = time.perf_counter()
        backend.close()
        elapsed = time.perf_counter() - started
        assert elapsed < 8.0, f"close() took {elapsed:.1f}s"
        assert backend.counters()["close_escalations_total"] >= 1
        for process in processes:
            process.join(timeout=2.0)
            assert not process.is_alive()

    def test_close_is_idempotent(self, schema, aschema):
        backend = procshard(schema, aschema)
        backend.close()
        backend.close()  # second close must be a quiet no-op


_ORPHAN_SCRIPT = """
import sys
from repro import AccessConstraint, AccessSchema, Schema
from repro.storage.procshard import ProcessShardedBackend

schema = Schema.from_dict({"R": ("A", "B")})
aschema = AccessSchema(schema, [AccessConstraint("R", ("A",), ("B",), 8)])
backend = ProcessShardedBackend(schema, workers=2)
backend.attach_access_schema(aschema)  # spawns the worker fleet
pids = [peer.process.pid for peer in backend._worker_peers]
print(" ".join(str(pid) for pid in pids))
sys.stdout.flush()
# Exit WITHOUT close(): the atexit sweep must reap the children.
"""


class TestOrphanSweep:
    def test_interpreter_exit_without_close_leaves_no_orphans(self):
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        env["PYTHONPATH"] = os.path.join(root, "src")
        proc = subprocess.run(
            [sys.executable, "-c", _ORPHAN_SCRIPT], env=env,
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        pids = [int(token) for token in proc.stdout.split()]
        assert len(pids) == 2
        deadline = time.monotonic() + 10.0
        remaining = set(pids)
        while remaining and time.monotonic() < deadline:
            for pid in list(remaining):
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    remaining.discard(pid)
                except PermissionError:
                    pass  # exists but not ours: count as alive
            if remaining:
                time.sleep(0.1)
        assert not remaining, f"orphaned worker pids: {sorted(remaining)}"
