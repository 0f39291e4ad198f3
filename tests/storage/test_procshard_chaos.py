"""Chaos and resilience integration for the process-sharded backend:
deterministic fault injection, deadline propagation across the RPC
boundary, breaker-gated replica degradation, bounded close() under a
hung worker, and the interpreter-exit orphan sweep.

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
from repro.storage.procshard.resilience import CLOSED, OPEN


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


class TestReplicaResilience:
    def _replicated(self, schema, aschema, tmp, **kwargs):
        kwargs.setdefault("workers", 1)
        kwargs.setdefault("replicas", 1)
        kwargs.setdefault("fanout_threshold", 0)
        backend = ProcessShardedBackend(schema, data_dir=tmp.name,
                                        **kwargs)
        backend._test_tmpdir = tmp
        backend.attach_access_schema(aschema)
        return backend

    def test_flapping_replica_opens_breaker_and_degrades_to_writer(
            self, schema, aschema):
        tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        backend = self._replicated(schema, aschema, tmp,
                                   breaker_failure_threshold=2,
                                   breaker_reset_after_s=60.0)
        backend.insert_rows("R", ROWS)
        truth = oracle(schema, aschema)
        constraint = aschema.constraints[0]
        keys = keys_for(backend)
        want = norm_flat(truth.fetch_flat_encoded(constraint, keys))
        # Warm up through the replica slot once, then kill the replica
        # process outright so every replica attempt fails.
        for _ in range(2):
            assert norm_flat(backend.fetch_flat_encoded(
                constraint, keys)) == want
        peer = backend._replica_peers[0]
        peer.process.kill()
        peer.process.join(timeout=5.0)
        # Also break re-bootstrap deterministically: tear the WAL ship.
        # (Not strictly needed — a killed peer already fails — but it
        # exercises the torn-tail path under repeated catch-up.)
        for _ in range(8):
            assert norm_flat(backend.fetch_flat_encoded(
                constraint, keys)) == want
        counters = backend.counters()
        # A dead replica re-bootstraps (catch-up path) — the reads
        # keep succeeding either way; what must NOT happen is a wrong
        # answer or an exception above.
        assert counters["replica_reads_total"] >= 1
        backend.close()

    def test_unbootstrappable_replica_trips_breaker_to_writer_local(
            self, schema, aschema, monkeypatch):
        tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        backend = self._replicated(schema, aschema, tmp,
                                   breaker_failure_threshold=2,
                                   breaker_reset_after_s=60.0)
        backend.insert_rows("R", ROWS)
        truth = oracle(schema, aschema)
        constraint = aschema.constraints[0]
        keys = keys_for(backend)
        want = norm_flat(truth.fetch_flat_encoded(constraint, keys))
        # Make every replica recovery fail: kill the peer and block
        # both catch-up and re-bootstrap.
        peer = backend._replica_peers[0]
        peer.process.kill()
        peer.process.join(timeout=5.0)
        monkeypatch.setattr(backend, "_bootstrap_replica",
                            lambda i: False)
        monkeypatch.setattr(backend, "_catch_up_replica",
                            lambda i: False)
        for _ in range(12):
            assert norm_flat(backend.fetch_flat_encoded(
                constraint, keys)) == want
        assert backend._breakers[0].state == OPEN
        counters = backend.counters()
        assert counters["replica_breaker_opens_total"] >= 1
        assert counters["replica_breaker_skips_total"] >= 1
        assert backend.gauges()["replica_breaker_state_r0"] == OPEN
        backend.close()

    def test_health_check_probes_half_open_breaker_back_closed(
            self, schema, aschema):
        tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        backend = self._replicated(schema, aschema, tmp,
                                   breaker_failure_threshold=1,
                                   breaker_reset_after_s=0.05)
        backend.insert_rows("R", ROWS)
        peer = backend._replica_peers[0]
        peer.process.kill()
        peer.process.join(timeout=5.0)
        backend._breakers[0].record_failure()  # open (threshold 1)
        assert backend._breakers[0].state == OPEN
        time.sleep(0.1)  # quiet period elapses -> half-open
        report = backend.health_check()
        assert report["replicas_probed"] == 1
        assert report["replicas_reclosed"] == 1  # re-bootstrapped + pinged
        assert backend._breakers[0].state == CLOSED
        assert backend.gauges()["replicas_alive"] == 1
        backend.close()

    def test_replica_churn_mid_write_storm_stays_bit_identical(
            self, schema, aschema):
        """The satellite acceptance test: kill and restart the replica
        while writes stream in; every read must match the MemoryBackend
        oracle bit for bit, and the fleet must end healthy."""
        tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        backend = self._replicated(schema, aschema, tmp,
                                   breaker_failure_threshold=2,
                                   breaker_reset_after_s=0.05)
        truth = oracle(schema, aschema, rows=None)
        constraint = aschema.constraints[0]
        for round_no in range(6):
            rows = [(i % 7, i + round_no * 1000, round_no)
                    for i in range(30)]
            backend.insert_rows("R", rows)
            truth.insert_rows("R", rows)
            if round_no == 2:  # churn: SIGKILL the replica mid-storm
                peer = backend._replica_peers[0]
                if peer is not None:
                    peer.process.kill()
                    peer.process.join(timeout=5.0)
            keys = keys_for(backend)
            want = norm_flat(truth.fetch_flat_encoded(constraint, keys))
            for _ in range(backend.replicas + 1):  # all RR slots
                assert norm_flat(backend.fetch_flat_encoded(
                    constraint, keys)) == want
        # Give the breaker's quiet period a chance, then let the
        # housekeeping probe restore the fleet.
        time.sleep(0.1)
        backend.health_check()
        assert backend.gauges()["replicas_alive"] == 1
        assert backend._breakers[0].state == CLOSED
        assert backend.counters()["replica_reads_total"] >= 1
        backend.close()

    def test_torn_wal_ship_reships_cleanly(self, schema, aschema):
        tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        backend = self._replicated(schema, aschema, tmp)
        backend.insert_rows("R", ROWS)
        truth = oracle(schema, aschema)
        constraint = aschema.constraints[0]
        keys = keys_for(backend)
        want = norm_flat(truth.fetch_flat_encoded(constraint, keys))
        for _ in range(2):  # replica bootstraps on its first slot
            assert norm_flat(backend.fetch_flat_encoded(
                constraint, keys)) == want
        # New rows make the replica stale; the catch-up chunk ships
        # torn 7 bytes short, so the replica consumes only whole
        # frames and the remainder re-ships on the next catch-up.
        extra = [(3, 777000 + i, 9) for i in range(5)]
        backend.insert_rows("R", extra)
        truth.insert_rows("R", extra)
        want = norm_flat(truth.fetch_flat_encoded(constraint, keys))
        plan = FaultPlan([Fault("wal_ship", at=1, kind="torn_tail",
                                arg=7)])
        install_fault_plan(plan)
        try:
            for _ in range(4):
                assert norm_flat(backend.fetch_flat_encoded(
                    constraint, keys)) == want
        finally:
            clear_fault_plan()
        assert plan.fired == [("wal_ship", 1, "torn_tail")]
        backend.close()


class TestBoundedClose:
    def test_close_with_hung_worker_returns_within_budget(
            self, schema, aschema):
        backend = procshard(schema, aschema, close_timeout_s=1.0)
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
