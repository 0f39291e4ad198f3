"""The process-sharded coordinator: the encoded boundary as an RPC.

:class:`ProcessShardedBackend` escapes the GIL by running each index
shard in its own **process** (spawn-safe, daemonic) and speaking the
encoded fetch boundary across the pipe: a request ships ``(constraint
id, encoded X-key codes)``, a response ships flat ``array('q')`` code
columns — the exact payloads the in-process engines already produce,
so nothing above storage changes and answers stay bit-identical.

Topology and ownership:

* the coordinator owns the *value* plane: the single
  :class:`~repro.storage.encoding.ValueDictionary`, the authoritative
  row stores (a :class:`~repro.storage.backend.MemoryBackend`, or a
  :class:`~repro.storage.disk.DiskBackend` when ``data_dir`` is given)
  and the per-relation generations — workers and replicas only ever
  see codes and WAL bytes derived from it;
* each of ``workers`` shard processes holds a code-space partition of
  every constraint's index, placed by ``hash(X-key codes) % workers``
  (codes are dense and append-only, so placement is stable and needs
  no decoding);
* each of ``replicas`` processes holds a *full* copy kept current by
  WAL shipping (see :mod:`.replica`), and the coordinator load-
  balances whole fetch batches across writer and replicas, serving a
  replica only when its durable per-relation generation has caught up
  — the staleness signal that keeps the generation-keyed fetch cache
  sound.

Write ordering (the cache-soundness contract): worker shipments happen
*before* the inner store applies and bumps the generation, so any
reader that observes the new generation is guaranteed to see the new
rows on every worker; a reader at the old generation may see them
early, the same benign direction the in-process engines document.  A
failed inner write triggers a compensating (inverse) shipment; a
failed worker is respawned and rebuilt from the authoritative store.

Fetches below ``fanout_threshold`` keys are served from the
coordinator's own store — pipe round trips only pay for themselves on
bulk batches.
"""

from __future__ import annotations

import atexit
import json
import multiprocessing
import threading
import time
import weakref
from typing import Iterable, Iterator, Sequence

from ...deadline import Deadline, current_deadline
from ...errors import DeadlineExceeded, StorageError
from ...faults import fault_hook
from ...obs.metrics import Histogram
from ...obs.trace import span
from ...schema.access import AccessConstraint, AccessSchema
from ...schema.relation import Schema
from ..backend import MemoryBackend, StorageBackend
from ..disk import DiskBackend
from ..encoding import int_column
from ..indexes import AccessIndex
from .replica import replica_main
from .resilience import HALF_OPEN, CircuitBreaker, RetryPolicy
from .worker import worker_main

Row = tuple

#: Spawn, not fork: workers must never inherit the coordinator's locks,
#: pipes or open WAL handles mid-state.
_SPAWN = multiprocessing.get_context("spawn")

#: Every live backend, swept at interpreter exit so a coordinator that
#: dies without ``close()`` (test harness teardown, SIGTERM handlers
#: that re-raise, plain sys.exit) still leaves zero child processes.
#: Children are daemonic *and* exit on pipe EOF, so this is the third
#: line of defence, not the first.
_LIVE_BACKENDS: "weakref.WeakSet[ProcessShardedBackend]" = weakref.WeakSet()


def _atexit_sweep() -> None:
    for backend in list(_LIVE_BACKENDS):
        try:
            backend.emergency_stop()
        except Exception:
            pass  # exit path: nothing useful to do with a failure


atexit.register(_atexit_sweep)


class _PeerFailure(Exception):
    """One worker/replica RPC failed (dead pipe, timeout, or an
    ``err`` reply).  Internal: call sites respawn/rebuild or fall back;
    this never escapes the backend.  ``deadline=True`` marks an abort
    caused by the *request's* deadline rather than peer health — call
    sites convert it to :class:`DeadlineExceeded` instead of respawning
    and retrying."""

    def __init__(self, peer: "_Peer | None", reason: str,
                 deadline: bool = False):
        super().__init__(reason)
        self.peer = peer
        self.deadline = deadline


class _Peer:
    """One child process plus its pipe and replication cursors."""

    __slots__ = ("index", "kind", "process", "conn", "lock",
                 "known_values", "wal_offset", "snapshot_id", "gens",
                 "sent_at", "poisoned")

    def __init__(self, index: int, kind: str, process, conn):
        self.index = index
        self.kind = kind  # "w" (shard worker) | "r" (replica)
        self.process = process
        self.conn = conn
        self.lock = threading.RLock()
        self.known_values = 0   # dictionary prefix this peer has seen
        self.wal_offset = 0     # bytes of the writer WAL shipped (replicas)
        self.snapshot_id = -1   # writer snapshot this peer booted from
        self.gens: dict[str, int] = {}
        self.sent_at = 0.0
        # A poisoned peer's pipe may hold an unconsumed reply (timeout
        # or deadline abort mid-exchange): the process can be healthy,
        # but request/response alignment is gone, so the bootstrap
        # paths must replace it rather than re-attach.
        self.poisoned = False


def _close_connections(conns: list) -> None:
    """GC finalizer: closing the pipes makes the daemonic children see
    EOF and exit, even when ``close()`` was never called."""
    for conn in conns:
        try:
            conn.close()
        except OSError:
            pass


class ProcessShardedBackend(StorageBackend):
    """Shard-per-process storage with optional WAL-shipped replicas.

    ``workers`` is the shard process count (>= 1); ``replicas`` adds
    read-replica processes and requires ``data_dir`` (replication ships
    the durable writer's WAL).  Without ``data_dir`` the authoritative
    store is in-memory and replicas are unavailable.
    """

    #: Every fan-out pays one pipe round trip per touched worker; below
    #: this many keys the coordinator's local index wins outright.
    FANOUT_THRESHOLD = 32

    #: How long a single RPC may take before the peer is declared dead
    #: (overridable per backend; a request deadline tightens it further).
    RPC_TIMEOUT_S = 120.0

    #: Total budget for the polite phase of ``close()`` before the
    #: escalation to ``terminate()``/``kill()`` starts.
    CLOSE_TIMEOUT_S = 5.0

    def __init__(self, schema: Schema, workers: int = 4,
                 replicas: int = 0, data_dir=None, fsync: bool = False,
                 fanout_threshold: int | None = None,
                 rpc_timeout_s: float | None = None,
                 close_timeout_s: float | None = None,
                 retry_policy: RetryPolicy | None = None,
                 breaker_failure_threshold: int = 3,
                 breaker_reset_after_s: float = 5.0):
        if workers < 1:
            raise StorageError(
                f"procshard needs at least one worker process, "
                f"got {workers}")
        if replicas < 0:
            raise StorageError(
                f"replica count must be >= 0, got {replicas}")
        if replicas and data_dir is None:
            raise StorageError(
                "WAL-shipped replicas need a durable writer; pass "
                "data_dir=... (CLI: --data-dir DIR)")
        super().__init__(schema)
        self._store: MemoryBackend = (
            DiskBackend(schema, data_dir, fsync=fsync)
            if data_dir is not None else MemoryBackend(schema))
        # One truth for codes and epochs: alias the inner store's
        # dictionary and generation map (the same mutable objects —
        # both sides only ever mutate in place, never rebind).
        self.dictionary = self._store.dictionary
        self._generations = self._store._generations
        self.workers = workers
        self.replicas = replicas
        self.fanout_threshold = (self.FANOUT_THRESHOLD
                                 if fanout_threshold is None
                                 else max(0, fanout_threshold))
        self.rpc_timeout_s = (self.RPC_TIMEOUT_S if rpc_timeout_s is None
                              else float(rpc_timeout_s))
        if self.rpc_timeout_s <= 0:
            raise StorageError(
                f"rpc_timeout_s must be positive, got {self.rpc_timeout_s}")
        self.close_timeout_s = (self.CLOSE_TIMEOUT_S
                                if close_timeout_s is None
                                else float(close_timeout_s))
        self._retry = retry_policy if retry_policy is not None else (
            RetryPolicy(attempts=2, base_delay_s=0.02, seed=0))
        self._breakers = [
            CircuitBreaker(failure_threshold=breaker_failure_threshold,
                           reset_after_s=breaker_reset_after_s)
            for _ in range(replicas)]
        self._write_lock = threading.RLock()
        self._worker_peers: list[_Peer | None] = [None] * workers
        self._replica_peers: list[_Peer | None] = [None] * replicas
        # id(attached constraint) -> wire constraint id, plus the
        # per-constraint projection specs workers index by.
        self._cids: dict[int, int] = {}
        self._specs: list[tuple] = []  # (cid, constraint, x_pos, y_pos)
        self._rr = 0  # round-robin cursor over writer+replica targets
        self._closed = False
        self._counters: dict[str, int | float] = {
            "rpc_requests_total": 0,
            "rpc_bytes_shipped_total": 0,
            "rpc_bytes_received_total": 0,
            "rpc_roundtrip_seconds_total": 0.0,
            "worker_reads_total": 0,
            "replica_reads_total": 0,
            "local_reads_total": 0,
            "worker_respawns_total": 0,
            "replica_wal_bytes_shipped_total": 0,
            "replica_catchups_total": 0,
            "replica_bootstraps_total": 0,
            "rpc_timeouts_total": 0,
            "rpc_deadline_aborts_total": 0,
            "rpc_retries_total": 0,
            "replica_breaker_skips_total": 0,
            "close_escalations_total": 0,
        }
        for i in range(workers):
            self._counters[f"rpc_w{i}_requests_total"] = 0
            self._counters[f"rpc_w{i}_bytes_shipped_total"] = 0
        self._rpc_histogram = Histogram(
            "repro_storage_rpc_roundtrip_seconds",
            "Coordinator-observed RPC round trips (all peers)")
        self._worker_histograms = [
            Histogram(f"repro_storage_rpc_roundtrip_seconds_w{i}",
                      f"RPC round trips to shard worker {i}")
            for i in range(workers)]
        self._conns_for_gc: list = []
        self._finalizer = weakref.finalize(
            self, _close_connections, self._conns_for_gc)
        _LIVE_BACKENDS.add(self)

    # -- process plumbing --------------------------------------------------

    def _spawn(self, index: int, kind: str) -> _Peer:
        target = worker_main if kind == "w" else replica_main
        parent, child = _SPAWN.Pipe()
        process = _SPAWN.Process(
            target=target, args=(child,), daemon=True,
            name=f"repro-procshard-{kind}{index}")
        process.start()
        child.close()
        self._conns_for_gc.append(parent)
        return _Peer(index, kind, process, parent)

    def _retire(self, peer: _Peer) -> None:
        """Take a peer out of service before its replacement spawns:
        close the pipe (EOF ends a healthy child) and terminate the
        process if it is still alive (poisoned peers usually are)."""
        try:
            self._conns_for_gc.remove(peer.conn)
        except ValueError:
            pass
        try:
            peer.conn.close()
        except OSError:
            pass
        if peer.process.is_alive():
            peer.process.terminate()
            peer.process.join(timeout=1.0)
            if peer.process.is_alive():
                peer.process.kill()
                peer.process.join(timeout=1.0)

    def _send(self, peer: _Peer, message, shipped: int) -> None:
        if peer.poisoned:
            # The pipe may still hold the reply of an abandoned
            # request; sending would read that stale reply as this
            # request's answer.  Fail fast so the caller's normal
            # failure path (bootstrap → retry) replaces the peer.
            raise _PeerFailure(
                peer, f"{peer.kind}{peer.index} is poisoned (stale "
                      f"reply pending); awaiting replacement")
        counters = self._counters
        counters["rpc_requests_total"] += 1
        counters["rpc_bytes_shipped_total"] += shipped
        if peer.kind == "w":
            counters[f"rpc_w{peer.index}_requests_total"] += 1
            counters[f"rpc_w{peer.index}_bytes_shipped_total"] += shipped
        fault = fault_hook("rpc_send")
        if fault is not None:
            if fault.kind == "kill_peer":
                peer.process.kill()
                peer.process.join(timeout=5.0)
            elif fault.kind == "delay":
                time.sleep(fault.arg)
        peer.sent_at = time.perf_counter()
        try:
            peer.conn.send(message)
        except (OSError, ValueError) as error:
            raise _PeerFailure(
                peer, f"{peer.kind}{peer.index} send failed: "
                      f"{error}") from error

    def _recv(self, peer: _Peer, use_deadline: bool = True):
        counters = self._counters
        timeout = self.rpc_timeout_s
        deadline = current_deadline() if use_deadline else None
        if deadline is not None:
            timeout = deadline.timeout(timeout)
        fault = fault_hook("rpc_recv")
        if fault is not None:
            if fault.kind == "drop_reply":
                # Consume the real reply and report a timeout: the
                # failure paths run deterministically, without waiting
                # out a real timeout window.
                try:
                    if peer.conn.poll(timeout):
                        peer.conn.recv()
                except (EOFError, OSError):
                    pass
                peer.poisoned = True
                counters["rpc_timeouts_total"] += 1
                raise _PeerFailure(
                    peer, f"{peer.kind}{peer.index} reply dropped "
                          f"(injected fault)")
            if fault.kind == "delay":
                time.sleep(fault.arg)
        try:
            if not peer.conn.poll(timeout):
                # The pipe now holds (or will hold) a reply no caller
                # will consume: poison the peer so the bootstrap paths
                # replace it instead of re-attaching misaligned.
                peer.poisoned = True
                if deadline is not None and deadline.expired():
                    counters["rpc_deadline_aborts_total"] += 1
                    raise _PeerFailure(
                        peer, f"{peer.kind}{peer.index} abandoned: "
                              f"request deadline expired",
                        deadline=True)
                counters["rpc_timeouts_total"] += 1
                raise _PeerFailure(
                    peer, f"{peer.kind}{peer.index} timed out after "
                          f"{timeout:g}s")
            kind, payload = peer.conn.recv()
        except (EOFError, OSError) as error:
            raise _PeerFailure(
                peer, f"{peer.kind}{peer.index} recv failed: "
                      f"{error}") from error
        elapsed = time.perf_counter() - peer.sent_at
        counters["rpc_roundtrip_seconds_total"] += elapsed
        self._rpc_histogram.observe(elapsed)
        if peer.kind == "w":
            self._worker_histograms[peer.index].observe(elapsed)
        if kind != "ok":
            raise _PeerFailure(
                peer, f"{peer.kind}{peer.index} replied: {payload}")
        return payload

    def _request(self, peer: _Peer, message, shipped: int,
                 use_deadline: bool = True):
        if use_deadline:
            self._check_deadline_before_send(peer)
        with peer.lock:
            self._send(peer, message, shipped)
            return self._recv(peer, use_deadline=use_deadline)

    def _check_deadline_before_send(self, peer: "_Peer | None") -> None:
        """Refuse to ship a request whose deadline has already expired:
        nothing crosses the pipe, so no peer is poisoned and the abort
        is deterministic (a reply racing ``poll(0)`` could otherwise
        let an expired request through)."""
        deadline = current_deadline()
        if deadline is not None and deadline.expired():
            self._counters["rpc_deadline_aborts_total"] += 1
            raise _PeerFailure(
                peer, "request deadline expired before send",
                deadline=True)

    def _fanout(self, requests: "list[tuple[_Peer, tuple, int]]") -> list:
        """Ship a batch of requests (one per distinct peer, ascending
        index) pipelined: all sends first, then all receives.  Peer
        locks are held across the whole exchange so a concurrent
        caller can never interleave on a pipe; on failure, responses
        already in flight from *other* peers are drained so their
        pipes stay request/response aligned.  On a *deadline* abort
        the drain gets only a short grace per peer — peers whose reply
        still has not landed are poisoned and replaced later, because
        a deadline abort must not block for the full RPC timeout."""
        self._check_deadline_before_send(None)
        for peer in (peer for peer, _, _ in requests):
            peer.lock.acquire()
        outstanding: list[_Peer] = []
        try:
            for peer, message, shipped in requests:
                self._send(peer, message, shipped)
                outstanding.append(peer)
            results = []
            for peer, _, _ in requests:
                results.append(self._recv(peer))
                outstanding.remove(peer)
            return results
        except _PeerFailure as failure:
            grace = 0.05 if failure.deadline else self.rpc_timeout_s
            for peer in outstanding:
                if peer is failure.peer:
                    continue
                try:
                    if peer.conn.poll(grace):
                        peer.conn.recv()
                    else:
                        peer.poisoned = True
                except (EOFError, OSError):
                    pass
            raise
        finally:
            for peer, _, _ in reversed(requests):
                peer.lock.release()

    @staticmethod
    def _key_bytes(keys: Sequence) -> int:
        """Logical payload size of a key batch: 8 bytes per code.
        Deliberately *not* the pickled size — logical bytes are
        deterministic across Python versions, so they can sit in
        trajectory-gated counters."""
        if not keys:
            return 0
        width = 1 if isinstance(keys[0], int) else len(keys[0])
        return 8 * width * len(keys)

    # -- attach: spawn + bootstrap the fleet -------------------------------

    def attach_access_schema(self, access_schema: AccessSchema) -> None:
        with self._write_lock:
            self._store.attach_access_schema(access_schema)
            self.access_schema = access_schema
            self._reset_resolutions()
            self._cids = {}
            self._specs = []
            for cid, constraint in enumerate(access_schema):
                index = self._store._indexes[id(constraint)]
                self._cids[id(constraint)] = cid
                self._specs.append((cid, constraint,
                                    tuple(index.x_positions),
                                    tuple(index.y_positions)))
            for i in range(self.workers):
                self._bootstrap_worker(i)
            for i in range(self.replicas):
                self._bootstrap_replica(i)

    def _bootstrap_worker(self, i: int) -> None:
        """(Re)spawn worker ``i`` and rebuild its shard slice from the
        authoritative store (callers hold ``_write_lock`` or accept the
        pre-batch snapshot semantics documented on the write path)."""
        peer = self._worker_peers[i]
        if peer is None or peer.poisoned or not peer.process.is_alive():
            if peer is not None:
                self._retire(peer)
            peer = self._worker_peers[i] = self._spawn(i, "w")
        specs = []
        rows_by_cid: dict[int, list] = {}
        shipped = 0
        encode_row = self.dictionary.encode_row
        workers = self.workers
        for cid, constraint, x_positions, y_positions in self._specs:
            x_len = len(x_positions)
            width = x_len + len(y_positions)
            specs.append((cid, x_len, width))
            rows = rows_by_cid[cid] = []
            scalar = x_len == 1
            for row in self._store.scan(constraint.relation_name):
                coded = encode_row(row)
                key = (coded[x_positions[0]] if scalar
                       else tuple(coded[p] for p in x_positions))
                if hash(key) % workers != i:
                    continue
                rows.append(tuple(coded[p] for p in x_positions)
                            + tuple(coded[p] for p in y_positions))
            shipped += len(rows) * width * 8
        values = self.dictionary.values_from(0)
        # Bootstrap must complete even under an expired request
        # deadline: an un-rebuilt shard would poison every later
        # request, not just the one that ran out of time.
        self._request(peer, ("attach", specs, rows_by_cid, values),
                      shipped, use_deadline=False)
        peer.known_values = len(values)

    def _bootstrap_replica(self, i: int) -> bool:
        """(Re)spawn replica ``i`` and ship snapshot + WAL tail.
        Callers hold ``_write_lock``.  Returns False when the replica
        could not be brought up (reads then fall back)."""
        store = self._store
        if not isinstance(store, DiskBackend):
            return False
        peer = self._replica_peers[i]
        if peer is None or peer.poisoned or not peer.process.is_alive():
            if peer is not None:
                self._retire(peer)
            peer = self._replica_peers[i] = self._spawn(i, "r")
        if store._snapshot_id == 0:
            store.snapshot()  # first bootstrap needs a snapshot to ship
        current = (store.data_dir / "CURRENT").read_text().strip()
        snap_dir = store.data_dir / current
        manifest = json.loads((snap_dir / "manifest.json").read_text())
        segments = {name: (snap_dir / f"{name}.seg").read_bytes()
                    for name in self.schema.relation_names()}
        wal = (store._wal_path.read_bytes()
               if store._wal_path.is_file() else b"")
        values = self.dictionary.values_from(0)
        payload = {
            "segments": segments,
            "generations": manifest["generations"],
            "wal": wal,
            "values": values,
            "specs": [(cid, constraint.relation_name,
                       list(x_positions), list(y_positions))
                      for cid, constraint, x_positions, y_positions
                      in self._specs],
            "snapshot_id": store._snapshot_id,
        }
        shipped = sum(len(seg) for seg in segments.values()) + len(wal)
        try:
            result = self._request(peer, ("bootstrap", payload), shipped,
                                   use_deadline=False)
        except _PeerFailure:
            return False
        peer.known_values = len(values)
        peer.wal_offset = result["wal_offset"]
        peer.snapshot_id = store._snapshot_id
        peer.gens = result["generations"]
        self._counters["replica_bootstraps_total"] += 1
        self._counters["replica_wal_bytes_shipped_total"] += len(wal)
        return True

    def _workers_live(self) -> bool:
        return any(peer is not None for peer in self._worker_peers)

    # -- the write-delta maintenance hook ----------------------------------

    # Every write lands on the authoritative inner store (under
    # _write_lock, after shipping), so the store's own emission is the
    # complete, ordered delta stream — coordinator listeners simply
    # subscribe there.  The coordinator aliases the store's dictionary
    # and generation map, so deltas carry exactly the codes and
    # generations a coordinator-side cache observes.

    def add_write_listener(self, listener) -> None:
        self._store.add_write_listener(listener)

    def remove_write_listener(self, listener) -> None:
        self._store.remove_write_listener(listener)

    # -- writes (ship to workers, then apply to the store) -----------------

    def insert_rows(self, relation_name: str, rows: Iterable[Row]) -> int:
        batch = dict.fromkeys(tuple(row) for row in rows)
        with self._write_lock:
            store = self._store
            fresh = [row for row in batch
                     if not store.contains(relation_name, row)]
            if not fresh:
                return 0
            check = getattr(store, "_check_rows", None)
            if check is not None:  # fail before anything ships
                check(fresh)
            self._ship_write(relation_name, fresh, deleting=False)
            try:
                return store.insert_rows(relation_name, fresh)
            except BaseException:
                # Workers applied a batch the store rejected: undo it
                # so the shards never drift ahead of the truth.
                self._ship_write(relation_name, fresh, deleting=True)
                raise

    def delete_rows(self, relation_name: str, rows: Iterable[Row]) -> int:
        batch = dict.fromkeys(tuple(row) for row in rows)
        with self._write_lock:
            store = self._store
            present = [row for row in batch
                       if store.contains(relation_name, row)]
            if not present:
                return 0
            self._ship_write(relation_name, present, deleting=True)
            try:
                return store.delete_rows(relation_name, present)
            except BaseException:
                self._ship_write(relation_name, present, deleting=False)
                raise

    def clear(self) -> None:
        with self._write_lock:
            for peer in self._worker_peers:
                if peer is None:
                    continue
                try:
                    # Write-plane op: deadline-immune like every other
                    # shipped mutation (half-cleared shards would drift
                    # from the authoritative store).
                    self._request(peer, ("clear",), 0,
                                  use_deadline=False)
                except _PeerFailure as failure:
                    raise StorageError(
                        f"shard worker failed during clear: "
                        f"{failure}") from failure
            self._store.clear()

    def _ship_write(self, relation_name: str, rows: list[Row],
                    deleting: bool) -> None:
        """Project + encode the batch per constraint, bucket by shard
        and ship one ``write`` op (with its dictionary delta) to every
        touched worker.  Callers hold ``_write_lock``."""
        if not self._specs or not self._workers_live():
            return
        workers = self.workers
        encode_row = self.dictionary.encode_row
        ops: list[list] = [[] for _ in range(workers)]
        shipped = [0] * workers
        for cid, constraint, x_positions, y_positions in self._specs:
            if constraint.relation_name != relation_name:
                continue
            scalar = len(x_positions) == 1
            width = len(x_positions) + len(y_positions)
            buckets: list[list] = [[] for _ in range(workers)]
            for row in rows:
                coded = encode_row(row)
                key = (coded[x_positions[0]] if scalar
                       else tuple(coded[p] for p in x_positions))
                buckets[hash(key) % workers].append(
                    tuple(coded[p] for p in x_positions)
                    + tuple(coded[p] for p in y_positions))
            for w, bucket in enumerate(buckets):
                if bucket:
                    ops[w].append((cid, deleting, bucket))
                    shipped[w] += len(bucket) * width * 8
        for w in range(workers):
            if ops[w]:
                self._ship_write_one(w, ops[w], shipped[w])

    def _ship_write_one(self, w: int, ops: list, shipped: int) -> None:
        # Write shipping ignores the ambient request deadline: once a
        # batch starts crossing pipes it must land everywhere or be
        # compensated — aborting halfway would leave shards drifted
        # from the authoritative store.  Deadline enforcement for
        # writes belongs before this point.
        for attempt in (0, 1):
            peer = self._worker_peers[w]
            delta = self.dictionary.values_from(peer.known_values)
            try:
                self._request(peer, ("write", ops, delta), shipped,
                              use_deadline=False)
                peer.known_values += len(delta)
                return
            except _PeerFailure as failure:
                if attempt:
                    raise StorageError(
                        f"shard worker {w} failed during write "
                        f"shipping: {failure}") from failure
                # Respawn and rebuild from the store — which does not
                # yet contain this batch, so the retried op lands on a
                # clean pre-batch slice.
                self._counters["worker_respawns_total"] += 1
                self._counters["rpc_retries_total"] += 1
                self._bootstrap_worker(w)

    # -- reads: route encoded batches across workers and replicas ---------

    def _next_replica(self) -> int | None:
        """Round-robin over ``1 + replicas`` read targets; slot 0 is
        the writer (workers/local)."""
        if not self.replicas:
            return None
        slot = self._rr % (self.replicas + 1)
        self._rr += 1
        return None if slot == 0 else slot - 1

    def fetch_flat_encoded(self, constraint: AccessConstraint,
                           keys: Sequence) -> tuple[list, int]:
        resolution, entry = self._store._resolved_indexes(constraint)
        _, attached, key_perm, row_proj, dedup = resolution
        cid = self._cids.get(id(attached))
        if (cid is None or len(keys) < self.fanout_threshold
                or not self._workers_live()):
            self._counters["local_reads_total"] += 1
            return self._store.fetch_flat_encoded(constraint, keys)
        wire_keys = self._permute_keys(keys, key_perm)
        width = entry.width if row_proj is None else len(row_proj)
        replica = self._next_replica()
        if replica is not None:
            result = self._replica_fetch(
                replica, "ff", cid, attached.relation_name, wire_keys,
                row_proj, dedup, width)
            if result is not None:
                return result
        result = self._worker_fetch(
            "ff", cid, wire_keys, row_proj, dedup, width)
        if result is not None:
            return result
        self._counters["local_reads_total"] += 1
        return self._store.fetch_flat_encoded(constraint, keys)

    def fetch_many_encoded(self, constraint: AccessConstraint,
                           keys: Sequence) -> list[tuple[tuple, int]]:
        resolution, entry = self._store._resolved_indexes(constraint)
        _, attached, key_perm, row_proj, dedup = resolution
        cid = self._cids.get(id(attached))
        if (cid is None or len(keys) < self.fanout_threshold
                or not self._workers_live()):
            self._counters["local_reads_total"] += 1
            return self._store.fetch_many_encoded(constraint, keys)
        wire_keys = self._permute_keys(keys, key_perm)
        width = entry.width if row_proj is None else len(row_proj)
        replica = self._next_replica()
        if replica is not None:
            result = self._replica_fetch(
                replica, "fm", cid, attached.relation_name, wire_keys,
                row_proj, dedup, width)
            if result is not None:
                return result
        result = self._worker_fetch(
            "fm", cid, wire_keys, row_proj, dedup, width)
        if result is not None:
            return result
        self._counters["local_reads_total"] += 1
        return self._store.fetch_many_encoded(constraint, keys)

    def _worker_fetch(self, op: str, cid: int, keys: Sequence,
                      row_proj, dedup, width: int):
        """Fan an encoded batch out across the shard workers; one
        respawn-and-retry on a dead worker, None (fall back) after."""
        workers = self.workers
        positions: list[list[int]] | None
        if op == "ff":
            # Flat fetches need no per-key alignment, so keys are
            # bucketed directly instead of paying the position
            # indirection the aligned path below needs.  Bare int
            # codes are non-negative and hash to themselves, so the
            # modulo runs on the code itself — same placement as the
            # hash() the bootstrap partition uses, one call cheaper.
            buckets: list[list] = [[] for _ in range(workers)]
            appends = [bucket.append for bucket in buckets]
            if keys and type(keys[0]) is int:
                for key in keys:
                    appends[key % workers](key)
            else:
                for key in keys:
                    appends[hash(key) % workers](key)
            positions = None
            touched = [w for w in range(workers) if buckets[w]]
            payloads = [buckets[w] for w in touched]
        else:
            positions = [[] for _ in range(workers)]
            for position, key in enumerate(keys):
                positions[hash(key) % workers].append(position)
            touched = [w for w in range(workers) if positions[w]]
            payloads = [[keys[p] for p in positions[w]] for w in touched]
        attempts = max(2, self._retry.attempts)
        delays = self._retry.delays()
        for attempt in range(attempts):
            requests = [
                (self._worker_peers[w],
                 (op, cid, payload, row_proj, dedup),
                 self._key_bytes(payload))
                for w, payload in zip(touched, payloads)]
            try:
                with span("rpc_fetch"):
                    parts = self._fanout(requests)
                break
            except _PeerFailure as failure:
                if failure.deadline:
                    # The request ran out of time, not the peer out of
                    # health: no respawn, no retry, no local fallback —
                    # surface the typed abort to the caller.
                    raise DeadlineExceeded("procshard_rpc") from failure
                if attempt == attempts - 1:
                    return None
                self._counters["worker_respawns_total"] += 1
                self._counters["rpc_retries_total"] += 1
                backoff = next(delays, 0.0)
                if backoff:
                    time.sleep(backoff)
                dead = failure.peer
                with self._write_lock:
                    self._bootstrap_worker(
                        dead.index if dead is not None else 0)
        self._counters["worker_reads_total"] += 1
        if op == "fm":
            out: list = [None] * len(keys)
            received = 0
            for w, part in zip(touched, parts):
                for position, entry in zip(positions[w], part):
                    out[position] = entry
                    received += entry[1]
            self._counters["rpc_bytes_received_total"] += (
                received * width * 8)
            return out
        merged = [int_column() for _ in range(width)]
        total = 0
        for cols, length in parts:
            if not length:
                continue
            if not total:
                merged = cols  # adopt the first non-empty part's arrays
            else:
                for i in range(width):
                    merged[i].extend(cols[i])
            total += length
        self._counters["rpc_bytes_received_total"] += total * width * 8
        return merged, total

    def _replica_fetch(self, i: int, op: str, cid: int, relation: str,
                       keys: Sequence, row_proj, dedup, width: int):
        """Serve one whole batch from replica ``i`` iff its circuit
        breaker admits traffic and it has caught up to the writer's
        generation for ``relation``; None means the caller should use
        the writer path instead.  Failures feed the breaker, so a
        flapping replica degrades to writer-local reads (a counter
        bump per read) instead of a bootstrap storm."""
        breaker = self._breakers[i]
        if not breaker.allow():
            self._counters["replica_breaker_skips_total"] += 1
            return None
        peer = self._replica_peers[i]
        needed = self._generations[relation]
        if (peer is None or peer.poisoned
                or peer.gens.get(relation, -1) < needed):
            if not self._catch_up_replica(i):
                breaker.record_failure()
                return None
            peer = self._replica_peers[i]
            if peer is None or peer.gens.get(relation, -1) < needed:
                breaker.record_failure()
                return None
        try:
            with span("rpc_replica_fetch"):
                payload = self._request(
                    peer, (op, cid, keys, row_proj, dedup),
                    self._key_bytes(keys))
        except _PeerFailure as failure:
            if failure.deadline:
                raise DeadlineExceeded("procshard_replica_rpc") from failure
            breaker.record_failure()
            return None
        breaker.record_success()
        self._counters["replica_reads_total"] += 1
        if op == "fm":
            received = sum(length for _, length in payload)
            self._counters["rpc_bytes_received_total"] += (
                received * width * 8)
            return payload
        cols, length = payload
        self._counters["rpc_bytes_received_total"] += length * width * 8
        return cols, length

    def _catch_up_replica(self, i: int) -> bool:
        """Ship the WAL tail (or re-bootstrap after a writer
        compaction) so replica ``i`` reaches the writer's generations."""
        with self._write_lock:
            store = self._store
            if not isinstance(store, DiskBackend):
                return False
            peer = self._replica_peers[i]
            if (peer is None or peer.poisoned
                    or not peer.process.is_alive()
                    or peer.snapshot_id != store._snapshot_id):
                return self._bootstrap_replica(i)
            try:
                with open(store._wal_path, "rb") as handle:
                    handle.seek(peer.wal_offset)
                    chunk = handle.read()
            except OSError:
                return self._bootstrap_replica(i)
            fault = fault_hook("wal_ship")
            if fault is not None and fault.kind == "torn_tail":
                # Ship a chunk cut mid-frame: the replica must consume
                # only up to its last intact record and the remainder
                # re-ships on the next catch-up.
                chunk = chunk[:max(0, len(chunk) - int(fault.arg))]
            delta = self.dictionary.values_from(peer.known_values)
            try:
                result = self._request(
                    peer, ("wal", chunk, delta), len(chunk))
            except _PeerFailure as failure:
                if failure.deadline:
                    # Out of request time, not a replica fault: leave
                    # the (poisoned) peer for the housekeeping probe
                    # instead of re-bootstrapping on a dead budget.
                    return False
                return self._bootstrap_replica(i)
            peer.known_values += len(delta)
            peer.wal_offset += result["consumed"]
            peer.gens = result["generations"]
            self._counters["replica_catchups_total"] += 1
            self._counters["replica_wal_bytes_shipped_total"] += len(chunk)
            return True

    # -- the value plane delegates to the authoritative store --------------

    def scan(self, relation_name: str) -> list[Row]:
        return self._store.scan(relation_name)

    def relation_size(self, relation_name: str) -> int:
        return self._store.relation_size(relation_name)

    def contains(self, relation_name: str, row: Row) -> bool:
        return self._store.contains(relation_name, row)

    def fetch_many(self, constraint: AccessConstraint,
                   x_values: Sequence[Row]) -> list[list[Row]]:
        # Value-space fetches stay local: the RPC surface is the
        # *encoded* boundary (code keys in, code columns out); value
        # rows never cross a pipe.
        return self._store.fetch_many(constraint, x_values)

    def fetch_flat(self, constraint: AccessConstraint,
                   x_values: Sequence[Row]) -> list[Row]:
        return self._store.fetch_flat(constraint, x_values)

    def constraint_groups(self, constraint: AccessConstraint
                          ) -> Iterator[tuple[Row, int]]:
        return self._store.constraint_groups(constraint)

    def indexes_for(self, relation_name: str) -> list[AccessIndex]:
        return self._store.indexes_for(relation_name)

    def snapshot(self):
        """Compact the durable writer (replicas re-bootstrap on their
        next read — the snapshot id is the epoch of the shipped WAL)."""
        if not isinstance(self._store, DiskBackend):
            raise StorageError(
                "snapshot() needs a durable procshard (data_dir=...)")
        with self._write_lock:
            return self._store.snapshot()

    # -- observability -----------------------------------------------------

    def counters(self) -> dict:
        merged = self._store.counters()
        merged.update({key: round(value, 6) if isinstance(value, float)
                       else value
                       for key, value in self._counters.items()})
        merged["replica_breaker_opens_total"] = sum(
            breaker.opens_total for breaker in self._breakers)
        return merged

    def gauges(self) -> dict:
        levels = super().gauges()
        levels["workers_alive"] = sum(
            1 for peer in self._worker_peers
            if peer is not None and peer.process.is_alive())
        levels["replicas_alive"] = sum(
            1 for peer in self._replica_peers
            if peer is not None and peer.process.is_alive())
        for i, breaker in enumerate(self._breakers):
            # 0=closed, 1=open, 2=half-open (resilience module encoding).
            levels[f"replica_breaker_state_r{i}"] = breaker.state
        return levels

    def histograms(self) -> list:
        return [self._rpc_histogram, *self._worker_histograms]

    def describe(self) -> str:
        return (f"procshard(workers={self.workers}, "
                f"replicas={self.replicas}, "
                f"store={self._store.describe()}, "
                f"threshold={self.fanout_threshold})")

    # -- health ------------------------------------------------------------

    def health_check(self) -> dict:
        """One housekeeping pass over the fleet: respawn dead or
        poisoned workers off the request path, and probe half-open
        replica breakers with a ping so a recovered replica re-closes
        without waiting for live read traffic to gamble on it.

        Safe to call from a background thread at any cadence; returns
        a summary the serving tier logs."""
        report = {"workers_respawned": 0, "replicas_probed": 0,
                  "replicas_reclosed": 0}
        if self._closed or not self._specs:
            return report
        for i, peer in enumerate(self._worker_peers):
            if (peer is None or peer.poisoned
                    or not peer.process.is_alive()):
                with self._write_lock:
                    try:
                        self._bootstrap_worker(i)
                    except _PeerFailure:
                        continue
                self._counters["worker_respawns_total"] += 1
                report["workers_respawned"] += 1
        for i, breaker in enumerate(self._breakers):
            if breaker.state != HALF_OPEN:
                continue
            report["replicas_probed"] += 1
            peer = self._replica_peers[i]
            try:
                if (peer is None or peer.poisoned
                        or not peer.process.is_alive()):
                    with self._write_lock:
                        healthy = self._bootstrap_replica(i)
                else:
                    healthy = self._request(
                        peer, ("ping",), 0, use_deadline=False) == "pong"
            except _PeerFailure:
                healthy = False
            if healthy:
                breaker.record_success()
                report["replicas_reclosed"] += 1
            else:
                breaker.record_failure()
        return report

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop every child, close the pipes, close the inner store
        (idempotent).  The polite phase (stop handshake + join) runs
        under a ``close_timeout_s`` budget; a peer that is still alive
        when the budget runs out is escalated to ``terminate()`` and,
        if it shrugs that off too, ``kill()`` — so ``close()`` returns
        in bounded time even with a worker wedged mid-request."""
        with self._write_lock:
            if self._closed:
                return
            self._closed = True
            peers = [peer for peer
                     in (*self._worker_peers, *self._replica_peers)
                     if peer is not None]
            self._worker_peers = [None] * self.workers
            self._replica_peers = [None] * self.replicas
        budget = Deadline.after(self.close_timeout_s)
        for peer in peers:
            self._shutdown_peer(peer, budget)
        _LIVE_BACKENDS.discard(self)
        self._store.close()

    def _shutdown_peer(self, peer: _Peer, budget: Deadline) -> None:
        # A request thread wedged inside _recv holds the peer lock;
        # don't inherit its fate — skip the handshake and let the
        # escalation below reclaim the process.
        locked = peer.lock.acquire(timeout=budget.timeout(0.5))
        try:
            if locked:
                try:
                    peer.conn.send(("stop",))
                    if peer.conn.poll(budget.timeout(1.0)):
                        peer.conn.recv()
                except (OSError, EOFError, ValueError):
                    pass
        finally:
            if locked:
                peer.lock.release()
        try:
            peer.conn.close()
        except OSError:
            pass
        peer.process.join(timeout=budget.timeout(self.close_timeout_s))
        if peer.process.is_alive():
            self._counters["close_escalations_total"] += 1
            peer.process.terminate()
            peer.process.join(timeout=max(0.2, budget.timeout(1.0)))
            if peer.process.is_alive():
                peer.process.kill()
                peer.process.join(timeout=1.0)

    def emergency_stop(self) -> None:
        """The atexit/last-resort teardown: no stop handshake, no
        polite joins — close pipes, SIGKILL anything still alive, close
        the store.  Used by the module's interpreter-exit sweep so a
        coordinator abandoned without ``close()`` cannot orphan its
        children."""
        self._closed = True
        peers = [peer for peer
                 in (*self._worker_peers, *self._replica_peers)
                 if peer is not None]
        self._worker_peers = [None] * self.workers
        self._replica_peers = [None] * self.replicas
        for peer in peers:
            try:
                peer.conn.close()
            except OSError:
                pass
            if peer.process.is_alive():
                peer.process.kill()
        for peer in peers:
            peer.process.join(timeout=1.0)
        try:
            self._store.close()
        except Exception:
            pass
