"""The process-sharded coordinator: the encoded boundary as an RPC.

:class:`ProcessShardedBackend` escapes the GIL by running each index
shard in its own **process** (spawn-safe, daemonic) and speaking the
one storage read, ``read_codes``, across the pipe: a ``read`` request
ships ``(constraint id, encoded X-key codes)``, a response ships flat
``array('q')`` code columns plus per-key row counts — the exact
payloads the in-process engines already produce, so nothing above
storage changes and answers stay bit-identical.  The four public reads
are the adapters every engine inherits; value rows never cross a pipe.

Topology and ownership:

* the coordinator owns the *value* plane: the single
  :class:`~repro.storage.encoding.ValueDictionary`, the authoritative
  row stores (a :class:`~repro.storage.backend.MemoryBackend`, or a
  :class:`~repro.storage.disk.DiskBackend` when ``data_dir`` is given)
  and the per-relation generations — workers only ever see codes;
* each of ``workers`` shard processes holds a code-space partition of
  every constraint's index, placed by ``hash(X-key codes) % workers``
  (codes are dense and append-only, so placement is stable and needs
  no decoding).

Write ordering (the cache-soundness contract): writes run the inner
store's one write loop with shipping as its outer hook, ahead of the
store's own, so workers receive a batch *before* the inner store logs
it, applies it and bumps the generation: any reader that observes the
new generation is guaranteed to see the new rows on every worker.
Writes and attaches keep a write sequence odd while they run, and a
read that overlapped one is repeated once it is done, so no reader
sees shipped rows before their generation — procshard reads are as
exact as the in-process engines'.  A write that fails after shipping
(the disk WAL refusing it, say) leaves the workers rebuilt from the
store; a failed worker is respawned and rebuilt from it too.  Every
RPC follows one retry rule: a failed exchange respawns the worker,
rebuilds it from the store and tries once more; a second failure (or a
replacement that cannot be rebuilt) makes a read fall back to the
store and a write raise :class:`~repro.errors.StorageError`.

Fetches below ``fanout_threshold`` keys are served from the
coordinator's own store — pipe round trips only pay for themselves on
bulk batches.
"""

from __future__ import annotations

import atexit
import multiprocessing
import threading
import time
import weakref
from contextlib import contextmanager
from itertools import chain
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
    """One worker RPC failed (dead pipe, timeout, or an ``err``
    reply).  Internal: call sites respawn/rebuild, fall back or raise
    :class:`StorageError`; this never escapes the backend.
    ``deadline=True`` marks an abort caused by the *request's* deadline
    rather than peer health — call sites convert it to
    :class:`DeadlineExceeded` instead of respawning and retrying."""

    def __init__(self, peer: "_Peer | None", reason: str,
                 deadline: bool = False):
        super().__init__(reason)
        self.peer = peer
        self.deadline = deadline


class _Peer:
    """One shard worker process plus its pipe."""

    __slots__ = ("index", "process", "conn", "lock", "known_values",
                 "sent_at", "poisoned")

    def __init__(self, index: int, process, conn):
        self.index = index
        self.process = process
        self.conn = conn
        self.lock = threading.RLock()
        self.known_values = 0   # dictionary prefix this peer has seen
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
    """Shard-per-process storage.

    ``workers`` is the shard process count (>= 1).  With ``data_dir``
    the authoritative store is a durable :class:`DiskBackend`,
    otherwise it is in-memory.
    """

    #: Every fan-out pays one pipe round trip per touched worker; below
    #: this many keys the coordinator's local index wins outright.
    FANOUT_THRESHOLD = 32

    #: How long a single RPC may take before the peer is declared dead
    #: (overridable per backend; a request deadline tightens it further).
    RPC_TIMEOUT_S = 120.0

    #: Total budget for the polite phase of ``close()`` before the
    #: escalation to ``terminate()``/``kill()`` starts (an instance may
    #: shadow it).
    close_timeout_s = 5.0

    def __init__(self, schema: Schema, workers: int = 4, data_dir=None,
                 fsync: bool = False, fanout_threshold: int | None = None,
                 rpc_timeout_s: float | None = None):
        if workers < 1:
            raise StorageError(
                f"procshard needs at least one worker process, "
                f"got {workers}")
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
        self.fanout_threshold = (self.FANOUT_THRESHOLD
                                 if fanout_threshold is None
                                 else max(0, fanout_threshold))
        self.rpc_timeout_s = (self.RPC_TIMEOUT_S if rpc_timeout_s is None
                              else float(rpc_timeout_s))
        if self.rpc_timeout_s <= 0:
            raise StorageError(
                f"rpc_timeout_s must be positive, got {self.rpc_timeout_s}")
        self._write_lock = threading.RLock()
        # Odd while a write or attach holds _write_lock (see _writing).
        self._write_seq = 0
        self._worker_peers: list[_Peer | None] = [None] * workers
        # id(attached constraint) -> wire constraint id, plus each
        # wire id with the store's index, whose X∪Y layout workers use.
        self._cids: dict[int, int] = {}
        self._specs: list[tuple[int, AccessIndex]] = []
        self._closed = False
        self._counters: dict[str, int | float] = {
            "rpc_requests_total": 0,
            "rpc_bytes_shipped_total": 0,
            "rpc_bytes_received_total": 0,
            "rpc_roundtrip_seconds_total": 0.0,
            "worker_reads_total": 0,
            # Always 0 (there are no read replicas): kept because
            # ledger/workloads.py sums it into procshard's remote-read
            # share on every traced run.
            "replica_reads_total": 0,
            "local_reads_total": 0,
            "worker_respawns_total": 0,
            "rpc_timeouts_total": 0,
            "rpc_deadline_aborts_total": 0,
            "rpc_retries_total": 0,
            "close_escalations_total": 0,
        }
        self._rpc_histogram = Histogram(
            "repro_storage_rpc_roundtrip_seconds",
            "Coordinator-observed RPC round trips (all peers)")
        self._conns_for_gc: list = []
        self._finalizer = weakref.finalize(
            self, _close_connections, self._conns_for_gc)
        _LIVE_BACKENDS.add(self)

    # -- process plumbing --------------------------------------------------

    def _spawn(self, index: int) -> _Peer:
        parent, child = _SPAWN.Pipe()
        process = _SPAWN.Process(
            target=worker_main, args=(child,), daemon=True,
            name=f"repro-procshard-w{index}")
        process.start()
        child.close()
        self._conns_for_gc.append(parent)
        return _Peer(index, process, parent)

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
                peer, f"worker {peer.index} is poisoned (stale "
                      f"reply pending); awaiting replacement")
        counters = self._counters
        counters["rpc_requests_total"] += 1
        counters["rpc_bytes_shipped_total"] += shipped
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
                peer, f"worker {peer.index} send failed: "
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
                    peer, f"worker {peer.index} reply dropped "
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
                        peer, f"worker {peer.index} abandoned: "
                              f"request deadline expired",
                        deadline=True)
                counters["rpc_timeouts_total"] += 1
                raise _PeerFailure(
                    peer, f"worker {peer.index} timed out after "
                          f"{timeout:g}s")
            kind, payload = peer.conn.recv()
        except (EOFError, OSError) as error:
            raise _PeerFailure(
                peer, f"worker {peer.index} recv failed: "
                      f"{error}") from error
        elapsed = time.perf_counter() - peer.sent_at
        counters["rpc_roundtrip_seconds_total"] += elapsed
        self._rpc_histogram.observe(elapsed)
        if kind != "ok":
            raise _PeerFailure(
                peer, f"worker {peer.index} replied: {payload}")
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
        trajectory-gated counters.  The same logic prices a reply at
        8 bytes per returned code; its per-key row counts are framing
        and are not counted."""
        if not keys:
            return 0
        width = 1 if isinstance(keys[0], int) else len(keys[0])
        return 8 * width * len(keys)

    # -- attach: spawn + bootstrap the fleet -------------------------------

    @contextmanager
    def _writing(self):
        """Hold the write lock with the write sequence odd, so a read
        that overlaps the write can tell (see :meth:`read_codes`)."""
        with self._write_lock:
            self._write_seq += 1
            try:
                yield
            finally:
                self._write_seq += 1

    def attach_access_schema(self, access_schema: AccessSchema) -> None:
        with self._writing():
            self._store.attach_access_schema(access_schema)
            self.access_schema = access_schema
            self._reset_resolutions()
            self._cids = {id(constraint): cid for cid, constraint
                          in enumerate(access_schema)}
            self._specs = [(cid, self._store._indexes[id(constraint)])
                           for cid, constraint in enumerate(access_schema)]
            for i in range(self.workers):
                self._rebuild_worker(i)

    def _bootstrap_worker(self, i: int) -> None:
        """(Re)spawn worker ``i`` and rebuild its shard slice from the
        authoritative store (callers hold ``_write_lock`` or accept the
        pre-batch snapshot semantics documented on the write path)."""
        peer = self._worker_peers[i]
        if peer is None or peer.poisoned or not peer.process.is_alive():
            if peer is not None:
                self._retire(peer)
            peer = self._worker_peers[i] = self._spawn(i)
        specs = []
        rows_by_cid: dict[int, list] = {}
        coded: dict[str, list] = {}
        shipped = 0
        for cid, index in self._specs:
            specs.append((cid, len(index.x_positions), index.width))
            name = index.constraint.relation_name
            if name not in coded:
                coded[name] = self.dictionary.encode_rows(
                    self._store.scan(name))
            rows = rows_by_cid[cid] = self._placed(index, coded[name])[i]
            shipped += len(rows) * index.width * 8
        values = self.dictionary.values_from(0)
        # Bootstrap must complete even under an expired request
        # deadline: an un-rebuilt shard would poison every later
        # request, not just the one that ran out of time.
        self._request(peer, ("attach", specs, rows_by_cid, values),
                      shipped, use_deadline=False)
        peer.known_values = len(values)

    def _rebuild_worker(self, i: int) -> bool:
        """Respawn-and-rebuild worker ``i`` under the write lock.  A
        replacement that fails its own bootstrap is marked poisoned
        (the next rebuild replaces it again) and False is returned."""
        with self._write_lock:
            try:
                self._bootstrap_worker(i)
            except _PeerFailure:
                self._worker_peers[i].poisoned = True
                return False
        return True

    def _retry_on_rebuilt(self, i: int) -> bool:
        """The one retry rule, for reads and writes alike: count a
        respawn and a retry, then rebuild worker ``i``.  No backoff —
        the replacement was just rebuilt synchronously, so the retry
        either lands or the caller gives up."""
        self._counters["worker_respawns_total"] += 1
        self._counters["rpc_retries_total"] += 1
        return self._rebuild_worker(i)

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

    # -- writes: the store's one write loop, with shipping as its hook -----

    # Every write runs the inner store's loop under _write_lock, with
    # _ship_write as its outer hook: the loop ships the effective rows
    # before the store's own hook (the disk WAL) runs, then applies them
    # and bumps the generation.  Ship-before-WAL: a shipment that failed
    # after the append would leave the log holding a write the store
    # never applied.  Ship-before-bump: shipping after the bump would
    # let a reader cache pre-write worker rows under the post-write
    # epoch.  The rows a worker holds between ship and bump are never
    # served, because read_codes repeats any read that overlapped a
    # write (tests/storage/test_replica_race.py).

    def insert_rows(self, relation_name: str, rows: Iterable[Row]) -> int:
        return self._write("i", relation_name, rows)

    def delete_rows(self, relation_name: str, rows: Iterable[Row]) -> int:
        return self._write("d", relation_name, rows)

    def clear(self) -> None:
        self._write("c")

    def _write(self, op: str, relation_name: str | None = None,
               rows: Iterable[Row] = ()) -> int:
        """Run the store's write loop with shipping as its outer hook.
        If the write fails, every worker is rebuilt from the store: an
        inverse shipment cannot undo a partly shipped batch, since
        deleting a row a worker never received would decrement another
        row's witness count."""
        with self._writing():
            try:
                return self._store._write(op, relation_name, rows,
                                          self._ship_write)
            except BaseException:
                if self._workers_live():
                    for i in range(self.workers):
                        self._rebuild_worker(i)
                raise

    def _ship_write(self, op: str, relation_name: str | None,
                    rows: list[Row]) -> None:
        """The outer hook on the store's write loop.  Ship a clear to
        every worker; otherwise project + encode the batch per
        constraint, bucket by shard and ship one ``write`` op (with its
        dictionary delta) to every touched worker."""
        if not self._specs or not self._workers_live():
            return
        workers = self.workers
        if op == "c":
            for w in range(workers):
                self._ship_write_one(w, None, 0)
            return
        deleting = op == "d"
        ops: list[list] = [[] for _ in range(workers)]
        shipped = [0] * workers
        coded = None
        for cid, index in self._specs:
            if index.constraint.relation_name != relation_name:
                continue
            if coded is None:
                coded = self.dictionary.encode_rows(rows)
            for w, bucket in enumerate(self._placed(index, coded)):
                if bucket:
                    ops[w].append((cid, deleting, bucket))
                    shipped[w] += len(bucket) * index.width * 8
        for w in range(workers):
            if ops[w]:
                self._ship_write_one(w, ops[w], shipped[w])

    def _placed(self, index: AccessIndex, coded_rows: list) -> list[list]:
        """Project encoded rows onto ``index``'s ``X∪Y`` codes and bucket
        each by the worker its X-key codes place it on — the one
        placement writes and bootstraps share."""
        workers = self.workers
        x_len = len(index.x_positions)
        buckets: list[list] = [[] for _ in range(workers)]
        for coded in map(index.project, coded_rows):
            key = coded[0] if x_len == 1 else coded[:x_len]
            buckets[hash(key) % workers].append(coded)
        return buckets

    def _ship_write_one(self, w: int, ops: "list | None",
                        shipped: int) -> None:
        """Ship worker ``w`` its ``write`` ops, or a ``clear`` when
        ``ops`` is None."""
        # Write shipping ignores the ambient request deadline: once a
        # batch starts crossing pipes it must land everywhere or be
        # compensated — aborting halfway would leave shards drifted
        # from the authoritative store.  Deadline enforcement for
        # writes belongs before this point.
        for attempt in (0, 1):
            peer = self._worker_peers[w]
            delta = ([] if ops is None
                     else self.dictionary.values_from(peer.known_values))
            request = ("clear",) if ops is None else ("write", ops, delta)
            try:
                self._request(peer, request, shipped, use_deadline=False)
                peer.known_values += len(delta)
                return
            except _PeerFailure as failure:
                # The rebuild reads the store, which does not yet hold
                # this batch, so the retried op lands on a clean
                # pre-batch slice.  Raising runs before the store's own
                # hook, so the relation stays unchanged.
                if attempt or not self._retry_on_rebuilt(w):
                    raise StorageError(
                        f"shard worker {w} failed during write "
                        f"shipping: {failure}") from failure

    # -- reads: route encoded batches across the workers ------------------

    def read_codes(self, constraint: AccessConstraint, keys: Sequence
                   ) -> tuple[list, list[int], "Sequence | None"]:
        """Route one read.  A read that overlapped a write or an attach
        may hold rows shipped but not yet committed under a generation
        (or answered under a retired constraint id), so it waits the
        write out and reads again: worker reads are exactly as fresh as
        the store's.  The lock is not held while reading, so resolving
        the constraint never waits on a writer."""
        while True:
            seq = self._write_seq
            if not seq % 2:
                result = self._route_read(constraint, keys)
                if seq == self._write_seq:
                    return result
            with self._write_lock:
                if self._write_seq % 2:
                    # Odd under the lock: this thread is the writer.
                    return self._route_read(constraint, keys)

    def _route_read(self, constraint: AccessConstraint, keys: Sequence
                    ) -> tuple[list, list[int], "Sequence | None"]:
        resolution, entry = self._store._resolved_indexes(constraint)
        _, attached, key_perm, row_proj, dedup = resolution
        cid = self._cids.get(id(attached))
        if (cid is None or len(keys) < self.fanout_threshold
                or not self._workers_live()):
            self._counters["local_reads_total"] += 1
            return self._store.read_codes(constraint, keys)
        wire_keys = self._permute_keys(keys, key_perm)
        width = entry.width if row_proj is None else len(row_proj)
        result = self._read_workers(cid, wire_keys, row_proj, dedup, width)
        if result is None:
            self._counters["local_reads_total"] += 1
            return self._store.read_codes(constraint, keys)
        if key_perm is None:
            return result
        # Name the answered keys in the caller's X order, not the wire's.
        cols, counts, order = result
        inverse = [key_perm.index(i) for i in range(len(key_perm))]
        return cols, counts, self._permute_keys(order, inverse)

    def _read_workers(self, cid: int, keys: Sequence, row_proj, dedup,
                      width: int):
        """Fan an encoded batch out across the shard workers; one
        respawn-and-retry on a failed worker, None (fall back to the
        store) after, or when the replacement cannot be rebuilt.

        Keys are bucketed by placement and answered bucket after
        bucket, so the result names its key order instead of paying a
        per-key realignment that flat reads never need."""
        workers = self.workers
        buckets: list[list] = [[] for _ in range(workers)]
        appends = [bucket.append for bucket in buckets]
        if keys and type(keys[0]) is int:
            # Stored codes are non-negative and hash to themselves, so
            # the modulo runs on the code itself — same placement as the
            # hash() the bootstrap partition uses, one call cheaper (a
            # negative sentinel matches nothing wherever it lands).
            for key in keys:
                appends[key % workers](key)
        else:
            for key in keys:
                appends[hash(key) % workers](key)
        touched = [w for w in range(workers) if buckets[w]]
        for attempt in (0, 1):
            requests = [
                (self._worker_peers[w],
                 ("read", cid, buckets[w], row_proj, dedup),
                 self._key_bytes(buckets[w]))
                for w in touched]
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
                if attempt or not self._retry_on_rebuilt(
                        failure.peer.index):
                    return None
        self._counters["worker_reads_total"] += 1
        cols = [int_column() for _ in range(width)]
        counts: list[int] = []
        for part_cols, part_counts in parts:
            for column, part in zip(cols, part_cols):
                column.extend(part)
            counts += part_counts
        self._counters["rpc_bytes_received_total"] += (
            len(cols[0]) * width * 8)
        return cols, counts, list(chain.from_iterable(
            buckets[w] for w in touched))

    # -- the value plane delegates to the authoritative store --------------

    def scan(self, relation_name: str) -> list[Row]:
        return self._store.scan(relation_name)

    def relation_size(self, relation_name: str) -> int:
        return self._store.relation_size(relation_name)

    def contains(self, relation_name: str, row: Row) -> bool:
        return self._store.contains(relation_name, row)

    def constraint_groups(self, constraint: AccessConstraint
                          ) -> Iterator[tuple[Row, int]]:
        return self._store.constraint_groups(constraint)

    def indexes_for(self, relation_name: str) -> list[AccessIndex]:
        return self._store.indexes_for(relation_name)

    def snapshot(self):
        """Compact the durable writer."""
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
        return merged

    def gauges(self) -> dict:
        levels = super().gauges()
        levels["workers_alive"] = sum(
            1 for peer in self._worker_peers
            if peer is not None and peer.process.is_alive())
        return levels

    def histograms(self) -> list:
        return [self._rpc_histogram]

    def describe(self) -> str:
        return (f"procshard(workers={self.workers}, "
                f"store={self._store.describe()}, "
                f"threshold={self.fanout_threshold})")

    # -- health ------------------------------------------------------------

    def health_check(self) -> dict:
        """One housekeeping pass over the fleet: respawn dead or
        poisoned workers off the request path.  Safe to call from a
        background thread at any cadence; returns a summary the
        serving tier logs."""
        report = {"workers_respawned": 0}
        if self._closed or not self._specs:
            return report
        for i, peer in enumerate(self._worker_peers):
            if (peer is None or peer.poisoned
                    or not peer.process.is_alive()):
                if self._rebuild_worker(i):
                    self._counters["worker_respawns_total"] += 1
                    report["workers_respawned"] += 1
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
            peers = [peer for peer in self._worker_peers
                     if peer is not None]
            self._worker_peers = [None] * self.workers
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
        peers = [peer for peer in self._worker_peers
                 if peer is not None]
        self._worker_peers = [None] * self.workers
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
