"""The durable storage engine: snapshot segments plus a write-ahead log.

:class:`DiskBackend` keeps the *read path* of
:class:`~repro.storage.backend.MemoryBackend` — rows in dicts, one
memoized :class:`~repro.storage.indexes.AccessIndex` per attached
constraint, so bounded fetches stay O(|answer|) — and puts *durability*
behind the same vectorized boundary:

* every effective write appends one framed record to ``wal.log``
  *before* it mutates the in-memory store (write-ahead), under the same
  lock that orders the index updates and the generation bump;
* :meth:`DiskBackend.snapshot` compacts the log: it writes one segment
  file per relation plus a manifest into a fresh ``snap-NNNNNN/``
  directory, atomically repoints ``CURRENT`` at it, then truncates the
  WAL and prunes obsolete snapshot directories;
* opening a directory replays the WAL over the latest snapshot.
  Replay is convergent — insert/delete records are absolute membership
  assignments per row — so a crash *between* publishing a snapshot and
  truncating the WAL is harmless: re-applying already-snapshotted
  records is a no-op.

On-disk layout (see README, "The disk engine")::

    data_dir/
      CURRENT            # name of the live snapshot dir (atomic rename)
      snap-000001/
        manifest.json    # {"format": 1, "snapshot": 1, "generations": {...}}
        <relation>.seg   # one framed record per row
      wal.log            # framed write records

Every durable file shares one framing: a record is the line
``<crc32 as 8 hex chars> <compact JSON payload>\\n``.  JSON never emits
a raw newline, so one record is exactly one line; a torn tail (partial
line, bad CRC, undecodable payload) identifies itself and recovery
discards it — and everything after it, since nothing later can be
trusted — then truncates the log so new records never append onto
garbage.

Write generations are durable too: each WAL record carries the
relation's *post-write* generation and the manifest stores the
generation map at snapshot time, so generations are monotonic across
restarts and a fetch cache's epoch (the generation of its last applied
delta) can never alias a pre-crash state onto post-crash contents.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import time
import zlib
from typing import Callable

try:
    import fcntl
except ImportError:  # non-POSIX: advisory single-owner locking disabled
    fcntl = None

from ..errors import StorageError
from ..faults import fault_hook
from ..obs.trace import span
from ..schema.relation import Schema
from .backend import MemoryBackend

Row = tuple

#: Row values must round-trip through JSON *by equality* — silently
#: turning a tuple into a list would corrupt set semantics on reopen.
_DURABLE_TYPES = (str, int, float, bool, type(None))

_FORMAT = 1


def _frame(record) -> bytes:
    """One framed record: ``crc32(payload) payload\\n``."""
    payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
    return b"%08x %s\n" % (zlib.crc32(payload), payload)


def scan_frames(path) -> tuple[list, int]:
    """Parse a framed file, stopping at the first damaged record.

    Returns ``(records, valid_length)`` where ``valid_length`` is the
    byte offset just past the last intact record — everything after it
    is a torn tail (partial write or corruption) the caller should
    discard.  Exposed as a plain function so recovery tests and
    diagnostics can inspect a log without a backend.
    """
    data = pathlib.Path(path).read_bytes()
    records: list = []
    offset = 0
    valid = 0
    while offset < len(data):
        end = data.find(b"\n", offset)
        if end < 0:
            break  # no newline: a partially flushed final record
        line = data[offset:end]
        if len(line) < 10 or line[8:9] != b" ":
            break
        try:
            crc = int(line[:8], 16)
        except ValueError:
            break
        payload = line[9:]
        if zlib.crc32(payload) != crc:
            break
        try:
            records.append(json.loads(payload.decode("utf-8")))
        except ValueError:
            break
        offset = end + 1
        valid = offset
    return records, valid


class DiskBackend(MemoryBackend):
    """A durable engine: MemoryBackend's hot path + WAL + snapshots.

    ``fsync=True`` additionally fsyncs the WAL after every record
    (power-loss durability); the default flushes to the OS per record,
    which survives process crashes — the failure mode the kill-point
    tests exercise.  One directory belongs to one live backend at a
    time; reopening the same directory is how a restart recovers.
    """

    def __init__(self, schema: Schema, data_dir, *, fsync: bool = False):
        super().__init__(schema)
        self.data_dir = pathlib.Path(data_dir)
        self.fsync = fsync
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self._wal_path = self.data_dir / "wal.log"
        self._snapshot_id = 0
        # Internal tallies (plain numbers, mutated under self._lock):
        # cheap enough to keep always-on, surfaced via counters().
        self._counters: dict[str, int | float] = {
            "wal_records_total": 0,
            "wal_bytes_total": 0,
            "wal_fsyncs_total": 0,
            "wal_append_seconds_total": 0.0,
            "wal_fsync_seconds_total": 0.0,
            "snapshots_total": 0,
            "snapshot_seconds_total": 0.0,
            "replay_records_total": 0,
            "replay_torn_bytes_total": 0,
            "recovered_rows_total": 0,
            "recover_seconds_total": 0.0,
        }
        self._lock_handle = self._acquire_dir_lock()
        try:
            self._recover()
            self._wal = open(self._wal_path, "ab")
        except BaseException:
            self._release_dir_lock()
            raise

    def counters(self) -> dict:
        """WAL/fsync/snapshot/recovery tallies (a point-in-time copy),
        plus the base backend's dictionary size."""
        with self._lock:
            merged = super().counters()
            merged.update({key: round(value, 6) if isinstance(value, float)
                           else value
                           for key, value in self._counters.items()})
            return merged

    def _acquire_dir_lock(self):
        """One live backend per directory: a second opener snapshotting
        would truncate a WAL the first is still appending to.  An
        advisory ``flock`` enforces it (and evaporates with the process,
        so a crash never wedges the directory)."""
        if fcntl is None:
            return None
        handle = open(self.data_dir / "LOCK", "a+b")
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            handle.close()
            raise StorageError(
                f"{self.data_dir} is already open in another live "
                "DiskBackend (possibly another process); close it first "
                "— one directory belongs to one backend at a time")
        return handle

    def _release_dir_lock(self) -> None:
        handle, self._lock_handle = self._lock_handle, None
        if handle is not None and not handle.closed:
            handle.close()  # closing drops the flock

    # -- recovery ----------------------------------------------------------

    def _recover(self) -> None:
        """Load the latest snapshot, then replay the WAL over it,
        truncating any torn tail."""
        started = time.perf_counter()
        with span("recover"):
            current = self.data_dir / "CURRENT"
            if current.is_file():
                self._load_snapshot(current.read_text().strip())
            if self._wal_path.is_file():
                records, valid = scan_frames(self._wal_path)
                for record in records:
                    self._replay(record)
                self._counters["replay_records_total"] += len(records)
                torn = self._wal_path.stat().st_size - valid
                if torn > 0:
                    self._counters["replay_torn_bytes_total"] += torn
                    with open(self._wal_path, "r+b") as handle:
                        handle.truncate(valid)
            self._counters["recovered_rows_total"] += sum(
                len(store) for store in self._rows.values())
        self._counters["recover_seconds_total"] += (
            time.perf_counter() - started)

    def _load_snapshot(self, name: str) -> None:
        snap_dir = self.data_dir / name
        manifest_path = snap_dir / "manifest.json"
        if not manifest_path.is_file():
            raise StorageError(
                f"{self.data_dir}: CURRENT points at {name!r} but "
                f"{manifest_path} is missing — the directory is damaged "
                "beyond what WAL recovery can repair")
        try:
            manifest = json.loads(manifest_path.read_text())
        except ValueError as error:
            raise StorageError(
                f"{manifest_path} is not valid JSON: {error}") from error
        generations = manifest.get("generations")
        if (manifest.get("format") != _FORMAT
                or not isinstance(generations, dict)):
            raise StorageError(
                f"{manifest_path}: unsupported manifest (expected "
                f"format {_FORMAT} with a generations map)")
        if set(generations) != set(self.schema.relation_names()):
            raise StorageError(
                f"{self.data_dir} was written for relations "
                f"{sorted(generations)} but this schema defines "
                f"{sorted(self.schema.relation_names())}; point the disk "
                "backend at a directory built for the same schema")
        self._snapshot_id = int(manifest.get("snapshot", 0))
        for relation_name in self.schema.relation_names():
            segment = snap_dir / f"{relation_name}.seg"
            if not segment.is_file():
                raise StorageError(
                    f"{snap_dir} has no segment for relation "
                    f"{relation_name!r} — the snapshot is incomplete")
            rows, valid = scan_frames(segment)
            if valid < segment.stat().st_size:
                # Segments are fully written (and, in fsync mode,
                # synced) before CURRENT is repointed, so a short
                # segment is corruption, not a torn tail.
                raise StorageError(
                    f"{segment} is damaged at byte {valid}; restore the "
                    "directory from a backup")
            store = self._rows[relation_name]
            for row in rows:
                store[tuple(row)] = None
            self._generations[relation_name] = int(
                generations[relation_name])

    def _replay(self, record) -> None:
        """Apply one WAL record to the in-memory store (no indexes are
        attached during recovery, so only rows and generations move).
        Records are absolute membership assignments and generations
        only move forward, so re-applying a record changes nothing."""
        generations = self._generations
        try:
            op = record[0]
            if op == "c":
                _, moved = record
                for store in self._rows.values():
                    store.clear()
            elif op == "i" or op == "d":
                _, relation, generation, rows = record
                store = self._rows[relation]
                for row in map(tuple, rows):
                    if op == "i":
                        store.setdefault(row)
                    else:
                        store.pop(row, None)
                moved = {relation: generation}
            else:
                raise ValueError(f"unknown WAL record kind {op!r}")
            for relation, generation in moved.items():
                generations[relation] = max(generations[relation],
                                            int(generation))
        except (KeyError, TypeError, ValueError, IndexError) as error:
            raise StorageError(
                f"{self._wal_path}: WAL record {record!r} does not fit "
                f"this schema ({error!r}); the directory was written by "
                "a different schema or a newer format") from error

    # -- the write-ahead log -----------------------------------------------

    def _log(self, record) -> None:
        """Append one record durably *before* the in-memory mutation it
        describes (callers hold ``self._lock``)."""
        if self._wal.closed:
            raise StorageError(
                f"{self.data_dir}: write to a closed backend — its WAL "
                "is closed and the write was not applied; reopen the "
                "directory with a fresh DiskBackend")
        try:
            data = _frame(record)
        except TypeError as error:
            raise StorageError(
                f"rows on the disk backend must contain only "
                f"JSON-roundtrippable scalars "
                f"({', '.join(t.__name__ for t in _DURABLE_TYPES)}): "
                f"{error}") from error
        counters = self._counters
        fault = fault_hook("wal_append")
        if fault is not None and fault.kind == "torn_tail":
            # Crash mid-append: flush only a prefix of the frame and
            # fail the write.  Recovery (and the kill-point tests) must
            # treat the torn tail exactly like a power cut would leave
            # it — scanned up to the last intact record, then truncated.
            torn = data[:max(0, len(data) - int(fault.arg))]
            self._wal.write(torn)
            self._wal.flush()
            counters["wal_bytes_total"] += len(torn)
            raise StorageError(
                f"simulated crash mid-append (injected torn_tail fault, "
                f"{len(data) - len(torn)} bytes short)")
        started = time.perf_counter()
        with span("wal_append"):
            self._wal.write(data)
            self._wal.flush()
        appended = time.perf_counter()
        counters["wal_records_total"] += 1
        counters["wal_bytes_total"] += len(data)
        counters["wal_append_seconds_total"] += appended - started
        if self.fsync:
            with span("wal_fsync"):
                os.fsync(self._wal.fileno())
            counters["wal_fsyncs_total"] += 1
            counters["wal_fsync_seconds_total"] += (
                time.perf_counter() - appended)

    # -- writes: MemoryBackend's loop, with the WAL as its hook -------------

    def _pre_apply(self, op: str, relation_name: str | None,
                   rows: list[Row], generations: dict[str, int]) -> None:
        """Refuse rows JSON cannot carry, then append the write's WAL
        record — ahead of every in-memory mutation it describes."""
        if op == "c":
            self._log(["c", generations])
            return
        for row in rows:
            for value in row:
                # bool before int is irrelevant here: both are durable.
                if not isinstance(value, _DURABLE_TYPES):
                    raise StorageError(
                        f"row {row!r} contains a {type(value).__name__}; "
                        "the disk backend stores only JSON scalars "
                        "(str, int, float, bool, None)")
        self._log([op, relation_name, generations[relation_name],
                   [list(row) for row in rows]])

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> pathlib.Path:
        """Compact: write all relations as segment files, publish the
        snapshot atomically, truncate the WAL, prune old snapshots.

        Crash-ordering: segments and manifest are complete (and, in
        fsync mode, synced — file contents, then the directory entries)
        in a temporary directory before the rename; ``CURRENT`` is
        replaced atomically; the WAL is truncated only after the new
        snapshot is live, and replaying it over the new snapshot would
        be a no-op anyway (records are absolute per-row assignments).
        """
        started = time.perf_counter()
        with span("snapshot"), self._lock:
            if self._wal.closed:
                raise StorageError(
                    f"{self.data_dir}: snapshot() on a closed backend — "
                    "it would truncate a WAL this instance no longer "
                    "owns; reopen the directory with a fresh DiskBackend")
            snapshot_id = self._snapshot_id + 1
            name = f"snap-{snapshot_id:06d}"
            staging = self.data_dir / (name + ".tmp")
            if staging.exists():
                shutil.rmtree(staging)
            staging.mkdir()
            for relation_name, store in self._rows.items():
                with open(staging / f"{relation_name}.seg", "wb") as out:
                    for row in store:
                        out.write(_frame(list(row)))
                    out.flush()
                    if self.fsync:
                        os.fsync(out.fileno())
            manifest = {"format": _FORMAT, "snapshot": snapshot_id,
                        "generations": dict(self._generations)}
            with open(staging / "manifest.json", "w") as out:
                out.write(json.dumps(manifest, indent=2, sort_keys=True)
                          + "\n")
                out.flush()
                if self.fsync:
                    os.fsync(out.fileno())
            # In fsync mode the *directory entries* must reach the
            # medium too: the staging dir before it is renamed into
            # place, the data dir after every rename/replace — without
            # these, power loss can persist the WAL truncation but not
            # the snapshot it depends on.
            self._sync_dir(staging)
            target = self.data_dir / name
            if target.exists():
                # A crash after a previous rename but before CURRENT was
                # repointed leaves an orphaned, unpublished snapshot dir
                # under this id; it is garbage, not data.
                shutil.rmtree(target)
            staging.rename(target)
            pointer = self.data_dir / "CURRENT.tmp"
            with open(pointer, "w") as out:
                out.write(name + "\n")
                out.flush()
                if self.fsync:
                    os.fsync(out.fileno())
            os.replace(pointer, self.data_dir / "CURRENT")
            self._sync_dir(self.data_dir)
            # The log's records are all reflected in the snapshot now.
            self._wal.close()
            self._wal = open(self._wal_path, "wb")
            self._snapshot_id = snapshot_id
            for stale in sorted(self.data_dir.glob("snap-*")):
                if stale.name != name:
                    shutil.rmtree(stale, ignore_errors=True)
            self._counters["snapshots_total"] += 1
            self._counters["snapshot_seconds_total"] += (
                time.perf_counter() - started)
            return self.data_dir / name

    def _sync_dir(self, directory: pathlib.Path) -> None:
        if not self.fsync:
            return
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Flush and close the WAL handle and release the directory
        lock (idempotent).  A closed backend no longer accepts writes;
        reopen the directory with a fresh :class:`DiskBackend` — that
        reopen *is* the recovery path."""
        with self._lock:
            if not self._wal.closed:
                self._wal.flush()
                self._wal.close()
            self._release_dir_lock()

    def describe(self) -> str:
        suffix = ", fsync" if self.fsync else ""
        return (f"disk(dir={self.data_dir}, "
                f"snapshot={self._snapshot_id}{suffix})")


def disk_backend_factory(data_dir, *, fsync: bool = False
                         ) -> "Callable[[Schema], DiskBackend]":
    """A ``BackendFactory`` for the workload loaders and
    :func:`~repro.storage.io.load_database`: builds rows straight onto
    a durable engine in ``data_dir``."""
    def factory(schema: Schema) -> DiskBackend:
        return DiskBackend(schema, data_dir, fsync=fsync)
    return factory
