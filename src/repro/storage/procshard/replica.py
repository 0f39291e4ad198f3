"""WAL-shipped read replicas: recovery replay as a replication protocol.

A replica is a process holding a full copy of the database, kept
current by the coordinator *shipping* the writer's WAL instead of the
replica tailing files itself — the unit of replication is the byte
range, parsed and applied with exactly the recovery scanner and replay
(:func:`~repro.storage.disk.scan_frame_bytes`,
:func:`~repro.storage.disk.replay_record`).  That buys the torn-
tail guarantee for free: a chunk that ends mid-record is consumed only
up to its last intact frame, the replica reports how many bytes it
took, and the coordinator re-ships the rest later.

Bootstrap is recovery too: the coordinator ships the current snapshot's
segment bytes, the manifest's generation map and the WAL tail, and the
replica loads them the same way a restarted :class:`~repro.storage.
disk.DiskBackend` would.  When the writer compacts (``snapshot()``
truncates the WAL), shipped offsets die with the old log; the
coordinator detects the snapshot-id change and re-bootstraps.

Dictionary coherence: WAL records carry *values* (JSON scalars), but
fetches speak *codes*.  The coordinator ships dictionary deltas —
``values[known:]`` slices, codes being dense and append-only — with
every chunk, and the replica mirrors the bijection; meeting a value
without a code means the replica missed a delta and the error response
triggers a re-bootstrap.

Per-relation generations are the staleness signal: the coordinator
serves a bounded fetch from a replica only when the replica's durable
generation for the relation has caught up to the writer's, which keeps
the fetch cache's epoch rule sound (a replica can only ever be *ahead*
of the generation the reader observed, the same benign race the
in-process engines document: that write's delta refreshes the entry).

:class:`ReplicaState` is importable and file-free so the kill-point
tests can drive torn chunks against a :class:`~repro.storage.backend.
MemoryBackend` oracle without spawning processes.
"""

from __future__ import annotations

from ..disk import replay_record, scan_frame_bytes
from ..indexes import CodeIndex, gather_codes, row_projector
from .worker import serve_loop

Row = tuple


class ReplicaError(Exception):
    """A replica-side apply/lookup failure (shipped back as ``err``;
    the coordinator's response is to re-bootstrap the replica)."""


class ReplicaState:
    """One replica's whole state: row stores, generation map, the
    dictionary mirror and one :class:`CodeIndex` per constraint."""

    def __init__(self) -> None:
        self.stores: dict[str, dict[Row, None]] = {}
        self.generations: dict[str, int] = {}
        self.values: list = []
        self.codes: dict = {}
        # cid -> (relation, X∪Y projection of a coded row, CodeIndex)
        self.indexes: dict[int, tuple] = {}
        self.wal_offset = 0
        self.snapshot_id = -1

    # -- dictionary mirror -------------------------------------------------

    def extend_values(self, delta: list) -> None:
        codes = self.codes
        for value in delta:
            codes.setdefault(value, len(self.values))
            self.values.append(value)

    def _encode(self, row: Row) -> tuple:
        try:
            return tuple(self.codes[value] for value in row)
        except KeyError as error:
            raise ReplicaError(
                f"value {error.args[0]!r} has no dictionary code on this "
                "replica — a delta was missed; re-bootstrap") from error

    # -- bootstrap (snapshot + tail, same shape as disk recovery) ----------

    def bootstrap(self, payload: dict) -> dict:
        self.stores = {name: {} for name in payload["generations"]}
        self.generations = {name: int(generation) for name, generation
                            in payload["generations"].items()}
        self.values = []
        self.codes = {}
        self.extend_values(payload["values"])
        # Rows and generations first, indexes after, as disk recovery
        # then attach do: the tail may replay rows deleted before their
        # relation was indexed, whose values the coordinator never
        # interned, so only the surviving rows can be encoded.
        self.indexes = {}
        for relation, segment in payload["segments"].items():
            rows, valid = scan_frame_bytes(segment)
            if valid < len(segment):
                raise ReplicaError(
                    f"shipped snapshot segment for {relation!r} is "
                    f"damaged at byte {valid}")
            self.stores[relation].update(dict.fromkeys(map(tuple, rows)))
        self.wal_offset = 0
        self.snapshot_id = int(payload["snapshot_id"])
        self.apply_wal(payload["wal"], [])
        coded: dict[str, list] = {}
        for cid, relation, x_positions, y_positions in payload["specs"]:
            if relation not in coded:
                coded[relation] = list(map(self._encode,
                                           self.stores[relation]))
            project = row_projector((*x_positions, *y_positions))
            index = CodeIndex(len(x_positions),
                              len(x_positions) + len(y_positions))
            for row_codes in map(project, coded[relation]):
                index.add(row_codes)
            self.indexes[cid] = (relation, project, index)
        return {"wal_offset": self.wal_offset,
                "generations": dict(self.generations)}

    # -- WAL shipping ------------------------------------------------------

    def apply_wal(self, chunk: bytes, delta: list) -> dict:
        """Apply the complete frames of one shipped byte range.

        Returns the consumed byte count (a torn tail is left for the
        next ship) and the post-apply generation map.
        """
        self.extend_values(delta)
        records, consumed = scan_frame_bytes(chunk)
        for record in records:
            self._apply_record(record)
        self.wal_offset += consumed
        return {"consumed": consumed,
                "generations": dict(self.generations)}

    def _apply_record(self, record) -> None:
        replay_record(record, self.stores, self.generations,
                      self._add_row, self._remove_row)
        if record[0] == "c":
            for _, _, index in self.indexes.values():
                index.remove_all()

    # Membership checks make re-application convergent (bootstrap may
    # replay WAL records the snapshot already contains), and they keep
    # the index witness counts exact: an index add/remove happens iff
    # the row actually entered/left the store.

    def _add_row(self, relation: str, store: dict, row: Row) -> None:
        if row not in store:
            store[row] = None
            self._index_row(relation, row, True)

    def _remove_row(self, relation: str, store: dict, row: Row) -> None:
        if row in store:
            del store[row]
            self._index_row(relation, row, False)

    def _index_row(self, relation: str, row: Row, adding: bool) -> None:
        coded = None
        for spec_relation, project, index in self.indexes.values():
            if spec_relation == relation:
                if coded is None:
                    coded = self._encode(row)
                (index.add if adding else index.remove)(project(coded))

    # -- serving -----------------------------------------------------------

    def handle(self, request: tuple):
        op = request[0]
        if op == "read":
            _, cid, keys, row_proj, dedup = request
            index = self.indexes[cid][2]
            return gather_codes(index.encoded, index.width, keys,
                                row_proj, dedup)
        if op == "wal":
            _, chunk, delta = request
            return self.apply_wal(chunk, delta)
        if op == "bootstrap":
            return self.bootstrap(request[1])
        if op == "gens":
            return dict(self.generations)
        if op == "stats":
            return {"rows": sum(len(store)
                                for store in self.stores.values()),
                    "wal_offset": self.wal_offset,
                    "snapshot_id": self.snapshot_id,
                    "dictionary_size": len(self.values)}
        if op == "ping":
            return "pong"
        raise ReplicaError(f"unknown replica op {op!r}")


def replica_main(conn) -> None:
    """Process entry point: serve until ``stop`` or pipe EOF."""
    serve_loop(conn, ReplicaState().handle)
