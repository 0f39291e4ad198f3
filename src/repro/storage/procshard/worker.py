"""The shard worker: a pure code-space index server in its own process.

A worker never sees a Python *value*: the coordinator owns the
:class:`~repro.storage.encoding.ValueDictionary`, encodes every row at
insert time, projects it into each attached constraint's ``X∪Y``
layout and ships only the resulting code tuples.  The one read op,
``("read", constraint id, code keys, row_proj, dedup)``, answers with
``(columns, counts)``: flat ``array('q')`` code columns plus per-key
row counts — the engines' ``read_codes`` shape, reused as the RPC
surface.

:class:`CodeIndex` mirrors :class:`~repro.storage.indexes.AccessIndex`
witness-count semantics in code space: an ``X∪Y`` projection survives
until its last witness row is deleted.  Both keep the same encoded
group map and are read by the same
:func:`~repro.storage.indexes.gather_codes`, so a worker answer is
bit-identical to the in-process index's.

``worker_main`` is the spawn-safe process entry point: a plain
module-level request loop over a :class:`multiprocessing.Connection`.
Every reply is ``("ok", payload)`` or ``("err", message)``; the worker
exits when the pipe closes (coordinator death) or on ``("stop",)``.
"""

from __future__ import annotations

import time
from typing import Sequence

from ..indexes import _EncodedGroup, gather_codes

Codes = tuple  # one stored row as a tuple of X∪Y dictionary codes


class CodeIndex:
    """One constraint's shard-local index, keyed and stored as codes.

    Keys follow the encoded-boundary convention: a bare int code when
    ``|X| == 1``, a code tuple otherwise.
    """

    __slots__ = ("x_len", "width", "scalar_key", "_counts", "encoded")

    def __init__(self, x_len: int, width: int):
        self.x_len = x_len
        self.width = width
        self.scalar_key = x_len == 1
        # key -> {y-code tuple -> witness count}; the count makes
        # deletion exact when X∪Y projects several stored rows onto
        # one code tuple (same contract as AccessIndex._groups).
        self._counts: dict = {}
        self.encoded: dict[object, _EncodedGroup] = {}

    def key_of(self, row_codes: Sequence[int]):
        return (row_codes[0] if self.scalar_key
                else tuple(row_codes[:self.x_len]))

    def add(self, row_codes: Codes) -> None:
        key = self.key_of(row_codes)
        y_key = tuple(row_codes[self.x_len:])
        group = self._counts.setdefault(key, {})
        count = group.get(y_key, 0)
        group[y_key] = count + 1
        if count:
            return
        entry = self.encoded.get(key)
        if entry is None:
            entry = self.encoded[key] = _EncodedGroup(self.width)
        entry.append(row_codes, y_key)

    def remove(self, row_codes: Codes) -> None:
        key = self.key_of(row_codes)
        y_key = tuple(row_codes[self.x_len:])
        group = self._counts.get(key)
        if group is None:
            return
        count = group.get(y_key)
        if count is None:
            return
        if count > 1:
            group[y_key] = count - 1
            return
        del group[y_key]
        if not group:
            del self._counts[key]
        entry = self.encoded.get(key)
        if entry is not None:
            entry.discard(y_key, self.x_len)
            if not entry.pos:
                del self.encoded[key]

    def remove_all(self) -> None:
        self._counts.clear()
        self.encoded.clear()

    def group_count(self) -> int:
        return len(self._counts)


class WorkerState:
    """The request dispatcher — importable so tests can drive the
    protocol in-process, without a child."""

    def __init__(self) -> None:
        self.indexes: dict[int, CodeIndex] = {}
        # Mirror of the coordinator dictionary's value list.  Workers
        # never decode (everything stays in code space); the mirror
        # exists so ``stats`` can report coherence with the
        # coordinator's dictionary, which ships deltas per write batch.
        self.values: list = []

    def handle(self, request: tuple):
        op = request[0]
        if op == "read":
            _, cid, keys, row_proj, dedup = request
            index = self.indexes[cid]
            return gather_codes(index.encoded, index.width, keys,
                                row_proj, dedup)
        if op == "write":
            _, ops, delta = request
            self.values.extend(delta)
            for cid, deleting, rows in ops:
                index = self.indexes[cid]
                apply_one = index.remove if deleting else index.add
                for row_codes in rows:
                    apply_one(row_codes)
            return len(ops)
        if op == "attach":
            _, specs, rows_by_cid, values = request
            self.values = list(values)
            self.indexes = {cid: CodeIndex(x_len, width)
                            for cid, x_len, width in specs}
            for cid, rows in rows_by_cid.items():
                index = self.indexes[cid]
                for row_codes in rows:
                    index.add(row_codes)
            return len(self.indexes)
        if op == "clear":
            for index in self.indexes.values():
                index.remove_all()
            return True
        if op == "stats":
            return {"constraints": len(self.indexes),
                    "dictionary_size": len(self.values),
                    "groups": sum(index.group_count()
                                  for index in self.indexes.values())}
        if op == "ping":
            return "pong"
        if op == "sleep":
            # Chaos/test hook: wedge this worker for N seconds, as a
            # stand-in for a request stuck on a lost lock or a runaway
            # computation.  The coordinator's close()/timeout
            # escalation paths are tested against exactly this.
            time.sleep(request[1])
            return True
        raise ValueError(f"unknown worker op {op!r}")


def serve_loop(conn, handler) -> None:
    """The shared request loop for worker and replica processes: recv,
    dispatch, reply ``("ok", payload)`` / ``("err", message)``; exit on
    ``("stop",)`` or when the pipe closes (coordinator death)."""
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            return  # coordinator went away; nothing to clean up
        if request[0] == "stop":
            try:
                conn.send(("ok", True))
            except (BrokenPipeError, OSError):
                pass
            return
        try:
            payload = handler(request)
        except Exception as error:  # ship the failure, keep serving
            conn.send(("err", f"{type(error).__name__}: {error}"))
        else:
            conn.send(("ok", payload))


def worker_main(conn) -> None:
    """Process entry point: serve requests until ``stop`` or EOF."""
    serve_loop(conn, WorkerState().handle)
