"""The shard worker: a pure code-space index server in its own process.

A worker never sees a Python *value*: the coordinator owns the
:class:`~repro.storage.encoding.ValueDictionary`, encodes every row at
insert time, projects it into each attached constraint's ``X∪Y``
layout and ships only the resulting code tuples.  The one read op,
``("read", constraint id, code keys, row_proj, dedup)``, answers with
``(columns, counts)``: flat ``array('q')`` code columns plus per-key
row counts — the engines' ``read_codes`` shape, reused as the RPC
surface.

Each attached constraint's shard is a
:class:`~repro.storage.indexes.CodeIndex`, the witness-counted
code-group index every in-process ``AccessIndex`` keeps, read by the
same :func:`~repro.storage.indexes.gather_codes` — so a worker answer
is bit-identical to the in-process index's.

``worker_main`` is the spawn-safe process entry point: a plain
module-level request loop over a :class:`multiprocessing.Connection`.
Every reply is ``("ok", payload)`` or ``("err", message)``; the worker
exits when the pipe closes (coordinator death) or on ``("stop",)``.
"""

from __future__ import annotations

import time

from ..indexes import CodeIndex, gather_codes


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


def worker_main(conn) -> None:
    """Process entry point: recv, dispatch, reply ``("ok", payload)`` /
    ``("err", message)``; exit on ``("stop",)`` or when the pipe closes
    (coordinator death)."""
    handle = WorkerState().handle
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
            payload = handle(request)
        except Exception as error:  # ship the failure, keep serving
            conn.send(("err", f"{type(error).__name__}: {error}"))
        else:
            conn.send(("ok", payload))
