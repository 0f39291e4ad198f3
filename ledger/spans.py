"""Spans recorded from outside the program, and the instance proxies
that record them.

A :class:`Recorder` keeps every span in memory — name, start, end,
parent and the request it belongs to — and writes them out once, when
the traced run ends.  Nothing here is imported by ``src/``: spans are
opened by the benchmark around its own calls into a layer's public
functions, and at nested boundaries by :class:`Proxies`, which shadow a
bound method *on one instance* for the length of a traced round and
put the class's own method back afterwards.

A layer's self time is its span minus the time its child spans cover;
with one thread, children never overlap, so that is a subtraction.

Durations are read through a per-span *host scale* (1.0 until
:meth:`Recorder.rescale` sets it): the traced replays are timed on the
same wandering host as the untraced rounds, and are brought to the same
reference speed before the two are compared.  Start and end stay as
measured.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

NAME, START, END, PARENT, REQUEST, SCALE = range(6)


class _Open:
    __slots__ = ("recorder", "name", "index")

    def __init__(self, recorder, name):
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        self.index = self.recorder.open(self.name)
        return self.index

    def __exit__(self, *exc):
        self.recorder.close(self.index)
        return False


class Recorder:
    """An in-memory span list for one thread."""

    def __init__(self):
        #: ``[name, start_s, end_s, parent index or -1, request id,
        #: host scale]``
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: Stamped on every span opened from now on.
        self.request = -1

    def open(self, name: str) -> int:
        spans = self.spans
        index = len(spans)
        stack = self._stack
        spans.append([name, 0.0, 0.0, stack[-1] if stack else -1,
                      self.request, 1.0])
        stack.append(index)
        spans[index][START] = perf_counter()
        return index

    def close(self, index: int) -> None:
        end = perf_counter()
        self.spans[index][END] = end
        self._stack.pop()

    def span(self, name: str) -> _Open:
        return _Open(self, name)

    def rescale(self, first: int, factor: float) -> None:
        """Every span from index ``first`` on ran at a host speed of
        ``1 / factor`` of the reference."""
        for span in self.spans[first:]:
            span[SCALE] = factor

    # -- reading -----------------------------------------------------------

    def scaled(self) -> list[float]:
        """Per span: its duration at the reference host speed."""
        return [(span[END] - span[START]) * span[SCALE]
                for span in self.spans]

    def self_times(self) -> list[float]:
        """Per span: its duration minus its children's durations."""
        durations = self.scaled()
        own = list(durations)
        for span, duration in zip(self.spans, durations):
            if span[PARENT] >= 0:
                own[span[PARENT]] -= duration
        return own

    def per_request(self, root: str) -> list[dict]:
        """One dict per span named ``root`` with no parent: name ->
        ``[total duration, total self time, count]`` over the root and
        everything under it."""
        own = self.self_times()
        durations = self.scaled()
        roots: dict[int, dict] = {}
        owner: list[int] = []
        for index, span in enumerate(self.spans):
            parent = span[PARENT]
            top = index if parent < 0 else owner[parent]
            owner.append(top)
            if parent < 0:
                if span[NAME] != root:
                    continue
                roots[index] = {}
            tally = roots.get(top)
            if tally is None:
                continue
            entry = tally.setdefault(span[NAME], [0.0, 0.0, 0])
            entry[0] += durations[index]
            entry[1] += own[index]
            entry[2] += 1
        return list(roots.values())

    def durations(self, name: str) -> list[float]:
        return [(span[END] - span[START]) * span[SCALE]
                for span in self.spans if span[NAME] == name]

    def write_jsonl(self, path) -> int:
        """One JSON object per span, times in µs from the first span,
        as measured; ``host_scale`` is what durations were read through."""
        epoch = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": span[NAME],
                    "start_us": round((span[START] - epoch) * 1e6, 3),
                    "end_us": round((span[END] - epoch) * 1e6, 3),
                    "parent": span[PARENT], "request": span[REQUEST],
                    "host_scale": round(span[SCALE], 4),
                }) + "\n")
        return len(self.spans)


def median_us(per_request: list[dict], name: str, self_time: bool = False,
              ) -> float:
    """Median over requests of one layer's time per request, in µs
    (0 for a request that never entered the layer)."""
    if not per_request:
        return 0.0
    which = 1 if self_time else 0
    return statistics.median(
        tally.get(name, (0.0, 0.0, 0))[which] for tally in per_request) * 1e6


class Proxies:
    """Timing proxies on instances, restored on exit.

    ``wrap(obj, "method", "layer.name")`` shadows the bound method in
    the instance's own ``__dict__`` (callers inside ``src/`` that do
    ``obj.method(...)`` now open a span first); leaving the ``with``
    block deletes the shadow, so the class's method is what the
    instance resolves again.  ``tally`` optionally counts the length of
    the call's last positional argument (the key batch of a fetch).
    """

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._installed: list[tuple] = []
        #: name -> [calls, keys]
        self.counts: dict[str, list[int]] = {}

    def wrap(self, obj, attribute: str, name: str,
             tally: bool = False) -> None:
        original = getattr(obj, attribute)
        recorder = self.recorder
        count = self.counts.setdefault(name, [0, 0])

        def proxy(*args, **kwargs):
            count[0] += 1
            if tally:
                count[1] += len(args[-1])
            index = recorder.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                recorder.close(index)

        had = attribute in vars(obj)
        setattr(obj, attribute, proxy)
        self._installed.append((obj, attribute, had, original))

    def restore(self) -> None:
        while self._installed:
            obj, attribute, had, original = self._installed.pop()
            if had:
                setattr(obj, attribute, original)
            else:
                delattr(obj, attribute)

    def __enter__(self) -> "Proxies":
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
