"""Structured per-query tracing with a near-free disabled path.

Instrumented code wraps each pipeline stage in ``with span("name"):``.
When no :class:`Tracer` is active — the default — ``span()`` returns
one shared no-op context manager, so the cost per stage is a global
read, a function call and two no-op methods; nothing is allocated and
nothing is recorded.  That is what keeps tracing off the warm hot path
(the EXP-8 <2% regression gate).

When a tracer *is* active (``with Tracer() as t:``), spans nest via a
per-thread stack: the first span a thread opens becomes a **root**,
inner spans become its children, and a finished root is appended to
the tracer.  Concurrent server threads therefore each contribute their
own root trees — activation is process-wide, nesting is per-thread.

The stage vocabulary used across the repo (see README,
"Observability")::

    request                 one served query (service or CLI)
      compile               parse + normalize (repro.query.parser)
      bep_decision          the coverage/boundedness verdict (repro.core.bep)
      optimize              logical -> physical (repro.engine.optimizer)
      bind                  per-request constant substitution (service)
        specialize          plan -> per-op closures + constant codes
                            (repro.engine.optimizer.specialize; also
                            fires under execute on first direct runs)
      execute               physical-plan execution (repro.engine.executor)
        fetch               one vectorized storage crossing
        decode              final batch codes -> Python values
    encode                  bulk row encoding at index (re)build
                            (repro.storage.backend)
    wal_append / wal_fsync / snapshot / recover   (repro.storage.disk)
"""

from __future__ import annotations

import json
import threading
import time
from typing import Iterator

from .metrics import merge_counts


class Span:
    """One finished (or in-flight) stage of a trace tree."""

    __slots__ = ("name", "start_s", "end_s", "attrs", "children")

    def __init__(self, name: str, start_s: float):
        self.name = name
        self.start_s = start_s
        self.end_s = start_s
        self.attrs: dict = {}
        self.children: list[Span] = []

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def duration_ms(self) -> float:
        return self.duration_s * 1e3

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """The first descendant (or self) with ``name``."""
        for node in self.walk():
            if node.name == name:
                return node
        return None

    def to_dict(self, epoch_s: float | None = None) -> dict:
        """A JSON-ready tree; times become ms offsets from
        ``epoch_s`` (default: this span's own start)."""
        epoch = self.start_s if epoch_s is None else epoch_s
        node: dict = {
            "name": self.name,
            "start_ms": round((self.start_s - epoch) * 1e3, 4),
            "duration_ms": round(self.duration_ms, 4),
        }
        if self.attrs:
            node["attrs"] = self.attrs
        if self.children:
            node["children"] = [child.to_dict(epoch)
                                for child in self.children]
        return node

    def render(self, indent: int = 0) -> str:
        """A human-readable tree (the CLI's ``--trace`` summary)."""
        attrs = ""
        if self.attrs:
            attrs = "  " + " ".join(f"{k}={v}"
                                    for k, v in sorted(self.attrs.items()))
        lines = [f"{'  ' * indent}{self.name:<14} "
                 f"{self.duration_ms:9.3f}ms{attrs}"]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)


class _NullSpan:
    """The shared disabled-path context manager: does nothing."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


NULL_SPAN = _NullSpan()

#: Process-wide active tracer (None = tracing disabled).
_active: "Tracer | None" = None
_activation_lock = threading.Lock()
_tls = threading.local()


def current_tracer() -> "Tracer | None":
    return _active


class _SpanContext:
    """The enabled-path context manager: push on enter, pop + record
    on exit.  Exceptions propagate; the span still closes (its
    ``error`` attr marks the failure) so trees stay well-formed."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        span_ = Span(name, time.perf_counter())
        if attrs:
            span_.attrs.update(attrs)
        self._span = span_

    def __enter__(self) -> Span:
        stack = getattr(_tls, "stack", None)
        if stack is None:
            stack = _tls.stack = []
        stack.append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb):
        span_ = self._span
        span_.end_s = time.perf_counter()
        if exc_type is not None:
            span_.attrs["error"] = exc_type.__name__
        stack = _tls.stack
        stack.pop()
        if stack:
            stack[-1].children.append(span_)
        else:
            self._tracer._record_root(span_)
        return False


def span(name: str, **attrs):
    """The instrumentation entry point: a context manager recording
    one stage when a tracer is active, :data:`NULL_SPAN` otherwise."""
    tracer = _active
    if tracer is None:
        return NULL_SPAN
    return _SpanContext(tracer, name, attrs)


def annotate(**attrs) -> None:
    """Attach attributes to the innermost open span, if any."""
    if _active is None:
        return
    stack = getattr(_tls, "stack", None)
    if stack:
        stack[-1].attrs.update(attrs)


class Tracer:
    """Collects finished root spans while active.

    >>> with Tracer() as tracer:
    ...     with span("request"):
    ...         with span("compile"):
    ...             pass
    >>> [root.name for root in tracer.roots]
    ['request']
    >>> [child.name for child in tracer.roots[0].children]
    ['compile']
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._roots: list[Span] = []
        self.epoch_s: float | None = None

    # -- activation --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        global _active
        with _activation_lock:
            if _active is not None:
                raise RuntimeError(
                    "another Tracer is already active; tracing is "
                    "process-wide — finish it first")
            self.epoch_s = time.perf_counter()
            _active = self
        return self

    def __exit__(self, *exc):
        global _active
        with _activation_lock:
            if _active is self:
                _active = None
        return False

    # -- recording ---------------------------------------------------------

    def _record_root(self, root: Span) -> None:
        with self._lock:
            self._roots.append(root)

    @property
    def roots(self) -> list[Span]:
        with self._lock:
            return list(self._roots)

    def find(self, name: str) -> Span | None:
        for root in self.roots:
            found = root.find(name)
            if found is not None:
                return found
        return None

    def stage_totals(self) -> dict[str, float]:
        """Total seconds per stage name across every recorded tree."""
        totals: dict[str, float] = {}
        for root in self.roots:
            merge_counts(totals,
                         ((node.name, node.duration_s)
                          for node in root.walk()))
        return totals

    # -- export ------------------------------------------------------------

    def to_dicts(self) -> list[dict]:
        epoch = self.epoch_s
        return [root.to_dict(epoch) for root in self.roots]

    def write_jsonl(self, path) -> int:
        """One JSON object per root span tree; returns the root count."""
        trees = self.to_dicts()
        with open(path, "w") as out:
            for tree in trees:
                out.write(json.dumps(tree, sort_keys=True,
                                     default=str) + "\n")
        return len(trees)

    def render(self, limit: int = 20) -> str:
        roots = self.roots
        lines = [root.render() for root in roots[:limit]]
        if len(roots) > limit:
            lines.append(f"... {len(roots) - limit} more root span(s)")
        return "\n".join(lines)
