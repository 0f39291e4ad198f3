"""The serving tier's single housekeeping loop.

One long-lived loop owns *all* periodic maintenance — stats flushes,
storage peer health checks — instead of one timer thread per concern.
Handlers register with a name and an interval; the loop wakes for the
earliest due handler, runs it (in the server's executor, so a slow
handler never blocks the event loop), and
records per-handler run/error tallies.  One loop means one place to
observe, one thing to shut down, and no thundering herd of timers.

A handler that raises is logged in its error tally and *stays
scheduled* — housekeeping must survive a flapping dependency (a
storage backend mid-recovery, say) rather than silently dying on the
first exception.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class _Handler:
    name: str
    interval_s: float
    callback: Callable[[], object]
    next_due: float
    runs: int = 0
    errors: int = 0
    last_error: str = ""
    last_result: object = field(default=None, repr=False)


class Housekeeper:
    """Registered periodic handlers driven by one async loop."""

    #: Upper bound on one sleep, so a freshly registered handler is
    #: noticed promptly even when everything else is far from due.
    MAX_SLEEP_S = 1.0

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self._handlers: dict[str, _Handler] = {}

    def register(self, name: str, interval_s: float,
                 callback: Callable[[], object]) -> None:
        if interval_s <= 0:
            raise ValueError(
                f"handler {name!r}: interval must be > 0, got {interval_s}")
        if name in self._handlers:
            raise ValueError(f"handler {name!r} is already registered")
        self._handlers[name] = _Handler(
            name=name, interval_s=interval_s, callback=callback,
            next_due=self._clock() + interval_s)

    def due_handlers(self, now: float | None = None) -> list[_Handler]:
        now = self._clock() if now is None else now
        return [handler for handler in self._handlers.values()
                if handler.next_due <= now]

    def run_due(self, now: float | None = None) -> int:
        """Run every due handler synchronously (the test/CLI surface;
        the server drives the same logic through :meth:`run`).  Returns
        the number of handlers run."""
        due = self.due_handlers(now)
        for handler in due:
            self._run_one(handler)
        return len(due)

    def _run_one(self, handler: _Handler) -> None:
        try:
            handler.last_result = handler.callback()
        except Exception as error:  # noqa: BLE001 - must survive anything
            handler.errors += 1
            handler.last_error = f"{type(error).__name__}: {error}"
        else:
            handler.runs += 1
        handler.next_due = self._clock() + handler.interval_s

    async def run(self, stop: asyncio.Event) -> None:
        """The loop: sleep until the earliest due handler (capped at
        :data:`MAX_SLEEP_S`), run due handlers off-loop, repeat until
        ``stop`` is set."""
        loop = asyncio.get_running_loop()
        while not stop.is_set():
            now = self._clock()
            due = self.due_handlers(now)
            for handler in due:
                await loop.run_in_executor(None, self._run_one, handler)
            next_due = min(
                (handler.next_due for handler in self._handlers.values()),
                default=now + self.MAX_SLEEP_S)
            delay = min(max(0.0, next_due - self._clock()),
                        self.MAX_SLEEP_S)
            try:
                await asyncio.wait_for(stop.wait(), timeout=delay)
            except asyncio.TimeoutError:
                pass

    def report(self) -> dict[str, dict]:
        """Per-handler tallies for ``/stats``."""
        return {
            handler.name: {
                "interval_s": handler.interval_s,
                "runs": handler.runs,
                "errors": handler.errors,
                "last_error": handler.last_error,
            }
            for handler in self._handlers.values()
        }
