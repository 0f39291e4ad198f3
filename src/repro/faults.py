"""Deterministic fault injection for chaos tests and benchmarks.

A :class:`FaultPlan` is a *seeded, counted* schedule: each
:class:`Fault` names a hook **site** (a string compiled into the
production code at the few places where failures genuinely originate),
the **hit ordinal** at which it fires (``at=N`` → the N-th time that
site is reached, 1-based), a **kind**, and an optional argument.
Because firing is keyed on deterministic hit counts — never wall clock
or randomness at trigger time — the same plan against the same workload
kills the same worker at the same RPC every run, which is what lets the
chaos suite assert *bit-identical* answers under injected failures.

Sites compiled into the tree (grep for ``fault_hook(``):

``rpc_send``
    procshard coordinator, just before a request is written to a peer
    pipe.  Kinds: ``kill_peer`` (SIGKILL the peer process so the
    exchange fails and respawn/recovery paths run), ``delay`` (sleep
    ``arg`` seconds, modelling a slow link).
``rpc_recv``
    procshard coordinator, just before blocking on a peer reply.
    Kinds: ``drop_reply`` (consume and discard the real reply, then
    report a timeout — deterministic, no waiting), ``delay``.
``wal_append``
    DiskBackend, mid-append.  Kind: ``torn_tail`` (write only a prefix
    of the frame and simulate a crash, so recovery must truncate).

The module-global plan is installed/cleared explicitly (tests use
``try/finally`` or the fixture in ``tests/test_faults.py``); production
code pays one global read + ``None`` check per hook when no plan is
active.  This module imports nothing from the storage layer — the
dependency points the other way, like ``repro.obs``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable, Optional

__all__ = [
    "Fault",
    "FaultPlan",
    "install_fault_plan",
    "active_fault_plan",
    "clear_fault_plan",
    "fault_hook",
]


@dataclass(frozen=True)
class Fault:
    """One scheduled failure: at the ``at``-th hit of ``site`` (1-based),
    inject ``kind``.  ``arg`` is kind-specific: seconds for ``delay``,
    bytes to truncate for ``torn_tail``, unused otherwise."""

    site: str
    at: int
    kind: str
    arg: float = 0.0

    def __post_init__(self) -> None:
        if self.at < 1:
            raise ValueError(f"fault ordinal must be >= 1, got {self.at}")


@dataclass
class FaultPlan:
    """A seeded schedule of faults plus thread-safe per-site hit counts.

    ``seed`` does not drive *when* faults fire (ordinals do); it seeds
    any randomness the injected behaviours themselves need and labels
    the run, so a chaos failure reproduces from the seed alone.
    """

    faults: tuple[Fault, ...]
    seed: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)
    _hits: dict = field(default_factory=dict, repr=False, compare=False)
    #: (site, ordinal, kind) triples that actually fired, in order —
    #: chaos tests assert the plan was exercised, not just installed.
    fired: list = field(default_factory=list, repr=False, compare=False)

    def __init__(self, faults: Iterable[Fault], seed: int = 0):
        self.faults = tuple(faults)
        self.seed = seed
        self._lock = threading.Lock()
        self._hits = {}
        self.fired = []
        self._by_site: dict[str, dict[int, Fault]] = {}
        for fault in self.faults:
            slot = self._by_site.setdefault(fault.site, {})
            if fault.at in slot:
                raise ValueError(
                    f"duplicate fault at {fault.site!r} hit #{fault.at}")
            slot[fault.at] = fault

    def hit(self, site: str) -> Optional[Fault]:
        """Record one hit of ``site``; return the fault due now, if any."""
        scheduled = self._by_site.get(site)
        with self._lock:
            count = self._hits.get(site, 0) + 1
            self._hits[site] = count
            if scheduled is None:
                return None
            fault = scheduled.get(count)
            if fault is not None:
                self.fired.append((site, count, fault.kind))
            return fault

    def hits(self, site: str) -> int:
        with self._lock:
            return self._hits.get(site, 0)


_PLAN: Optional[FaultPlan] = None


def install_fault_plan(plan: FaultPlan) -> None:
    """Install ``plan`` as the process-global active plan."""
    global _PLAN
    _PLAN = plan


def active_fault_plan() -> Optional[FaultPlan]:
    return _PLAN


def clear_fault_plan() -> None:
    global _PLAN
    _PLAN = None


def fault_hook(site: str) -> Optional[Fault]:
    """The hook production code calls: one global read when idle; with
    a plan installed, count the hit and return the fault due now (the
    call site interprets the kind — this module never imports the
    layers it breaks)."""
    plan = _PLAN
    if plan is None:
        return None
    return plan.hit(site)
