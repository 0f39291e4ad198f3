"""The persistent bounded-evaluation service.

:class:`BoundedQueryService` wraps one :class:`~repro.storage.database.
Database` for serving heavy repeated query traffic.  Where the one-shot
pipeline (``repro.cli analyze/run``) re-runs parse → coverage fixpoint →
plan construction → fetch on every call, the service amortizes each
stage across requests:

* a :class:`~repro.service.plancache.PlanCache` memoizes the whole
  static pipeline per (query, access-schema) fingerprint — sound
  because plans and certificates are functions of Q and A only — and
  keys query texts on their constant-free shape, so an ad-hoc text
  reuses the plan of an earlier text with other constants;
* :mod:`~repro.service.templates` compile a parameterized query once,
  and its specialized steps are built on first run and shared; a
  binding is just the vector of its constants, which the executor
  looks up as codes per request without interning them;
* a :class:`~repro.service.fetchcache.FetchCache` memoizes the (small,
  provably bounded) per-X-value fetch results, invalidated by the
  database's per-relation write generations;
* :mod:`~repro.service.batch` runs a list of requests and aggregates
  service-level metrics.

The plan cache and the fetch cache are the service's only two caches.
Answers are never materialized: every bounded request executes its
plan, so its ``AccessStats`` always describe the reads that answered it.

Queries that are *not* boundedly evaluable still get answers: the
service transparently falls back to the scan-based evaluator and
reports the scan accounting instead, so callers can see exactly which
traffic is certified-bounded and which is paying full price.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

from ..deadline import Deadline, deadline_scope
from ..engine.executor import AccessStats
from ..engine.naive import ScanStats, evaluate
from ..errors import DeadlineExceeded, ServiceError
from ..obs.instruments import (RequestMetrics, attach_admission_collector,
                               attach_cache_collector,
                               attach_database_collector,
                               attach_storage_collector)
from ..obs.metrics import MetricsRegistry
from ..obs.trace import span
from ..query.ast import CQ, UCQ, PositiveQuery
from ..query.parser import parse_query
from ..schema.access import AccessSchema
from ..storage.database import Database
from .batch import BatchReport, BatchRequest, run_batch
from .fetchcache import CachingExecutor, FetchCache
from .plancache import CacheInfo, CompiledQuery, PlanCache
from .templates import (QueryTemplate, bind_physical_plan, bind_query,
                        check_bindings)


@dataclass
class ServiceResult:
    """One answered request.

    ``stats`` carries index-access accounting for bounded execution;
    ``scan_stats`` carries scan accounting for fallback execution.
    Exactly one of the two is set (enforced at construction).
    """

    answers: set[tuple]
    bounded: bool
    plan_cached: bool
    latency_s: float
    reason: str = ""
    stats: AccessStats | None = None
    scan_stats: ScanStats | None = None

    def __post_init__(self):
        if (self.stats is None) == (self.scan_stats is None):
            raise ValueError(
                "a ServiceResult carries exactly one of stats= (bounded "
                "accounting) or scan_stats= (fallback accounting); got "
                f"{'both' if self.stats is not None else 'neither'}")

    @property
    def latency_ms(self) -> float:
        return self.latency_s * 1e3


@dataclass
class ServiceStats:
    """A point-in-time snapshot of the service's counters."""

    requests: int = 0
    bounded_requests: int = 0
    fallback_requests: int = 0
    #: Requests the serving tier refused before execution because the
    #: admission queue was full (overload shedding, HTTP 429).
    shed_requests: int = 0
    #: Requests refused before execution because the certified cost
    #: bound exceeded the tenant's budget (the paper's admission signal).
    rejected_requests: int = 0
    #: Requests aborted mid-execution by an expired deadline.
    deadline_exceeded_requests: int = 0
    templates: int = 0
    plan_cache: CacheInfo = field(default_factory=CacheInfo)
    #: The plan cache's shape table: query texts served by the plan of
    #: an earlier text with other constants (hits) or compiled (misses).
    plan_shapes: CacheInfo = field(default_factory=CacheInfo)
    fetch_cache: CacheInfo = field(default_factory=CacheInfo)
    #: The storage engine's internal tallies
    #: (:meth:`~repro.storage.backend.StorageBackend.counters`) — empty
    #: for engines with nothing to report; WAL/fsync/snapshot/recovery
    #: counts for the disk engine; RPC and replication tallies for the
    #: process-sharded one.
    storage: dict = field(default_factory=dict)
    #: Point-in-time storage levels
    #: (:meth:`~repro.storage.backend.StorageBackend.gauges`):
    #: dictionary footprint bytes for every engine, live worker and
    #: replica counts for the process-sharded one.
    storage_gauges: dict = field(default_factory=dict)

    def __str__(self) -> str:
        text = (f"requests: {self.requests} "
                f"({self.bounded_requests} bounded, "
                f"{self.fallback_requests} fallback); "
                f"shed: {self.shed_requests}; "
                f"rejected: {self.rejected_requests}; "
                f"deadline-exceeded: {self.deadline_exceeded_requests}; "
                f"templates: {self.templates}; "
                f"plan cache: {self.plan_cache}; "
                f"plan shapes: {self.plan_shapes}; "
                f"fetch cache: {self.fetch_cache}")
        if self.storage:
            tallies = ", ".join(f"{key}: {value}"
                                for key, value in self.storage.items())
            text += f"; storage: {tallies}"
        return text


class BoundedQueryService:
    """A long-lived query service over one database instance.

    >>> from repro.workload.accidents import simple_accidents
    >>> service = BoundedQueryService(simple_accidents())
    >>> template = service.register_template(
    ...     "by_date",
    ...     "Q(d) :- Accident(aid, d, t), t = $date")
    >>> sorted(template.parameters)
    ['date']
    """

    def __init__(self, db: Database,
                 access_schema: AccessSchema | None = None,
                 plan_cache_size: int = 256,
                 fetch_cache_size: int = 4096,
                 registry: MetricsRegistry | None = None,
                 attach: bool = True):
        self.db = db
        if access_schema is None:
            access_schema = db.access_schema
            if access_schema is None or not len(access_schema):
                raise ServiceError(
                    "the database has no access schema; bounded "
                    "evaluation needs the constraints' indexes — attach "
                    "one or run `repro discover`")
        else:
            if not len(access_schema):
                raise ServiceError(
                    "the supplied access schema is empty; bounded "
                    "evaluation needs the constraints' indexes — pass a "
                    "non-empty schema or run `repro discover`")
            if attach and db.access_schema is not access_schema:
                db.attach_access_schema(access_schema)
            # attach=False: compile against access_schema while the
            # database keeps its own (wider) attached schema — the
            # multi-tenant arrangement, one service per tenant over a
            # shared Database.  Execution resolves each tenant
            # constraint structurally against the attached indexes.
        self.access_schema = access_schema
        self.plan_cache = PlanCache(plan_cache_size)
        self.fetch_cache = FetchCache(fetch_cache_size)
        # Subscribe the fetch cache to the backend's write-delta
        # stream: entries over exactly-attached constraints are then
        # refreshed by writes instead of cold-starting on every one.
        self.fetch_cache.attach_maintenance(db)
        self._templates: dict[str, QueryTemplate] = {}
        self._lock = threading.Lock()
        self._requests = 0
        self._bounded_requests = 0
        self._fallback_requests = 0
        self._shed_requests = 0
        self._rejected_requests = 0
        self._deadline_exceeded_requests = 0
        # Observability is strictly opt-in: with no registry the hot
        # path pays one attribute check per request, nothing more.
        self.registry = registry
        self._request_metrics: RequestMetrics | None = None
        if registry is not None:
            self._request_metrics = RequestMetrics(registry)
            attach_cache_collector(registry, self)
            attach_admission_collector(registry, self)
            attach_storage_collector(registry, db.backend)
            attach_database_collector(registry, db)

    # -- compilation -------------------------------------------------------

    def compile(self, query) -> CompiledQuery:
        """Compile (or fetch from the plan cache) a query or query text."""
        if isinstance(query, str):
            entry, _, _ = self.plan_cache.compile_text(
                query, self.access_schema, parse_query)
        else:
            entry, _ = self.plan_cache.compile(query, self.access_schema)
        return entry

    def register_template(self, name: str, text: str,
                          replace: bool = False) -> QueryTemplate:
        """Register and compile a parameterized template once.

        The full static pipeline runs here, at registration; later
        bindings only substitute constants into the compiled plan.
        """
        query = parse_query(text)
        entry, _ = self.plan_cache.compile(query, self.access_schema)
        if (entry.parameters and not entry.bounded
                and not isinstance(query, (CQ, UCQ, PositiveQuery))):
            # The scan fallback binds parameters into positive ASTs
            # only; fail at registration rather than on the first
            # request.
            raise ServiceError(
                f"template {name!r} has parameters but no bounded plan "
                f"({entry.reason}), and non-positive formulas cannot be "
                "bound for the scan fallback; rewrite it as a CQ/UCQ "
                "(':-' rules)")
        template = QueryTemplate(name=name, text=text, compiled=entry)
        with self._lock:
            if name in self._templates and not replace:
                raise ServiceError(
                    f"template {name!r} is already registered; pass "
                    "replace=True to overwrite")
            self._templates[name] = template
        return template

    def template(self, name: str) -> QueryTemplate:
        with self._lock:
            template = self._templates.get(name)
        if template is None:
            known = sorted(self._templates)
            raise ServiceError(
                f"unknown template {name!r}; registered: "
                f"{', '.join(known) if known else '(none)'}")
        return template

    def templates(self) -> list[QueryTemplate]:
        with self._lock:
            return list(self._templates.values())

    # -- execution ---------------------------------------------------------

    def execute(self, query,
                params: Mapping[str, Hashable] | None = None,
                deadline: Deadline | None = None) -> ServiceResult:
        """Answer one query (text or parsed), binding ``params`` if the
        query carries ``$name`` placeholders.

        A text's literals are bound the same way: the plan cache serves
        the text's shape, and the literals are its bindings.

        With ``deadline=`` set, the whole request runs inside its
        scope: the executor, the fetch boundary and the procshard RPC
        layer all observe it ambiently and abort with
        :class:`DeadlineExceeded` once it expires.
        """
        start = time.perf_counter()
        with span("request"), deadline_scope(deadline):
            if isinstance(query, str):
                entry, cached, values = self.plan_cache.compile_text(
                    query, self.access_schema, parse_query)
                if values:
                    if params:  # the text declares no parameters
                        check_bindings(frozenset(), params, "execute")
                    params = values
            else:
                entry, cached = self.plan_cache.compile(query,
                                                        self.access_schema)
            return self._run(entry, cached, params or {}, start,
                             where="execute")

    def execute_template(self, name: str,
                         params: Mapping[str, Hashable],
                         deadline: Deadline | None = None) -> ServiceResult:
        """Answer one bound template request — the per-user hot path."""
        start = time.perf_counter()
        with span("request"), deadline_scope(deadline):
            template = self.template(name)
            return self._run(template.compiled, True, params, start,
                             where=f"template {name!r}")

    def _run(self, entry: CompiledQuery, plan_cached: bool,
             params: Mapping[str, Hashable], start: float,
             where: str) -> ServiceResult:
        try:
            if entry.bounded:
                # The hot path runs the *optimized physical* plan
                # straight from the cache: binding pairs it with the
                # request's values, never a re-parse, re-plan,
                # re-optimize or re-specialize.
                with span("bind"):
                    plan = bind_physical_plan(entry.physical,
                                              entry.parameters, params,
                                              where=where)
                result = CachingExecutor(self.db,
                                         self.fetch_cache).execute(plan)
                answers, stats, scan = result.answers, result.stats, None
            else:
                with span("bind"):
                    query = bind_query(entry.query, entry.parameters,
                                       params, where=where)
                scan = ScanStats()
                with span("execute"):
                    answers = evaluate(query, self.db, scan)
                stats = None
        except DeadlineExceeded:
            with self._lock:
                self._requests += 1
                self._deadline_exceeded_requests += 1
            raise
        latency = time.perf_counter() - start
        with self._lock:
            self._requests += 1
            if entry.bounded:
                self._bounded_requests += 1
            else:
                self._fallback_requests += 1
        outcome = ServiceResult(answers=answers, bounded=entry.bounded,
                                plan_cached=plan_cached, latency_s=latency,
                                reason=entry.reason, stats=stats,
                                scan_stats=scan)
        if self._request_metrics is not None:
            self._request_metrics.observe(outcome)
        return outcome

    def execute_batch(self, requests: Sequence[BatchRequest],
                      fail_fast: bool = False) -> BatchReport:
        """Run many requests in order; see :mod:`repro.service.batch`."""
        return run_batch(self, requests, fail_fast=fail_fast)

    # -- admission accounting (the serving tier records, we count) ---------

    def record_shed(self) -> None:
        """Count one request refused because the admission queue was
        full — the serving tier's 429 shed path."""
        with self._lock:
            self._shed_requests += 1

    def record_rejected(self) -> None:
        """Count one request refused because its certified cost bound
        exceeded the tenant budget, before any execution."""
        with self._lock:
            self._rejected_requests += 1

    # -- maintenance -------------------------------------------------------

    def clear_caches(self) -> None:
        """Drop compiled plans and cached fetches — the service's two
        caches (templates stay; bindings hold no state to drop)."""
        self.plan_cache.clear()
        self.fetch_cache.clear()

    def stats(self) -> ServiceStats:
        with self._lock:
            requests = self._requests
            bounded = self._bounded_requests
            fallback = self._fallback_requests
            shed = self._shed_requests
            rejected = self._rejected_requests
            deadline_exceeded = self._deadline_exceeded_requests
            templates = len(self._templates)
        backend = self.db.backend
        return ServiceStats(requests=requests,
                            bounded_requests=bounded,
                            fallback_requests=fallback,
                            shed_requests=shed,
                            rejected_requests=rejected,
                            deadline_exceeded_requests=deadline_exceeded,
                            templates=templates,
                            plan_cache=self.plan_cache.info(),
                            plan_shapes=self.plan_cache.shape_info(),
                            fetch_cache=self.fetch_cache.info(),
                            storage=backend.counters(),
                            storage_gauges=getattr(
                                backend, "gauges", dict)())
