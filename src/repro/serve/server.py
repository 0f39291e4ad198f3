"""The resilient serving tier: an asyncio HTTP front-end over
:class:`~repro.service.service.BoundedQueryService`.

Architecture, in one paragraph: a single asyncio event loop accepts
connections and parses requests (:mod:`repro.serve.http`); query
execution — the only CPU- and storage-heavy work — runs on a bounded
thread pool; an :class:`~repro.serve.admission.AdmissionController`
caps in-flight work at (workers + queue depth) — the gate fires on the
dispatching side (:meth:`ReproServer.submit`), *before* the executor,
so overload sheds with 429 + ``Retry-After`` instead of queueing
unboundedly; per-request deadlines propagate ambiently
(:mod:`repro.deadline`) through the executor, the fetch boundary and
the procshard RPC layer; and one klipper-style housekeeping loop
(:mod:`repro.serve.housekeeping`) owns all periodic maintenance.

Multi-tenancy: every tenant shares the one :class:`Database` (and its
attached indexes) but gets its *own* service compiled against its own
access schema (``attach=False``) and its own fetch-bound budget — the
certificate gate (:func:`~repro.serve.admission.budget_decision`) then
refuses over-budget work before it touches data.  Only the default
tenant's service is wired to the metrics registry (instrument names
are registry-global); per-tenant detail is served as JSON on
``/stats``.

Routes::

    GET  /healthz    liveness
    GET  /metrics    Prometheus exposition
    GET  /stats      per-tenant stats + admission + housekeeping JSON
    POST /tenants    {"name", "budget", "constraints": [[rel,[x],[y],N],..]}
    POST /templates  {"tenant"?, "name", "text"}
    POST /query      {"tenant"?, "query"|"template"+"params", "timeout_ms"?}
"""

from __future__ import annotations

import asyncio
import signal
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

from ..deadline import Deadline
from ..errors import DeadlineExceeded, ReproError
from ..obs.export import render_exposition
from ..obs.metrics import MetricsRegistry
from ..schema.access import AccessConstraint, AccessSchema
from ..service.service import BoundedQueryService
from ..storage.database import Database
from .admission import AdmissionController, Tenant, budget_decision
from .housekeeping import Housekeeper
from .http import (HttpError, Request, json_response, read_request,
                   render_response)

DEFAULT_TENANT = "default"


def _completed(response: bytes) -> "Future[bytes]":
    """An already-resolved future — shed and parse-error responses
    never touch the thread pool."""
    future: "Future[bytes]" = Future()
    future.set_result(response)
    return future


@dataclass
class ServerConfig:
    """Tuning knobs for one :class:`ReproServer`."""

    host: str = "127.0.0.1"
    port: int = 8080
    #: Executor threads actually running queries.  One by default: a
    #: query is pure-Python work under the GIL, so more threads pay
    #: only when the backend blocks (disk reads, shard RPCs).
    workers: int = 1
    #: Requests allowed to wait for a thread beyond the running ones;
    #: anything past workers + queue_depth is shed with 429.
    queue_depth: int = 16
    #: Fetch-bound budget for the default tenant (None = unlimited).
    default_budget: int | None = None
    #: Deadline applied when a request names none (0 = no deadline).
    default_timeout_ms: float = 0.0
    #: Suggested client back-off on a 429, seconds.
    retry_after_s: int = 1
    #: Housekeeping cadences.
    stats_flush_interval_s: float = 10.0
    peer_health_interval_s: float = 2.0


def _attach_server_collector(registry: MetricsRegistry,
                             server: "ReproServer") -> None:
    inflight = registry.gauge("repro_serve_inflight",
                              "Requests currently admitted")
    admitted = registry.counter("repro_serve_admitted_total",
                                "Requests past the capacity gate")
    runs = registry.counter("repro_housekeeping_runs_total",
                            "Housekeeping handler runs")
    errors = registry.counter("repro_housekeeping_errors_total",
                              "Housekeeping handler errors")

    def collect() -> None:
        inflight.set(server.admission.inflight)
        admitted.set_total(server.admission.admitted_total)
        report = server.housekeeper.report()
        runs.set_total(sum(entry["runs"] for entry in report.values()))
        errors.set_total(sum(entry["errors"] for entry in report.values()))

    registry.register_collector(collect)


class ReproServer:
    """The serving tier over one database instance.

    Construct, then either drive it from tests via :meth:`handle`
    (request in, response bytes out — no sockets needed) or serve for
    real with :func:`run_forever`.
    """

    def __init__(self, db: Database, config: ServerConfig | None = None,
                 registry: MetricsRegistry | None = None):
        self.db = db
        self.config = config or ServerConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        # The default tenant serves the database's attached access
        # schema; it is the ONE service wired to the registry (names
        # are registry-global, see attach_admission_collector).
        service = BoundedQueryService(db, registry=self.registry)
        self.tenants: dict[str, Tenant] = {
            DEFAULT_TENANT: Tenant(name=DEFAULT_TENANT, service=service,
                                   budget=self.config.default_budget)}
        self.admission = AdmissionController(
            self.config.workers + self.config.queue_depth)
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-serve")
        self.housekeeper = Housekeeper()
        self.housekeeper.register(
            "stats_flush", self.config.stats_flush_interval_s,
            self._flush_stats)
        self.housekeeper.register(
            "peer_health", self.config.peer_health_interval_s,
            self._check_peers)
        self._last_stats: dict = {}
        _attach_server_collector(self.registry, self)

    # -- housekeeping handlers ---------------------------------------------

    def _flush_stats(self) -> dict:
        self._last_stats = self.stats_payload()
        return self._last_stats

    def _check_peers(self) -> dict:
        health_check = getattr(self.db.backend, "health_check", None)
        if health_check is None:
            return {}
        return health_check()

    # -- request handling ---------------------------------------------------

    def handle(self, request: Request) -> bytes:
        """Route one parsed request to response bytes, entirely on the
        calling thread (the sync test surface)."""
        return self._guard(self._route, request)

    def submit(self, request: Request) -> "Future[bytes]":
        """Admission-aware dispatch: the capacity gate runs on the
        *calling* thread, so queued-but-unstarted work counts against
        capacity and overload sheds immediately — it cannot hide in
        the executor queue.  Only admitted query work ever reaches the
        thread pool.  The async loop and closed-loop load generators
        both come through here."""
        if (request.method, request.path) != ("POST", "/query"):
            return self._executor.submit(self.handle, request)
        try:
            payload = request.json()
            tenant = self._tenant(payload)
        except HttpError as error:
            return _completed(json_response(
                error.status, {"error": error.message}, keep_alive=False))
        if not self.admission.try_enter():
            tenant.service.record_shed()
            return _completed(
                self._refuse("admission queue full, request shed"))
        future = self._executor.submit(
            self._guard, self._execute_admitted, tenant, payload)
        future.add_done_callback(lambda _f: self.admission.leave())
        return future

    def _guard(self, fn, *args) -> bytes:
        try:
            return fn(*args)
        except HttpError as error:
            return json_response(error.status, {"error": error.message},
                                 keep_alive=False)
        except ReproError as error:
            return json_response(400, {"error": str(error)})
        except Exception as error:  # noqa: BLE001 - last-resort 500
            return json_response(
                500, {"error": f"{type(error).__name__}: {error}"})

    def _route(self, request: Request) -> bytes:
        route = (request.method, request.path)
        if route == ("GET", "/healthz"):
            return json_response(200, {"status": "ok"})
        if route == ("GET", "/metrics"):
            text = render_exposition(self.registry)
            return render_response(
                200, text.encode("utf-8"),
                content_type="text/plain; version=0.0.4")
        if route == ("GET", "/stats"):
            return json_response(200, self.stats_payload())
        if route == ("POST", "/tenants"):
            return self._handle_tenants(request)
        if route == ("POST", "/templates"):
            return self._handle_templates(request)
        if request.path == "/query":
            if request.method != "POST":
                return json_response(
                    405, {"error": "use POST for /query"})
            return self._handle_query(request)
        return json_response(
            404, {"error": f"no route for {request.method} "
                           f"{request.path}"})

    def _refuse(self, message: str, extra: dict | None = None) -> bytes:
        body = {"error": message,
                "retry_after_s": self.config.retry_after_s}
        if extra:
            body.update(extra)
        return json_response(
            429, body,
            extra_headers=(("Retry-After",
                            str(self.config.retry_after_s)),))

    def _tenant(self, payload: dict) -> Tenant:
        name = payload.get("tenant", DEFAULT_TENANT)
        tenant = self.tenants.get(name)
        if tenant is None:
            raise HttpError(404, f"unknown tenant {name!r}; registered: "
                                 f"{', '.join(sorted(self.tenants))}")
        return tenant

    def _handle_tenants(self, request: Request) -> bytes:
        payload = request.json()
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise HttpError(400, 'tenant registration needs a "name"')
        if name in self.tenants:
            raise HttpError(400, f"tenant {name!r} is already registered")
        budget = payload.get("budget")
        if budget is not None and (not isinstance(budget, int)
                                   or budget < 0):
            raise HttpError(400, f'"budget" must be a non-negative '
                                 f'integer or null, got {budget!r}')
        specs = payload.get("constraints")
        if not isinstance(specs, list) or not specs:
            raise HttpError(
                400, 'tenant registration needs "constraints": a non-'
                     'empty list of [relation, [x...], [y...], limit]')
        constraints = []
        for spec in specs:
            if (not isinstance(spec, list) or len(spec) != 4
                    or not isinstance(spec[1], list)
                    or not isinstance(spec[2], list)):
                raise HttpError(
                    400, f"bad constraint spec {spec!r}; expected "
                         "[relation, [x...], [y...], limit]")
            relation, x, y, limit = spec
            constraints.append(AccessConstraint(
                relation, tuple(x), tuple(y), limit))
        # attach=False: compile against the tenant's schema while the
        # shared database keeps its wider attached indexes.
        schema = AccessSchema(self.db.schema, tuple(constraints))
        service = BoundedQueryService(self.db, access_schema=schema,
                                     attach=False, registry=None)
        self.tenants[name] = Tenant(name=name, service=service,
                                    budget=budget)
        return json_response(200, {"tenant": name, "budget": budget,
                                   "constraints": len(constraints)})

    def _handle_templates(self, request: Request) -> bytes:
        payload = request.json()
        tenant = self._tenant(payload)
        name, text = payload.get("name"), payload.get("text")
        if not isinstance(name, str) or not isinstance(text, str):
            raise HttpError(400, 'template registration needs "name" '
                                 'and "text" strings')
        template = tenant.service.register_template(
            name, text, replace=bool(payload.get("replace", False)))
        return json_response(200, {
            "tenant": tenant.name, "template": name,
            "parameters": sorted(template.parameters),
            "bounded": template.compiled.bounded})

    def _handle_query(self, request: Request) -> bytes:
        payload = request.json()
        tenant = self._tenant(payload)
        if not self.admission.try_enter():
            tenant.service.record_shed()
            return self._refuse("admission queue full, request shed")
        try:
            return self._execute_admitted(tenant, payload)
        finally:
            self.admission.leave()

    def _execute_admitted(self, tenant: Tenant, payload: dict) -> bytes:
        query_text = payload.get("query")
        template_name = payload.get("template")
        params = payload.get("params") or {}
        if not isinstance(params, dict):
            raise HttpError(400, '"params" must be an object')
        if (query_text is None) == (template_name is None):
            raise HttpError(
                400, 'a query request carries exactly one of "query" '
                     '(text) or "template" (a registered name)')
        if template_name is not None:
            entry = tenant.service.template(template_name).compiled
        else:
            entry = tenant.service.compile(query_text)
        decision = budget_decision(entry, tenant, self.db.size())
        if not decision.admitted:
            tenant.service.record_rejected()
            return self._refuse(decision.reason,
                                {"bound": decision.bound})
        timeout_ms = payload.get("timeout_ms",
                                 self.config.default_timeout_ms)
        if not isinstance(timeout_ms, (int, float)) or timeout_ms < 0:
            raise HttpError(400, f'"timeout_ms" must be a non-negative '
                                 f'number, got {timeout_ms!r}')
        deadline = Deadline.after(timeout_ms / 1e3) if timeout_ms else None
        try:
            if template_name is not None:
                result = tenant.service.execute_template(
                    template_name, params, deadline=deadline)
            else:
                result = tenant.service.execute(query_text, params,
                                                deadline=deadline)
        except DeadlineExceeded as error:
            return json_response(504, {"error": str(error),
                                       "timeout_ms": timeout_ms})
        answers = sorted(result.answers, key=repr)
        body = {
            "answers": [list(answer) for answer in answers],
            "count": len(answers),
            "bounded": result.bounded,
            "plan_cached": result.plan_cached,
            "latency_ms": round(result.latency_ms, 3),
        }
        if decision.bound is not None:
            body["certified_fetch_bound"] = decision.bound
        if not result.bounded:
            body["fallback_reason"] = result.reason
        return json_response(200, body)

    # -- stats --------------------------------------------------------------

    def stats_payload(self) -> dict:
        tenants = {}
        for name, tenant in list(self.tenants.items()):
            stats = tenant.service.stats()
            tenants[name] = {
                "budget": tenant.budget,
                "requests": stats.requests,
                "bounded_requests": stats.bounded_requests,
                "fallback_requests": stats.fallback_requests,
                "shed_requests": stats.shed_requests,
                "rejected_requests": stats.rejected_requests,
                "deadline_exceeded_requests":
                    stats.deadline_exceeded_requests,
                "templates": stats.templates,
                "plan_cache_hits": stats.plan_cache.hits,
                "plan_cache_shape_hits": stats.plan_shapes.hits,
                "plan_cache_shape_misses": stats.plan_shapes.misses,
                "fetch_cache_hits": stats.fetch_cache.hits,
            }
        return {
            "tenants": tenants,
            "admission": {
                "inflight": self.admission.inflight,
                "max_inflight": self.admission.max_inflight,
                "admitted_total": self.admission.admitted_total,
                "shed_total": self.admission.shed_total,
            },
            "housekeeping": self.housekeeper.report(),
        }

    # -- the async loop ------------------------------------------------------

    async def _serve_client(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as error:
                    writer.write(json_response(
                        error.status, {"error": error.message},
                        keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                # Heavy work (compile + execution) runs on the thread
                # pool; the admission gate fires here on the loop, so
                # overload sheds instead of queueing unboundedly.
                response = await asyncio.wrap_future(self.submit(request))
                writer.write(response)
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def start(self) -> asyncio.base_events.Server:
        return await asyncio.start_server(
            self._serve_client, self.config.host, self.config.port)

    def close(self) -> None:
        self._executor.shutdown(wait=True, cancel_futures=True)


async def run_forever(server: ReproServer, *,
                      ready: "asyncio.Event | None" = None) -> None:
    """Serve until SIGTERM/SIGINT, then drain gracefully: stop
    accepting, stop housekeeping, shut the executor down."""
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):
            pass  # non-main thread / platform without signal support
    listener = await server.start()
    housekeeping = asyncio.ensure_future(server.housekeeper.run(stop))
    if ready is not None:
        ready.set()
    try:
        await stop.wait()
    finally:
        stop.set()
        listener.close()
        await listener.wait_closed()
        await housekeeping
        server.close()
