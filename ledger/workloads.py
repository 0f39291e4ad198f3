"""The six workloads: set-up, one untraced round, the traced run.

Every load generator here is one closed-loop client on one thread: the
next request is sent when the previous answer has been decoded, which
is how callers of a query API behave.  A *round* replays a fixed list
of operations made from the seed, so every count repeats exactly from
round to round and from run to run; timings are reported as the median
over rounds of a per-round statistic (``ledger/run.py``).

Layers are measured from outside.  The traced run drives the same
operations three more times: through the service under instance
proxies (fetch cache and backend boundaries), through a *staged
replay* that re-enacts the service's request path with the layers'
public functions and a span around each, and once under
``repro.obs.Tracer`` as a cross-check of the stage names both know.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.bep import is_boundedly_evaluable
from repro.deadline import deadline_scope
from repro.engine.naive import evaluate
from repro.engine.optimizer import optimize
from repro.engine.optimizer.specialize import specialized_plan
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, span
from repro.query.parser import parse_query
from repro.serve import ReproServer, Request, ServerConfig, json_response
from repro.service.fetchcache import CachingExecutor, FetchCache
from repro.service.plancache import PlanCache
from repro.service.service import BoundedQueryService, ServiceResult
from repro.service.templates import bind_physical_plan, bind_query
from repro.storage.database import Database
from repro.storage.disk import DiskBackend
from repro.storage.io import save_database
from repro.storage.procshard import ProcessShardedBackend
from repro.storage.statistics import TableStatistics

from data import (NARROW, WIDE, Oracle, adhoc_requests, at_costs,
                  cost_ladder, instance, narrow_candidates, rows_of,
                  stratified, user_bytes, zipf_sequence)
from serving import Client, ServerProcess
from spans import Proxies, Recorder, median_us
from stats import median_of_rounds, percentile

READ, DELETE, INSERT = range(3)
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


#: How often the closed loop stops for one :func:`spin_once`.
SPIN_EVERY_S = 0.02
#: The loop's duration on the build host when it is neither fast nor
#: slow; host-normalised timings are scaled to it so they read as µs.
SPIN_REFERENCE_US = 850.0


@dataclass
class Round:
    """What one replay of the operation list produced."""

    latencies: list            # per read, seconds
    wall: float                # the whole loop, seconds
    ops: int                   # reads + writes attempted
    failed: int
    dq: int                    # tuples fetched + tuples from cache
    write_latencies: list = field(default_factory=list)
    #: The host's speed while the loop ran (see :class:`HostSpeed`).
    spin_us: float = SPIN_REFERENCE_US
    #: Per-round side numbers (per-size p50 and |D_Q| on the scale
    #: workload).
    extra: dict = field(default_factory=dict)

    def p50_norm_us(self) -> float:
        return p50_norm_us(self.latencies, self.spin_us)


def p50_norm_us(latencies: list, spin_us: float) -> float:
    """The p50 of ``latencies`` (seconds) in µs at the reference host
    speed, given the speed they were measured at."""
    return percentile(latencies, 50) * 1e6 * SPIN_REFERENCE_US / spin_us


def spin_once() -> float:
    """A fixed interpreter loop, timed: how fast the host is right now,
    in µs.  The build host (a shared 2-vCPU VM) switches between two
    speeds ~25 % apart several times a second, idle or not; timings of
    interpreter-bound work move with this loop, so dividing one by the
    other leaves the program's share."""
    begin = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    return (time.perf_counter() - begin) * 1e6


class HostSpeed:
    """The host's speed over one replay: every ``SPIN_EVERY_S`` the
    client spends its think time between two requests on one
    :func:`spin_once`; the median of those is the speed the replay ran
    at.  ``paused`` is the time that took, to be left out of the wall
    time."""

    def __init__(self):
        self.spins = [spin_once()]
        self.paused = 0.0
        self.next_spin = time.perf_counter() + SPIN_EVERY_S

    def between_requests(self, now: float) -> None:
        if now > self.next_spin:
            self.spins.append(spin_once())
            after = time.perf_counter()
            self.paused += after - now
            self.next_spin = after + SPIN_EVERY_S

    def spin_us(self) -> float:
        return statistics.median(self.spins + [spin_once()])


def run_ops(call, db: Database, ops: list):
    """The closed loop: one operation at a time, each read timed from
    the call to the decoded answer.  Checking answers happens after
    the loop, so it never sits between two requests."""
    clock = time.perf_counter
    latencies, results, write_latencies = [], [], []
    write_failures = 0
    speed = HostSpeed()
    started = clock()
    for kind, subject, payload in ops:
        begin = clock()
        if kind == READ:
            try:
                result = call(subject)
            except Exception as error:  # noqa: BLE001 - counted as failed
                result = error
            end = clock()
            latencies.append(end - begin)
            results.append(result)
        else:
            try:
                if kind == DELETE:
                    acknowledged = db.delete(subject, payload)
                else:
                    db.insert(subject, payload)
                    acknowledged = True
            except Exception:  # noqa: BLE001 - counted as failed
                acknowledged = False
            end = clock()
            write_latencies.append(end - begin)
            write_failures += not acknowledged
        speed.between_requests(end)
    wall = clock() - started - speed.paused
    return (latencies, results, write_latencies, write_failures, wall,
            speed.spin_us())


def service_answer(result, expected):
    """|D_Q| of a correct bounded ``ServiceResult``/``ExecutionResult``,
    or ``None`` for an error, a scan fallback or a wrong answer."""
    if (isinstance(result, Exception) or result.answers != expected
            or not getattr(result, "bounded", True)):
        return None
    return result.stats.tuples_fetched + result.stats.tuples_from_cache


def check(ops: list, results: list, accept=service_answer):
    """``(failed, dq)`` of one replay's reads."""
    failed = dq = 0
    reads = (op for op in ops if op[0] == READ)
    for (_, _, expected), result in zip(reads, results):
        tuples = accept(result, expected)
        if tuples is None:
            failed += 1
        else:
            dq += tuples
    return failed, dq


@dataclass
class ServicePath:
    """How a workload drives the service: which call, over which
    database, with a service that lives across rounds (caches stay
    warm) or a fresh one per round (nothing survives)."""

    db: Database
    #: Template text, or ``None`` for ``execute(query text)``.
    template: str | None
    fetch_cache_size: int = 4096
    persistent: BoundedQueryService | None = None
    registry: MetricsRegistry | None = None

    def service(self) -> BoundedQueryService:
        if self.persistent is not None:
            return self.persistent
        service = BoundedQueryService(
            self.db, fetch_cache_size=self.fetch_cache_size,
            registry=self.registry)
        if self.template is not None:
            service.register_template("t", self.template)
        return service

    def call(self, service):
        if self.template is None:
            return service.execute
        return functools.partial(service.execute_template, "t")

    def release(self, service) -> None:
        """Unhook a per-round service's fetch cache from the backend's
        write listeners, which would otherwise keep it alive."""
        if service is not self.persistent:
            service.fetch_cache.detach_maintenance()

    def keep(self) -> "ServicePath":
        """From now on one service, and its caches, across rounds."""
        self.persistent = self.service()
        return self

    def replay(self, ops: list, accept=service_answer) -> Round:
        service = self.service()
        try:
            latencies, results, write_latencies, write_failures, wall, spin = (
                run_ops(self.call(service), self.db, ops))
        finally:
            self.release(service)
        failed, dq = check(ops, results, accept)
        return Round(latencies, wall, len(ops), failed + write_failures,
                     dq, write_latencies, spin)


class Staged:
    """The service's request path re-enacted with the layers' public
    functions, one span per stage, in request order.

    It keeps the same state the service keeps — a plan cache, a
    bound-plan memo, a fetch cache subscribed to the backend's write
    deltas — so a warm request is a memo hit here too and ``bind``
    costs what it costs the service.  Around the stages it does what
    ``execute``/``execute_template`` do around them (request span,
    deadline scope, template lookup and request count under a lock, a
    ``ServiceResult``): the self time of ``staged.request`` is
    ``service.overhead_us``, measured without reference to the real
    service's span.
    """

    def __init__(self, rec: Recorder, path: ServicePath):
        self.rec = rec
        self.db = path.db
        self.access = path.db.access_schema
        self.cache = FetchCache(path.fetch_cache_size)
        self.cache.attach_maintenance(path.db)
        self.plans = PlanCache(256)
        self.memo: dict = {}
        self.lock = threading.Lock()
        self.templates: dict = {}
        self.requests = 0
        if path.template is None:
            self.call = self.text_request
        else:
            self.templates["t"], _ = self.plans.compile(
                parse_query(path.template), self.access, self._statistics)
            self.call = self.template_request

    def _statistics(self) -> TableStatistics:
        return TableStatistics.from_database(self.db)

    def _answer(self, plan, cached: bool, start: float) -> ServiceResult:
        with self.rec.span("executor.execute"):
            result = CachingExecutor(self.db, self.cache).execute(plan)
        latency = time.perf_counter() - start
        with self.lock:
            self.requests += 1
        return ServiceResult(answers=result.answers, bounded=True,
                             plan_cached=cached, latency_s=latency,
                             stats=result.stats)

    def template_request(self, params: dict) -> ServiceResult:
        rec = self.rec
        with rec.span("staged.request"):
            start = time.perf_counter()
            with span("request"), deadline_scope(None):
                with self.lock:
                    entry = self.templates["t"]
                with rec.span("templates.bind"), span("bind"):
                    key = (entry.serial, tuple(sorted(params.items())))
                    plan = self.memo.get(key)
                    if plan is None:
                        plan = self.memo[key] = bind_physical_plan(
                            entry.physical, entry.parameters, params)
                with rec.span("optimizer.specialize"):
                    specialized_plan(plan, self.db.dictionary)
                return self._answer(plan, True, start)

    def text_request(self, text: str) -> ServiceResult:
        rec = self.rec
        with rec.span("staged.request"):
            start = time.perf_counter()
            with span("request"), deadline_scope(None):
                with rec.span("query.parse"):
                    query = parse_query(text)
                with rec.span("plancache.compile"):
                    entry, cached = self.plans.compile(query, self.access,
                                                       self._statistics)
                with rec.span("optimizer.specialize"), span("bind"):
                    specialized_plan(entry.physical, self.db.dictionary)
                result = self._answer(entry.physical, cached, start)
        # What the compile call is made of, timed again outside the
        # request so the request's own budget is not inflated.
        with rec.span("core.decide"):
            decision = is_boundedly_evaluable(query, self.access)
        with rec.span("optimizer.optimize"):
            optimize(decision.witness["plan"], self._statistics)
        with rec.span("plancache.lookup"):
            self.plans.compile(query, self.access, self._statistics)
        return result

    def close(self) -> None:
        self.cache.detach_maintenance()


def wrap_boundaries(proxies: Proxies, cache: FetchCache, backend) -> None:
    """Spans at the two nested boundaries a request crosses."""
    for method in ("lookup", "lookup_many", "lookup_many_encoded"):
        proxies.wrap(cache, method, "fetchcache.lookup")
    for method in ("fetch_many", "fetch_flat", "fetch_many_encoded",
                   "fetch_flat_encoded"):
        proxies.wrap(backend, method, "backend.fetch", tally=True)
    proxies.wrap(backend, "insert_rows", "backend.insert")
    proxies.wrap(backend, "delete_rows", "backend.delete")


def drive(rec: Recorder, db: Database, ops: list, call, root: str | None):
    """One recorded replay; reads open ``root`` (unless the call opens
    its own), writes are spanned by the backend proxies.  Returns the
    results and the replay's host scale, which its spans now carry."""
    results = []
    first_span = len(rec.spans)
    speed = HostSpeed()
    for index, (kind, subject, payload) in enumerate(ops):
        rec.request = index
        if kind == READ:
            if root is None:
                results.append(call(subject))
            else:
                with rec.span(root):
                    results.append(call(subject))
        elif kind == DELETE:
            db.delete(subject, payload)
        else:
            db.insert(subject, payload)
        speed.between_requests(time.perf_counter())
    scale = SPIN_REFERENCE_US / speed.spin_us()
    rec.rescale(first_span, scale)
    return results, scale


def trace_path(rec: Recorder, path: ServicePath, ops: list, p50_us: float):
    """The traced run of an in-process workload.

    Returns ``(layers, crosscheck, failed)``: the per-layer metrics the
    path can produce, ``repro.obs`` stage means in µs for the stages it
    names too, and how many traced answers were wrong.  ``p50_us`` is
    the untraced p50 at the reference host speed; every time here is
    brought to that speed by the host scale of the replay it comes
    from.
    """
    db, backend = path.db, path.db.backend
    reads = sum(1 for op in ops if op[0] == READ)
    layers: dict = {}

    # 1. The service itself, with proxies at the nested boundaries.
    service = path.service()
    cache = service.fetch_cache
    evictions = cache.info().evictions
    maintained = (cache.maintained_entries, cache.maintenance_fallbacks,
                  cache.maintenance_invalidations)
    counters = backend.counters()
    plan_before = service.plan_cache.info()
    first_span = len(rec.spans)
    with Proxies(rec) as proxies:
        wrap_boundaries(proxies, cache, backend)
        results, scale = drive(rec, db, ops, path.call(service),
                               "service.request")
        fetch_calls, fetch_keys = proxies.counts["backend.fetch"]
    failed, _ = check(ops, results)
    fetch_seconds = sum(
        seconds for span, seconds in zip(rec.spans[first_span:],
                                         rec.scaled()[first_span:])
        if span[0] == "backend.fetch")
    after = backend.counters()
    plan_after = service.plan_cache.info()
    stats = [result.stats for result in results
             if not isinstance(result, Exception)]
    hits = sum(s.fetch_cache_hits for s in stats)
    misses = sum(s.fetch_cache_misses for s in stats)
    fetched = sum(s.tuples_fetched for s in stats)
    for label in ("gather", "fused_fetch", "batch_fetch"):
        layers[f"executor.{label}_ops_per_request"] = sum(
            s.op_counts.get(label, 0) for s in stats) / reads
    layers.update({
        "executor.ops_per_request":
            sum(s.ops_executed for s in stats) / reads,
        "executor.max_intermediate_rows":
            max((s.max_intermediate for s in stats), default=0),
        "fetchcache.lookups_per_request": (hits + misses) / reads,
        "fetchcache.hit_rate": hits / max(1, hits + misses),
        "fetchcache.evictions_per_request":
            (cache.info().evictions - evictions) / reads,
        "fetchcache.maintained_entries":
            cache.maintained_entries - maintained[0],
        "fetchcache.maintenance_fallbacks":
            cache.maintenance_fallbacks - maintained[1],
        "fetchcache.invalidations":
            cache.maintenance_invalidations - maintained[2],
        "backend.fetch_calls_per_request": fetch_calls / reads,
        "backend.index_lookups_per_request": fetch_keys / reads,
        "backend.tuples_fetched_per_request": fetched / reads,
        "backend.fetch_rows_per_s":
            fetched / fetch_seconds if fetch_seconds else 0.0,
    })
    plan_lookups = (plan_after.hits + plan_after.misses
                    - plan_before.hits - plan_before.misses)
    if plan_lookups:
        layers["plancache.hit_rate"] = (
            (plan_after.hits - plan_before.hits) / plan_lookups)
    if "rpc_requests_total" in after:
        def per_request(key):
            return (after[key] - counters[key]) / reads
        remote = sum(after[key] - counters[key] for key in
                     ("worker_reads_total", "replica_reads_total"))
        local = after["local_reads_total"] - counters["local_reads_total"]
        layers.update({
            "procshard.rpc_requests_per_request":
                per_request("rpc_requests_total"),
            "procshard.rpc_bytes_shipped_per_request":
                per_request("rpc_bytes_shipped_total"),
            "procshard.rpc_bytes_received_per_request":
                per_request("rpc_bytes_received_total"),
            # Summed over the peers of a fan-out, which wait side by
            # side: peer-time, not wall time, so it is shown beside the
            # backend's span (which contains the wait) and not added.
            "procshard.rpc_roundtrip_us_per_request":
                per_request("rpc_roundtrip_seconds_total") * 1e6 * scale,
            "procshard.worker_read_share": remote / max(1, remote + local),
        })
    if "wal_records_total" in after:
        records = after["wal_records_total"] - counters["wal_records_total"]
        if records:
            layers["disk.wal_append_us_per_write"] = 1e6 * scale * (
                after["wal_append_seconds_total"]
                - counters["wal_append_seconds_total"]) / records
            layers["disk.wal_bytes_per_write"] = (
                after["wal_bytes_total"]
                - counters["wal_bytes_total"]) / records
        layers["disk.fsyncs"] = after["wal_fsyncs_total"]
    for kind in ("insert", "delete"):
        durations = rec.durations(f"backend.{kind}")
        if durations:
            layers[f"backend.{kind}_us"] = (
                statistics.median(durations) * 1e6)
    path.release(service)

    # 2. The staged replay, under the same proxies.  A workload whose
    #    service stays warm gets one unrecorded replay first.
    staged = Staged(Recorder(), path)
    if path.persistent is not None:
        drive(staged.rec, db, ops, staged.call, None)
    staged.rec = rec
    with Proxies(rec) as proxies:
        wrap_boundaries(proxies, staged.cache, backend)
        staged_results, _ = drive(rec, db, ops, staged.call, None)
    staged.close()
    failed += check(ops, staged_results)[0]

    service_spans = rec.per_request("service.request")
    staged_spans = rec.per_request("staged.request")
    rows_us = {name: median_us(staged_spans, name) for name in
               ("query.parse", "plancache.compile", "templates.bind",
                "optimizer.specialize")}
    rows_us["executor.self"] = median_us(staged_spans, "executor.execute",
                                         self_time=True)
    rows_us["fetchcache.self"] = median_us(service_spans,
                                           "fetchcache.lookup",
                                           self_time=True)
    rows_us["backend.fetch"] = median_us(service_spans, "backend.fetch")
    traced_p50 = median_us(service_spans, "service.request")
    layers.update({
        "query.parse_us": rows_us["query.parse"],
        "plancache.compile_us": rows_us["plancache.compile"],
        "templates.bind_us": rows_us["templates.bind"],
        "optimizer.specialize_us": rows_us["optimizer.specialize"],
        "executor.self_us": rows_us["executor.self"],
        "fetchcache.self_us": rows_us["fetchcache.self"],
        "backend.fetch_self_us": rows_us["backend.fetch"],
        "service.overhead_us": median_us(staged_spans, "staged.request",
                                         self_time=True),
        "trace.overhead_ratio": traced_p50 / p50_us,
    })
    for name in ("core.decide", "optimizer.optimize", "plancache.lookup"):
        durations = rec.durations(name)
        if durations:
            layers[f"{name}_us"] = statistics.median(durations) * 1e6

    # 3. The program's own tracer over one more replay: a cross-check
    #    of the rows above, never their source.
    service = path.service()
    with Tracer() as tracer:
        *_, spin_us = run_ops(path.call(service), db, ops)
    path.release(service)
    crosscheck = {stage: seconds / reads * 1e6 * SPIN_REFERENCE_US / spin_us
                  for stage, seconds in sorted(tracer.stage_totals().items())}
    return layers, crosscheck, failed


class Workload:
    """One workload: inputs from the seed, a fixed operation list."""

    name = ""
    #: How often run.py sets the workload up for ``setup_s`` (median).
    #: 3 where one set-up is a couple of seconds; 1 where it is several
    #: and the driver's time cap (136 runs in 3420 s) decides.
    setup_reps = 1
    def __init__(self, seed: int, quick: bool, workdir: Path):
        self.seed = seed
        self.quick = quick
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.requests = 200 if quick else 1000
        self.path: ServicePath | None = None
        self.ops: list = []

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> Round:
        return self.path.replay(self.ops)

    def after_round(self, index: int) -> None:
        """Between two rounds, outside every timed window."""

    def finish(self) -> tuple[int, int]:
        """Checks after the last round: ``(attempted, failed)``."""
        return 0, 0

    def extra_series(self, rounds: list) -> dict:
        """Per-round values of the end-to-end metrics only this
        workload has."""
        return {}

    def traced(self, rec: Recorder, rounds: list, p50_us: float):
        return trace_path(rec, self.path, self.ops, p50_us)

    def child_pids(self) -> list[int]:
        """The processes running beside the client, for ``peak_rss_mb``."""
        return [child.pid for child in multiprocessing.active_children()]

    def close(self) -> None:
        if self.path is not None:
            self.path.db.backend.close()

    # -- shared input builders ---------------------------------------------

    def _base_instance(self, backend_factory=None) -> Database:
        return instance(48 if self.quick else 1200, self.seed,
                        backend_factory=backend_factory)

    def _hot_pool_reads(self, oracle: Oracle, count: int) -> list:
        """The Zipf-skewed sequence over a 48-binding pool that
        ``warm_template`` and ``http_closed_loop`` share."""
        pool = stratified(narrow_candidates(oracle), 48, self.rng)
        expected = {binding: oracle.narrow(*binding) for binding in pool}
        return [(READ, {"district": district, "date": date},
                 expected[district, date])
                for district, date in zipf_sequence(pool, count, self.rng)]


class WarmTemplate(Workload):
    name = "warm_template"
    setup_reps = 3

    def setup(self) -> None:
        db = self._base_instance()
        self.ops = self._hot_pool_reads(Oracle(rows_of(db)),
                                        2 * self.requests)
        self.path = ServicePath(db, NARROW).keep()
        self.round()  # every binding's fetches are now cached


class ColdFetchScale(Workload):
    name = "cold_fetch_scale"

    def setup(self) -> None:
        self.sizes = (12, 24, 48) if self.quick else (48, 480, 4800)
        #: days -> (path, segments); each segment is a list of distinct
        #: bindings served by one fresh service.
        built: dict = {}
        #: The |D_Q| of the largest instance's bindings; every smaller
        #: instance serves the bindings nearest to them, so that sizes
        #: differ in |D| and not in which days 48 draws happened to make.
        targets = None
        for days in reversed(self.sizes):
            db = instance(days, self.seed)
            oracle = Oracle(rows_of(db))
            candidates = narrow_candidates(oracle)
            pieces = -(-self.requests // len(candidates))
            segments = []
            for piece in range(pieces):
                if targets is None:
                    picks = stratified(candidates, self.requests, self.rng)
                else:
                    picks = at_costs(oracle, candidates,
                                     targets[piece::pieces])
                self.rng.shuffle(picks)
                segments.append([
                    (READ, {"district": district, "date": date},
                     oracle.narrow(district, date))
                    for district, date in picks])
            if targets is None:
                targets = sorted(oracle.cost(date, district)
                                 for district, date in picks)
            built[days] = (ServicePath(db, NARROW, fetch_cache_size=1),
                           segments)
        self.instances = {days: built[days] for days in self.sizes}
        self.path, segments = self.instances[self.sizes[-1]]
        self.ops = [op for segment in segments for op in segment]

    def round(self) -> Round:
        """Every size, each segment on a fresh service; the headline
        numbers are the largest instance's, a failure at any size
        fails the round."""
        extra = {"p50_us": {}, "dq": {}}
        failed = 0
        for days in self.sizes:
            path, segments = self.instances[days]
            parts = [path.replay(segment) for segment in segments]
            headline = Round(
                [t for part in parts for t in part.latencies],
                sum(part.wall for part in parts),
                sum(part.ops for part in parts), 0,
                sum(part.dq for part in parts),
                spin_us=statistics.median(part.spin_us for part in parts))
            failed += sum(part.failed for part in parts)
            # Each size at the host speed it ran at, so that the ratio
            # of two sizes is not the ratio of two host states.
            extra["p50_us"][days] = headline.p50_norm_us()
            extra["dq"][days] = headline.dq / headline.ops
        headline.failed, headline.extra = failed, extra
        return headline  # the last, largest size

    def extra_series(self, rounds: list) -> dict:
        small, large = self.sizes[0], self.sizes[-1]
        return {"scale_latency_ratio": [
            r.extra["p50_us"][large] / r.extra["p50_us"][small]
            for r in rounds]}

    def traced(self, rec: Recorder, rounds: list, p50_us: float):
        layers, crosscheck, failed = trace_path(rec, self.path, self.ops,
                                                p50_us)
        small, large = self.sizes[0], self.sizes[-1]
        for days, label in zip(self.sizes, ("d48", "d480", "d4800")):
            layers[f"scale.p50_us.{label}"] = median_of_rounds(
                rounds, lambda r: r.extra["p50_us"][days])
        layers["scale.dq_ratio"] = (rounds[0].extra["dq"][large]
                                    / rounds[0].extra["dq"][small])
        query = parse_query(NARROW)
        for days, label in ((small, "d48"), (large, "d4800")):
            path, segments = self.instances[days]
            scans = []
            for _, params, expected in segments[0][:3]:
                bound = bind_query(query, frozenset(query.parameters()),
                                   params)
                begin = time.perf_counter()
                answers = evaluate(bound, path.db)
                scans.append(time.perf_counter() - begin)
                failed += answers != expected
            layers[f"naive.scan_ms.{label}"] = (
                statistics.median(scans) * 1e3)
        backend = self.path.db.backend
        layers["encoding.dictionary_entries"] = (
            backend.counters()["dictionary_size"])
        layers["encoding.dictionary_bytes"] = (
            backend.gauges()["dictionary_bytes"])
        return layers, crosscheck, failed

    def close(self) -> None:
        for path, _ in getattr(self, "instances", {}).values():
            path.db.backend.close()


class AdhocCompile(Workload):
    name = "adhoc_compile"
    setup_reps = 3

    def setup(self) -> None:
        db = self._base_instance()
        self.ops = [(READ, text, expected) for text, expected in
                    adhoc_requests(Oracle(rows_of(db)), db, self.seed,
                                   self.requests)]
        # A fresh service per round: 1000 distinct texts against an
        # empty 256-entry plan cache, so every request compiles.
        self.path = ServicePath(db, None)


class HttpClosedLoop(Workload):
    name = "http_closed_loop"

    def setup(self) -> None:
        db = self._base_instance()
        reads = self._hot_pool_reads(Oracle(rows_of(db)), self.requests)
        #: The reads again, in the service's own terms, for the traced
        #: run's in-process server.
        self.inner_ops = reads
        self.ops = [
            (READ,
             Client.frame("POST", "/query",
                          {"template": "t", "params": params}),
             sorted([list(answer) for answer in expected], key=repr))
            for _, params, expected in reads]
        save_database(db, self.workdir / "db")
        del db  # the server process owns the instance from here on
        # Client and server share one core.  The loop is closed, so the
        # two never run at the same time; left to the scheduler they
        # mostly share a core anyway, but a run that starts split pays
        # a cross-core wake-up (~170 µs in this VM) on every request,
        # which made p50 bimodal from run to run.
        self.affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.affinity)})
        self.server = ServerProcess(self.workdir / "db", SRC_DIR,
                                    self.workdir / "serve.log")
        self.server.wait_healthy()
        self.client = Client(self.server.port)
        status, body = self.client.exchange(Client.frame(
            "POST", "/templates", {"name": "t", "text": NARROW}))
        if status != 200:
            raise RuntimeError(f"template registration failed: {body!r}")
        self.round()

    def _call(self, request: bytes):
        status, body = self.client.exchange(request)
        return status, json.loads(body)

    @staticmethod
    def _accept(result, expected):
        if isinstance(result, Exception):
            return None
        status, payload = result
        if (status != 200 or not payload.get("bounded")
                or payload.get("answers") != expected):
            return None
        return 0

    def _tuples_served(self) -> int:
        """|D_Q| so far, from the server's own ``/metrics``."""
        _, body = self.client.exchange(Client.frame("GET", "/metrics"))
        total = 0
        for line in body.decode().splitlines():
            if line.startswith(("repro_tuples_fetched_total ",
                                "repro_tuples_from_cache_total ")):
                total += int(float(line.split()[-1]))
        return total

    def round(self) -> Round:
        before = self._tuples_served()
        latencies, results, _, _, wall, spin = run_ops(self._call, None,
                                                       self.ops)
        failed, _ = check(self.ops, results, self._accept)
        return Round(latencies, wall, len(self.ops), failed,
                     self._tuples_served() - before, spin_us=spin)

    def traced(self, rec: Recorder, rounds: list, p50_us: float):
        server = ReproServer(self._base_instance(), ServerConfig(workers=1))
        try:
            return self._traced(rec, server, p50_us)
        finally:
            server.close()

    def _traced(self, rec: Recorder, server: ReproServer, p50_us: float):
        db = server.db
        service = server.tenants["default"].service
        service.register_template("t", NARROW)
        handle_ops = [
            (READ, Request("POST", "/query",
                           body=frame.partition(b"\r\n\r\n")[2]), expected)
            for _, frame, expected in self.ops]

        def handle_round() -> float:
            latencies, *_, spin_us = run_ops(server.handle, None, handle_ops)
            return p50_norm_us(latencies, spin_us)

        handle_round()  # warm the in-process fetch cache
        handle_p50 = statistics.median(handle_round() for _ in range(3))

        # The engine path under the socket is warm_template's: ledger it
        # on the in-process server's own service.
        path = ServicePath(db, NARROW, persistent=service)
        layers, crosscheck, failed = trace_path(
            rec, path, self.inner_ops,
            path.replay(self.inner_ops).p50_norm_us())

        # The server's share: handle() with the service call proxied,
        # then its JSON work staged on the same bytes.
        with Proxies(rec) as proxies:
            proxies.wrap(service, "execute_template", "service.request")
            responses, _ = drive(rec, db, handle_ops, server.handle,
                                 "server.handle")
        handle_spans = rec.per_request("server.handle")
        handle_self_us = median_us(handle_spans, "server.handle",
                                   self_time=True)
        sizes = []
        first_span, speed = len(rec.spans), HostSpeed()
        for (_, request, want), raw in zip(handle_ops, responses):
            with rec.span("http.request_json"):
                request.json()
            body = json.loads(raw.partition(b"\r\n\r\n")[2])
            failed += body.get("answers") != want
            with rec.span("http.response_json"):
                sizes.append(len(json_response(200, body)))
            speed.between_requests(time.perf_counter())
        rec.rescale(first_span, SPIN_REFERENCE_US / speed.spin_us())
        request_json = statistics.median(
            rec.durations("http.request_json")) * 1e6
        response_json = statistics.median(
            rec.durations("http.response_json")) * 1e6

        # Always-on metrics: the same service call with and without a
        # registry attached, rounds interleaved.
        plain = ServicePath(db, NARROW).keep()
        metered = ServicePath(db, NARROW, registry=MetricsRegistry()).keep()
        plain_p50s, metered_p50s = [], []
        for _ in range(4):
            for candidate, p50s in ((plain, plain_p50s),
                                    (metered, metered_p50s)):
                p50s.append(candidate.replay(self.inner_ops).p50_norm_us())
        for candidate in (plain, metered):
            candidate.persistent.fetch_cache.detach_maintenance()

        _, body = self.client.exchange(Client.frame("GET", "/stats"))
        admission = json.loads(body)["admission"]
        layers.update({
            "http.request_json_us": request_json,
            "http.response_json_us": response_json,
            "http.response_bytes": statistics.median(sizes),
            "server.handle_self_us":
                max(0.0, handle_self_us - request_json - response_json),
            "http.wire_us": p50_us - handle_p50,
            "server.shed_fraction": admission["shed_total"] / max(
                1, admission["shed_total"] + admission["admitted_total"]),
            "obs.registry_overhead_ratio":
                statistics.median(metered_p50s)
                / statistics.median(plain_p50s),
            "trace.overhead_ratio":
                median_us(handle_spans, "server.handle") / handle_p50,
        })
        return layers, crosscheck, failed

    def child_pids(self) -> list[int]:
        return [self.server.process.pid]

    def close(self) -> None:
        if hasattr(self, "client"):
            self.client.close()
        if hasattr(self, "server"):
            self.server.stop()
        if hasattr(self, "affinity"):
            os.sched_setaffinity(0, self.affinity)


class MixedWriteDisk(Workload):
    name = "mixed_write_disk"
    #: 9 reads, then a write; writes come in groups of four (delete two
    #: rows, re-insert both), so every round ends where it started.
    READS_PER_WRITE = 9

    def setup(self) -> None:
        self.data_dir = self.workdir / "data"
        # fsync stays off (the engine's default flushes to the OS per
        # record): the sandbox's flushes say nothing about a device.
        db = self._base_instance(
            lambda schema: DiskBackend(schema, self.data_dir))
        rows = rows_of(db)
        oracle = Oracle(rows)
        self.path = ServicePath(db, NARROW).keep()
        self.loaded_bytes = sum(user_bytes(row) for relation in rows.values()
                                for row in relation)
        pool = stratified(narrow_candidates(oracle), 400, self.rng)
        self.pool = pool
        writes = 4 * -(-self.requests // (4 * self.READS_PER_WRITE))
        # Half the written rows are casualties of accidents the read
        # set observes, half are vehicles picked anywhere.
        observed = []
        for district, date in self.rng.sample(pool, min(len(pool),
                                                        writes // 4)):
            aid = next(aid for aid, where in oracle.by_date[date]
                       if where == district)
            observed.append(("Casualty",
                             sorted(oracle.casualties[aid])[0]))
        elsewhere = [("Vehicle", row) for row in self.rng.sample(
            rows["Vehicle"], writes // 2 - len(observed))]
        targets = observed + elsewhere
        self.rng.shuffle(targets)
        self.targets = targets
        # Every binding equally often, topped up evenly across the cost
        # range, in seeded order: the mix is the same for every seed.
        reads = writes * self.READS_PER_WRITE
        repeats, rest = divmod(reads, len(pool))
        sequence = pool * repeats + stratified(pool, rest, self.rng)
        self.rng.shuffle(sequence)
        self.ops = []
        for write in range(writes):
            for district, date in sequence[write * self.READS_PER_WRITE:
                                           (write + 1) * self.READS_PER_WRITE]:
                self.ops.append((READ, {"district": district, "date": date},
                                 oracle.narrow(district, date)))
            pair, step = divmod(write, 4)
            relation, row = targets[2 * pair + step % 2]
            kind = DELETE if step < 2 else INSERT
            oracle.apply("delete" if kind == DELETE else "insert",
                         relation, row)
            self.ops.append((kind, relation, row))
        self.written_bytes = sum(user_bytes(op[2]) for op in self.ops
                                 if op[0] != READ)
        self.oracle = oracle
        self.snapshot_s = self.snapshot_bytes = self.round_wal_bytes = 0
        self.round()  # cache at its steady state, larger than it holds

    def round(self) -> Round:
        backend = self.path.db.backend
        before = backend.counters()["wal_bytes_total"]
        result = self.path.replay(self.ops)
        self.round_wal_bytes = (backend.counters()["wal_bytes_total"]
                                - before)
        return result

    def after_round(self, index: int) -> None:
        if index == 0:  # one compaction mid-run
            begin = time.perf_counter()
            snapshot = self.path.db.backend.snapshot()
            self.snapshot_s = time.perf_counter() - begin
            self.snapshot_bytes = sum(
                entry.stat().st_size for entry in snapshot.iterdir())

    def finish(self) -> tuple[int, int]:
        """Close, reopen from the directory alone, re-check answers."""
        if hasattr(self, "reopened"):
            return self.reopened
        schema, access = self.path.db.schema, self.path.db.access_schema
        self.path.persistent.fetch_cache.detach_maintenance()
        self.path.db.backend.close()
        self.path = None  # a restart does not hold the old instance
        backend = DiskBackend(schema, self.data_dir)
        db = Database(schema, access, backend=backend)
        self.path = ServicePath(db, NARROW).keep()
        self.recovery = backend.counters()
        sample = [(READ, {"district": district, "date": date},
                   self.oracle.narrow(district, date))
                  for district, date in self.pool[:100]]
        failed = self.path.replay(sample).failed
        failed += sum((relation, row) not in db
                      for relation, row in self.targets)
        self.reopened = (len(sample) + len(self.targets), failed)
        return self.reopened

    def extra_series(self, rounds: list) -> dict:
        return {
            "write_latency_p50_us": [
                percentile(r.write_latencies, 50) * 1e6 for r in rounds],
            # As the directory stands one round after the compaction.
            "bytes_stored_per_user_byte": [
                (self.snapshot_bytes + self.round_wal_bytes)
                / (self.loaded_bytes + self.written_bytes)],
        }

    def traced(self, rec: Recorder, rounds: list, p50_us: float):
        layers, crosscheck, failed = trace_path(rec, self.path, self.ops,
                                                p50_us)
        self.finish()
        layers.update({
            "disk.snapshot_s": self.snapshot_s,
            "disk.recover_s": self.recovery["recover_seconds_total"],
            "disk.recovered_rows": self.recovery["recovered_rows_total"],
        })
        return layers, crosscheck, failed


class ProcshardFanout(Workload):
    name = "procshard_fanout"

    def _instance(self) -> Database:
        return instance(12 if self.quick else 300, self.seed,
                        max_per_day=160)

    def setup(self) -> None:
        memory = self._instance()
        oracle = Oracle(rows_of(memory))
        begin = time.perf_counter()
        # Loads the coordinator, spawns the workers, ships their shards.
        db = memory.with_backend(ProcessShardedBackend(memory.schema,
                                                       workers=2))
        self.bootstrap_s = time.perf_counter() - begin
        del memory
        self.path = ServicePath(db, WIDE, fetch_cache_size=1).keep()
        # A hundred dates on an even |D_Q| ladder up to the largest day
        # the generator makes (160 accidents, ~5.5 tuples each), every
        # one equally often.
        every = [(READ, {"date": date}, oracle.wide(date))
                 for date in cost_ladder(oracle, 100, 850)]
        self.ops = every * (self.requests // len(every))
        self.rng.shuffle(self.ops)
        self.path.replay(every)  # every binding's plan is memoized

    def traced(self, rec: Recorder, rounds: list, p50_us: float):
        layers, crosscheck, failed = trace_path(rec, self.path, self.ops,
                                                p50_us)
        memory = ServicePath(self._instance(), WIDE,
                             fetch_cache_size=1).keep()
        memory.replay(self.ops)
        replay = memory.replay(self.ops)
        failed += replay.failed
        layers["procshard.bootstrap_s"] = self.bootstrap_s
        layers["procshard.vs_memory_ratio"] = p50_us / replay.p50_norm_us()
        return layers, crosscheck, failed


WORKLOADS = {cls.name: cls for cls in (
    WarmTemplate, ColdFetchScale, AdhocCompile, HttpClosedLoop,
    MixedWriteDisk, ProcshardFanout)}
