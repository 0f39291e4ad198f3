"""Command-line front end: analyze queries against an access schema.

Usage (after ``pip install -e .`` the ``repro`` entry point is on PATH;
``python -m repro.cli`` always works)::

    repro analyze  --db DIR "Q(x) :- R(x, y), y = 1"
    repro explain  --db DIR "Q(x) :- R(x, y), y = 1"
    repro run      --db DIR [--backend procshard --shard-workers W] "Q(x) :- ..."
    repro discover --db DIR [--max-bound N]
    repro batch    --db DIR [--backend disk --data-dir D] requests.json
    repro bench-service --db DIR [--requests N] [--write-fraction F] "Q(x) :- ..."
    repro stats    --db DIR [--backend disk --data-dir D]
    repro serve    --db DIR [--port P] [--workers K] [--budget B]

``run``, ``batch`` and ``bench-service`` also take the observability
flags (see README, "Observability"): ``--trace PATH`` records per-stage
span trees (compile → bep_decision → optimize → bind → execute → fetch,
plus the disk engine's wal_append/wal_fsync/snapshot) as JSON lines and
prints them; ``--metrics-out PATH`` writes a Prometheus-style text
exposition of the run's counters, gauges and latency histograms.
``stats`` prints the storage-level snapshot for a database directory.

``run``, ``batch`` and ``bench-service`` accept ``--backend
{memory,disk,procshard}`` (plus ``--data-dir DIR`` / ``--fsync`` for
the durable engine and ``--shard-workers N`` / ``--replicas R`` for
the process-sharded one) to re-home the loaded
instance onto a different storage engine; answers are identical on
every backend.  ``--backend disk`` recovers whatever the data
directory already holds (latest snapshot + WAL replay) before loading.
``--backend procshard`` runs each shard as a worker *process* speaking
the encoded fetch protocol, and — with ``--replicas R --data-dir DIR``
— load-balances bounded fetches across WAL-shipped read replicas.

``--db DIR`` points at a directory written by
``repro.storage.io.save_database`` (CSV files plus ``schema.json``).
``analyze`` reports coverage / bounded evaluability / envelopes /
specialization advice; ``explain`` prints the full compilation pipeline
(logical plan, fired optimizer rules, physical plan, cost estimate);
``run`` additionally executes the bounded plan
(or the baseline when none exists) and prints access accounting;
``discover`` mines an access schema from the data and prints it;
``batch`` serves a JSON file of requests through a persistent
:class:`~repro.service.BoundedQueryService`; ``bench-service`` measures
cold vs. warm service latency for one query — with ``--write-fraction
F`` it interleaves row rewrites into the warm loop, exercising the
fetch cache's incremental maintenance under mixed traffic (EXP-14
measures the same thing reproducibly); ``serve`` runs the resilient
HTTP serving tier (admission control, deadlines, graceful shutdown)
until interrupted.

The batch file format::

    {
      "templates": {"by_day": "Q(d) :- Accident(a, d, t), t = $date"},
      "requests": [
        {"template": "by_day", "params": {"date": "1/5/2005"}},
        {"query": "Q(x) :- Accident(x, d, t), d = 'Soho'"}
      ]
    }
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import sys
import time

from .core import (analyze_coverage, is_boundedly_evaluable, lower_envelope,
                   specialize_minimally, upper_envelope)
from .engine import (ScanStats, evaluate, execute_plan, optimize,
                     static_bounds)
from .errors import ReproError, StorageError
from .obs import (MetricsRegistry, RequestMetrics, Tracer,
                  attach_database_collector, attach_storage_collector,
                  render_exposition, span)
from .query import CQ, parse_query
from .schema.discovery import DiscoveryOptions, discover_access_schema
from .service import BatchRequest, BoundedQueryService, ServiceResult
from .storage.backend import BACKENDS, make_backend
from .storage.io import load_database
from .storage.statistics import TableStatistics


def _load(args):
    backend_name = getattr(args, "backend", "memory")
    factory = None
    if backend_name != "memory":
        # Load straight onto the target engine: rows and indexes are
        # built once, not built in memory and re-homed.
        def factory(schema):
            return make_backend(backend_name, schema,
                                workers=getattr(args, "shard_workers", 4),
                                replicas=getattr(args, "replicas", 0),
                                data_dir=getattr(args, "data_dir", None),
                                fsync=getattr(args, "fsync", False),
                                rpc_timeout_s=getattr(args, "rpc_timeout",
                                                      None))
    db = load_database(args.db, backend_factory=factory)
    if db.access_schema is None or not len(db.access_schema):
        print("warning: no access constraints in schema.json",
              file=sys.stderr)
    return db


def _add_obs_flags(parser) -> None:
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="record per-stage trace trees, write them as "
                             "JSON lines to PATH and print the tree(s)")
    parser.add_argument("--metrics-out", dest="metrics_out", default=None,
                        metavar="PATH",
                        help="write a Prometheus-style text exposition of "
                             "the run's metrics to PATH")


@contextlib.contextmanager
def _maybe_trace(args):
    """Activate a tracer when ``--trace`` was given; afterwards dump
    the JSON-lines file and print the span tree(s)."""
    if not getattr(args, "trace", None):
        yield None
        return
    tracer = Tracer()
    with tracer:
        yield tracer
    count = tracer.write_jsonl(args.trace)
    print(f"trace: {count} root span(s) -> {args.trace}")
    print(tracer.render())


def _maybe_write_metrics(args, registry: MetricsRegistry | None) -> None:
    if registry is None or not getattr(args, "metrics_out", None):
        return
    text = render_exposition(registry)
    pathlib.Path(args.metrics_out).write_text(text)
    families = sum(1 for line in text.splitlines()
                   if line.startswith("# TYPE "))
    print(f"metrics: {families} families -> {args.metrics_out}")


def _registry_for(args, db) -> MetricsRegistry | None:
    """A registry when ``--metrics-out`` was given (with the storage
    and instance collectors attached), else ``None``."""
    if not getattr(args, "metrics_out", None):
        return None
    registry = MetricsRegistry()
    attach_storage_collector(registry, db.backend)
    attach_database_collector(registry, db)
    return registry


def _add_backend_flags(parser) -> None:
    parser.add_argument("--backend", choices=BACKENDS, default="memory",
                        help="storage engine to serve reads from "
                             "(default: memory)")
    parser.add_argument("--shard-workers", dest="shard_workers", type=int,
                        default=4,
                        help="shard worker processes for "
                             "--backend procshard (default: 4)")
    parser.add_argument("--replicas", type=int, default=0,
                        help="WAL-shipped read replica processes for "
                             "--backend procshard (requires --data-dir)")
    parser.add_argument("--data-dir", dest="data_dir", default=None,
                        help="durable data directory for --backend disk "
                             "or procshard (recovered on open: latest "
                             "snapshot + WAL)")
    parser.add_argument("--fsync", action="store_true",
                        help="fsync the WAL after every write batch "
                             "(--backend disk; power-loss durability)")
    parser.add_argument("--rpc-timeout", dest="rpc_timeout", type=float,
                        default=None, metavar="SECONDS",
                        help="per-RPC reply timeout for --backend "
                             "procshard (default: "
                             "ProcessShardedBackend.RPC_TIMEOUT_S); a "
                             "worker that misses it is retired and "
                             "respawned")


def cmd_analyze(args) -> int:
    db = _load(args)
    query = parse_query(args.query)
    access = db.access_schema
    decision = is_boundedly_evaluable(query, access)
    print(f"BEP: {decision.explain()}")
    if decision.is_yes:
        plan = decision.witness["plan"]
        cost = static_bounds(plan, db_size=db.size())
        print(f"plan: {len(plan)} ops, fetch bound {cost.fetch_bound}, "
              f"output bound {cost.output_bound}")
        if args.verbose:
            print(plan.explain())
        return 0
    if isinstance(query, CQ):
        coverage = analyze_coverage(query, access)
        print(coverage.explain())
        upper = upper_envelope(query, access)
        print(f"upper envelope: {upper.explain()}")
        lower = lower_envelope(query, access, k=args.k)
        print(f"lower envelope ({args.k}-expansion): {lower.explain()}")
        qsp = specialize_minimally(query, access)
        if qsp.is_yes:
            names = ", ".join(v.name for v in qsp.witness)
            print(f"specialization: instantiate {{{names}}} to make the "
                  "query boundedly evaluable")
        else:
            print(f"specialization: {qsp.explain()}")
    return 1


def cmd_explain(args) -> int:
    """Show the whole compilation pipeline for one query: the certified
    logical plan, which optimizer rules fired, the physical plan the
    executor will run, and the static cost estimate."""
    db = _load(args)
    query = parse_query(args.query)
    decision = is_boundedly_evaluable(query, db.access_schema)
    print(f"BEP: {decision.explain()}")
    if not decision.is_yes:
        print("no bounded plan to explain; `repro analyze` diagnoses "
              "uncovered queries")
        return 1
    plan = decision.witness["plan"]
    print()
    print(f"logical {plan.explain()}")
    physical = optimize(plan, TableStatistics.from_database(db))
    print()
    print(physical.trace.explain())
    fired = physical.trace.fired_rules()
    print(f"fired rules: {', '.join(fired) if fired else '(none)'}")
    print()
    print(physical.explain())
    print()
    cost = static_bounds(plan, db_size=db.size())
    print(f"cost estimate: output <= {cost.output_bound} rows, "
          f"fetched <= {cost.fetch_bound} tuples, "
          f"index lookups <= {cost.lookup_bound}")
    return 0


def cmd_run(args) -> int:
    db = _load(args)
    print(f"storage: {db.backend.describe()}")
    registry = _registry_for(args, db)
    started = time.perf_counter()
    with _maybe_trace(args):
        # The "request" root scopes the pipeline only (compile ->
        # decision -> execute); reporting happens outside it, so its
        # children account for (within tolerance) all of its time.
        with span("request"):
            query = parse_query(args.query)
            decision = is_boundedly_evaluable(query, db.access_schema)
            if decision.is_yes:
                result = execute_plan(decision.witness["plan"], db)
                answers, stats, scan = result.answers, result.stats, None
            else:
                scan = ScanStats()
                with span("execute"):
                    answers = evaluate(query, db, scan)
                stats = None
        elapsed = time.perf_counter() - started
    if stats is not None:
        print(f"bounded plan: fetched {stats.tuples_fetched} of "
              f"{db.size()} tuples "
              f"({stats.index_lookups} index lookups)")
    else:
        print(f"not boundedly evaluable ({decision.reason}); "
              "falling back to a full scan")
        print(f"baseline: scanned {scan.tuples_scanned} tuples")
    for row in sorted(answers, key=repr)[:args.limit]:
        print("  ", row)
    if len(answers) > args.limit:
        print(f"   ... {len(answers) - args.limit} more")
    print(f"{len(answers)} answer(s)")
    if registry is not None:
        RequestMetrics(registry).observe(ServiceResult(
            answers=answers, bounded=decision.is_yes, plan_cached=False,
            latency_s=elapsed, reason=decision.reason, stats=stats,
            scan_stats=scan))
        _maybe_write_metrics(args, registry)
    return 0


def _load_requests(path) -> tuple[dict[str, str], list[BatchRequest]]:
    path = pathlib.Path(path)
    if not path.exists():
        raise StorageError(f"no such request file: {path}")
    try:
        spec = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise StorageError(f"request file {path} is not valid JSON: "
                           f"{error}") from error
    templates = spec.get("templates", {})
    requests = []
    for index, raw in enumerate(spec.get("requests", ())):
        try:
            requests.append(BatchRequest(
                query=raw.get("query"), template=raw.get("template"),
                params=raw.get("params"), label=raw.get("label")))
        except (AttributeError, ValueError) as error:
            raise StorageError(
                f"request #{index} in {path} is malformed ({error}); "
                'each request needs exactly one of "query" or '
                '"template"') from error
    return templates, requests


def cmd_batch(args) -> int:
    db = _load(args)
    registry = MetricsRegistry() if args.metrics_out else None
    service = BoundedQueryService(
        db, plan_cache_size=args.plan_cache,
        fetch_cache_size=args.fetch_cache, registry=registry)
    templates, requests = _load_requests(args.requests)
    for name, text in templates.items():
        template = service.register_template(name, text)
        if not template.bounded and args.verbose:
            print(f"note: {name} falls back to scanning "
                  f"({template.compiled.reason})", file=sys.stderr)
    if not requests:
        print("no requests in file", file=sys.stderr)
        return 1
    with _maybe_trace(args):
        report = service.execute_batch(requests)
    for outcome in report.outcomes:
        name = outcome.request.describe()
        if not outcome.ok:
            print(f"  {name}: ERROR {outcome.error}")
            continue
        result = outcome.result
        mode = "bounded" if result.bounded else "scan"
        print(f"  {name}: {len(result.answers)} answer(s) [{mode}, "
              f"{result.latency_ms:.2f}ms]")
    print(report.summary())
    print(service.stats())
    _maybe_write_metrics(args, registry)
    return 1 if report.errors else 0


def cmd_bench_service(args) -> int:
    import random

    db = _load(args)
    query = args.query
    registry = MetricsRegistry() if args.metrics_out else None

    cold_service = BoundedQueryService(db)
    cold = cold_service.execute(query)
    cold_ms = cold.latency_ms

    write_fraction = max(0.0, min(1.0, args.write_fraction))
    churn_relation = churn_rows = None
    if write_fraction > 0:
        # Interleaved writes rewrite (delete + reinsert) random rows of
        # the largest relation: content is unchanged, but every rewrite
        # bumps the write generation — exactly the traffic incremental
        # cache maintenance absorbs in place.
        churn_relation = max(db.summary().items(), key=lambda kv: kv[1])[0]
        churn_rows = db.relation_tuples(churn_relation)

    rng = random.Random(0)
    writes = 0
    service = BoundedQueryService(db, registry=registry)
    with _maybe_trace(args):
        service.execute(query)  # prime the caches
        warm_ms = []
        for _ in range(max(1, args.requests)):
            if churn_rows and rng.random() < write_fraction:
                row = rng.choice(churn_rows)
                db.delete(churn_relation, row)
                db.insert(churn_relation, row)
                writes += 1
            warm_ms.append(service.execute(query).latency_ms)
    warm_ms.sort()
    p50 = warm_ms[len(warm_ms) // 2]
    p95 = warm_ms[min(len(warm_ms) - 1, int(len(warm_ms) * 0.95))]
    mode = "bounded" if cold.bounded else "scan fallback"
    print(f"query: {query}")
    print(f"storage: {db.backend.describe()}")
    print(f"mode: {mode}; {len(cold.answers)} answer(s)")
    print(f"cold (parse + analyze + plan + execute): {cold_ms:.2f}ms")
    print(f"warm x{len(warm_ms)} (plan cache + fetch cache): "
          f"p50 {p50:.3f}ms  p95 {p95:.3f}ms  "
          f"speedup {cold_ms / max(p50, 1e-6):.0f}x")
    if writes:
        cache = service.fetch_cache
        print(f"writes interleaved: {writes} rewrites of {churn_relation} "
              f"({write_fraction:.0%} of requests); maintenance: "
              f"{cache.maintained_deltas} deltas applied in place, "
              f"{cache.maintenance_fallbacks} fallbacks")
    print(service.stats())
    _maybe_write_metrics(args, registry)
    return 0


def cmd_stats(args) -> int:
    """Print a storage-level metrics snapshot for one database
    directory: instance gauges (``repro_db_rows``, per-relation sizes
    as text) plus whatever the chosen engine's internal counters report
    (the disk engine: WAL/fsync/snapshot/recovery tallies)."""
    db = _load(args)
    print(f"storage: {db.backend.describe()}")
    for name, size in db.summary().items():
        print(f"  {name}: {size} rows (generation "
              f"{db.generation(name)})")
    registry = MetricsRegistry()
    if db.access_schema is not None and len(db.access_schema):
        # A service wired to the registry contributes the request and
        # admission families (zeros here — no traffic has run — but the
        # exposition shape matches what a live serving tier exports,
        # and the service constructor attaches the storage and
        # database collectors too).
        service = BoundedQueryService(db, registry=registry)
        print(service.stats())
    else:
        attach_storage_collector(registry, db.backend)
        attach_database_collector(registry, db)
    text = render_exposition(registry)
    if args.metrics_out:
        pathlib.Path(args.metrics_out).write_text(text)
        print(f"metrics -> {args.metrics_out}")
    else:
        print(text, end="")
    return 0


def cmd_serve(args) -> int:
    """Run the resilient serving tier (see :mod:`repro.serve.server`)
    over one database until SIGTERM/SIGINT."""
    import asyncio

    from .serve import ReproServer, ServerConfig, run_forever

    db = _load(args)
    config = ServerConfig(
        host=args.host, port=args.port, workers=args.workers,
        queue_depth=args.queue_depth, default_budget=args.budget,
        default_timeout_ms=args.timeout_ms)
    server = ReproServer(db, config)
    budget = ("unlimited" if config.default_budget is None
              else config.default_budget)
    print(f"serving {args.db} on http://{config.host}:{config.port} "
          f"({config.workers} workers, queue depth "
          f"{config.queue_depth}, budget {budget})")
    try:
        asyncio.run(run_forever(server))
    except KeyboardInterrupt:
        pass
    stats = server.tenants["default"].service.stats()
    print(stats)
    return 0


def cmd_discover(args) -> int:
    db = _load(args)
    options = DiscoveryOptions(max_bound=args.max_bound)
    access = discover_access_schema(db, options)
    for constraint in access:
        print(constraint)
    print(f"-- {len(access)} constraints (max bound {args.max_bound})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="bounded evaluability analyzer")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="decide bounded evaluability")
    analyze.add_argument("--db", required=True)
    analyze.add_argument("--k", type=int, default=2,
                         help="lower-envelope expansion budget")
    analyze.add_argument("--verbose", action="store_true")
    analyze.add_argument("query")
    analyze.set_defaults(func=cmd_analyze)

    explain = sub.add_parser(
        "explain", help="show logical plan, optimizer rules, physical "
                        "plan and cost estimate")
    explain.add_argument("--db", required=True)
    explain.add_argument("query")
    explain.set_defaults(func=cmd_explain)

    run = sub.add_parser("run", help="execute a query (bounded if possible)")
    run.add_argument("--db", required=True)
    run.add_argument("--limit", type=int, default=20)
    _add_backend_flags(run)
    _add_obs_flags(run)
    run.add_argument("query")
    run.set_defaults(func=cmd_run)

    stats = sub.add_parser(
        "stats", help="storage-level metrics snapshot for a database")
    stats.add_argument("--db", required=True)
    _add_backend_flags(stats)
    stats.add_argument("--metrics-out", dest="metrics_out", default=None,
                       metavar="PATH",
                       help="write the exposition to PATH instead of "
                            "stdout")
    stats.set_defaults(func=cmd_stats)

    serve = sub.add_parser(
        "serve", help="run the HTTP serving tier over a database")
    serve.add_argument("--db", required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--workers", type=int, default=1,
                       help="executor threads running queries (more "
                            "than one pays only for blocking backends)")
    serve.add_argument("--queue-depth", dest="queue_depth", type=int,
                       default=16,
                       help="admitted requests allowed to wait beyond "
                            "the workers; the rest are shed with 429")
    serve.add_argument("--budget", type=int, default=None,
                       help="fetch-bound budget for the default tenant; "
                            "certified bounds above it are rejected "
                            "with 429 before execution")
    serve.add_argument("--timeout-ms", dest="timeout_ms", type=float,
                       default=0.0,
                       help="deadline applied to requests that carry "
                            "none (0 = no deadline)")
    _add_backend_flags(serve)
    serve.set_defaults(func=cmd_serve)

    discover = sub.add_parser("discover",
                              help="mine access constraints from data")
    discover.add_argument("--db", required=True)
    discover.add_argument("--max-bound", type=int, default=1024)
    discover.set_defaults(func=cmd_discover)

    batch = sub.add_parser(
        "batch", help="serve a JSON file of requests through the service")
    batch.add_argument("--db", required=True)
    batch.add_argument("--plan-cache", type=int, default=256)
    batch.add_argument("--fetch-cache", type=int, default=4096)
    batch.add_argument("--verbose", action="store_true")
    _add_backend_flags(batch)
    _add_obs_flags(batch)
    batch.add_argument("requests", help="JSON file of templates + requests")
    batch.set_defaults(func=cmd_batch)

    bench = sub.add_parser(
        "bench-service", help="cold vs warm service latency for one query")
    bench.add_argument("--db", required=True)
    bench.add_argument("--requests", type=int, default=100,
                       help="warm repetitions to measure")
    bench.add_argument("--write-fraction", dest="write_fraction",
                       type=float, default=0.0,
                       help="fraction of warm requests preceded by a row "
                            "rewrite of the largest relation (0..1), "
                            "exercising incremental cache maintenance "
                            "under mixed traffic")
    _add_backend_flags(bench)
    _add_obs_flags(bench)
    bench.add_argument("query")
    bench.set_defaults(func=cmd_bench_service)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
