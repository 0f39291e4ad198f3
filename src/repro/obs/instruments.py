"""The pre-built instrument bundles the rest of the repo shares.

Metric *names* are defined once, here (and cataloged in README,
"Observability") — the service, the CLI and the benchmark harness all
pull the same bundle so an exposition from any of them lines up.

Everything in this module is duck-typed on purpose: ``repro.obs``
imports nothing from the rest of the package, so the collectors take
"anything with a ``counters()``" / "anything with ``plan_cache`` and
``fetch_cache``" rather than the concrete service/storage classes.
"""

from __future__ import annotations

from .metrics import MetricsRegistry


class RequestMetrics:
    """The per-request instruments :class:`~repro.service.service.
    BoundedQueryService` updates on its hot path.

    All instruments are resolved once at construction; ``observe`` then
    touches them directly — no registry lookups per request.
    """

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self.requests = registry.counter(
            "repro_requests_total", "Requests served")
        self.bounded = registry.counter(
            "repro_bounded_requests_total",
            "Requests served by a certified bounded plan")
        self.fallback = registry.counter(
            "repro_fallback_requests_total",
            "Requests served by the scan fallback")
        self.plan_cached = registry.counter(
            "repro_plan_cached_requests_total",
            "Requests whose static pipeline was already compiled")
        self.latency = registry.histogram(
            "repro_request_latency_seconds",
            "End-to-end request latency")
        self.fetch_calls = registry.counter(
            "repro_fetch_calls_total",
            "Vectorized storage crossings by bounded plans")
        self.index_lookups = registry.counter(
            "repro_index_lookups_total",
            "Per-X index lookups by bounded plans")
        self.tuples_fetched = registry.counter(
            "repro_tuples_fetched_total",
            "Tuples read from storage (the empirical |D_Q|)")
        self.tuples_from_cache = registry.counter(
            "repro_tuples_from_cache_total",
            "Tuples served from the fetch cache")
        self.scan_tuples = registry.counter(
            "repro_scan_tuples_total",
            "Tuples scanned by fallback evaluation (the |D| price)")
        self.executor_ops = registry.counter(
            "repro_executor_ops_total",
            "Physical operator batches executed", label_names=("op",))

    def observe(self, result) -> None:
        """Fold one ``ServiceResult``-shaped outcome into the bundle."""
        self.requests.inc()
        self.latency.observe(result.latency_s)
        if result.plan_cached:
            self.plan_cached.inc()
        if result.bounded:
            self.bounded.inc()
        else:
            self.fallback.inc()
        stats = result.stats
        if stats is not None:
            self.fetch_calls.inc(stats.fetch_calls)
            self.index_lookups.inc(stats.index_lookups)
            self.tuples_fetched.inc(stats.tuples_fetched)
            self.tuples_from_cache.inc(stats.tuples_from_cache)
            for op, count in getattr(stats, "op_counts", {}).items():
                self.executor_ops.labels(op=op).inc(count)
        scan = result.scan_stats
        if scan is not None:
            self.scan_tuples.inc(scan.tuples_scanned)


def _cache_instruments(registry: MetricsRegistry, which: str,
                       prefix: str | None = None):
    prefix = prefix or f"repro_{which}_cache"
    return (
        registry.counter(f"{prefix}_hits_total", f"{which} cache hits"),
        registry.counter(f"{prefix}_misses_total",
                         f"{which} cache misses"),
        registry.counter(f"{prefix}_evictions_total",
                         f"{which} cache evictions"),
        registry.gauge(f"{prefix}_size", f"{which} cache live entries"),
        registry.gauge(f"{prefix}_hit_rate",
                       f"{which} cache lifetime hit rate"),
    )


def attach_cache_collector(registry: MetricsRegistry, service) -> None:
    """Mirror a service's plan/fetch cache counters at snapshot time.

    ``service`` needs ``plan_cache.info()``, ``plan_cache.shape_info()``
    and ``fetch_cache.info()`` returning
    :class:`~repro.service.plancache.CacheInfo`-shaped objects.  The
    caches keep their own tallies; this collector copies them into the
    registry only when an export reads it, so cache operations never
    touch the registry.
    """
    plan = _cache_instruments(registry, "plan")
    # The plan cache's shape table (query texts keyed on their
    # constant-free shape); the plan family above stays the compiled-
    # query table, whose misses are runs of the static pipeline.
    shape = _cache_instruments(registry, "plan shape",
                               prefix="repro_plan_cache_shape")
    fetch = _cache_instruments(registry, "fetch")
    # Lookups the fetch cache sent straight to storage (a starved
    # cache's self-tuning bypass, or a constraint it cannot maintain);
    # they are also counted as misses.
    bypassed = registry.counter(
        "repro_fetch_cache_bypassed_lookups_total",
        "fetch cache lookups read straight from storage")
    # Incremental-maintenance outcomes: deltas applied vs deltas that
    # fell back to invalidation.  A healthy write-heavy
    # workload shows maintained ≫ fallbacks; fallbacks climbing means
    # wipes (clear/reattach/recovery) or stream gaps are eating the
    # cache's warmth.
    maintained_deltas = registry.counter(
        "repro_fetch_cache_maintained_deltas_total",
        "write deltas applied to cached fetch entries")
    maintained_entries = registry.counter(
        "repro_fetch_cache_maintained_entries_total",
        "cached fetch entries refreshed from the index by deltas")
    fallbacks = registry.counter(
        "repro_fetch_cache_maintenance_fallbacks_total",
        "write deltas that fell back to invalidation")
    invalidations = registry.counter(
        "repro_fetch_cache_maintenance_invalidations_total",
        "cached fetch entries dropped by maintenance fallbacks")

    def collect() -> None:
        for instruments, info in ((plan, service.plan_cache.info()),
                                  (shape, service.plan_cache.shape_info()),
                                  (fetch, service.fetch_cache.info())):
            hits, misses, evictions, size, rate = instruments
            hits.set_total(info.hits)
            misses.set_total(info.misses)
            evictions.set_total(info.evictions)
            size.set(info.size)
            rate.set(round(info.hit_rate, 6))
        fetch_cache = service.fetch_cache
        bypassed.set_total(getattr(fetch_cache, "bypassed_lookups", 0))
        maintained_deltas.set_total(
            getattr(fetch_cache, "maintained_deltas", 0))
        maintained_entries.set_total(
            getattr(fetch_cache, "maintained_entries", 0))
        fallbacks.set_total(
            getattr(fetch_cache, "maintenance_fallbacks", 0))
        invalidations.set_total(
            getattr(fetch_cache, "maintenance_invalidations", 0))

    registry.register_collector(collect)


def attach_admission_collector(registry: MetricsRegistry, service) -> None:
    """Mirror a service's admission-control outcomes at snapshot time.

    ``service.stats()`` must carry ``shed_requests`` (admission queue
    full → 429), ``rejected_requests`` (certified cost bound over the
    tenant budget → 429, before execution) and
    ``deadline_exceeded_requests`` (aborted mid-flight → 504).  One
    collector per service; the serving tier attaches it for every
    tenant against the same registry only when tenants get distinct
    services *and* registries — the shared-registry arrangement
    aggregates through a single wrapper instead.
    """
    shed = registry.counter(
        "repro_shed_requests_total",
        "Requests shed because the admission queue was full")
    rejected = registry.counter(
        "repro_rejected_requests_total",
        "Requests rejected because the certified bound exceeded the "
        "tenant budget")
    deadline_exceeded = registry.counter(
        "repro_deadline_exceeded_requests_total",
        "Requests aborted by an expired deadline")

    def collect() -> None:
        stats = service.stats()
        shed.set_total(stats.shed_requests)
        rejected.set_total(stats.rejected_requests)
        deadline_exceeded.set_total(stats.deadline_exceeded_requests)

    registry.register_collector(collect)


def attach_storage_collector(registry: MetricsRegistry, backend) -> None:
    """Mirror a storage backend's internal counters at snapshot time.

    ``backend.counters()`` returns a flat ``name -> number`` dict (the
    :class:`~repro.storage.backend.StorageBackend` default is empty;
    ``DiskBackend`` reports WAL/fsync/snapshot/recovery tallies;
    ``ProcessShardedBackend`` adds RPC and worker tallies).  Keys
    become ``repro_storage_<key>``; instruments are created lazily on
    first sight of each key so the collector works for any backend.

    Backends may additionally expose point-in-time levels via a
    ``gauges()`` dict (``dictionary_bytes``, live worker counts, ...)
    — mirrored the same way — and engine-owned histograms via
    ``histograms()`` (e.g. RPC round trips), which are *adopted* into
    the registry as-is so the engine keeps its lock-cheap hot path.
    """
    cache: dict[str, object] = {}
    for histogram in getattr(backend, "histograms", lambda: [])():
        registry.register_instrument(histogram)

    def collect() -> None:
        for key, value in backend.counters().items():
            counter = cache.get(key)
            if counter is None:
                counter = registry.counter(f"repro_storage_{key}")
                cache[key] = counter
            counter.set_total(round(value, 6)
                              if isinstance(value, float) else value)
        for key, value in getattr(backend, "gauges", dict)().items():
            gauge = cache.get("gauge:" + key)
            if gauge is None:
                gauge = registry.gauge(f"repro_storage_{key}")
                cache["gauge:" + key] = gauge
            gauge.set(value)

    registry.register_collector(collect)


def attach_database_collector(registry: MetricsRegistry, db) -> None:
    """Mirror instance-level sizes (``|D|``, relation count) at
    snapshot time.  ``db`` needs ``size()`` and ``summary()``."""
    rows = registry.gauge("repro_db_rows", "Total tuples in the instance")
    relations = registry.gauge("repro_db_relations",
                               "Relations in the schema")

    def collect() -> None:
        summary = db.summary()
        rows.set(sum(summary.values()))
        relations.set(len(summary))

    registry.register_collector(collect)
