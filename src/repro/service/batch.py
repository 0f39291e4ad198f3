"""Batch execution and service-level metrics.

A batch is a list of :class:`BatchRequest`s — raw query texts or
``(template, params)`` bindings — executed in order on the calling
thread.  A warm request is pure-Python work under the GIL, so worker
threads only add contention: a thread pool of 2 or 4 workers ran
slower than this loop.  The caches still take their own locks, since
``repro serve --workers N`` runs concurrent readers.

Per-request :class:`~repro.engine.executor.AccessStats` are aggregated
into a :class:`BatchReport` with the numbers a service operator watches:
p50/p95/mean latency, throughput, fetch counts (cold vs cache-served)
and cache hit rates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

from ..engine.executor import AccessStats
from ..errors import ReproError
from ..obs.metrics import Histogram, LATENCY_BUCKETS


@dataclass(frozen=True)
class BatchRequest:
    """One unit of batch work: a raw query or a template binding."""

    query: str | None = None
    template: str | None = None
    params: Mapping[str, Hashable] | None = None
    label: str | None = None

    def __post_init__(self):
        if (self.query is None) == (self.template is None):
            raise ValueError(
                "a BatchRequest needs exactly one of query= or template=")

    def describe(self) -> str:
        if self.label:
            return self.label
        if self.template is not None:
            bound = ", ".join(f"${k}={v!r}"
                              for k, v in sorted((self.params or {}).items()))
            return f"{self.template}({bound})"
        return self.query or "?"


@dataclass
class RequestOutcome:
    """What happened to one request."""

    request: BatchRequest
    result: "ServiceResult | None" = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def latency_s(self) -> float:
        return self.result.latency_s if self.result is not None else 0.0


@dataclass
class BatchReport:
    """Aggregate view over one batch run.

    Latency summaries come from one fixed-bucket
    :class:`~repro.obs.metrics.Histogram` over the successful requests
    — the same estimator the service's metrics registry exports, so a
    batch's p50/p95 and a scraped
    ``repro_request_latency_seconds`` agree by construction.  Earlier
    versions kept every raw latency and took *nearest-rank*
    percentiles; the histogram instead interpolates linearly inside the
    containing bucket, so values can differ from nearest-rank by up to
    one bucket's width (sub-millisecond at service latencies).
    ``mean_ms`` is exact either way (the histogram keeps an exact
    sum/count).
    """

    outcomes: list[RequestOutcome] = field(default_factory=list)
    wall_s: float = 0.0

    # -- derived metrics ---------------------------------------------------

    @property
    def requests(self) -> int:
        return len(self.outcomes)

    @property
    def errors(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    @property
    def bounded_requests(self) -> int:
        return sum(1 for o in self.outcomes
                   if o.ok and o.result.bounded)

    def latency_histogram(self) -> Histogram:
        """The successful requests' latencies as one fixed-bucket
        histogram (memoized until the outcome list grows)."""
        cached = getattr(self, "_latency_hist", None)
        if cached is not None and cached[0] == len(self.outcomes):
            return cached[1]
        histogram = Histogram("batch_latency_seconds",
                              buckets=LATENCY_BUCKETS)
        for outcome in self.outcomes:
            if outcome.ok:
                histogram.observe(outcome.latency_s)
        self._latency_hist = (len(self.outcomes), histogram)
        return histogram

    @property
    def p50_ms(self) -> float:
        return self.latency_histogram().p50 * 1e3

    @property
    def p95_ms(self) -> float:
        return self.latency_histogram().p95 * 1e3

    @property
    def mean_ms(self) -> float:
        return self.latency_histogram().mean * 1e3

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.wall_s if self.wall_s > 0 else 0.0

    def access_totals(self) -> AccessStats:
        """Fold every bounded request's accounting into one total."""
        totals = AccessStats()
        for outcome in self.outcomes:
            if outcome.ok and outcome.result.stats is not None:
                totals.merge(outcome.result.stats)
        return totals

    @property
    def fetch_cache_hit_rate(self) -> float:
        totals = self.access_totals()
        lookups = totals.fetch_cache_hits + totals.fetch_cache_misses
        return totals.fetch_cache_hits / lookups if lookups else 0.0

    def summary(self) -> str:
        totals = self.access_totals()
        lines = [
            f"{self.requests} requests ({self.errors} errors, "
            f"{self.bounded_requests} bounded) "
            f"in {self.wall_s * 1e3:.1f}ms "
            f"({self.throughput_rps:.0f} req/s)",
            f"latency p50 {self.p50_ms:.2f}ms  p95 {self.p95_ms:.2f}ms  "
            f"mean {self.mean_ms:.2f}ms",
            f"fetched {totals.tuples_fetched} tuples cold, "
            f"{totals.tuples_from_cache} from cache "
            f"(hit rate {self.fetch_cache_hit_rate:.1%})",
        ]
        return "\n".join(lines)


def run_batch(service, requests: Sequence[BatchRequest],
              fail_fast: bool = False) -> BatchReport:
    """Execute ``requests`` in order against ``service``.

    Outcomes keep the input order.  Library errors
    (:class:`~repro.errors.ReproError`) are captured per request;
    with ``fail_fast=True`` the first one propagates instead.
    """
    def run_one(request: BatchRequest) -> RequestOutcome:
        try:
            if request.template is not None:
                result = service.execute_template(request.template,
                                                  request.params or {})
            else:
                result = service.execute(request.query,
                                         request.params or None)
            return RequestOutcome(request, result=result)
        except ReproError as error:
            if fail_fast:
                raise
            return RequestOutcome(request, error=str(error))

    start = time.perf_counter()
    outcomes = [run_one(request) for request in requests]
    return BatchReport(outcomes=outcomes,
                       wall_s=time.perf_counter() - start)
