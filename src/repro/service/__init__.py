"""Persistent bounded-evaluation service: plan cache, templates,
fetch cache and batch execution.

The one-shot pipeline recomputes the paper's static analysis on every
call; this package turns it into a long-lived service that amortizes
the analysis across requests — see :class:`BoundedQueryService`.
"""

from .batch import BatchReport, BatchRequest, RequestOutcome, run_batch
from .fetchcache import CachingExecutor, FetchCache
from .plancache import CacheInfo, CompiledQuery, PlanCache, PlanCacheKey
from .service import BoundedQueryService, ServiceResult, ServiceStats
from .templates import (QueryTemplate, bind_physical_plan,
                        bind_plan, bind_query)

__all__ = [
    "BoundedQueryService", "ServiceResult", "ServiceStats",
    "PlanCache", "PlanCacheKey", "CompiledQuery", "CacheInfo",
    "FetchCache", "CachingExecutor",
    "QueryTemplate", "bind_plan", "bind_physical_plan", "bind_query",
    "BatchRequest", "RequestOutcome", "BatchReport", "run_batch",
]
