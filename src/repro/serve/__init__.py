"""Serving layer (system S9): batching, caching and concurrency composed.

``repro.serve`` is the bridge from "fast kernel" to "system under load":
:class:`QueryService` puts a dispatcher in front of one prepared query,
coalescing concurrent point queries into micro-batches (group commit,
:mod:`repro.serve.dispatch` — the policy the cluster gateway shares)
swept by the vectorized batched evaluator, :class:`PlanCache` amortizes
one Theorem 6 compilation across handles and databases, and
:class:`ResultCache` memoizes point-query results, evicting exactly what
a write can reach (the plan's co-occurrence analysis).
"""

from .plan_cache import PlanCache
from .plan_store import PlanStore
from .result_cache import MISS, ResultCache, ScopedResultCache
from .service import QueryService

__all__ = ["QueryService", "PlanCache", "PlanStore", "ResultCache",
           "ScopedResultCache", "MISS"]
