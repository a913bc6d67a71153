"""QueryService: concurrent point queries served by micro-batched sweeps.

The paper's economics are "linear preprocessing, then O_k(1) per
lookup"; the serving layer turns that into throughput under concurrent
load.  Client threads call :meth:`QueryService.query` from anywhere; the
service coalesces concurrent requests into *micro-batches* (bounded by
``max_batch_size``; no timer — whatever arrives while one batch is being
swept ships as the next, see :mod:`repro.serve.dispatch`) and runs each
batch as one vectorized sweep, which amortizes the per-probe
interpreter overhead over the whole batch.

A service is a prepared query behind a dispatcher, nothing more.
:meth:`repro.api.Database.serve` prepares a handle exactly as
``db.prepare`` does and compiles its plan eagerly (the cold compile
belongs to set-up); the service then owns

* the handle — its one plan over the database's own structure and its
  scope of the shared result cache.  A submit reads that scope; a batch
  runs the handle's batched point query, straight on the plan;
  delivery installs results against the database's write sequence;
* one :class:`~repro.serve.dispatch.Dispatcher` thread draining the
  FIFO request queue; identical argument tuples inside a batch are
  deduplicated before evaluation.

Writes never go through the service: ``db.update()`` routes them into
the handle like into any other (maintained in place, or invalidated for
a lazy recompile), and evicts the cached points they can reach.  Batches
already in flight may see either state — the usual serving semantics.
Use the service as a context manager: ``close()`` drains the accepted
requests, stops the dispatcher, and closes the handle.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Any, Callable, Dict, Hashable, List, Optional, \
    Sequence

from ..core import arguments_of, normalize_arguments
from ..semirings import Semiring, ensure_mergeable
from .dispatch import Dispatcher, Request, resolve, serve_unique
from .result_cache import MISS


class QueryService:
    """Serve concurrent point queries of one prepared query in one
    semiring.

    Built by :meth:`repro.api.Database.serve` — not directly.  One
    dispatcher thread drains the request queue in group-committed
    micro-batches of at most the handle's ``max_batch_size``; the
    handle's ``backend`` runs the sweeps.
    """

    def __init__(self, prepared: Any, sr: Semiring) -> None:
        # The service folds partial aggregates in arrival order (batch
        # dedup, grouped rollups); a semiring that has not declared its
        # ⊕ commutative/associative is refused here, eagerly, rather
        # than merged in an order the query never specified.
        ensure_mergeable(sr, "QueryService micro-batch merge")
        self.prepared = prepared
        self.sr = sr
        self.free = prepared.params
        prepared._compiled()  # the cold compile belongs to set-up
        self._scope = prepared._scope(sr)
        self._stats_lock = threading.Lock()
        self._deduped_queries = 0
        self._group_tables = 0
        self._group_rows = 0
        self._dispatcher = Dispatcher(
            self._serve_batch, lambda _request: True,
            max_batch_size=prepared.options.max_batch_size,
            name="QueryService-dispatch", closed_message="service is closed")

    # -- queries ---------------------------------------------------------------

    def submit(self, *arguments) -> "Future":
        """Enqueue one point query; returns a future for its value.

        Accepts either positional arguments aligned with the free-variable
        order or a single ``{var: element}`` mapping
        (:func:`repro.core.normalize_arguments`).  A result-cache hit
        resolves the future immediately without touching the queue.
        """
        self._check_open()  # a closed service must reject cache hits too
        # Validated here, not in the dispatcher: a bad argument must
        # fail its own caller, not every request that happened to share
        # its micro-batch.
        arguments = normalize_arguments(arguments, self.free,
                                        self.prepared.db.structure)
        future: "Future" = Future()
        if self._scope is not None:
            value = self._scope.get(arguments)
            if value is not MISS:
                future.set_result(value)
                return future
        # Tagged with the write sequence before the sweep can start.
        self._dispatcher.put(Request(arguments, future,
                                     self.prepared.db._epoch))
        return future

    def query(self, *arguments, timeout: Optional[float] = None) -> Any:
        """``f(a)``, blocking until its micro-batch is served."""
        return self.submit(*arguments).result(timeout)

    def query_batch(self, argument_tuples: Sequence[Sequence[Hashable]],
                    timeout: Optional[float] = None) -> List[Any]:
        """A caller-assembled batch: submit all, wait for all, in order.
        Each item is an argument tuple or a ``{var: element}`` mapping."""
        futures = [self.submit(*arguments_of(arguments))
                   for arguments in argument_tuples]
        return [future.result(timeout) for future in futures]

    def group_by(self, keys: Optional[Sequence[Any]] = None, *,
                 having: Optional[Callable[[Any], bool]] = None,
                 rollup: bool = False,
                 timeout: Optional[float] = None) -> Any:
        """All group aggregates of the served query, through the
        micro-batching pipeline, as a :class:`~repro.api.ResultTable`.

        The free variables are the grouping keys; ``keys=None``
        enumerates the domain's cartesian product over them (refused
        beyond :data:`~repro.api.table.DEFAULT_MAX_GROUPS` before any
        submit),
        otherwise ``keys`` lists explicit key valuations.  Every group
        is one submit — so they coalesce into the service's batched
        sweeps, and each group lands as its own entry in the result
        cache (warm groups skip the queue entirely; a routed write
        evicts only the groups it reaches).  ``having``/``rollup``
        behave as in :meth:`repro.api.PreparedQuery.group_by`.
        """
        # Lazy import: repro.api pulls in repro.serve at import time —
        # the table module itself is dependency-free, but its package
        # is not.
        from ..api.table import build_table, group_key_tuples
        self._check_open()
        if not self.free:
            raise ValueError("group_by() needs a parameterized query "
                             "(the free variables are the grouping keys)")
        # submit() validates domain membership per element.
        group_keys = group_key_tuples(keys, self.free,
                                      self.prepared.db.structure.domain,
                                      noun="free variables")
        futures = [self.submit(*key) for key in group_keys]
        values = [future.result(timeout) for future in futures]
        with self._stats_lock:
            self._group_tables += 1
            self._group_rows += len(group_keys)
        return build_table(self.free, group_keys, values, self.sr, having,
                           rollup, {"groups": len(group_keys)})

    # -- micro-batch dispatch ----------------------------------------------------

    def _serve_batch(self, batch: List[Request]) -> None:
        """One micro-batch, on the dispatcher thread: one sweep over the
        distinct argument tuples resolves every waiter."""
        unique = serve_unique(batch, self._evaluate, self._deliver)
        with self._stats_lock:
            self._deduped_queries += len(batch) - unique

    def _evaluate(self, unique: List[Any]) -> Sequence[Any]:
        return self.prepared._query_batch(self.sr, unique)[0]

    def _deliver(self, request: Request, value: Any) -> None:
        """Resolve one waiter, caching its value unless a write or an
        invalidation landed since the *submit* (the handle's guard)."""
        if self._scope is not None:
            self.prepared._cache_points(self._scope, request.tag,
                                        ((request.payload, value),))
        resolve(request.future, value)

    # -- lifecycle --------------------------------------------------------------

    def _check_open(self) -> None:
        if self._dispatcher.closed:
            raise RuntimeError("service is closed")

    @property
    def closed(self) -> bool:
        return self._dispatcher.closed

    def close(self) -> None:
        """Drain in-flight requests, stop the dispatcher, close the handle.

        Requests already accepted are served before the dispatcher exits;
        new submissions raise.  Idempotent.  Never call it with the
        database's lock held: the draining batches take that lock."""
        if not self._dispatcher.stop():
            return
        self._dispatcher.join()
        self.prepared.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- introspection -----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Serving counters plus the handle's cache and kernel telemetry."""
        dispatched = self._dispatcher.stats()
        batches = dispatched["batches"]
        with self._stats_lock:
            info: Dict[str, Any] = {
                "batches": batches,
                "batched_queries": dispatched["requests"],
                "deduped_queries": self._deduped_queries,
                "largest_batch": dispatched["largest_batch"],
                "mean_batch": (round(dispatched["requests"] / batches, 2)
                               if batches else 0.0),
                "group_tables": self._group_tables,
                "group_rows": self._group_rows,
            }
        info["retagged"] = self.prepared._retagged
        # Served queries: every batched request plus every submit-time
        # result-cache hit (the scope counts those under its own lock).
        cache = self._scope.stats() if self._scope is not None else None
        info["queries"] = info["batched_queries"] + (
            cache["hits"] if cache is not None else 0)
        info["backend"] = self.prepared.options.backend
        # Which vectorized kernel actually served the batches (and how
        # many fell back to the exact object kernel).
        plan = self.prepared._plan
        kernel = plan.kernel_stats() if plan is not None else None
        if kernel:
            info["exact_kernel"] = kernel
        if cache is not None:
            info["result_cache"] = cache
        return info

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<QueryService free={self.free} sr={self.sr.name} "
                f"of {self.prepared!r}>")
