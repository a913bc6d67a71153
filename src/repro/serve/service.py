"""QueryService: concurrent point queries served by micro-batched sweeps.

The paper's economics are "linear preprocessing, then O_k(1) per
lookup"; the serving layer turns that into throughput under concurrent
load.  Client threads call :meth:`QueryService.query` from anywhere; the
service coalesces concurrent requests into *micro-batches* (bounded by
``max_batch_size``; no timer — whatever arrives while one batch is being
swept ships as the next, see :mod:`repro.serve.dispatch`) and dispatches
each batch through ``CompiledQuery.evaluate_batch`` — one vectorized
sweep amortizes the per-probe interpreter overhead over the whole batch,
which is where a naive per-query ``engine.query`` loop spends its time.

Three layers compose here:

* **micro-batching** — a FIFO request queue drained by one
  :class:`~repro.serve.dispatch.Dispatcher` thread; identical argument
  tuples inside a batch are deduplicated before evaluation;
* **plan caching** — the engine is constructed through a
  :class:`PlanCache`, so the Theorem 6 compilation is paid once and
  reused by later services over equal content;
* **result caching** — a :class:`ResultCache` keyed by argument tuple,
  invalidated precisely by the touched-gate reporting of
  ``update_weight``/``set_relation``: only an update that actually
  recomputes gates advances the epoch, and it evicts just the argument
  tuples it can reach.

Updates go through the service (:meth:`update_weight` /
:meth:`set_relation`), which applies them to the engine under a lock;
batches already in flight may see either state — the usual serving
semantics.  Use the service as a context manager: ``close()`` drains the
accepted requests, stops the dispatcher, and closes the engine.  The
host structure is never written to except by the routed updates.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Any, Callable, Dict, Hashable, List, Optional, \
    Sequence, Tuple

from ..circuits import validate_backend, validate_exact_mode
from ..engine import WeightedQueryEngine, normalize_arguments
from ..logic.weighted import WExpr
from ..semirings import Semiring, ensure_mergeable
from ..structures import Structure
from .dispatch import Dispatcher, Request, resolve, serve_unique
from .plan_cache import PlanCache
from .result_cache import MISS, ResultCache


class QueryService:
    """Serve concurrent point queries of one compiled weighted query.

    One engine and one dispatcher thread drain the request queue in
    group-committed micro-batches of at most ``max_batch_size``;
    ``backend`` is forwarded to ``evaluate_batch`` (``"auto"`` picks the
    vectorized NumPy backend when the semiring has an array kernel).

    ``plan_cache`` defaults to a private :class:`PlanCache`; pass a
    shared instance to reuse compilations across services.  Set
    ``result_cache_size=0`` to disable result caching.
    """

    def __init__(self, structure: Structure, expr: WExpr, sr: Semiring,
                 dynamic_relations: Sequence[str] = (),
                 free_order: Optional[Sequence[str]] = None,
                 strategy: Optional[str] = None,
                 optimize: bool = True,
                 max_batch_size: int = 64,
                 backend: str = "auto",
                 exact_mode: str = "auto",
                 plan_cache: Optional[PlanCache] = None,
                 plan_store: Optional[Any] = None,
                 result_cache_size: int = 1024,
                 result_cache: Optional[Any] = None,
                 verify: Optional[bool] = None) -> None:
        validate_backend(backend)
        validate_exact_mode(exact_mode)
        # The service folds partial aggregates in arrival order (batch
        # dedup, grouped rollups); a semiring that has not declared its
        # ⊕ commutative/associative is refused here, eagerly, rather
        # than merged in an order the query never specified.
        ensure_mergeable(sr, "QueryService micro-batch merge")
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        self.sr = sr
        self.backend = backend
        self.exact_mode = exact_mode
        self.max_batch_size = int(max_batch_size)
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        # The optional persistent tier under the in-memory cache: a
        # cold process loads the plan from disk instead of compiling.
        self.plan_store = plan_store
        # An explicit ``result_cache`` instance (e.g. a scoped view of a
        # Database-owned shared cache) wins over the size knob.
        if result_cache is not None:
            self.result_cache = result_cache
        else:
            self.result_cache = (ResultCache(result_cache_size)
                                 if result_cache_size else None)
        self.engine = WeightedQueryEngine(
            structure, expr, sr, dynamic_relations=dynamic_relations,
            free_order=free_order, strategy=strategy, optimize=optimize,
            plan_cache=self.plan_cache, plan_store=plan_store,
            verify=verify)
        self.free: Tuple[str, ...] = self.engine.free
        self._domain = frozenset(structure.domain)
        self._domain_order = tuple(structure.domain)
        self._epoch = 0
        self._update_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._deduped_queries = 0
        self._group_tables = 0
        self._group_rows = 0
        #: Entries effective writes left warm (``stats()["retagged"]``):
        #: what the cache still held after each write's eviction.
        self._retagged = 0
        self._dispatcher = Dispatcher(
            self._serve_batch, lambda _request: True,
            max_batch_size=max_batch_size, name="QueryService-dispatch",
            closed_message="service is closed")

    # -- queries ---------------------------------------------------------------

    def submit(self, *arguments) -> "Future":
        """Enqueue one point query; returns a future for its value.

        Accepts either positional arguments aligned with the free-variable
        order or a single ``{var: element}`` mapping, like
        ``WeightedQueryEngine.query``.  A result-cache hit resolves the
        future immediately without touching the queue.
        """
        self._check_open()  # a closed service must reject cache hits too
        # Validated here, not in the dispatcher: a bad argument must
        # fail its own caller, not every request that happened to share
        # its micro-batch.
        arguments = normalize_arguments(arguments, self.free, self._domain)
        future: "Future" = Future()
        epoch = self._epoch
        if self.result_cache is not None:
            value = self.result_cache.get(arguments)
            if value is not MISS:
                future.set_result(value)
                return future
        self._dispatcher.put(Request(arguments, future, epoch))
        return future

    def query(self, *arguments, timeout: Optional[float] = None) -> Any:
        """``f(a)``, blocking until its micro-batch is served."""
        return self.submit(*arguments).result(timeout)

    def query_batch(self, argument_tuples: Sequence[Sequence[Hashable]],
                    timeout: Optional[float] = None) -> List[Any]:
        """A caller-assembled batch: submit all, wait for all, in order."""
        futures = [self.submit(*arguments) for arguments in argument_tuples]
        return [future.result(timeout) for future in futures]

    def group_by(self, keys: Optional[Sequence[Any]] = None, *,
                 having: Optional[Callable[[Any], bool]] = None,
                 rollup: bool = False,
                 max_groups: Optional[int] = None,
                 timeout: Optional[float] = None) -> Any:
        """All group aggregates of the served query, through the
        micro-batching pipeline, as a :class:`~repro.api.ResultTable`.

        The free variables are the grouping keys; ``keys=None``
        enumerates the domain's cartesian product over them (refused
        beyond ``max_groups``), otherwise ``keys`` lists explicit key
        valuations.  Every group is one submit — so they coalesce into
        the service's batched sweeps, and each group lands as its own
        entry in the result cache (warm groups skip the queue entirely;
        an update evicts only the touched groups, see
        :meth:`update_weight`).  ``having``/``rollup`` behave as in
        :meth:`repro.api.PreparedQuery.group_by`.
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
        group_keys = group_key_tuples(keys, self.free, self._domain_order,
                                      max_groups, noun="free variables")
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
        return self.engine.query_batch(unique, backend=self.backend,
                                       exact_mode=self.exact_mode)

    def _deliver(self, request: Request, value: Any) -> None:
        """Resolve one waiter, caching its value unless an effective
        write landed since the *submit*: the value may predate it, and
        nothing would evict it afterwards (checked under the lock a
        write holds from its engine update through its eviction)."""
        if self.result_cache is not None:
            with self._update_lock:
                if request.tag == self._epoch:
                    self.result_cache.put(request.payload, value)
        resolve(request.future, value)

    # -- updates ----------------------------------------------------------------

    def can_absorb_weight(self, name: str, tup: Tuple) -> bool:
        """Whether :meth:`update_weight` can maintain ``name(tup)`` —
        i.e. the tuple was declared at compile time (the paper's update
        model).  Used by ``Database.update`` to pre-validate a
        transaction before mutating anything."""
        return tuple(tup) in \
            self.engine.compiled.structure.weights.get(name, {})

    def can_absorb_relation(self, name: str, tup: Tuple = ()) -> bool:
        """Whether :meth:`set_relation` can maintain a toggle of
        ``name(tup)``: the relation was declared dynamic at compile time
        and the tuple is a clique of the compile-time Gaifman graph
        (the Theorem 24 update model, via
        :meth:`~repro.core.CompiledQuery.can_mark`)."""
        return self.engine.compiled.can_mark(name, tup)

    def update_weight(self, name: str, tup: Tuple, value: Any) -> int:
        """Set ``name(tup) = value`` on the engine; returns gates
        touched.  An effective update (touched > 0) advances the epoch
        and evicts the cached results it can reach; a no-op write
        leaves both alone."""
        self._check_open()
        tup = tuple(tup)
        with self._update_lock:
            touched = self.engine.update_weight(name, tup, value)
            if touched:
                self._evict_affected((("w", name, tup),))
            return touched

    def set_relation(self, name: str, tup: Tuple, present: bool) -> int:
        """Gaifman-preserving relation toggle on the engine (the
        Theorem 24 update model); epoch semantics as in
        :meth:`update_weight`."""
        self._check_open()
        tup = tuple(tup)
        with self._update_lock:
            touched = self.engine.set_relation(name, tup, present)
            if touched:
                self._evict_affected((("dynrel", name, tup, True),
                                      ("dynrel", name, tup, False)))
            return touched

    def _evict_affected(self, update_keys: Tuple) -> None:
        """One effective write (``_update_lock`` held): advance the
        epoch — in-flight results computed before it are no longer
        cacheable — then evict the argument tuples the write can reach
        (:meth:`~repro.engine.WeightedQueryEngine.affected_arguments`;
        a closed query has one result, and it goes).  The rest of the
        cache is not looked at."""
        self._epoch += 1
        cache = self.result_cache
        if cache is None:
            return
        try:
            affected = self.engine.affected_arguments(update_keys)
            if affected is None:
                cache.clear()
                return
            warm = cache.evict_product(affected)
        except Exception:  # noqa: BLE001 - drop everything beats wrong
            # Reachable entries left in place would stay *visible*.
            cache.clear()
            return
        with self._stats_lock:
            self._retagged += warm

    # -- lifecycle --------------------------------------------------------------

    def _check_open(self) -> None:
        if self._dispatcher.closed:
            raise RuntimeError("service is closed")

    @property
    def closed(self) -> bool:
        return self._dispatcher.closed

    @property
    def epoch(self) -> int:
        """The invalidation epoch (bumped by every effective update)."""
        return self._epoch

    def close(self) -> None:
        """Drain in-flight requests, stop the dispatcher, close the engine.

        Requests already accepted are served before the dispatcher exits;
        new submissions raise.  Idempotent."""
        if not self._dispatcher.stop():
            return
        self._dispatcher.join()
        self.engine.close()
        if self.result_cache is not None:
            # A closed service can never serve these again; a scoped
            # view of a shared cache must not keep occupying its LRU.
            self.result_cache.clear()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- introspection -----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Serving counters plus the attached caches' statistics."""
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
                "retagged": self._retagged,
            }
        # Served queries: every batched request plus every submit-time
        # result-cache hit (the cache counts those under its own lock).
        info["queries"] = info["batched_queries"] + (
            self.result_cache.stats()["hits"]
            if self.result_cache is not None else 0)
        info["epoch"] = self._epoch
        info["backend"] = self.backend
        info["exact_mode"] = self.exact_mode
        # Which vectorized kernel actually served the batches (and how
        # many fell back to the exact object kernel).
        kernel = self.engine.stats().get("exact_kernel")
        if kernel is not None:
            info["exact_kernel"] = kernel
        info["plan_cache"] = self.plan_cache.stats()
        if self.plan_store is not None:
            info["plan_store"] = self.plan_store.stats()
        if self.result_cache is not None:
            info["result_cache"] = self.result_cache.stats()
        return info

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<QueryService free={self.free} "
                f"batch<={self.max_batch_size} epoch={self._epoch}>")
