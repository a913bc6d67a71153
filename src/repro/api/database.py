"""Database: the unified facade over the whole query stack.

One :class:`Database` owns a :class:`~repro.structures.Structure` plus
the shared :class:`~repro.serve.PlanCache` / :class:`~repro.serve.
ResultCache`, and hands out

* :meth:`Database.prepare` — a :class:`~repro.api.PreparedQuery`
  unifying static value, batched evaluation, bound point queries,
  maintained updates and enumeration behind one handle;
* :meth:`Database.serve` — a :class:`~repro.serve.QueryService`: a
  prepared handle behind a micro-batching dispatcher;
* :meth:`Database.update` — a transaction-shaped update context that
  routes ``set_weight``/``set_relation`` through every live consumer's
  maintenance hooks and the structure's fingerprint/invalidation
  machinery, so no cache can ever be bypassed;
* :meth:`Database.close` — tears down services and prepared handles.

Mutating the structure *around* the facade is detected: every consumer
read re-checks the structure's content fingerprint and an out-of-band
write invalidates all derived artifacts instead of serving stale
answers (the class of bug the epoch/fingerprint hooks exist to kill).
"""

from __future__ import annotations

import itertools
import os
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..logic import Bracket
from ..logic.fo import Formula
from ..semirings import Semiring
from ..serve import PlanCache, PlanStore, QueryService, ResultCache
from ..structures import Structure
from .options import ExecOptions
from .prepared import PreparedQuery, query_footprint
from .table import Select

#: Process-unique database ids: result-cache scope namespaces include
#: this, so Databases *sharing* one ResultCache (supported by the
#: constructor) can never read each other's cached points.
_DB_IDS = itertools.count(1)


class Database:
    """The one entry point: a structure plus shared execution state.

    ``options`` (an :class:`ExecOptions`) or keyword overrides fix the
    database-wide execution defaults; every ``prepare``/``serve`` call
    may override them again per handle.  ``plan_cache`` /
    ``result_cache`` accept existing instances to share across
    databases (e.g. process-wide plan reuse); by default the database
    creates its own, sized by the options.

    ``plan_store`` / ``plan_store_path`` attach the persistent on-disk
    plan tier (:class:`repro.serve.PlanStore`): every compilation this
    database triggers checks the store before compiling and persists
    its plan, so a fresh process on the same path serves its first
    query without recompiling.  Precedence: an explicit ``plan_store``
    instance, then ``plan_store_path``, then ``options.plan_store``,
    then the ``REPRO_PLAN_STORE`` environment variable (a directory
    path — how CI and worker processes opt in without code changes).

    Use as a context manager: ``close()`` releases every engine and
    service the facade created.
    """

    def __init__(self, structure: Structure,
                 options: Optional[ExecOptions] = None,
                 plan_cache: Optional[PlanCache] = None,
                 result_cache: Optional[ResultCache] = None,
                 plan_store: Optional[Any] = None,
                 plan_store_path: Optional[Any] = None,
                 **overrides):
        self.structure = structure
        self.options = (ExecOptions() if options is None
                        else options).merged(**overrides)
        if plan_store is not None and plan_store_path is not None:
            raise ValueError("pass plan_store or plan_store_path, not both")
        if plan_store is None:
            if plan_store_path is not None:
                plan_store = PlanStore(plan_store_path)
            elif self.options.plan_store is not None:
                plan_store = self.options.plan_store
            else:
                env_path = os.environ.get("REPRO_PLAN_STORE")
                if env_path:
                    plan_store = PlanStore(env_path)
        self.plan_store = plan_store
        if self.options.plan_store is not plan_store:
            # Fold the resolved store into the options so per-handle
            # derivations (prepare/serve) inherit it uniformly.
            self.options = self.options.merged(plan_store=plan_store)
        self.plan_cache = (plan_cache if plan_cache is not None
                           else PlanCache(self.options.plan_cache_size))
        if result_cache is not None:
            self.result_cache: Optional[ResultCache] = result_cache
        else:
            self.result_cache = (ResultCache(self.options.result_cache_size)
                                 if self.options.result_cache_size else None)
        self._lock = threading.RLock()
        self._prepared: list = []
        self._services: list = []
        self._uid = next(_DB_IDS)
        self._ids = itertools.count(1)
        self._epoch = 0
        self._in_update = 0
        self._closed = False
        self._expected_fp = structure.fingerprint()
        # Mutation counter snapshot at the last reconcile: a transaction
        # whose writes were all no-ops leaves it unchanged, and exit can
        # skip reconciliation entirely (not even the O(1) digest read).
        self._reconciled_mutations = structure._mutations

    # -- handles -----------------------------------------------------------------

    def prepare(self, expr: Any, params: Optional[Sequence[str]] = None,
                dynamic: Sequence[str] = (),
                options: Optional[ExecOptions] = None,
                **overrides) -> PreparedQuery:
        """Prepare ``expr`` (a weighted expression or an FO formula).

        ``params`` fixes the bind/batch argument order (defaults to the
        sorted free variables); ``dynamic`` declares relations updatable
        through :meth:`update` without recompilation; ``options`` /
        keyword overrides refine the database defaults for this handle.
        Compilation is lazy and shared through the plan cache.
        """
        self._check_open()
        self._verify_fresh()
        opts = (self.options if options is None else options)
        opts = opts.merged(**overrides)
        prepared = PreparedQuery(self, expr, params, dynamic, opts)
        with self._lock:
            self._prune()
            self._prepared.append(prepared)
        return prepared

    def serve(self, expr: Any, sr: Semiring,
              params: Optional[Sequence[str]] = None,
              dynamic: Sequence[str] = (),
              options: Optional[ExecOptions] = None,
              **overrides) -> QueryService:
        """A concurrent micro-batching service for point queries of
        ``expr`` in ``sr``: a handle prepared exactly as :meth:`prepare`
        would (same arguments, same options), its evaluator in ``sr``
        built now, behind a dispatcher.  Routed updates reach the
        service through its handle, and :meth:`close` closes it.
        """
        prepared = self.prepare(expr, params, dynamic, options, **overrides)
        try:
            service = QueryService(prepared, sr)
        except BaseException:
            prepared.close()
            raise
        with self._lock:
            self._prune()
            self._services.append(service)
        return service

    def serve_sharded(self, expr: Any, sr: Semiring,
                      shards: int = 2,
                      params: Optional[Sequence[str]] = None,
                      dynamic: Sequence[str] = (),
                      options: Optional[ExecOptions] = None,
                      assign: Optional[dict] = None,
                      **overrides):
        """Serve ``expr`` across ``shards`` worker *processes* behind an
        asyncio gateway (:class:`repro.cluster.ClusterService`).

        The structure's domain is partitioned by Gaifman components (per
        ``options.shard_policy``, or the explicit ``assign`` map); each
        worker owns one shard, its own Database and — when this database
        has a plan store — its own handle on the same store, so workers
        and respawns warm-start from disk.  Point queries route to the
        owning shard, closed and grouped queries fan out and ``⊕``-merge;
        ``ExecOptions.max_pending`` / ``max_inflight_per_client`` /
        ``request_timeout`` are the gateway's admission knobs.  The
        gateway registers with the database like any service: routed
        updates reach the owning shard (cross-shard tuples are refused),
        and :meth:`close` drains and closes it.
        """
        self._check_open()
        self._verify_fresh()
        # Lazy import: repro.cluster imports repro.api at module level,
        # so the facade must not import it back at module level.
        from ..cluster import ClusterService
        if isinstance(expr, Formula):
            expr = Bracket(expr)
        opts = (self.options if options is None else options)
        opts = opts.merged(**overrides)
        plan_store_path = (self.plan_store.path
                           if self.plan_store is not None else None)
        service = ClusterService(
            self._snapshot(), expr, sr, shards=shards, params=params,
            dynamic=tuple(dynamic), policy=opts.shard_policy,
            assign=assign, backend=opts.backend,
            exact_mode=opts.exact_mode, optimize=opts.optimize,
            max_batch_size=opts.max_batch_size,
            max_pending=opts.max_pending,
            max_inflight_per_client=opts.max_inflight_per_client,
            request_timeout=opts.request_timeout,
            max_groups=opts.max_groups,
            plan_store_path=plan_store_path, verify=opts.verify)
        weights, relations = query_footprint(service.expr)
        service._facade_weight_names = weights
        service._facade_relation_names = relations
        with self._lock:
            self._prune()
            self._services.append(service)
        return service

    def select(self, expr: Any, dynamic: Sequence[str] = (),
               **overrides) -> Select:
        """SQL-ish grouped-aggregation sugar over :meth:`prepare`::

            table = (db.select(expr)
                       .group_by("x")
                       .having(lambda value: value > 0)
                       .run(NATURAL))

        The builder prepares the expression on first :meth:`~repro.api.
        Select.run` (with the grouping parameters as ``params``) and
        keeps the prepared handle across runs, so repeated evaluations
        hit the shared result cache.  Keyword overrides are
        per-handle :class:`ExecOptions` refinements, as in ``prepare``.
        """
        self._check_open()
        return Select(self, expr, dynamic=dynamic, **overrides)

    def update(self) -> "UpdateContext":
        """An update context routing writes through every consumer::

            with db.update() as tx:
                tx.set_weight("w", edge, 3)
                tx.set_relation("S", (v,), True)

        Each write is applied to the base structure *and* routed into
        every live prepared query, maintained handle and service —
        maintained in place when the compiled circuits can absorb it
        (the paper's update model), invalidated for lazy recompilation
        when they cannot.  An effective write advances the database
        epoch and evicts the cached point/group results it can reach —
        a cost of the write's reach, not of the result cache.

        Batch related writes in one context: the out-of-band-detection
        fingerprint is reconciled once per transaction, at exit — an
        O(1) read of the structure's incrementally maintained digest.
        """
        self._check_open()
        self._verify_fresh()
        return UpdateContext(self)

    # -- shared execution state ---------------------------------------------------

    def _snapshot(self) -> Structure:
        """A content snapshot of the structure, taken under the update
        lock so a routed write can never tear the copy mid-iteration."""
        with self._lock:
            return self.structure.copy()

    # -- coherence ---------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The write sequence: advanced by every effective update and
        every invalidation, never by a no-op.  A cached result is valid
        because it is in the cache; the epoch only stops a result
        computed before a write from being installed after it."""
        return self._epoch

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("database is closed")

    def _prune(self) -> None:
        """Drop closed consumers from the registries (lock held): a
        long-lived database handing out short-lived handles must not
        accumulate dead references or iterate them on every update."""
        self._prepared = [p for p in self._prepared if not p._closed]
        self._services = [s for s in self._services if not s.closed]

    def _gateways(self) -> List[Any]:
        """The live sharded services (lock held).  They keep a write
        protocol of their own; an in-process service is reached through
        its prepared handle, like any other."""
        return [service for service in self._services
                if not isinstance(service, QueryService)]

    def _forget(self, prepared: PreparedQuery) -> None:
        """Deregister one closed prepared handle (its close() hook)."""
        with self._lock:
            self._prepared = [p for p in self._prepared if p is not prepared]

    def _verify_fresh(self) -> None:
        """Detect out-of-band structure mutations.

        Every consumer read funnels through here: if the structure's
        content fingerprint no longer matches what the last sanctioned
        write left behind, someone mutated the structure around the
        facade — every prepared handle is invalidated (lazy rebuild; an
        in-process service's handle too, so it recompiles on its next
        batch), live sharded services are closed (their workers serve
        the pre-mutation snapshot) — each drops its scope of the result
        cache — and the epoch advances so no result still being
        computed is installed.  The check is O(1): the
        fingerprint is an incrementally-maintained digest, never a
        content rehash.  (Raw dict writes that bypass the Structure
        mutators also bypass the digest and are invisible here — run
        with ``REPRO_VERIFY_FINGERPRINT=1`` to surface those.)
        """
        with self._lock:
            if self._in_update:
                # A transaction is applying sanctioned writes; reads in
                # its window see mid-transaction state (documented) and
                # must not mistake those writes for a bypass.  The
                # fingerprint is reconciled once at transaction exit.
                return
            fingerprint = self.structure.fingerprint()
            if fingerprint != self._expected_fp:
                for prepared in self._prepared:
                    prepared._invalidate()
                for service in self._gateways():
                    if not service.closed:
                        service.close()
                self._prune()
                self._epoch += 1
                self._expected_fp = fingerprint
                self._reconciled_mutations = self.structure._mutations

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Close every service and prepared handle.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            services = list(self._services)
            prepared = list(self._prepared)
        for service in services:
            service.close()
        for handle in prepared:
            handle.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- introspection -----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Facade-wide statistics: epoch, consumers, shared caches."""
        with self._lock:
            info: Dict[str, Any] = {
                "epoch": self._epoch,
                "prepared": len(self._prepared),
                "services": len(self._services),
                "plan_cache": self.plan_cache.stats(),
            }
        if self.plan_store is not None:
            info["plan_store"] = self.plan_store.stats()
        if self.result_cache is not None:
            info["result_cache"] = self.result_cache.stats()
        return info

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Database |A|={len(self.structure.domain)} "
                f"prepared={len(self._prepared)} "
                f"services={len(self._services)} epoch={self._epoch}>")


class UpdateContext:
    """The transaction-shaped update router returned by
    :meth:`Database.update`.

    Writes apply eagerly (concurrent readers may see either state — the
    usual serving semantics); the context exit refreshes the database's
    expected fingerprint so the sanctioned writes are not mistaken for
    out-of-band mutations.  ``touched`` accumulates the gates recomputed
    across the transaction."""

    def __init__(self, db: Database) -> None:
        self.db = db
        self.touched = 0

    def __enter__(self) -> "UpdateContext":
        with self.db._lock:
            self.db._in_update += 1
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        db = self.db
        with db._lock:
            # Sanctioned writes move the fingerprint; reconcile once at
            # exit (even on error — partially-applied writes must not
            # masquerade as out-of-band mutations).  The digest is
            # maintained incrementally, so reconciliation is an O(1)
            # read — and a transaction whose writes were all no-ops
            # (mutation counter unmoved) skips it outright.
            db._in_update -= 1
            if not db._in_update:
                if db.structure._mutations != db._reconciled_mutations:
                    db._expected_fp = db.structure.fingerprint()
                    db._reconciled_mutations = db.structure._mutations

    # -- writes ------------------------------------------------------------------

    def set_weight(self, name: str, tup: Tuple, value: Any) -> int:
        """Set ``name(tup) = value`` everywhere; returns gates touched
        (max over consumers).  A no-op write (unchanged value) touches
        zero gates and keeps every cache warm."""
        db = self.db
        tup = tuple(tup)
        with db._lock:
            db._check_open()
            db._prune()
            # Pre-validate before mutating anything (the transactional
            # feel): a sharded service whose query actually reads this
            # weight must be able to absorb the write in place.  One
            # that provably never reads it is skipped, not refused.
            absorbing = []
            for service in db._gateways():
                if service.can_absorb_weight(name, tup):
                    absorbing.append(service)
                elif service._facade_weight_names is None or \
                        name in service._facade_weight_names:
                    raise KeyError(
                        f"{name}{tup} was not declared at compile time for a "
                        f"live sharded service; its workers cannot recompile "
                        f"in place — close and re-serve, or declare the "
                        f"tuple before serving")
            touched = 0
            for prepared in db._prepared:
                touched = max(touched,
                              prepared._apply_weight(name, tup, value))
            for service in absorbing:
                touched = max(touched,
                              service.update_weight(name, tup, value))
            db.structure.set_weight(name, tup, value)
            if touched:
                # Fine-grained invalidation: evict the cached
                # point/group results this one write can reach (a
                # handle the write invalidated dropped its own).
                db._epoch += 1
                for prepared in db._prepared:
                    prepared._evict_points("w", name, tup)
            self.touched += touched
            return touched

    def set_relation(self, name: str, tup: Tuple, present: bool) -> int:
        """Toggle ``tup``'s membership in ``name`` everywhere.

        Consumers that declared ``name`` dynamic (and for which the
        tuple respects the Theorem 24 clique condition) maintain the
        toggle incrementally; others are invalidated and recompile
        lazily.  Live sharded services must be able to absorb the
        toggle — the transaction refuses it up front otherwise."""
        db = self.db
        tup = tuple(tup)
        with db._lock:
            db._check_open()
            db._prune()
            # Same relevance-aware pre-validation as set_weight: only a
            # sharded service whose query reads the relation must absorb
            # it.
            absorbing = []
            for service in db._gateways():
                if service.can_absorb_relation(name, tup):
                    absorbing.append(service)
                elif service._facade_relation_names is None or \
                        name in service._facade_relation_names:
                    raise ValueError(
                        f"a live sharded service cannot absorb the toggle of "
                        f"{name}{tup} ({name} not declared dynamic, or the "
                        f"tuple is not a clique of the compile-time Gaifman "
                        f"graph); close and re-serve to change it")
            touched = 0
            wrote_base = False
            for prepared in db._prepared:
                part, wrote = prepared._apply_relation(name, tup, present)
                touched = max(touched, part)
                wrote_base = wrote_base or wrote
            for service in absorbing:
                touched = max(touched,
                              service.set_relation(name, tup, present))
            if not wrote_base:
                # No compiled consumer absorbed the toggle via
                # mark_relation (which writes the base itself); any
                # consumer it stales was already invalidated — epoch
                # bump, scopes dropped — in _apply_relation.
                if present:
                    db.structure.add_tuple(name, tup)
                else:
                    db.structure.remove_tuple(name, tup)
            if touched:
                # Fine-grained invalidation, as in set_weight.
                db._epoch += 1
                for prepared in db._prepared:
                    prepared._evict_points("r", name, tup)
            self.touched += touched
            return touched
