"""Database: the unified facade over the whole query stack.

One :class:`Database` owns a :class:`~repro.structures.Structure` plus
the shared :class:`~repro.serve.PlanCache` / :class:`~repro.serve.
ResultCache`, and hands out

* :meth:`Database.prepare` — a :class:`~repro.api.PreparedQuery`
  unifying static value, batched evaluation, bound point queries,
  maintained updates and enumeration behind one handle;
* :meth:`Database.serve` — a :class:`~repro.serve.QueryService`: a
  prepared handle behind a micro-batching dispatcher;
* :meth:`Database.update` — a transaction-shaped update context whose
  ``set_weight``/``set_relation`` are one routed write: checked against
  the structure, then handed to every live consumer's maintenance hook
  and the structure's fingerprint/invalidation machinery, so no cache
  can ever be bypassed;
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

from ..semirings import Semiring
from ..serve import PlanCache, PlanStore, QueryService, ResultCache
from ..structures import Structure
from .options import ExecOptions
from .prepared import PreparedQuery

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
    creates its own: a :class:`PlanCache` of its default size (pass
    ``plan_cache=PlanCache(n)`` for another) and a result cache of
    ``options.result_cache_size``.

    ``options.plan_store`` (a :class:`repro.serve.PlanStore`, also
    accepted as the ``plan_store=`` keyword override) attaches the
    persistent on-disk plan tier: every compilation this database
    triggers checks the store before compiling and persists its plan,
    so a fresh process on the same path serves its first query without
    recompiling.  Without one, the ``REPRO_PLAN_STORE`` environment
    variable (a directory path) opens a store there — how CI and worker
    processes opt in without code changes.

    Use as a context manager: ``close()`` closes every prepared handle
    and service the facade created.
    """

    def __init__(self, structure: Structure,
                 options: Optional[ExecOptions] = None,
                 plan_cache: Optional[PlanCache] = None,
                 result_cache: Optional[ResultCache] = None,
                 **overrides):
        self.structure = structure
        self.options = (ExecOptions() if options is None
                        else options).merged(**overrides)
        if self.options.plan_store is None:
            env_path = os.environ.get("REPRO_PLAN_STORE")
            if env_path:
                # Fold the store into the options so per-handle
                # derivations (prepare/serve) inherit it uniformly.
                self.options = self.options.merged(
                    plan_store=PlanStore(env_path))
        self.plan_store = self.options.plan_store
        self.plan_cache = (plan_cache if plan_cache is not None
                           else PlanCache())
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
        ``options.shard_policy``, or the explicit ``assign`` map).  The
        gateway takes the handle's options as :meth:`prepare` would
        derive them: its admission knobs (``max_pending`` /
        ``max_inflight_per_client`` / ``request_timeout``) govern the
        gateway, and each worker builds its own Database from the same
        options, on its own handle of their plan store, so workers and
        respawns warm-start from disk.  Point queries and group keys
        route to their owning shards, closed queries fan out and
        ``⊕``-merge.  The gateway registers with the database like any
        service: routed updates reach the owning shard (a tuple spanning
        shards is refused, see :meth:`ClusterService.absorbs`), and
        :meth:`close` drains and closes it.
        """
        self._check_open()
        self._verify_fresh()
        # Lazy import: repro.cluster imports repro.api at module level,
        # so the facade must not import it back at module level.
        from ..cluster import ClusterService
        opts = (self.options if options is None else options)
        with self._lock:
            # A routed write must not tear the copy mid-iteration.
            snapshot = self.structure.copy()
        service = ClusterService(
            snapshot, expr, sr, shards=shards, params=params,
            dynamic=dynamic, assign=assign, options=opts.merged(**overrides))
        with self._lock:
            self._prune()
            self._services.append(service)
        return service

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
        """The live sharded services (lock held).  A routed write asks
        each one first (:meth:`ClusterService.absorbs`: absorb, skip or
        refuse) and then hands it the write; an in-process service is
        reached through its prepared handle, like any other."""
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
    out-of-band mutations.  Both writers are one :meth:`_write`: a write
    the structure would reject raises before any consumer is reached.
    ``touched`` accumulates the gates recomputed across the
    transaction."""

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
        return self._write("w", name, tup, value)

    def set_relation(self, name: str, tup: Tuple, present: bool) -> int:
        """Toggle ``tup``'s membership in ``name`` everywhere.

        Consumers that declared ``name`` dynamic (and for which the
        tuple respects the Theorem 24 clique condition) maintain the
        toggle incrementally; others are invalidated and recompile
        lazily.  A live sharded service whose query reads ``name``
        refuses a tuple spanning its shards, up front."""
        return self._write("r", name, tup, present)

    def _write(self, kind: str, name: str, tup: Tuple, value: Any) -> int:
        """Route one write (``kind`` ``"w"``: ``name(tup) = value``,
        ``"r"``: ``tup``'s presence in ``name`` set to ``value``) into
        every handle, then every absorbing service, then the structure;
        returns the most gates touched.

        Checked before anything is reached (the transactional feel): a
        write the structure would reject — an element outside the
        domain, a wrong arity (``ValueError``), a removal from an unknown
        relation (``KeyError``) — costs no handle its plan, and a sharded
        service refuses a write it cannot absorb and skips one its query
        never reads.  If a consumer raises, every handle the write
        reached may hold it: each is invalidated and the error
        propagates."""
        db = self.db
        structure = db.structure
        with db._lock:
            db._check_open()
            db._prune()
            tup = structure.checked(name, tup)
            if kind == "r" and not value and name not in structure.relations:
                raise KeyError(name)
            absorbing = [service for service in db._gateways()
                         if service.absorbs(kind, name, tup)]
            reached = []
            touched = 0
            try:
                for prepared in db._prepared:
                    reached.append(prepared)
                    touched = max(touched,
                                  prepared._apply(kind, name, tup, value))
                for service in absorbing:
                    touched = max(touched, (
                        service.update_weight if kind == "w"
                        else service.set_relation)(name, tup, value))
            except BaseException:
                for prepared in reached:
                    prepared._invalidate()
                raise
            if kind == "w":
                structure.set_weight(name, tup, value)
            elif value:
                structure.add_tuple(name, tup)
            else:
                structure.remove_tuple(name, tup)
            if touched:
                # Fine-grained invalidation: evict the cached
                # point/group results this one write can reach (a
                # handle the write invalidated dropped its own).
                db._epoch += 1
                for prepared in db._prepared:
                    prepared._evict_points(kind, name, tup)
            self.touched += touched
            return touched
