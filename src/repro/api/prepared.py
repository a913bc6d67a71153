"""PreparedQuery: one handle, every execution mode.

``db.prepare(expr, params=..., dynamic=...)`` returns a
:class:`PreparedQuery` that unifies the stack's five execution modes
behind one object:

* :meth:`PreparedQuery.value` — the static value of a closed query;
* :meth:`PreparedQuery.batch` — N valuations (closed) or N argument
  tuples (parameterized) in one batched sweep;
* :meth:`PreparedQuery.bind` — a bound point query ``f(a)`` (with
  result caching through the database's shared result cache);
* :meth:`PreparedQuery.maintain` — a maintained value under dynamic
  updates (Theorems 8/24), with updates routed database-wide;
* :meth:`PreparedQuery.enumerate` — constant-delay enumeration: answers
  of an FO formula (Theorem 24) or provenance monomials of a closed
  weighted expression (Theorem 22).

Every mode and every semiring of a handle reads ONE compiled plan — the
Theorem 8 closed form of the query over its parameters
(:func:`repro.core.close_over`; a closed query is the zero-selector
case), compiled lazily over the database's own structure through its
plan cache and store.  Per semiring there is only a maintained evaluator
over that plan.  The database's update routing keeps both coherent:
every ``db.update()``-routed write is recorded in the plan once and
propagated into each evaluator, or invalidates them for a transparent
lazy rebuild — they can never serve a stale answer, and out-of-band
structure mutations are caught by the database's fingerprint check.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, FrozenSet, List, Optional, \
    Sequence, Tuple

from ..core import CompiledQuery, close_over, compile_structure_query
from ..engine import WeightedQueryEngine
from ..enumeration import AnswerEnumerator, ProvenanceEnumerator
from ..logic import Bracket
from ..logic.fo import And, Eq, Exists, Forall, Formula, Not, Or, Truth
from ..logic.fo import Atom as FoAtom
from ..logic.weighted import WAdd, WConst, WMul, WSum, Weight
from ..semirings import Semiring
from .options import ExecOptions
from .table import ResultTable, build_table, group_key_tuples


def _merge(a: Optional[FrozenSet], b: Optional[FrozenSet]
           ) -> Optional[FrozenSet]:
    """Union with ``None`` (= unanalyzable, everything relevant) absorbing."""
    if a is None or b is None:
        return None
    return a | b


def _formula_relations(formula: Formula) -> Optional[FrozenSet[str]]:
    if isinstance(formula, FoAtom):
        return frozenset((formula.relation,))
    if isinstance(formula, (Truth, Eq)):
        return frozenset()
    if isinstance(formula, Not):
        return _formula_relations(formula.inner)
    if isinstance(formula, (And, Or)):
        names: Optional[FrozenSet[str]] = frozenset()
        for part in formula.parts:
            names = _merge(names, _formula_relations(part))
        return names
    if isinstance(formula, (Exists, Forall)):
        return _formula_relations(formula.inner)
    return None  # FuncAtom/LabelAtom/custom nodes: treat as unanalyzable


def query_footprint(expr: Any) -> Tuple[Optional[FrozenSet[str]],
                                        Optional[FrozenSet[str]]]:
    """The ``(weight names, relation names)`` an expression reads.

    A name the expression never references cannot change its value —
    the update router uses this to leave irrelevant consumers (and
    their caches) untouched instead of invalidating or refusing.
    Either component is ``None`` when the expression contains nodes the
    walker does not know (conservative: everything is relevant)."""
    if isinstance(expr, Weight):
        return frozenset((expr.name,)), frozenset()
    if isinstance(expr, WConst):
        return frozenset(), frozenset()
    if isinstance(expr, Bracket):
        return frozenset(), _formula_relations(expr.formula)
    if isinstance(expr, (WAdd, WMul)):
        weights: Optional[FrozenSet[str]] = frozenset()
        relations: Optional[FrozenSet[str]] = frozenset()
        for part in expr.parts:
            pw, pr = query_footprint(part)
            weights = _merge(weights, pw)
            relations = _merge(relations, pr)
        return weights, relations
    if isinstance(expr, WSum):
        return query_footprint(expr.inner)
    return None, None  # custom WExpr nodes: treat as unanalyzable


class PreparedQuery:
    """A prepared query over a :class:`~repro.api.Database`.

    Constructed by :meth:`Database.prepare` — not directly.  ``expr``
    may be a weighted expression or an FO formula (wrapped in a bracket
    for the value-producing modes); ``params`` fixes the argument order
    of :meth:`bind`/:meth:`batch` (defaults to the sorted free
    variables); ``dynamic`` declares the relations updatable through
    ``db.update()`` without recompilation.
    """

    def __init__(self, db: Any, expr: Any, params: Optional[Sequence[str]],
                 dynamic: Sequence[str], options: ExecOptions):
        self.db = db
        self.options = options
        self.dynamic_relations = frozenset(dynamic)
        if isinstance(expr, Formula):
            self.formula: Optional[Formula] = expr
            self.expr = Bracket(expr)
        else:
            self.formula = None
            self.expr = expr
        free = (sorted(self.expr.free_vars()) if params is None
                else list(params))
        if set(free) != set(self.expr.free_vars()):
            raise ValueError(f"params {tuple(free)} do not match the "
                             f"expression's free variables "
                             f"{tuple(sorted(self.expr.free_vars()))}")
        self.params: Tuple[str, ...] = tuple(free)
        self._id = next(db._ids)
        self._weight_names, self._relation_names = query_footprint(self.expr)
        self._plan: Optional[CompiledQuery] = None
        #: semiring name -> the maintained evaluator over ``_plan`` that
        #: ``bind().value()`` and ``maintain().value()`` both read.
        self._engines: Dict[str, WeightedQueryEngine] = {}
        # Serializes the engines' selector protocol (raise, read,
        # restore is a critical section) against concurrent binds and
        # routed updates.  RLock: invalidation may fire while held.
        self._engine_lock = threading.RLock()
        self._maintained: Dict[str, "MaintainedQuery"] = {}
        self._scopes: Dict[str, Any] = {}
        #: Entries effective writes left warm, summed over evictions:
        #: what the shared cache still held after each write's reach went.
        self._retagged = 0
        self._last_group: Optional[Dict[str, Any]] = None
        self._closed = False

    # -- plumbing ---------------------------------------------------------------

    def _check(self) -> None:
        if self._closed:
            raise RuntimeError("prepared query is closed")
        self.db._check_open()
        self.db._verify_fresh()

    def _require_closed(self, mode: str) -> None:
        if self.params:
            raise ValueError(
                f"{mode} needs a closed query; this one has parameters "
                f"{self.params} — use bind(...).value(sr) for point queries "
                f"or batch(...) for argument batches")

    def _compiled(self) -> CompiledQuery:
        """The handle's one plan (lazy, plan-cached, semiring-free): the
        Theorem 8 closed form over ``params``, compiled over the
        database's own structure — selectors are circuit inputs, so
        nothing is installed and no snapshot is needed."""
        # Compiling reads the structure's dicts: under db._lock, so a
        # routed write cannot tear it.
        with self.db._lock:
            if self._plan is None:
                self._plan = compile_structure_query(
                    self.db.structure, close_over(self.expr, self.params),
                    dynamic_relations=self.dynamic_relations,
                    optimize=self.options.optimize,
                    plan_cache=self.db.plan_cache,
                    plan_store=self.options.plan_store,
                    verify=self.options.verify)
            return self._plan

    def _engine(self, sr: Semiring) -> WeightedQueryEngine:
        """The maintained evaluator in ``sr`` over the one plan (lazy):
        all the state a handle keeps per semiring."""
        engine = self._engines.get(sr.name)
        if engine is not None:
            # Lock-free once built: a reader never waits for a routed
            # write to fetch it.  A teardown racing the fetch closes the
            # engine, and every caller refetches on a closed one.
            return engine
        # Lock order everywhere: db._lock before _engine_lock (the
        # update router holds db._lock when it reaches the engines).
        with self.db._lock:
            with self._engine_lock:
                engine = self._engines.get(sr.name)
                if engine is None:
                    engine = WeightedQueryEngine.over(
                        self._compiled(), self.params, sr)
                    self._engines[sr.name] = engine
                return engine

    def _scope(self, sr: Semiring) -> Optional[Any]:
        """This query's scoped view of the shared result cache (``None``
        when the database has none or the handle's ``result_cache_size``
        is 0) — the one place that decides whether the handle caches."""
        if self.db.result_cache is None or not self.options.result_cache_size:
            return None
        scope = self._scopes.get(sr.name)
        if scope is None:
            scope = self.db.result_cache.scoped(
                ("prepared", self.db._uid, self._id, sr.name))
            self._scopes[sr.name] = scope
        return scope

    def _invalidate(self) -> None:
        """Drop every compiled artifact; everything rebuilds lazily.

        Called by the database when an update falls outside what the
        compiled circuits can maintain (a new weight tuple, a toggle of
        an undeclared relation, an out-of-band mutation) — the next use
        recompiles against the current structure instead of serving a
        stale answer.  This query's cached point results reflect the
        pre-update state and nothing can be proved about them: advance
        the database epoch (no result still being computed may be
        installed) and drop them all.
        """
        if self._closed:
            return
        self._release()
        self.db._epoch += 1
        for scope in list(self._scopes.values()):
            scope.clear()

    def _release(self) -> None:
        """Drop the plan; close the engines, so a reader holding one
        across the teardown refetches instead of reading a dead plan."""
        self._plan = None
        with self._engine_lock:
            for engine in self._engines.values():
                engine.close()
            self._engines.clear()

    # -- update routing (called by Database.update, lock held) -------------------

    def _apply_weight(self, name: str, tup: Tuple, value: Any) -> int:
        """Route ``name(tup) = value`` into the live artifacts; returns
        gates touched.  Runs *before* the base-structure write, so the
        declaredness check sees the pre-update content."""
        if self._closed:
            return 0
        if self._weight_names is not None and \
                name not in self._weight_names:
            # The expression never reads this weight: its value cannot
            # change, whatever the write does — keep everything warm.
            return 0
        if tup not in self.db.structure.weights.get(name, {}):
            # A brand-new weight tuple can grow the Gaifman graph — the
            # compiled circuits cannot see it; rebuild lazily.
            self._invalidate()
            return 0
        plan = self._plan
        key = ("w", name, tup)
        if plan is None or key not in plan.recorded:
            return 0
        plan._record(key, "w", value)
        touched = 0
        with self._engine_lock:
            for engine in self._engines.values():
                touched = max(touched, engine.dynamic.evaluator.update_input(
                    key, value))
        return touched

    def _apply_relation(self, name: str, tup: Tuple,
                        present: bool) -> Tuple[int, bool]:
        """Route a relation toggle; returns ``(gates touched, whether the
        base structure was already written)``."""
        if self._closed:
            return 0, False
        if self._relation_names is not None and \
                name not in self._relation_names and \
                name not in self.dynamic_relations:
            # The expression never reads this relation: the toggle
            # cannot change its value — keep everything warm.
            return 0, False
        if name not in self.dynamic_relations:
            # Not declared dynamic for this query: the compiled circuits
            # cannot maintain the toggle — rebuild lazily.
            self._invalidate()
            return 0, False
        plan = self._plan
        if plan is None:
            return 0, False
        try:
            # mark_relation validates the Theorem 24 model and applies
            # the toggle to the (shared) base structure itself.
            changed = plan.mark_relation(name, tup, present)
        except ValueError:
            # Outside the Theorem 24 update model (the tuple is not a
            # clique of the compile-time Gaifman graph): the circuit
            # cannot maintain it, but the facade can — rebuild lazily
            # against the post-update structure.
            self._invalidate()
            return 0, False
        touched = 0
        with self._engine_lock:
            for engine in self._engines.values():
                touched = max(touched, engine.dynamic.apply(changed))
        return touched, True

    def _evict_points(self, kind: str, name: str, tup: Tuple) -> None:
        """Evict the cached point/group results one routed write can
        reach (fine-grained invalidation); everything else stays warm
        without being looked at.

        Called by ``Database.update`` (lock held) after the write landed
        and the epoch moved.  Three tiers:

        * the query never reads the written name — nothing of this
          handle is reachable: evict nothing;
        * a live engine exists — the circuit-level co-occurrence
          analysis (:meth:`~repro.engine.WeightedQueryEngine.
          affected_arguments`, one answer for every semiring: the
          engines share the plan) names the reachable argument tuples;
          evict those from each semiring's scope;
        * no live engine, or the analysis raises — nothing is provable:
          drop every scope (drop everything beats wrong).
        """
        if self._closed or not self._scopes:
            return
        if kind == "w":
            relevant = self._weight_names is None \
                or name in self._weight_names
            update_keys: Tuple = (("w", name, tup),)
        else:
            relevant = self._relation_names is None \
                or name in self._relation_names \
                or name in self.dynamic_relations
            update_keys = (("dynrel", name, tup, True),
                           ("dynrel", name, tup, False))
        if not relevant:
            return
        scopes = list(self._scopes.values())
        try:
            with self._engine_lock:
                engine = next(iter(self._engines.values()), None)
                affected = (None if engine is None or engine.closed
                            else engine.affected_arguments(update_keys))
            for scope in scopes:
                if affected is None:
                    scope.clear()
                else:
                    self._retagged += scope.evict_product(affected)
        except Exception:  # noqa: BLE001 - drop everything beats wrong
            # Reachable entries left in place would stay *visible*.
            for scope in scopes:
                scope.clear()

    def _cache_points(self, scope: Any, epoch: int,
                      points: Sequence[Tuple[Tuple, Any]]) -> None:
        """Install results computed at database epoch ``epoch`` — unless
        an effective write or an invalidation landed since: the values
        may predate it, and nothing would evict them afterwards (checked
        under the lock a write holds from its engine update through its
        eviction)."""
        with self.db._lock:
            if self.db._epoch == epoch:
                for key, value in points:
                    scope.put(key, value)

    # -- execution modes ---------------------------------------------------------

    def value(self, sr: Semiring) -> Any:
        """The value of the (closed) query in semiring ``sr``."""
        self._check()
        self._require_closed("value()")
        return self._compiled().evaluate(sr)

    def batch(self, items: Sequence[Any], sr: Semiring,
              backend: Optional[str] = None,
              exact_mode: Optional[str] = None) -> List[Any]:
        """N evaluations, batched.

        For a closed query, ``items`` are valuations — mappings of input
        keys to carrier values overriding the recorded weights (``{}``
        reproduces :meth:`value`), or callables used as-is.  For a
        parameterized query, ``items`` are argument tuples and the batch
        is the amortized point-query protocol of Theorem 8.  Hand over
        the whole batch: the plan runs it in as many sweeps as the
        evaluators' fixed memory bound asks for.

        ``backend``/``exact_mode`` override the prepared options for
        this call.
        """
        self._check()
        opts = self.options.merged(
            **{key: value for key, value in
               (("backend", backend), ("exact_mode", exact_mode))
               if value is not None})
        if self.params:
            return self._query_batch(sr, items, opts)[0]
        return self._compiled().evaluate_batch(
            sr, items, backend=opts.backend, exact_mode=opts.exact_mode)

    def _query_batch(self, sr: Semiring, items: Sequence[Any],
                     opts: ExecOptions) -> Tuple[List[Any], Dict[str, Any]]:
        """``engine.query_batch(items)``, and what its own sweeps ran:
        the plan's telemetry after them, its running totals less what
        they read before (a concurrent caller's batches on the same plan
        fold in)."""
        while True:
            # Same refetch protocol as BoundQuery.value: an invalidation
            # racing this call closes the engine — rebuild and retry
            # instead of surfacing the teardown.
            engine = self._engine(sr)
            before = engine.compiled.kernel_stats()
            try:
                results = engine.query_batch(
                    items, backend=opts.backend, exact_mode=opts.exact_mode)
            except RuntimeError:
                if engine.closed:
                    continue
                raise
            ran = engine.compiled.kernel_stats()
            for total in ("batches", "cells"):
                ran[total] = ran.get(total, 0) - before.get(total, 0)
            # The vectorized value matrix is (gates, batch columns).
            ran["shape"] = (len(engine.compiled.circuit.gates),
                            ran.get("width", 0))
            return results, ran

    def group_by(self, keys: Optional[Sequence[Any]] = None,
                 sr: Optional[Semiring] = None, *,
                 having: Optional[Callable[[Any], bool]] = None,
                 rollup: bool = False,
                 backend: Optional[str] = None,
                 exact_mode: Optional[str] = None,
                 max_groups: Optional[int] = None) -> ResultTable:
        """All group aggregates of a parameterized query, batched.

        The query's parameters are the grouping keys: each group
        ``a = (a_1, ..., a_k)`` contributes the point value ``f(a)``.
        Instead of ``k`` independent point queries, every group becomes
        one *column* of a batched sweep over the shared compiled
        circuit (Theorem 8's selector protocol, amortized across the
        whole group domain; on the vectorized backend the evaluation
        recomputes only the gates above each group's selectors — the
        delta pass — whenever that is cheaper than a dense sweep, and a
        sweep too wide for the evaluators' memory bound is split into
        several: ``stats["pass"]``/``["cells"]``/``["sweeps"]``).

        ``keys=None`` enumerates the group domain from the structure
        (cartesian product of the domain over the parameters, bounded by
        the ``max_groups`` option); otherwise ``keys`` lists explicit
        key valuations (tuples aligned with ``params``, or bare elements
        for a single parameter; elements are validated against the
        domain eagerly, duplicates evaluate once and appear once).
        ``group_by(sr)`` is accepted as shorthand for
        ``group_by(None, sr)``.

        ``having`` filters base rows by a predicate on the aggregate
        value; ``rollup=True`` appends ROLLUP subtotal rows (rolled-up
        key positions marked :data:`repro.api.TOTAL`, folded with the
        semiring's addition over *all* base groups — HAVING applies to
        base rows only, as in SQL).  Results are memoized per group in
        the database's result cache — shared with
        ``bind(...).value(sr)`` — and a routed ``db.update()`` evicts
        only the touched groups' entries (the co-occurrence analysis of
        :meth:`~repro.engine.WeightedQueryEngine.affected_arguments`),
        so repeated group sweeps under updates recompute only what
        changed.

        ``backend``/``exact_mode``/``max_groups`` override the prepared
        options for this call.  Returns a :class:`~repro.api.ResultTable`.
        """
        if isinstance(keys, Semiring) and sr is None:
            keys, sr = None, keys
        if sr is None:
            raise TypeError("group_by() needs a semiring: group_by(keys, "
                            "sr) or group_by(sr) for the full group domain")
        self._check()
        if not self.params:
            raise ValueError(
                "group_by() needs a parameterized query (the parameters "
                "are the grouping keys); a closed query has one value — "
                "use value(sr)")
        opts = self.options.merged(
            **{key: value for key, value in
               (("backend", backend), ("exact_mode", exact_mode),
                ("max_groups", max_groups))
               if value is not None})
        structure = self.db.structure

        def in_domain(tup: Tuple) -> None:
            for element in tup:
                if element not in structure:
                    raise ValueError(
                        f"group key {tup!r} does not match params "
                        f"{self.params}: {element!r} is not in the "
                        f"structure's domain")

        group_keys = group_key_tuples(keys, self.params, structure.domain,
                                      opts.max_groups, check=in_domain)
        scope = self._scope(sr)
        epoch = self.db._epoch
        values: Dict[Tuple, Any] = {}
        if scope is not None:
            for key in group_keys:
                hit = scope.get(key)
                if hit is not scope.MISS:
                    values[key] = hit
        misses = [key for key in group_keys if key not in values]
        ran: Dict[str, Any] = {}
        if misses:
            results, ran = self._query_batch(sr, misses, opts)
            points = list(zip(misses, results))
            values.update(points)
            if scope is not None:
                # ``epoch`` was read *before* the sweep.
                self._cache_points(scope, epoch, points)
        stats = {
            "groups": len(group_keys),
            "sweeps": ran.get("batches", 0),
            "sweep_shape": ran.get("shape"),
            "kernel": ran.get("used"),
            "pass": ran.get("pass"),
            "cells": ran.get("cells", 0),
            "cache_hits": len(group_keys) - len(misses),
            "cache_misses": len(misses),
        }
        self._last_group = stats
        return build_table(self.params, group_keys,
                           [values[key] for key in group_keys], sr, having,
                           rollup, stats)

    def bind(self, *args, **kwargs) -> "BoundQuery":
        """Bind the query's parameters to concrete elements.

        Accepts positional arguments aligned with ``params`` or keyword
        arguments by parameter name.  Returns a :class:`BoundQuery`
        whose :meth:`~BoundQuery.value` is the point query ``f(a)``.
        """
        if self._closed:
            raise RuntimeError("prepared query is closed")
        if kwargs:
            if args:
                raise TypeError("bind() takes positional or keyword "
                                "arguments, not both")
            extra = sorted(set(kwargs) - set(self.params))
            missing = sorted(set(self.params) - set(kwargs))
            if extra or missing:
                raise ValueError(f"bind() arguments do not match params "
                                 f"{self.params}: missing {missing}, "
                                 f"unexpected {extra}")
            args = tuple(kwargs[param] for param in self.params)
        if len(args) != len(self.params):
            raise ValueError(f"expected {len(self.params)} arguments "
                             f"for params {self.params}, got {len(args)}")
        return BoundQuery(self, tuple(args))

    def maintain(self, sr: Semiring) -> "MaintainedQuery":
        """The maintained value of a closed query under dynamic updates.

        Returns the (cached, per-semiring) :class:`MaintainedQuery`
        handle: ``.value()`` reads the maintained value; its update
        methods delegate to ``db.update()`` so every other consumer and
        cache stays coherent.  Parameterized queries are maintained
        implicitly — ``bind(...).value(sr)`` always reflects the routed
        updates.
        """
        self._check()
        self._require_closed("maintain()")
        handle = self._maintained.get(sr.name)
        if handle is None:
            handle = MaintainedQuery(self, sr)
            self._maintained[sr.name] = handle
        return handle

    def enumerate(self, *, dynamic: Optional[Sequence[str]] = None,
                  **overrides: Any) -> Any:
        """A constant-delay enumerator over a snapshot of the database.

        For a query prepared from an FO *formula*, returns a
        :class:`~repro.enumeration.AnswerEnumerator` of its answers
        (Theorem 24); for a *closed weighted expression*, a
        :class:`~repro.enumeration.ProvenanceEnumerator` of its
        monomials (Theorem 22).  The enumerator owns a content snapshot:
        drive its dynamics through its own update methods.

        ``dynamic`` overrides the prepared dynamic-relation set for the
        snapshot.  Any further keyword arguments are
        :class:`~repro.api.ExecOptions` overrides for this call —
        ``optimize``/``verify`` reach the enumerator's compile.
        """
        self._check()
        opts = self.options.merged(**overrides)
        snapshot = self.db._snapshot()
        declared = (tuple(self.dynamic_relations) if dynamic is None
                    else tuple(dynamic))
        # The same plan tiers as every other mode: a repeated
        # enumerate() rebinds the cached plan instead of recompiling.
        compile_options = dict(dynamic_relations=declared,
                               optimize=opts.optimize, verify=opts.verify,
                               plan_cache=self.db.plan_cache,
                               plan_store=opts.plan_store)
        if self.formula is not None:
            if not self.params:
                raise ValueError("sentences have no answers to enumerate; "
                                 "evaluate value(BOOLEAN) instead")
            return AnswerEnumerator(snapshot, self.formula,
                                    free_order=self.params,
                                    **compile_options)
        if self.params:
            raise ValueError(
                "enumerate() needs an FO formula (answer enumeration) or a "
                "closed weighted expression (provenance monomials); prepare "
                "the formula itself to enumerate its answers")
        return ProvenanceEnumerator(snapshot, self.expr, **compile_options)

    # -- introspection -----------------------------------------------------------

    def plan(self) -> CompiledQuery:
        """The handle's one compiled plan (compiling on first use) — for
        a parameterized query, of its closed form over ``params``.

        Read-only access for introspection and rendering (``stats``,
        ``repro.circuits.render``); route updates through
        ``db.update()`` so the caches stay coherent."""
        self._check()
        return self._compiled()

    def stats(self) -> Dict[str, Any]:
        """Circuit statistics of the plan, if compiled so far (a closed
        query compiles on demand; a parameterized one on first use);
        ``engines`` lists the semirings with a live evaluator."""
        self._check()
        info: Dict[str, Any] = {
            "params": self.params,
            "dynamic_relations": sorted(self.dynamic_relations),
            "kind": "formula" if self.formula is not None else "weighted",
            "engines": sorted(self._engines),
        }
        compiled = self._plan
        if compiled is None and not self.params:
            compiled = self._compiled()
        if compiled is not None:
            info.update(compiled.stats())
        else:
            info["compiled"] = False
        if self._last_group is not None:
            info["group_by"] = dict(self._last_group)
        return info

    def explain(self) -> str:
        """A human-readable description of the prepared query: shape,
        compiled-circuit statistics, and the resolved execution options."""
        stats = self.stats()
        lines = [f"PreparedQuery #{self._id} "
                 f"({stats['kind']}, params={stats['params'] or '()'}, "
                 f"dynamic={stats['dynamic_relations'] or '[]'})"]
        if "gates" in stats:
            lines.append(
                f"  circuit: {stats['gates']} gates, depth {stats['depth']},"
                f" {stats['colors']} colors, {stats['color_subsets']} color"
                f" subsets, forests height <= {stats['max_forest_height']}")
        else:
            lines.append("  circuit: not compiled yet (one plan for every "
                         "mode and semiring, on first use)")
        opts = self.options
        lines.append(f"  options: backend={opts.backend!r} "
                     f"exact_mode={opts.exact_mode!r} "
                     f"optimize={opts.optimize}")
        stages = stats.get("compile_stages")
        if stages:
            rendered = ", ".join(f"{name}={seconds * 1e3:.2f}ms"
                                 for name, seconds in stages.items())
            lines.append(f"  compile stages: {rendered}")
        kernel = stats.get("exact_kernel")
        if kernel is not None:
            lines.append(
                f"  exact kernel: requested {kernel['requested']!r}, ran "
                f"{kernel['used']!r} ({kernel['fallbacks']} fallback(s), "
                f"{kernel['certified']} certified, over "
                f"{kernel['batches']} batch(es)); last pass "
                f"{kernel['pass']!r}, {kernel['cells']} cell(s) in all")
        group = stats.get("group_by")
        if group is not None:
            lines.append(
                f"  last group_by: {group['groups']} group(s) in "
                f"{group['sweeps']} sweep(s), shape={group['sweep_shape']}, "
                f"kernel={group['kernel']!r}, pass={group['pass']!r} "
                f"({group['cells']} cell(s)), cache "
                f"{group['cache_hits']} hit(s) / "
                f"{group['cache_misses']} miss(es)")
        lines.append(f"  shared caches: plan={self.db.plan_cache.stats()}")
        if self.db.result_cache is not None:
            lines.append(f"                 result="
                         f"{self.db.result_cache.stats()}")
        return "\n".join(lines)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Drop compiled state and cached results and deregister from
        the database.  Idempotent; further use raises."""
        if self._closed:
            return
        self._closed = True
        self._release()
        self._maintained.clear()
        for scope in self._scopes.values():
            # Dead cached points must not keep occupying the shared LRU.
            scope.clear()
        self._scopes.clear()
        self.db._forget(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<PreparedQuery #{self._id} params={self.params} "
                f"dynamic={sorted(self.dynamic_relations)}>")


class BoundQuery:
    """A prepared query with its parameters bound to concrete elements.

    ``value(sr)`` answers the point query on the per-semiring
    evaluator, memoized in the database's shared result cache (an
    effective routed update evicts the points it can reach; a value
    computed before it is never installed after it)."""

    __slots__ = ("prepared", "arguments")

    def __init__(self, prepared: PreparedQuery, arguments: Tuple) -> None:
        self.prepared = prepared
        self.arguments = arguments

    def value(self, sr: Semiring) -> Any:
        prepared = self.prepared
        prepared._check()
        scope = prepared._scope(sr)
        epoch = prepared.db._epoch
        if scope is not None:
            hit = scope.get(self.arguments)
            if hit is not scope.MISS:
                return hit
        while True:
            # Fetch outside _engine_lock (construction takes db._lock,
            # which must come first), then query inside it: the selector
            # protocol (raise, read, restore) is a critical section on
            # the shared per-semiring engine — concurrent binds and
            # routed updates serialize here.  An invalidation racing
            # between fetch and lock closes the engine; refetch.
            engine = prepared._engine(sr)
            with prepared._engine_lock:
                if engine.closed:
                    continue
                value = engine.query(*self.arguments)
                break
        if scope is not None:
            # ``epoch`` was read *before* the query.
            prepared._cache_points(scope, epoch, ((self.arguments, value),))
        return value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<BoundQuery {dict(zip(self.prepared.params, self.arguments))}>"


class MaintainedQuery:
    """Theorem 8/24 maintained handle, wired into the database.

    Reads (:meth:`value`) come from the incrementally-maintained dynamic
    evaluator; updates delegate to ``db.update()`` so the write reaches
    *every* consumer and cache of the database — the maintained handle
    cannot be used to bypass invalidation."""

    def __init__(self, prepared: PreparedQuery, sr: Semiring) -> None:
        self.prepared = prepared
        self.sr = sr

    def value(self) -> Any:
        self.prepared._check()
        return self.prepared._engine(self.sr).dynamic.value()

    def update_weight(self, name: str, tup: Tuple, value: Any) -> int:
        """``name(tup) = value`` routed database-wide; returns gates
        touched (max over consumers)."""
        with self.prepared.db.update() as tx:
            return tx.set_weight(name, tup, value)

    def set_relation(self, name: str, tup: Tuple, present: bool) -> int:
        """Gaifman-preserving relation toggle routed database-wide."""
        with self.prepared.db.update() as tx:
            return tx.set_relation(name, tup, present)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<MaintainedQuery sr={self.sr.name} of {self.prepared!r}>"
