"""Theorem 8: the weighted query evaluation engine.

Closed queries compile straight through the Theorem 6 pipeline; a query
``f(x)`` with free variables is compiled as its closed form
(:func:`repro.core.close_over`)

    f' = Σ_x  f(x) · v_1(x_1) ··· v_k(x_k)

whose *selectors* ``v_i`` are inputs of the circuit, at rest at the
semiring's zero, so a point query ``f(a)`` is ``2|x|`` input toggles
around one read (the proof of Theorem 8).  Updates and queries are
therefore O(log |A|) in general semirings and O(1) in rings and finite
semirings.

Selectors are not data: the engine never writes to the structure it was
given, so one structure — and one compiled plan — serves any number of
engines, in any semirings.  :meth:`WeightedQueryEngine.close` is pure
lifecycle: a closed engine rejects further queries and updates.
"""

from __future__ import annotations

from typing import Any, Container, Dict, Hashable, Optional, Sequence, \
    Tuple

from ..circuits import co_occurring_inputs
from ..core import (CompiledQuery, DynamicQuery, close_over,
                    compile_structure_query, selected_elements, selector_key)
from ..logic.weighted import WExpr
from ..semirings import Semiring
from ..structures import Structure


def normalize_arguments(arguments: Sequence[Any], free: Sequence[str],
                        domain: Container[Hashable]) -> Tuple:
    """One point query's arguments as a tuple aligned with ``free``.

    ``arguments`` is what the caller passed — positional elements or a
    single ``{var: element}`` mapping; wrong arity is a ``ValueError``,
    an element outside ``domain`` a ``KeyError`` (an unknown element is
    an error, not a silent zero).  The one normaliser behind every
    point-query entry point: engine, service and cluster gateway.
    """
    if len(arguments) == 1 and isinstance(arguments[0], dict):
        assignment = arguments[0]
        arguments = tuple(assignment[var] for var in free)
    arguments = tuple(arguments)
    if len(arguments) != len(free):
        raise ValueError(f"expected {len(free)} arguments, "
                         f"got {arguments!r}")
    for element in arguments:
        if element not in domain:
            raise KeyError(f"{element!r} is not in the structure's domain")
    return arguments


class WeightedQueryEngine:
    """Linear-time preprocessing; point queries and updates afterwards.

    ``expr`` may have free variables; ``free_order`` fixes the argument
    order of :meth:`query` (defaults to sorted order).

    ``plan_cache`` (a :class:`repro.serve.PlanCache`) and ``plan_store``
    memoize the whole compilation, keyed by structure content and query
    — never by semiring: engines over content-equal structures share
    one compiled circuit and layer schedule whatever they evaluate in,
    each with its own copy of the mutable update state.
    """

    def __init__(self, structure: Structure, expr: WExpr, sr: Semiring,
                 dynamic_relations: Sequence[str] = (),
                 free_order: Optional[Sequence[str]] = None,
                 strategy: Optional[str] = None,
                 optimize: bool = True,
                 plan_cache: Optional[Any] = None,
                 plan_store: Optional[Any] = None,
                 verify: Optional[bool] = None):
        free = tuple(free_order if free_order is not None
                     else sorted(expr.free_vars()))
        if set(free) != set(expr.free_vars()):
            raise ValueError(f"free_order {free} does not match the "
                             f"expression's free variables")
        self._attach(compile_structure_query(
            structure, close_over(expr, free),
            dynamic_relations=dynamic_relations, optimize=optimize,
            plan_cache=plan_cache, plan_store=plan_store, verify=verify),
            free, sr, strategy)

    @classmethod
    def over(cls, compiled: CompiledQuery, free: Sequence[str], sr: Semiring,
             strategy: Optional[str] = None) -> "WeightedQueryEngine":
        """An engine in ``sr`` over an existing plan of
        ``close_over(expr, free)`` — how one compilation serves every
        semiring (the engines share ``compiled``; whoever routes a write
        records it once and propagates it into each)."""
        engine = cls.__new__(cls)
        engine._attach(compiled, tuple(free), sr, strategy)
        return engine

    def _attach(self, compiled: CompiledQuery, free: Tuple[str, ...],
                sr: Semiring, strategy: Optional[str]) -> None:
        self.sr = sr
        self.free = free
        self.compiled = compiled
        self.structure: Structure = compiled.structure
        self._closed = False
        self.dynamic: DynamicQuery = compiled.dynamic(sr, strategy=strategy)

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Refuse further queries and updates.  Idempotent; there is
        nothing to clean up — the engine never wrote to the structure."""
        self._closed = True

    def __enter__(self) -> "WeightedQueryEngine":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("engine is closed")

    # -- queries ---------------------------------------------------------------

    def value(self) -> Any:
        """The value of a *closed* query (raises if free variables exist)."""
        if self.free:
            raise ValueError("query(...) must be used: the expression has "
                             f"free variables {self.free}")
        self._check_open()
        return self.dynamic.value()

    def query(self, *arguments) -> Any:
        """``f(a)`` for a tuple ``a`` aligned with ``free_order`` (or one
        ``{var: element}`` mapping)."""
        self._check_open()
        keys = [selector_key(position, element) for position, element
                in enumerate(normalize_arguments(arguments, self.free,
                                                 self.structure))]
        toggle = self.dynamic.evaluator.update_input
        one, zero = self.sr.one, self.sr.zero
        # The selector protocol must be exception-safe: if raising a
        # selector (or the read) fails partway, the finally block still
        # zeroes every selector, so a failed probe cannot leave selectors
        # hot and silently poison all later queries.  The restore loop is
        # itself per-selector guarded — one failing restore must not skip
        # the remaining selectors.
        try:
            for key in keys:
                toggle(key, one)
            return self.dynamic.value()
        finally:
            restore_error = None
            for key in keys:
                try:
                    toggle(key, zero)
                except BaseException as error:  # noqa: BLE001
                    if restore_error is None:
                        restore_error = error
            if restore_error is not None:
                raise restore_error

    def query_batch(self, argument_tuples: Sequence[Sequence[Hashable]],
                    backend: str = "auto",
                    exact_mode: str = "auto") -> list:
        """``[f(a) for a in argument_tuples]``, batched — the engine's
        one batched method (probe batches, service windows and grouped
        sweeps alike).

        Each argument tuple becomes one batch column raising its
        selector inputs to ``sr.one`` (everything else keeps the
        engine's current weights) — the point-query protocol of
        Theorem 8, amortized over N probes; the plan evaluates the
        whole batch (:meth:`CompiledQuery.evaluate_selected`: dense
        sweep or cone-restricted delta pass, in as many sweeps as its
        memory bound asks for).  The engine's dynamic state is not
        disturbed.

        ``backend`` (``"numpy"`` the vectorized layered backend,
        ``"python"`` the pure-Python one, ``"auto"`` the best available
        for the semiring) and ``exact_mode`` (the vectorized kernel for
        the exact carriers) are forwarded; both strings are validated
        before any sweep runs.
        """
        self._check_open()
        free, domain = self.free, self.structure
        columns = [tuple(map(selector_key, range(len(free)),
                             normalize_arguments(tuple(arguments), free,
                                                 domain)))
                   for arguments in argument_tuples]
        return self.compiled.evaluate_selected(
            self.sr, columns, self.sr.one, backend=backend,
            exact_mode=exact_mode)

    def affected_arguments(self, update_keys: Sequence[Hashable]
                           ) -> Optional[Tuple]:
        """Which point queries an update of ``update_keys`` may change.

        Returns one set of domain elements per free-variable position:
        ``f(a)`` can only change if ``a[i]`` is in set ``i`` for *every*
        position (each monomial of the Theorem 8 closed form contains
        exactly one selector per position, so the update must co-occur
        with all of ``a``'s selectors to reach ``f(a)``); see
        :func:`repro.circuits.co_occurring_inputs` for the circuit-level
        analysis.  Returns ``None`` for closed queries (no per-argument
        granularity exists).  This is the seam behind touched-group-only
        cache invalidation: a routed update evicts the product of these
        sets from the result cache; results whose arguments fail the
        test are provably still correct and are never looked at.

        The analysis reads only static circuit topology — the upward
        cone of each written input over the schedule's shared tables —
        so a write pays for the handful of gates above it, never for
        the circuit.
        """
        if not self.free:
            return None
        schedule = self.compiled.schedule()
        met = set()
        for key in update_keys:
            met |= co_occurring_inputs(schedule, key)
        return selected_elements(met, len(self.free))

    # -- updates ----------------------------------------------------------------

    def update_weight(self, name: str, tup: Tuple, value: Any) -> int:
        self._check_open()
        return self.dynamic.update_weight(name, tup, value)

    def set_relation(self, name: str, tup: Tuple, present: bool) -> int:
        self._check_open()
        return self.dynamic.set_relation(name, tup, present)

    def stats(self) -> Dict[str, Any]:
        return self.compiled.stats()
