"""Theorems 22 and 24: provenance enumeration and FO answer enumeration.

*Theorem 24* (dynamic query enumeration): for a quantifier-free formula
``φ(x)`` — after quantifier elimination, see ``repro.qe`` — compile the
closed form ``Σ_x [φ(x)] · v_1(x_1) ··· v_k(x_k)``
(:func:`repro.core.close_over`) and read each selector input ``v_i(a)``
as the unique generator ``e^i_a`` of the free semiring; the circuit's value
is the formal sum with exactly one monomial per answer (the shape
decomposition is mutually exclusive), and the enumeration context yields a
constant-delay, bi-directional, repetition-free enumerator.  Updates that
preserve the Gaifman graph (declared dynamic relations) are constant-time
support flips.

*Theorem 22* (provenance): the same machinery with user-supplied weight
values in the free semiring (Poly objects, generator ids, or explicit
monomial lists).
"""

from __future__ import annotations

from operator import itemgetter
from typing import (Any, Callable, Dict, Hashable, Iterator, List, Optional,
                    Sequence, Tuple)

from ..core import (SELECTED, CompiledQuery, close_over,
                    compile_structure_query, selection)
from ..logic.fo import Formula, is_quantifier_free
from ..logic.weighted import Bracket, WExpr
from ..semirings import NATURAL, Poly
from ..structures import Structure
from .context import EnumerationContext, StaleEnumeration
from .iterators import Cursor, Monomial


def _monomials_of(value: Any) -> List[Monomial]:
    """Interpret a stored weight value as a list of monomials."""
    if isinstance(value, Poly):
        return list(value.monomials())
    if isinstance(value, list):
        return [tuple(m) for m in value]
    if isinstance(value, bool):
        return [()] if value else []
    if isinstance(value, int):
        return [()] * max(0, value)
    # A bare hashable is a single generator.
    return [(value,)]


def _base_valuation(compiled: CompiledQuery) -> Dict[Hashable, List[Monomial]]:
    """Every recorded input as its list of monomials; the selector input
    ``v_i(a)`` is the one generator ``(i, a)``."""
    base: Dict[Hashable, List[Monomial]] = {}
    for key, (kind, raw) in compiled.recorded.items():
        if kind == "b":
            base[key] = [()] if raw else []
        elif kind == SELECTED:
            base[key] = [(selection(key),)]
        else:
            base[key] = _monomials_of(raw)
    return base


def _reader(arity: int) -> Callable[[Dict], Tuple]:
    """The answer tuple from a monomial's generators as a mapping
    position -> element (``itemgetter`` of one position is no tuple)."""
    if arity == 1:
        return lambda by_position: (by_position[0],)
    return itemgetter(*range(arity))


class ProvenanceEnumerator:
    """Theorem 22: constant-delay enumeration of a query's provenance.

    ``structure`` carries free-semiring weight values; the enumerator
    yields the monomials of ``f_A(w)`` (with repetition multiplicities,
    as in the paper).
    """

    def __init__(self, structure: Structure, expr: WExpr,
                 dynamic_relations: Sequence[str] = (),
                 optimize: bool = True, verify: Optional[bool] = None,
                 plan_cache: Optional[Any] = None,
                 plan_store: Optional[Any] = None):
        self.compiled = compile_structure_query(
            structure, expr, dynamic_relations=dynamic_relations,
            optimize=optimize, verify=verify, plan_cache=plan_cache,
            plan_store=plan_store)
        self.context = EnumerationContext(self.compiled.circuit,
                                          _base_valuation(self.compiled))

    def is_zero(self) -> bool:
        return not self.context.supported()

    def cursor(self) -> Cursor:
        return self.context.cursor()

    def monomials(self) -> Iterator[Monomial]:
        """One full enumeration round (sorted generators per monomial);
        raises :class:`StaleEnumeration` when stepped after an update."""
        for monomial in self.context.walk():
            yield tuple(sorted(monomial, key=repr))

    def update_weight(self, name: str, tup: Tuple, value: Any) -> int:
        """Replace a weight's free-semiring value (iterator swap)."""
        compiled = self.compiled
        tup = tuple(tup)
        if tup not in compiled.structure.weights.get(name, {}):
            raise KeyError(f"{name}{tup} was not declared at compile time")
        # Through set_weight so the structure's content caches stay
        # honest, and through _record so the memoized
        # batched-evaluation bases follow the write.
        compiled.structure.set_weight(name, tup, value)
        key = ("w", name, tup)
        if key not in compiled.recorded:
            return 0
        compiled._record(key, "w", value)
        return self.context.set_input(key, _monomials_of(value))

    def set_relation(self, name: str, tup: Tuple, present: bool) -> int:
        touched = 0
        for key, state in self.compiled.mark_relation(name, tup, present):
            touched += self.context.set_input(key, [()] if state else [])
        return touched


class AnswerEnumerator:
    """Theorem 24: enumerate the answers of a quantifier-free ``φ(x)``.

    Constant-delay, repetition-free, bi-directional; supports
    Gaifman-preserving updates for relations declared dynamic.  The same
    compiled circuit evaluated in (N, +, ·) counts the answers.
    """

    def __init__(self, structure: Structure, formula: Formula,
                 free_order: Optional[Sequence[str]] = None,
                 dynamic_relations: Sequence[str] = (),
                 optimize: bool = True, verify: Optional[bool] = None,
                 plan_cache: Optional[Any] = None,
                 plan_store: Optional[Any] = None):
        if not is_quantifier_free(formula):
            raise ValueError("Theorem 24 applies after quantifier "
                             "elimination; see repro.qe")
        self.vars: Tuple[str, ...] = tuple(
            free_order if free_order is not None
            else sorted(formula.free_vars()))
        if set(self.vars) != set(formula.free_vars()):
            raise ValueError("free_order must list the formula's free "
                             "variables")
        if not self.vars:
            raise ValueError("boolean sentences have no answers to "
                             "enumerate; evaluate [φ] in B instead")
        self.compiled = compile_structure_query(
            structure, close_over(Bracket(formula), self.vars),
            dynamic_relations=dynamic_relations, optimize=optimize,
            verify=verify, plan_cache=plan_cache, plan_store=plan_store)
        self.context = EnumerationContext(self.compiled.circuit,
                                          _base_valuation(self.compiled))
        #: An answer tuple from its monomial's generators, as a mapping
        #: position -> element.
        self._answer = _reader(len(self.vars))

    # -- enumeration -------------------------------------------------------------

    def has_answers(self) -> bool:
        return self.context.supported()

    def cursor(self) -> "AnswerCursor":
        return AnswerCursor(self.context, self._answer)

    def __iter__(self) -> Iterator[Tuple]:
        """One round of the answers, in cursor order; raises
        :class:`StaleEnumeration` when stepped after an update."""
        return map(self._answer, map(dict, self.context.walk()))

    def count(self) -> int:
        """Answer count via the same circuit in (N, +, ·), every
        selector at 1."""
        return self.compiled.evaluate(NATURAL, selected=1)

    # -- dynamics ----------------------------------------------------------------

    def set_relation(self, name: str, tup: Tuple, present: bool) -> int:
        """Gaifman-preserving update; constant-time support maintenance.
        An iteration or :class:`AnswerCursor` opened before it raises
        :class:`StaleEnumeration` on its next step."""
        touched = 0
        for key, state in self.compiled.mark_relation(name, tup, present):
            touched += self.context.set_input(key, [()] if state else [])
        return touched


class AnswerCursor:
    """Bi-directional cursor decoding monomials into answer tuples.  A
    step after an update of its context raises
    :class:`StaleEnumeration`."""

    def __init__(self, context: EnumerationContext,
                 answer: Callable[[Dict], Tuple]):
        self._context = context
        self._version = context.version
        self._cursor = context.cursor()
        self._answer = answer

    def _check(self) -> Cursor:
        if self._context.version != self._version:
            raise StaleEnumeration("cursor")
        return self._cursor

    def current(self) -> Tuple:
        return self._answer(dict(self._check().current()))

    def advance(self) -> bool:
        return self._check().advance()

    def retreat(self) -> bool:
        return self._check().retreat()
