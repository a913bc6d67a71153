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

Both enumerators are views of a :class:`~repro.api.PreparedQuery`
(``db.prepare(...).enumerate()``): the handle owns the one context over
its one plan (:func:`enumeration_context`), every ``db.update()`` write
reaches it, and a view holds nothing of its own.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (TYPE_CHECKING, Any, Callable, Dict, Hashable, Iterator,
                    Sequence, Tuple)

from ..core import SELECTED, CompiledQuery, selection
from ..semirings import Poly
from .context import EnumerationContext, StaleEnumeration
from .iterators import Cursor, Monomial, Multiplicity, RunLength

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.prepared import PreparedQuery


def monomials_of(value: Any) -> Sequence[Monomial]:
    """Interpret a stored weight value as a sequence of monomials (an
    integer ``n`` as ``n`` empty monomials, in constant space; a
    :class:`~repro.semirings.Poly` as its monomials repeated by their
    coefficients, in space linear in its terms: a plain list when every
    coefficient is 1, else a :class:`RunLength`, whose index is a
    bisection over its runs)."""
    if isinstance(value, Poly):
        if value.total_terms() == len(value.terms):
            return list(value.monomials())
        return RunLength(Multiplicity(value.terms[monomial], monomial)
                         for monomial in sorted(value.terms, key=repr))
    if isinstance(value, list):
        return [tuple(m) for m in value]
    if isinstance(value, bool):
        return [()] if value else []
    if isinstance(value, int):
        return Multiplicity(value)
    # A bare hashable is a single generator.
    return [(value,)]


def enumeration_context(plan: CompiledQuery) -> EnumerationContext:
    """The free-semiring context over a plan: every recorded input as
    its list of monomials; the selector input ``v_i(a)`` is the one
    generator ``(i, a)``."""
    base: Dict[Hashable, Sequence[Monomial]] = {}
    for key, (kind, raw) in plan.recorded.items():
        if kind == "b":
            base[key] = [()] if raw else []
        elif kind == SELECTED:
            base[key] = [(selection(key),)]
        else:
            base[key] = monomials_of(raw)
    return EnumerationContext(plan.schedule(), base)


def _reader(arity: int) -> Callable[[Dict], Tuple]:
    """The answer tuple from a monomial's generators as a mapping
    position -> element (``itemgetter`` of one position is no tuple)."""
    if arity == 1:
        return lambda by_position: (by_position[0],)
    return itemgetter(*range(arity))


class _HandleView:
    """What both enumerators are: a view of one prepared handle."""

    def __init__(self, prepared: "PreparedQuery"):
        self.prepared = prepared

    @property
    def context(self) -> EnumerationContext:
        """The handle's current context, checked like any read of the
        handle (a new one after an invalidation)."""
        self.prepared._check()
        return self.prepared._context()

    def set_relation(self, name: str, tup: Tuple, present: bool) -> int:
        """``db.update()``'s relation toggle: it stales open iterations
        and cursors."""
        with self.prepared.db.update() as tx:
            return tx.set_relation(name, tup, present)


class ProvenanceEnumerator(_HandleView):
    """Theorem 22: constant-delay enumeration of a closed weighted
    expression's provenance — the monomials of ``f_A(w)`` over
    free-semiring weight values (with repetition multiplicities, as in
    the paper)."""

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
        """``db.update()``'s weight write (an iterator swap)."""
        with self.prepared.db.update() as tx:
            return tx.set_weight(name, tup, value)


class AnswerEnumerator(_HandleView):
    """Theorem 24: enumerate the answers of a quantifier-free ``φ(x)``,
    in the handle's parameter order.

    Constant-delay, repetition-free, bi-directional.  The same plan
    maintained in (N, +, ·) with every selector at 1 counts the
    answers."""

    def __init__(self, prepared: "PreparedQuery"):
        super().__init__(prepared)
        #: An answer tuple from its monomial's generators, as a mapping
        #: position -> element.
        self._answer = _reader(len(prepared.params))

    def has_answers(self) -> bool:
        return self.context.supported()

    def cursor(self) -> "AnswerCursor":
        return AnswerCursor(self.context, self._answer)

    def __iter__(self) -> Iterator[Tuple]:
        """One round of the answers, in cursor order; raises
        :class:`StaleEnumeration` when stepped after an update."""
        return map(self._answer, map(dict, self.context.walk()))

    def count(self) -> int:
        """The answer count: a maintained read, not an evaluation."""
        self.prepared._check()
        return self.prepared._counter().value()


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
