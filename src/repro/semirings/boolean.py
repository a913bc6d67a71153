"""The boolean semiring B and finite boolean algebras P(X).

``B = ({False, True}, or, and)`` recovers classical query semantics: the
Iverson bracket maps a formula's truth value into any semiring through B,
and existential quantification is summation in B (paper §1, §7).
"""

from __future__ import annotations

from typing import Any, FrozenSet, Iterable, Sequence

from .base import Semiring


class BooleanSemiring(Semiring):
    """``({False, True}, or, and)`` — model checking as circuit evaluation.
    ``+``/``*`` return ``bool``s: any other operand counts by truthiness,
    so every evaluation order yields the same value."""

    name = "B"
    is_finite = True
    zero = False
    one = True

    def add(self, a: bool, b: bool) -> bool:
        return bool(a or b)

    def mul(self, a: bool, b: bool) -> bool:
        return bool(a and b)

    def scale(self, n: int, a: bool) -> bool:
        return a if n > 0 else False

    def elements(self) -> Sequence[bool]:
        return (False, True)

    def coerce(self, value: Any) -> bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, int):
            return value > 0
        return bool(value)


class SetAlgebra(Semiring):
    """The boolean algebra ``(P(X), union, intersection)`` over a finite X.

    A finite semiring that is *not* a ring and whose addition is idempotent
    but not cyclic-group-like — a good stress test for the lasso arithmetic
    of Lemma 38 and the finite permanent of Lemma 18.
    """

    name = "P(X)"
    is_finite = True

    def __init__(self, universe: Iterable[Any]):
        self.universe: FrozenSet[Any] = frozenset(universe)
        self.name = f"P(X:{len(self.universe)})"
        self.zero = frozenset()
        self.one = self.universe

    def add(self, a: FrozenSet[Any], b: FrozenSet[Any]) -> FrozenSet[Any]:
        return a | b

    def mul(self, a: FrozenSet[Any], b: FrozenSet[Any]) -> FrozenSet[Any]:
        return a & b

    def scale(self, n: int, a: FrozenSet[Any]) -> FrozenSet[Any]:
        return a if n > 0 else frozenset()

    def elements(self) -> Sequence[FrozenSet[Any]]:
        items = sorted(self.universe, key=repr)
        subsets = [frozenset()]
        for item in items:
            subsets += [s | {item} for s in subsets]
        return subsets

    def coerce(self, value: Any) -> FrozenSet[Any]:
        if isinstance(value, bool):
            return self.one if value else self.zero
        if isinstance(value, int):
            return self.one if value > 0 else self.zero
        return frozenset(value)
