"""Signatures: relation symbols and weight symbols with fixed arities.

A ``Σ(w)``-structure (paper §3) is a relational structure together with
semiring-valued weight functions.  Public signatures are purely
relational: the only function symbol is the forest encoding's ``parent``,
which no structure declares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple


@dataclass(frozen=True)
class RelationSymbol:
    """A relation symbol ``R`` of fixed arity."""

    name: str
    arity: int

    def __call__(self, *terms: str):
        """Build the atom ``R(x, y, ...)`` — see :mod:`repro.logic`."""
        from ..logic.fo import Atom
        if len(terms) != self.arity:
            raise ValueError(
                f"{self.name} has arity {self.arity}, got {len(terms)} terms")
        return Atom(self.name, tuple(terms))

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


@dataclass(frozen=True)
class WeightSymbol:
    """A weight symbol ``w``: interpreted as a map ``A^arity -> S``."""

    name: str
    arity: int

    def __call__(self, *terms: str):
        """Build the weighted atom ``w(x, y, ...)`` — see :mod:`repro.logic`."""
        from ..logic.weighted import Weight
        if len(terms) != self.arity:
            raise ValueError(
                f"{self.name} has arity {self.arity}, got {len(terms)} terms")
        return Weight(self.name, tuple(terms))

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


class Signature:
    """A collection of relation and weight symbols, unique by name."""

    def __init__(self):
        self.relations: Dict[str, RelationSymbol] = {}
        self.weights: Dict[str, WeightSymbol] = {}

    def relation(self, name: str, arity: int) -> RelationSymbol:
        if name in self.relations:
            existing = self.relations[name]
            if existing.arity != arity:
                raise ValueError(f"{name} already declared with arity "
                                 f"{existing.arity}")
            return existing
        if name in self.weights:
            raise ValueError(f"{name} already declared as a weight symbol")
        symbol = RelationSymbol(name, arity)
        self.relations[name] = symbol
        return symbol

    def weight(self, name: str, arity: int) -> WeightSymbol:
        if name in self.weights:
            existing = self.weights[name]
            if existing.arity != arity:
                raise ValueError(f"{name} already declared with arity "
                                 f"{existing.arity}")
            return existing
        if name in self.relations:
            raise ValueError(f"{name} already declared as a relation symbol")
        symbol = WeightSymbol(name, arity)
        self.weights[name] = symbol
        return symbol

    def copy(self) -> "Signature":
        clone = Signature()
        clone.relations = dict(self.relations)
        clone.weights = dict(self.weights)
        return clone

    @classmethod
    def build(cls, relations: Iterable[Tuple[str, int]] = (),
              weights: Iterable[Tuple[str, int]] = ()) -> "Signature":
        sig = cls()
        for name, arity in relations:
            sig.relation(name, arity)
        for name, arity in weights:
            sig.weight(name, arity)
        return sig
