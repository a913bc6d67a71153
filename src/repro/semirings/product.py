"""Direct products of semirings (componentwise operations).

Products preserve the capability flags: a product of rings is a ring, a
product of finite semirings is finite, a product of exact ones is exact.  They are used in tests to build
"mixed" carriers and to check that circuit evaluation is componentwise.
"""

from __future__ import annotations

import itertools
from typing import Any, Sequence, Tuple

from .base import Semiring


class ProductSemiring(Semiring):
    """The componentwise product ``S_1 x ... x S_k``."""

    def __init__(self, *factors: Semiring):
        if not factors:
            raise ValueError("product of zero semirings is not supported")
        self.factors: Tuple[Semiring, ...] = factors
        self.name = " x ".join(f.name for f in factors)
        self.is_ring = all(f.is_ring for f in factors)
        self.is_finite = all(f.is_finite for f in factors)
        self.is_exact = all(f.is_exact for f in factors)
        self.zero = tuple(f.zero for f in factors)
        self.one = tuple(f.one for f in factors)

    def add(self, a: Tuple[Any, ...], b: Tuple[Any, ...]) -> Tuple[Any, ...]:
        return tuple(f.add(x, y) for f, x, y in zip(self.factors, a, b))

    def mul(self, a: Tuple[Any, ...], b: Tuple[Any, ...]) -> Tuple[Any, ...]:
        return tuple(f.mul(x, y) for f, x, y in zip(self.factors, a, b))

    def neg(self, a: Tuple[Any, ...]) -> Tuple[Any, ...]:
        if not self.is_ring:
            raise NotImplementedError(f"{self.name} is not a ring")
        return tuple(f.neg(x) for f, x in zip(self.factors, a))

    def scale(self, n: int, a: Tuple[Any, ...]) -> Tuple[Any, ...]:
        return tuple(f.scale(n, x) for f, x in zip(self.factors, a))

    def eq(self, a: Tuple[Any, ...], b: Tuple[Any, ...]) -> bool:
        return all(f.eq(x, y) for f, x, y in zip(self.factors, a, b))

    def elements(self) -> Sequence[Tuple[Any, ...]]:
        if not self.is_finite:
            raise NotImplementedError(f"{self.name} is not finite")
        return [tuple(combo) for combo in
                itertools.product(*(f.elements() for f in self.factors))]

    def coerce(self, value: Any) -> Tuple[Any, ...]:
        if isinstance(value, (bool, int)):
            return tuple(f.coerce(value) for f in self.factors)
        return tuple(value)
