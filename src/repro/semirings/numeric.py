"""Numeric semirings and rings: N, Z, Q, floats, and the modular rings Z_m."""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Sequence

from .base import Semiring


class NaturalSemiring(Semiring):
    """``(N, +, *)`` — bag semantics / counting (paper §1, Example 4)."""

    name = "N"
    zero = 0
    one = 1

    def add(self, a: int, b: int) -> int:
        return a + b

    def mul(self, a: int, b: int) -> int:
        return a * b

    def scale(self, n: int, a: int) -> int:
        return n * a if n > 0 else 0


class IntegerRing(Semiring):
    """``(Z, +, *)`` — the prototypical ring (enables Lemma 15)."""

    name = "Z"
    is_ring = True
    zero = 0
    one = 1

    def add(self, a: int, b: int) -> int:
        return a + b

    def mul(self, a: int, b: int) -> int:
        return a * b

    def neg(self, a: int) -> int:
        return -a

    def scale(self, n: int, a: int) -> int:
        return n * a if n > 0 else 0


class RationalField(Semiring):
    """``(Q, +, *)`` via :class:`fractions.Fraction` — exact PageRank weights."""

    name = "Q"
    is_ring = True
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def neg(self, a: Fraction) -> Fraction:
        return -a

    def scale(self, n: int, a: Fraction) -> Fraction:
        return n * a if n > 0 else Fraction(0)

    def coerce(self, value: Any) -> Fraction:
        if isinstance(value, bool):
            return Fraction(1) if value else Fraction(0)
        if isinstance(value, int):
            return Fraction(value)
        return Fraction(value)


class FloatField(Semiring):
    """IEEE floats as an (approximate) ring; ``eq`` uses a relative tolerance.

    Used for scaling benchmarks where Python arithmetic must be unit-cost.
    """

    name = "float"
    is_ring = True
    is_exact = False
    zero = 0.0
    one = 1.0

    def __init__(self, tolerance: float = 1e-9):
        self.tolerance = tolerance

    def add(self, a: float, b: float) -> float:
        return a + b

    def mul(self, a: float, b: float) -> float:
        return a * b

    def neg(self, a: float) -> float:
        return -a

    def scale(self, n: int, a: float) -> float:
        return n * a if n > 0 else 0.0

    def eq(self, a: float, b: float) -> bool:
        return abs(a - b) <= self.tolerance * max(1.0, abs(a), abs(b))

    def coerce(self, value: Any) -> float:
        if isinstance(value, bool):
            return 1.0 if value else 0.0
        return float(value)


class ModularRing(Semiring):
    """``Z_m`` — a ring that is also finite: exercises both fast-update paths."""

    name = "Z_m"
    is_ring = True
    is_finite = True

    def __init__(self, modulus: int):
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        self.modulus = modulus
        self.name = f"Z_{modulus}"
        self.zero = 0
        self.one = 1 % modulus

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.modulus

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.modulus

    def neg(self, a: int) -> int:
        return (-a) % self.modulus

    def scale(self, n: int, a: int) -> int:
        return (n * a) % self.modulus if n > 0 else 0

    def elements(self) -> Sequence[int]:
        return range(self.modulus)
