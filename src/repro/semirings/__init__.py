"""Commutative semirings.

The framework evaluates the same compiled circuit in many semirings; this
package provides the carriers the paper uses plus validation helpers.
"""

from .base import (Homomorphism, Semiring, check_semiring_axioms,
                   ensure_mergeable)
from .boolean import BooleanSemiring, SetAlgebra
from .finite import (LassoArithmetic, ScalarMultiplier, TableSemiring,
                     saturating_counter_semiring)
from .numeric import (FloatField, IntegerRing, ModularRing, NaturalSemiring,
                      RationalField)
from .product import ProductSemiring
from .provenance import FreeSemiring, Poly
from .tropical import INF, BoundedMinMax, MaxPlus, MinMax, MinPlus

#: Shared default instances (all semirings here are stateless).
BOOLEAN = BooleanSemiring()
NATURAL = NaturalSemiring()
INTEGER = IntegerRing()
RATIONAL = RationalField()
FLOAT = FloatField()
MIN_PLUS = MinPlus()
MAX_PLUS = MaxPlus()
MIN_MAX = MinMax()

__all__ = [
    "Semiring", "Homomorphism", "check_semiring_axioms", "ensure_mergeable",
    "BooleanSemiring", "SetAlgebra",
    "TableSemiring", "saturating_counter_semiring",
    "ScalarMultiplier", "LassoArithmetic",
    "NaturalSemiring", "IntegerRing", "RationalField", "FloatField",
    "ModularRing", "ProductSemiring", "FreeSemiring", "Poly",
    "MinPlus", "MaxPlus", "MinMax", "BoundedMinMax", "INF",
    "BOOLEAN", "NATURAL", "INTEGER", "RATIONAL", "FLOAT",
    "MIN_PLUS", "MAX_PLUS", "MIN_MAX",
]
