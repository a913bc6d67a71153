"""Provenance & enumeration (systems S9, S10): Theorems 22 and 24."""

from .answers import AnswerCursor, AnswerEnumerator, ProvenanceEnumerator
from .context import (EnumerationContext, PermCursor, PermSupport,
                      StaleEnumeration)
from .iterators import (Cursor, LinkedSet, ListCursor, Monomial,
                        Multiplicity, ProductCursor, RunLength)

__all__ = [
    "Cursor", "ListCursor", "ProductCursor", "LinkedSet", "Monomial",
    "Multiplicity", "RunLength", "EnumerationContext", "PermSupport",
    "PermCursor", "AnswerEnumerator", "AnswerCursor", "ProvenanceEnumerator",
    "StaleEnumeration",
]
