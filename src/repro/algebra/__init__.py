"""Permanent algebra (system S2): static evaluation + dynamic maintenance."""

from .maintainers import (STRATEGIES, FiniteMaintainer, PermanentMaintainer,
                          RecomputeMaintainer, RingMaintainer, RingSum,
                          SegmentTreeMaintainer, TreeSum, falling_factorial,
                          make_maintainer, make_sum_maintainer, partitions_of)
from .permanent import (matrix_dimensions, perm_prime, permanent,
                        permanent_naive, permanent_via_perm_prime)

__all__ = [
    "permanent", "permanent_naive", "perm_prime", "permanent_via_perm_prime",
    "matrix_dimensions", "PermanentMaintainer", "RecomputeMaintainer",
    "SegmentTreeMaintainer", "RingMaintainer", "FiniteMaintainer",
    "make_maintainer", "falling_factorial", "partitions_of", "STRATEGIES",
    "RingSum", "TreeSum", "make_sum_maintainer",
]
