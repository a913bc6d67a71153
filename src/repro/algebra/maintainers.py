"""Dynamic permanent and sum maintenance: the algebraic heart of Theorem 8.

Four interchangeable strategies maintain ``perm(M)`` of a ``k x n`` matrix
under single-entry updates:

* :class:`RecomputeMaintainer` — O(n) per update; the baseline.
* :class:`SegmentTreeMaintainer` — any semiring, O(3^k log n) per update.
  This is the constructive content of Lemmas 10–11: a balanced tree over the
  columns where each node stores the permanent of every row subset against
  its column segment; updates touch one root-to-leaf path, so the induced
  circuit has logarithmic reach-out (Corollary 13).
* :class:`RingMaintainer` — rings, O(2^k) = O_k(1) per update via the
  partition-lattice inclusion–exclusion of Lemma 15.
* :class:`FiniteMaintainer` — finite semirings, O_k,S(1) per update via
  column-type counting and lasso arithmetic (Lemma 18 + Lemma 38).

:func:`make_maintainer` picks the fastest strategy a semiring supports,
mirroring the case split in Theorem 8.

A wide addition gate is the one-row case (``perm`` of a ``1 x n`` matrix
is the sum of its entries) and gets the same split without the row-subset
machinery: :class:`RingSum` (subtract old, add new — O(1)) and
:class:`TreeSum` (a balanced tree of partial sums — O(log n), any
semiring), chosen by :func:`make_sum_maintainer`.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..semirings import LassoArithmetic, Semiring
from .permanent import Matrix, matrix_dimensions, permanent


class PermanentMaintainer:
    """Interface: maintain ``perm`` of a fixed-shape matrix under updates."""

    #: Strategy label used in benchmark tables.
    strategy = "abstract"

    def value(self) -> Any:
        raise NotImplementedError

    def update(self, row: int, col: int, entry: Any) -> None:
        raise NotImplementedError

    def get(self, row: int, col: int) -> Any:
        raise NotImplementedError

    def update_column(self, col: int, entries: Sequence[Any]) -> None:
        for row, entry in enumerate(entries):
            self.update(row, col, entry)


class RecomputeMaintainer(PermanentMaintainer):
    """Baseline: store the matrix, recompute the permanent on demand."""

    strategy = "recompute"

    def __init__(self, matrix: Matrix, sr: Semiring):
        self.sr = sr
        self.matrix = [list(row) for row in matrix]
        matrix_dimensions(self.matrix)
        self._cached: Optional[Any] = None

    def value(self) -> Any:
        if self._cached is None:
            self._cached = permanent(self.matrix, self.sr)
        return self._cached

    def update(self, row: int, col: int, entry: Any) -> None:
        self.matrix[row][col] = entry
        self._cached = None

    def get(self, row: int, col: int) -> Any:
        return self.matrix[row][col]


class SegmentTreeMaintainer(PermanentMaintainer):
    """General-semiring maintainer with logarithmic updates (Lemma 11).

    A perfect binary tree over column positions; every node stores, for each
    subset ``S`` of rows, ``perm`` of the submatrix ``S x (node's columns)``.
    Merging two children is a subset convolution:
    ``out[S] = sum over A subset of S of left[A] * right[S \\ A]``.
    """

    strategy = "segment-tree"

    def __init__(self, matrix: Matrix, sr: Semiring):
        self.sr = sr
        self.k, self.n = matrix_dimensions(matrix)
        self.full = (1 << self.k) - 1
        self.matrix = [list(row) for row in matrix]
        size = 1
        while size < max(self.n, 1):
            size *= 2
        self.size = size
        # tree[i] is the subset-permanent vector of node i (1-based heap).
        identity = [sr.one] + [sr.zero] * self.full
        self.tree: List[List[Any]] = [list(identity) for _ in range(2 * size)]
        for col in range(self.n):
            self.tree[size + col] = self._leaf_vector(col)
        for node in range(size - 1, 0, -1):
            self.tree[node] = self._merge(self.tree[2 * node],
                                          self.tree[2 * node + 1])

    def _leaf_vector(self, col: int) -> List[Any]:
        sr = self.sr
        vec = [sr.zero] * (self.full + 1)
        vec[0] = sr.one
        for row in range(self.k):
            vec[1 << row] = self.matrix[row][col]
        return vec

    def _merge(self, left: List[Any], right: List[Any]) -> List[Any]:
        sr = self.sr
        add, mul = sr.add, sr.mul
        out = [sr.zero] * (self.full + 1)
        out[0] = mul(left[0], right[0])
        for mask in range(1, self.full + 1):
            acc = mul(left[mask], right[0])
            sub = (mask - 1) & mask
            while True:
                acc = add(acc, mul(left[sub], right[mask ^ sub]))
                if sub == 0:
                    break
                sub = (sub - 1) & mask
            out[mask] = acc
        return out

    def value(self) -> Any:
        return self.tree[1][self.full]

    def update(self, row: int, col: int, entry: Any) -> None:
        self.matrix[row][col] = entry
        node = self.size + col
        self.tree[node] = self._leaf_vector(col)
        node //= 2
        while node >= 1:
            self.tree[node] = self._merge(self.tree[2 * node],
                                          self.tree[2 * node + 1])
            node //= 2

    def get(self, row: int, col: int) -> Any:
        return self.matrix[row][col]


def partitions_of(items: Tuple[int, ...]):
    """Yield all set partitions of ``items`` (tuples of tuples)."""
    if not items:
        yield ()
        return
    head, rest = items[0], items[1:]
    for partition in partitions_of(rest):
        yield ((head,),) + partition
        for index, block in enumerate(partition):
            yield partition[:index] + ((head,) + block,) + partition[index + 1:]


class RingMaintainer(PermanentMaintainer):
    """Ring maintainer with constant-time updates (Lemma 15).

    Maintains ``S_B = sum over columns c of prod_{i in B} M[i, c]`` for every
    nonempty row subset ``B``; the permanent is the inclusion–exclusion sum
    over set partitions ``P`` of the rows:
    ``perm = sum_P (prod_B (-1)^(|B|-1) (|B|-1)!) * prod_B S_B``.
    """

    strategy = "ring"

    def __init__(self, matrix: Matrix, sr: Semiring):
        if not sr.is_ring:
            raise TypeError(f"{sr.name} is not a ring")
        self.sr = sr
        self.k, self.n = matrix_dimensions(matrix)
        self.matrix = [list(row) for row in matrix]
        self.full = (1 << self.k) - 1
        # Precompute the partition lattice with Moebius coefficients.
        self.partitions: List[Tuple[int, List[int]]] = []
        for partition in partitions_of(tuple(range(self.k))):
            coeff = 1
            masks = []
            for block in partition:
                coeff *= (-1) ** (len(block) - 1) * math.factorial(len(block) - 1)
                masks.append(sum(1 << i for i in block))
            self.partitions.append((coeff, masks))
        self.block_sums: Dict[int, Any] = {}
        for mask in range(1, self.full + 1):
            self.block_sums[mask] = sr.sum(
                self._column_block(mask, col) for col in range(self.n))

    def _column_block(self, mask: int, col: int) -> Any:
        return self.sr.prod(self.matrix[row][col]
                            for row in range(self.k) if mask & (1 << row))

    def value(self) -> Any:
        sr = self.sr
        total = sr.zero
        for coeff, masks in self.partitions:
            term = sr.prod(self.block_sums[mask] for mask in masks)
            if coeff >= 0:
                total = sr.add(total, sr.scale(coeff, term))
            else:
                total = sr.add(total, sr.neg(sr.scale(-coeff, term)))
        return total

    def update(self, row: int, col: int, entry: Any) -> None:
        sr = self.sr
        bit = 1 << row
        for mask in range(1, self.full + 1):
            if mask & bit:
                old = self._column_block(mask, col)
                self.block_sums[mask] = sr.sub(self.block_sums[mask], old)
        self.matrix[row][col] = entry
        for mask in range(1, self.full + 1):
            if mask & bit:
                new = self._column_block(mask, col)
                self.block_sums[mask] = sr.add(self.block_sums[mask], new)

    def get(self, row: int, col: int) -> Any:
        return self.matrix[row][col]


def falling_factorial(m: int, c: int) -> int:
    """``m * (m-1) * ... * (m-c+1)`` (1 when ``c == 0``)."""
    result = 1
    for offset in range(c):
        result *= m - offset
        if result == 0:
            return 0
    return result


class FiniteMaintainer(PermanentMaintainer):
    """Finite-semiring maintainer with constant-time updates (Lemma 18).

    The permanent only depends on how many times each vector ``c in S^k``
    occurs as a column.  Counts are maintained in O(1); the value is
    recomputed from counts by a DP over the (constantly many) present column
    types, scaling with falling factorials via lasso arithmetic.
    """

    strategy = "finite"

    def __init__(self, matrix: Matrix, sr: Semiring):
        if not sr.is_finite:
            raise TypeError(f"{sr.name} is not finite")
        self.sr = sr
        self.k, self.n = matrix_dimensions(matrix)
        self.matrix = [list(row) for row in matrix]
        self.full = (1 << self.k) - 1
        self.lasso = LassoArithmetic(sr)
        self.counts: Dict[Tuple[Any, ...], int] = {}
        for col in range(self.n):
            kind = self._column_type(col)
            self.counts[kind] = self.counts.get(kind, 0) + 1
        self._cached: Optional[Any] = None

    def _column_type(self, col: int) -> Tuple[Any, ...]:
        return tuple(self.matrix[row][col] for row in range(self.k))

    def value(self) -> Any:
        if self._cached is not None:
            return self._cached
        sr = self.sr
        # dp[rows_mask] = sum over assignments of `rows_mask` into the types
        # processed so far, weighted by falling-factorial choice counts.
        dp: List[Any] = [sr.zero] * (self.full + 1)
        dp[0] = sr.one
        for kind, count in self.counts.items():
            if count <= 0:
                continue
            new_dp = list(dp)
            for mask in range(1, self.full + 1):
                # Assign the nonempty row set `sub` to this column type.
                sub = mask
                while sub:
                    size = bin(sub).count("1")
                    if size <= count:
                        base = dp[mask ^ sub]
                        if not sr.is_zero(base):
                            prod = sr.prod(kind[row] for row in range(self.k)
                                           if sub & (1 << row))
                            weight = self.lasso.scale(
                                falling_factorial(count, size),
                                sr.mul(base, prod))
                            new_dp[mask] = sr.add(new_dp[mask], weight)
                    sub = (sub - 1) & mask
            dp = new_dp
        self._cached = dp[self.full]
        return self._cached

    def update(self, row: int, col: int, entry: Any) -> None:
        old_kind = self._column_type(col)
        self.counts[old_kind] -= 1
        if self.counts[old_kind] == 0:
            del self.counts[old_kind]
        self.matrix[row][col] = entry
        new_kind = self._column_type(col)
        self.counts[new_kind] = self.counts.get(new_kind, 0) + 1
        self._cached = None

    def get(self, row: int, col: int) -> Any:
        return self.matrix[row][col]


class RingSum:
    """Sum of a fixed-length sequence under point updates, O(1) in rings:
    ``total - old + new``.  Only sound when the ring's arithmetic is
    exact; in floats a large summand absorbs the rest of the total and
    subtracting it back leaves the rounding error behind for good."""

    def __init__(self, items: Sequence[Any], sr: Semiring):
        if not sr.is_ring:
            raise TypeError(f"{sr.name} is not a ring")
        self.sr = sr
        self.items = list(items)
        self.total = sr.sum(self.items)

    def value(self) -> Any:
        return self.total

    def update(self, index: int, item: Any) -> None:
        sr = self.sr
        self.total = sr.add(sr.sub(self.total, self.items[index]), item)
        self.items[index] = item


class TreeSum:
    """Sum of a fixed-length sequence under point updates, any semiring.

    The one-row :class:`SegmentTreeMaintainer`: a perfect binary tree of
    partial sums in a flat heap-ordered list (leaves at ``size + i``,
    padded with zero).  An update re-adds one root-to-leaf path —
    O(log n) additions and no inverses, so nothing ever cancels: the
    root is always a fresh sum of the current leaves, in a fixed
    bracketing."""

    def __init__(self, items: Sequence[Any], sr: Semiring):
        self.add = add = sr.add
        size = 1
        while size < len(items):
            size *= 2
        self.size = size
        tree = [sr.zero] * (2 * size)
        tree[size:size + len(items)] = items
        for node in range(size - 1, 0, -1):
            tree[node] = add(tree[2 * node], tree[2 * node + 1])
        self.tree = tree

    def value(self) -> Any:
        return self.tree[1]

    def update(self, index: int, item: Any) -> None:
        tree, add = self.tree, self.add
        node = self.size + index
        tree[node] = item
        node >>= 1
        while node:
            tree[node] = add(tree[2 * node], tree[2 * node + 1])
            node >>= 1


def make_sum_maintainer(items: Sequence[Any], sr: Semiring,
                        strategy: Optional[str] = None) -> Any:
    """The Theorem 8 case split for a flat sum, under the same
    ``strategy`` names as :func:`make_maintainer`: a ring gets
    :class:`RingSum` when asked for (``"ring"``) or, automatically, when
    its arithmetic is exact; everything else is :class:`TreeSum` (the
    finite case needs no counters of its own: the tree is already
    inverse-free and its depth is logarithmic)."""
    if sr.is_ring and (strategy == "ring"
                       or (strategy is None and sr.is_exact)):
        return RingSum(items, sr)
    return TreeSum(items, sr)


#: Registry used by benchmarks to iterate over strategies.
STRATEGIES = {
    cls.strategy: cls
    for cls in (RecomputeMaintainer, SegmentTreeMaintainer,
                RingMaintainer, FiniteMaintainer)
}


def make_maintainer(matrix: Matrix, sr: Semiring,
                    strategy: Optional[str] = None) -> PermanentMaintainer:
    """Pick the fastest applicable maintainer (the Theorem 8 case split).

    Rings get constant-time updates via Lemma 15; finite semirings via
    Lemma 18; everything else falls back to the logarithmic segment tree
    of Lemma 11 (optimal by Proposition 14).
    """
    if strategy is not None:
        return STRATEGIES[strategy](matrix, sr)
    if sr.is_ring:
        return RingMaintainer(matrix, sr)
    if sr.is_finite:
        return FiniteMaintainer(matrix, sr)
    return SegmentTreeMaintainer(matrix, sr)
