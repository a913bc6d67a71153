"""Bi-directional constant-delay cursors (paper §5, "Iterators").

A cursor ranges cyclically over a nonempty sequence of *monomials* (tuples
of generator identifiers).  ``advance``/``retreat`` move by one position
and report wrap-around — the paper's ``next``/``previous`` modulo length.
Compound cursors (products here; concatenations and permanents in
:mod:`repro.enumeration.context`) compose child cursors with O(1) extra
work per step, which is what makes the overall enumerator
constant-delay for bounded-depth circuits.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import abc
from itertools import accumulate, chain, repeat
from typing import (Dict, Hashable, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

Monomial = Tuple[Hashable, ...]


class Multiplicity(abc.Sequence):
    """``size`` copies of one monomial — by default the empty monomial
    ``()``, the monomial list of an integer weight or constant — in
    constant space.  Read-only, so a context keeps it as it keeps any
    value list, and a cursor or walk over it indexes or repeats instead
    of holding ``size`` entries."""

    __slots__ = ("size", "monomial")

    def __init__(self, size: int, monomial: Monomial = ()):
        self.size = max(0, int(size))
        self.monomial = monomial

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, index: int) -> Monomial:
        if index < 0:
            index += self.size
        if not 0 <= index < self.size:
            raise IndexError("multiplicity index out of range")
        return self.monomial

    def __iter__(self) -> Iterator[Monomial]:
        return repeat(self.monomial, self.size)

    def __repr__(self) -> str:
        return f"Multiplicity({self.size}, {self.monomial!r})"


class RunLength(abc.Sequence):
    """A monomial sequence stored as its runs, one :class:`Multiplicity`
    per distinct monomial, in O(runs) space: the monomial list of a
    free-semiring weight whose coefficients may be huge.  Read-only like
    :class:`Multiplicity`; an index is one bisection over the runs'
    ends."""

    __slots__ = ("runs", "ends")

    def __init__(self, runs: Iterable[Multiplicity]):
        self.runs = tuple(run for run in runs if run.size)
        self.ends = tuple(accumulate(run.size for run in self.runs))

    def __len__(self) -> int:
        return self.ends[-1] if self.ends else 0

    def __getitem__(self, index: int) -> Monomial:
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("run-length index out of range")
        return self.runs[bisect_right(self.ends, index)].monomial

    def __iter__(self) -> Iterator[Monomial]:
        return chain.from_iterable(self.runs)

    def __repr__(self) -> str:
        return f"RunLength({list(self.runs)!r})"


class Cursor:
    """Cyclic bi-directional cursor over a nonempty monomial sequence."""

    def current(self) -> Monomial:
        raise NotImplementedError

    def advance(self) -> bool:
        """Move forward; True when wrapping from the last to the first."""
        raise NotImplementedError

    def retreat(self) -> bool:
        """Move backward; True when wrapping from the first to the last."""
        raise NotImplementedError

    def seek_last(self) -> None:
        """Position on the last element (fresh cursors start at the first)."""
        self.retreat()

    def iterate(self, limit: Optional[int] = None) -> Iterable[Monomial]:
        """One full cycle of monomials (test/demo helper)."""
        count = 0
        while True:
            yield self.current()
            count += 1
            if limit is not None and count >= limit:
                return
            if self.advance():
                return


class ListCursor(Cursor):
    """Cursor over an explicit list (input gates, constants) or a
    :class:`Multiplicity`.  The sequence is shared, not copied: its
    owner replaces it rather than mutating it
    (:meth:`~repro.enumeration.EnumerationContext.set_input`)."""

    def __init__(self, items: Sequence[Monomial]):
        if not items:
            raise ValueError("cursor over an empty list")
        self.items = items
        self.index = 0

    def current(self) -> Monomial:
        return self.items[self.index]

    def advance(self) -> bool:
        self.index += 1
        if self.index == len(self.items):
            self.index = 0
            return True
        return False

    def retreat(self) -> bool:
        self.index -= 1
        if self.index < 0:
            self.index = len(self.items) - 1
            return True
        return False


class ProductCursor(Cursor):
    """Lexicographic product: the monomial is the concatenation of the
    children's monomials; the rightmost child moves fastest."""

    def __init__(self, children: Sequence[Cursor]):
        if not children:
            raise ValueError("product of zero cursors")
        self.children = list(children)

    def current(self) -> Monomial:
        out: Tuple[Hashable, ...] = ()
        for child in self.children:
            out = out + child.current()
        return out

    def advance(self) -> bool:
        for child in reversed(self.children):
            if not child.advance():
                return False
        return True

    def retreat(self) -> bool:
        for child in reversed(self.children):
            if not child.retreat():
                return False
        return True


class LinkedSet:
    """Insertion-ordered set with O(1) add/remove/first/next/prev.

    The per-type column lists of Lemma 39: doubly linked via dictionaries.
    """

    _HEAD = object()

    def __init__(self):
        self.next: Dict = {self._HEAD: self._HEAD}
        self.prev: Dict = {self._HEAD: self._HEAD}

    def __len__(self) -> int:
        return len(self.next) - 1

    def __contains__(self, item) -> bool:
        return item in self.next

    def add(self, item) -> None:
        if item in self.next:
            return
        tail = self.prev[self._HEAD]
        self.next[tail] = item
        self.prev[item] = tail
        self.next[item] = self._HEAD
        self.prev[self._HEAD] = item

    def remove(self, item) -> None:
        if item not in self.next:
            return
        before, after = self.prev[item], self.next[item]
        self.next[before] = after
        self.prev[after] = before
        del self.next[item]
        del self.prev[item]

    def first(self):
        item = self.next[self._HEAD]
        return None if item is self._HEAD else item

    def last(self):
        item = self.prev[self._HEAD]
        return None if item is self._HEAD else item

    def after(self, item):
        nxt = self.next[item]
        return None if nxt is self._HEAD else nxt

    def before(self, item):
        prv = self.prev[item]
        return None if prv is self._HEAD else prv

    def items(self) -> List:
        out = []
        item = self.first()
        while item is not None:
            out.append(item)
            item = self.after(item)
        return out
