"""Enumeration of circuit values in the free semiring (Theorem 22).

An :class:`EnumerationContext` interprets a compiled circuit over the free
semiring F_A, representing every gate's value *lazily* by constant-delay
bi-directional cursors:

* the boolean *support* of every gate (the homomorphism ``F_A -> B`` of
  Lemma 23) is maintained explicitly, with counters on addition and
  multiplication gates and the Lemma 39 column-type structure on permanent
  gates, so one input update costs O(affected gates) (the maintained
  evaluators' walk, :func:`~repro.circuits.schedule.propagate`);
* cursors compose: products are lexicographic, additions walk the linked
  set of supported children, and permanent gates run the recursive
  expansion ``perm(M) = Σ_c M[r,c] · perm(M^{rc})`` with Hall-condition
  matchability tests over column types — constant work per step for a
  bounded number of rows;
* a product reads its factors *spliced*: a product child's own factors
  take its place (a nested lexicographic product, rightmost factor
  fastest, is the flat one), so a product of leaves is one product
  whatever its nesting;
* forward iteration (:meth:`EnumerationContext.walk`) yields the
  cursors' forward order from a generator walk over the same
  structures: an answer is one generator step, not a rebuilt cursor
  subtree, and a product whose spliced factors are all one-monomial
  leaves yields that monomial with no odometer.
"""

from __future__ import annotations

from typing import (Callable, Dict, Hashable, Iterator, List, Optional,
                    Sequence, Tuple)

from ..circuits import (AddGate, ConstGate, GateId, InputGate, LayerSchedule,
                        MulGate, PermGate)
from ..circuits.schedule import propagate
from .iterators import (Cursor, LinkedSet, ListCursor, Monomial,
                        Multiplicity, ProductCursor)


class PermSupport:
    """Lemma 39's structure for one permanent gate.

    ``col_mask[c]`` is the bitmask of rows whose entry in column ``c`` is
    present and currently supported; columns are bucketed into linked lists
    by mask, with counts, so matchability (Hall's condition over at most
    ``2^k`` types) and candidate iteration are O_k(1).
    """

    def __init__(self, gate: PermGate, supported: Callable[[GateId], bool]):
        self.gate = gate
        self.k = gate.rows
        self.full = (1 << self.k) - 1
        self.col_mask: List[int] = []
        self.lists: Dict[int, LinkedSet] = {}
        self.counts: Dict[int, int] = {}
        for col in range(gate.cols):
            mask = 0
            for row in range(self.k):
                entry = gate.entries[row][col]
                if entry is not None and supported(entry):
                    mask |= 1 << row
            self.col_mask.append(mask)
            self._insert(col, mask)

    def _insert(self, col: int, mask: int) -> None:
        bucket = self.lists.get(mask)
        if bucket is None:
            bucket = self.lists[mask] = LinkedSet()
        bucket.add(col)
        self.counts[mask] = self.counts.get(mask, 0) + 1

    def _discard(self, col: int, mask: int) -> None:
        self.lists[mask].remove(col)
        self.counts[mask] -= 1

    def set_entry_support(self, row: int, col: int, supported: bool) -> None:
        old = self.col_mask[col]
        new = (old | (1 << row)) if supported else (old & ~(1 << row))
        if new == old:
            return
        self._discard(col, old)
        self.col_mask[col] = new
        self._insert(col, new)

    def available(self, mask: int, excluded: Sequence[int]) -> int:
        """Columns of exactly this type, minus specific exclusions."""
        count = self.counts.get(mask, 0)
        for exc in excluded:
            if exc == mask:
                count -= 1
        return count

    def matchable(self, rows_mask: int, excluded_masks: Sequence[int] = ()
                  ) -> bool:
        """Hall's condition: can the rows in ``rows_mask`` be matched to
        distinct supported columns, with ``excluded_masks`` removed?"""
        if rows_mask == 0:
            return True
        # Iterate subsets S of rows_mask; need |N(S)| >= |S|.
        subset = rows_mask
        while True:
            hitting = 0
            for mask, count in self.counts.items():
                if mask & subset:
                    hitting += count
            for exc in excluded_masks:
                if exc & subset:
                    hitting -= 1
            if hitting < bin(subset).count("1"):
                return False
            if subset == 0:
                return True
            subset = (subset - 1) & rows_mask
            if subset == 0:
                return True


class EnumerationContext:
    """Lazy free-semiring evaluation of a circuit with dynamic supports.

    ``schedule`` is the circuit's layer schedule (its live gates and
    parent table).  ``base`` maps input keys to sequences of monomials
    (the bi-directional iterators of the input weights), kept as given:
    callers replace a sequence they handed over, never mutate it.
    Updates via :meth:`set_input` bump
    :attr:`version`; an iteration opened before (:meth:`walk`) raises
    :class:`StaleEnumeration` on its next step (the paper's phases:
    updates and enumeration interleave, but each enumeration round starts
    after its update round).  Bare :meth:`cursor` objects are not
    checked: they are the building blocks, read at a fixed version.
    """

    def __init__(self, schedule: LayerSchedule,
                 base: Dict[Hashable, Sequence[Monomial]]):
        self.schedule = schedule
        self.circuit = circuit = schedule.circuit
        self.values: Dict[GateId, Sequence[Monomial]] = {}
        self.support: Dict[GateId, bool] = {}
        self.perm: Dict[GateId, PermSupport] = {}
        #: supported (position, child) pairs per addition gate
        self.add_children: Dict[GateId, LinkedSet] = {}
        self.mul_bad: Dict[GateId, int] = {}
        #: spliced factors of each product that has a product child
        #: (any other product's factors are its children)
        self.spliced: Dict[GateId, Tuple[GateId, ...]] = {}
        self.version = 0
        for gate_id in schedule.layer_of:
            gate = circuit.gates[gate_id]
            if isinstance(gate, InputGate):
                self.values[gate_id] = base.get(gate.key, ())
            elif isinstance(gate, ConstGate):
                self.values[gate_id] = Multiplicity(
                    gate.value if isinstance(gate.value, int)
                    else (1 if gate.value else 0))
            elif isinstance(gate, AddGate):
                bucket = self.add_children[gate_id] = LinkedSet()
                for position, child in enumerate(gate.children):
                    if self.support[child]:
                        bucket.add((position, child))
            elif isinstance(gate, MulGate):
                self.mul_bad[gate_id] = sum(
                    not self.support[child] for child in gate.children)
                if not self.mul_bad.keys().isdisjoint(gate.children):
                    flat: List[GateId] = []
                    for child in gate.children:
                        if child in self.mul_bad:
                            flat += self._factors(child)
                        else:
                            flat.append(child)
                    self.spliced[gate_id] = tuple(flat)
            elif isinstance(gate, PermGate):
                self.perm[gate_id] = PermSupport(gate,
                                                 self.support.__getitem__)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown gate {gate!r}")
            self.support[gate_id] = self._supported(gate_id)

    # -- dynamic maintenance ------------------------------------------------------

    def set_input(self, key: Hashable, monomials: Sequence[Monomial]) -> int:
        """Replace an input's monomial sequence (kept, not copied);
        maintains supports upward."""
        gate_id = self.circuit.inputs.get(key)
        if gate_id is None or gate_id not in self.schedule.layer_of:
            return 0
        self.version += 1
        self.values[gate_id] = monomials
        new_support = bool(monomials)
        if new_support == self.support[gate_id]:
            return 1
        self.support[gate_id] = new_support
        return propagate(self.schedule, gate_id, self._notify, self._settle)

    def _notify(self, parent: GateId, slot: int, child: GateId) -> None:
        """Fold ``child``'s flipped support into ``parent``'s structure."""
        supported = self.support[child]
        linked = self.add_children.get(parent)
        if linked is not None:
            if supported:
                linked.add((slot, child))
            else:
                linked.remove((slot, child))
        elif parent in self.mul_bad:
            self.mul_bad[parent] += -1 if supported else 1
        else:
            ps = self.perm[parent]
            ps.set_entry_support(*divmod(slot, ps.gate.cols), supported)

    def _supported(self, gate_id: GateId) -> bool:
        """Whether the gate is nonzero, read off its own structure."""
        linked = self.add_children.get(gate_id)
        if linked is not None:
            return len(linked) > 0
        if gate_id in self.mul_bad:
            return self.mul_bad[gate_id] == 0
        ps = self.perm.get(gate_id)
        if ps is not None:
            return ps.matchable(ps.full)
        return bool(self.values[gate_id])

    def _settle(self, gate_id: GateId) -> bool:
        new = self._supported(gate_id)
        if new == self.support[gate_id]:
            return False
        self.support[gate_id] = new
        return True

    # -- cursors ---------------------------------------------------------------

    def supported(self) -> bool:
        return self.support[self.circuit.output]

    def cursor(self, gate_id: Optional[GateId] = None) -> Cursor:
        """A fresh bi-directional cursor over the gate's monomials (gate
        must be supported); default: the output gate."""
        if gate_id is None:
            gate_id = self.circuit.output
        if not self.support[gate_id]:
            raise ValueError("cannot enumerate an unsupported (zero) gate")
        return self._cursor(gate_id)

    def _factors(self, gate_id: GateId) -> Tuple[GateId, ...]:
        """A product's spliced factors: no factor is a product."""
        return self.spliced.get(gate_id) or \
            self.circuit.gates[gate_id].children

    def _cursor(self, gate_id: GateId) -> Cursor:
        """:meth:`cursor` of a gate known to be supported.  Same kind
        lookup as :meth:`_walk`: the maps built above tell the gates
        apart (``values`` inputs and constants, ``add_children``
        additions, ``perm`` permanents, anything else a product, read
        through its spliced factors)."""
        values = self.values.get(gate_id)
        if values is not None:
            return ListCursor(values)
        if gate_id in self.add_children:
            return ConcatCursorLinked(self, gate_id)
        if gate_id in self.perm:
            return PermCursor(self, gate_id)
        return ProductCursor([self._cursor(factor) for factor
                              in self._factors(gate_id)])

    # -- forward iteration -------------------------------------------------------

    def walk(self, gate_id: Optional[GateId] = None) -> Iterator[Monomial]:
        """One forward cycle of the gate's monomials (default: the output
        gate), in exactly the order a fresh :meth:`cursor` visits them
        with ``advance``; nothing when the gate is unsupported.

        Each step is constant work for bounded depth and product
        fan-in: an addition walks its linked set of supported children,
        an input or constant its value sequence in place, and a
        permanent steps its :class:`PermCursor`.  A product reads its
        spliced factors: when each is a leaf (input or constant) of one
        monomial, it yields their concatenation and is done; otherwise
        it is a flat odometer over the factors' walks (only the factors
        right of the one that moved are reopened).  The walk reads the
        supports as they stand: after any :meth:`set_input` the next
        step raises :class:`StaleEnumeration`."""
        if gate_id is None:
            gate_id = self.circuit.output
        if not self.support[gate_id]:
            return
        version = self.version
        for monomial in self._walk(gate_id):
            yield monomial
            if self.version != version:
                raise StaleEnumeration("iteration")

    def _walk(self, gate_id: GateId) -> Iterator[Monomial]:
        """Forward iterator over a supported gate's monomials: opens one
        subtree (see :meth:`walk`)."""
        values = self.values
        leaf = values.get(gate_id)
        if leaf is not None:
            return iter(leaf)
        linked = self.add_children.get(gate_id)
        if linked is not None:
            return self._walk_sum(linked)
        if gate_id in self.perm:
            return self._walk_perm(gate_id)
        factors = self._factors(gate_id)
        monomial = ()
        for factor in factors:
            leaf = values.get(factor)
            if leaf is None or len(leaf) != 1:
                # The check stopped at this factor's first occurrence.
                return self._walk_product(
                    monomial, factors[factors.index(factor):])
            monomial += leaf[0]
        return iter((monomial,))

    def _walk_sum(self, linked: LinkedSet) -> Iterator[Monomial]:
        walk, after = self._walk, linked.after
        item = linked.first()
        while item is not None:
            yield from walk(item[1])
            item = after(item)

    def _walk_product(self, prefix: Monomial, factors: Sequence[GateId]
                      ) -> Iterator[Monomial]:
        """Lexicographic, rightmost factor fastest: a flat odometer over
        ``factors``, each monomial led by the fixed ``prefix`` (the
        one-monomial leaves :meth:`_walk` read before them), so a wide
        product nests no generators.  A leaf factor is opened by
        reading its sequence, anything else by its walk.  ``sum``
        concatenates in time quadratic in the fan-in (a constant of the
        query, as in :meth:`ProductCursor.current`) and is the fastest
        join for the two to four factors compiled products have."""
        values, walk = self.values, self._walk

        def open_factor(factor: GateId) -> Iterator[Monomial]:
            leaf = values.get(factor)
            return walk(factor) if leaf is None else iter(leaf)

        walks = [open_factor(factor) for factor in factors]
        digits = [next(factor) for factor in walks]
        last = len(walks) - 1
        while True:
            yield sum(digits, prefix)
            position = last
            digit = next(walks[position], _END)
            while digit is _END:
                position -= 1
                if position < 0:
                    return
                digit = next(walks[position], _END)
            digits[position] = digit
            for reset in range(position + 1, last + 1):
                factor = walks[reset] = open_factor(factors[reset])
                digits[reset] = next(factor)

    def _walk_perm(self, gate_id: GateId) -> Iterator[Monomial]:
        cursor = PermCursor(self, gate_id)
        while True:
            yield cursor.current()
            if cursor.advance():
                return


_END = object()


class StaleEnumeration(RuntimeError):
    """An open iteration or answer cursor was stepped after its
    enumeration context was updated (a routed ``db.update()`` write) or
    retired (its handle invalidated or closed): the supports it was
    walking have changed."""

    def __init__(self, opened: str):
        super().__init__(f"the enumeration context was updated after this "
                         f"{opened} was opened; open a new one")


class ConcatCursorLinked(Cursor):
    """Concatenation of an addition gate's nonempty children, read from
    the LinkedSet of its (position, child) pairs."""

    def __init__(self, ctx: EnumerationContext, gate_id: GateId):
        self.ctx = ctx
        self.linked = ctx.add_children[gate_id]
        self.item = self.linked.first()
        self.child = ctx._cursor(self.item[1])

    def current(self) -> Monomial:
        return self.child.current()

    def advance(self) -> bool:
        if not self.child.advance():
            return False
        nxt = self.linked.after(self.item)
        wrapped = nxt is None
        self.item = self.linked.first() if wrapped else nxt
        self.child = self.ctx._cursor(self.item[1])
        return wrapped

    def retreat(self) -> bool:
        wrapped = False
        if self.child.retreat():
            prv = self.linked.before(self.item)
            wrapped = prv is None
            self.item = self.linked.last() if wrapped else prv
            self.child = self.ctx._cursor(self.item[1])
            self.child.seek_last()
        return wrapped


class PermCursor(Cursor):
    """Lemma 23: bi-directional enumeration of a permanent gate's value.

    Levels follow the fixed row order; each level holds a chosen column
    (valid: entry supported, unused, remainder matchable) and a cursor into
    the entry's own monomials.  Steps are O_k(1): candidate columns come
    from the per-type linked lists, skipping at most ``k`` used columns.
    """

    def __init__(self, ctx: EnumerationContext, gate_id: GateId):
        self.ctx = ctx
        self.gate: PermGate = ctx.circuit.gates[gate_id]
        self.ps = ctx.perm[gate_id]
        self.k = self.ps.k
        self.columns: List[Optional[int]] = [None] * self.k
        self.entry_cursors: List[Optional[Cursor]] = [None] * self.k
        if not self._build_from(0, last=False):  # pragma: no cover
            raise ValueError("permanent gate is unsupported")

    # -- helpers ---------------------------------------------------------------

    def _used_masks(self, level: int) -> List[int]:
        return [self.ps.col_mask[self.columns[i]] for i in range(level)]

    def _rest_mask(self, level: int) -> int:
        """Rows strictly below ``level`` (still to be assigned)."""
        return self.ps.full & ~((1 << (level + 1)) - 1)

    def _mask_ok(self, level: int, mask: int) -> bool:
        if not (mask >> level) & 1:
            return False
        used = self._used_masks(level)
        if self.ps.available(mask, used) < 1:
            return False
        return self.ps.matchable(self._rest_mask(level), used + [mask])

    def _valid_masks(self, level: int) -> List[int]:
        return [m for m in sorted(self.ps.lists)
                if self.ps.counts.get(m, 0) > 0 and self._mask_ok(level, m)]

    def _col_ok(self, level: int, col: int) -> bool:
        return col not in self.columns[:level]

    def _scan(self, level: int, mask: int, col: Optional[int],
              forward: bool) -> Optional[int]:
        """Next unused column of this type after/before ``col`` (or the
        first/last when ``col`` is None); skips at most k used columns."""
        bucket = self.ps.lists[mask]
        if col is None:
            col = bucket.first() if forward else bucket.last()
        else:
            col = bucket.after(col) if forward else bucket.before(col)
        while col is not None and not self._col_ok(level, col):
            col = bucket.after(col) if forward else bucket.before(col)
        return col

    def _enter_level(self, level: int, last: bool) -> bool:
        """Position ``level`` on its first (or last) valid column."""
        masks = self._valid_masks(level)
        if not masks:
            return False
        ordered = masks if not last else list(reversed(masks))
        for mask in ordered:
            col = self._scan(level, mask, None, forward=not last)
            if col is not None:
                self._set_column(level, col, last)
                return True
        return False  # pragma: no cover - masks imply availability

    def _set_column(self, level: int, col: int, last: bool) -> None:
        self.columns[level] = col
        entry = self.gate.entries[level][col]
        cursor = self.ctx._cursor(entry)
        if last:
            cursor.seek_last()
        self.entry_cursors[level] = cursor

    def _build_from(self, level: int, last: bool) -> bool:
        for lvl in range(level, self.k):
            if not self._enter_level(lvl, last):
                return False
        return True

    def _shift_column(self, level: int, forward: bool) -> bool:
        """Move this level to the next/previous valid column."""
        current = self.columns[level]
        mask = self.ps.col_mask[current]
        col = self._scan(level, mask, current, forward)
        if col is not None:
            self._set_column(level, col, last=not forward)
            return True
        masks = self._valid_masks(level)
        index = masks.index(mask) if mask in masks else -1
        candidates = masks[index + 1:] if forward else \
            list(reversed(masks[:index])) if index >= 0 else []
        for nxt in candidates:
            col = self._scan(level, nxt, None, forward)
            if col is not None:
                self._set_column(level, col, last=not forward)
                return True
        return False

    # -- Cursor interface --------------------------------------------------------

    def current(self) -> Monomial:
        out: Tuple[Hashable, ...] = ()
        for cursor in self.entry_cursors:
            out = out + cursor.current()
        return out

    def _step(self, forward: bool) -> bool:
        """One odometer step over the digit sequence
        ``col_0, ent_0, ..., col_{k-1}, ent_{k-1}`` (rightmost fastest).

        When a level's entry cursor moves without wrapping, or its column
        shifts, all deeper levels reset to their first (resp. last)
        configuration — which always succeeds because the shallower prefix
        was chosen rest-matchable.
        """
        last = not forward
        for level in reversed(range(self.k)):
            cursor = self.entry_cursors[level]
            wrapped = cursor.advance() if forward else cursor.retreat()
            if not wrapped:
                if not self._build_from(level + 1, last):  # pragma: no cover
                    raise AssertionError("prefix lost its completion")
                return False
            if self._shift_column(level, forward):
                if not self._build_from(level + 1, last):  # pragma: no cover
                    raise AssertionError("matchable column lost completion")
                return False
        self._build_from(0, last)
        return True

    def advance(self) -> bool:
        return self._step(forward=True)

    def retreat(self) -> bool:
        return self._step(forward=False)
