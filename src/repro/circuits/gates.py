"""Circuits with permanent gates (paper §3): the universal IR.

A circuit is a DAG of gates — inputs (weights of tuples), constants,
additions, multiplications, and *permanent gates* whose inputs form a
``rows x columns`` matrix.  The same circuit evaluates in any semiring;
evaluation contexts live in :mod:`repro.circuits.evaluation`.

Gates are stored in one flat array in topological order (children before
parents, enforced by the builder), and referenced by integer id.  ``None``
entries in a permanent gate denote the semiring zero (pruned subtrees).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from ..algebra.permanent import permanent
from ..semirings.numeric import NaturalSemiring

GateId = int

_NATURAL = NaturalSemiring()


@dataclass(frozen=True)
class InputGate:
    """An input: the weight of one tuple, addressed by a hashable key."""

    key: Hashable


@dataclass(frozen=True)
class ConstGate:
    """A constant; ``value`` is interpreted through ``Semiring.coerce``."""

    value: Any


@dataclass(frozen=True)
class AddGate:
    children: Tuple[GateId, ...]


@dataclass(frozen=True)
class MulGate:
    children: Tuple[GateId, ...]


@dataclass(frozen=True)
class PermGate:
    """A permanent gate: ``entries[row][col]`` is a gate id or ``None`` (zero).

    The number of rows is bounded by the query (Theorem 6); the number of
    columns is data-dependent.

    Shape is validated at construction: the matrix must be rectangular,
    non-empty, and every entry must be ``None`` or a nonnegative gate id.
    A malformed matrix (e.g. a truncated row in a tampered serialized
    plan) fails here, at the trust boundary, instead of deep inside an
    evaluation.
    """

    entries: Tuple[Tuple[Optional[GateId], ...], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("permanent gate needs at least one row")
        width = len(self.entries[0])
        if width < 1:
            raise ValueError("permanent gate needs at least one column")
        for index, row in enumerate(self.entries):
            if len(row) != width:
                raise ValueError(
                    f"permanent gate matrix is not rectangular: row {index} "
                    f"has {len(row)} entries, row 0 has {width}")
            for entry in row:
                if entry is None:
                    continue
                if isinstance(entry, bool) or not isinstance(entry, int) \
                        or entry < 0:
                    raise ValueError(
                        f"permanent gate entry {entry!r} (row {index}) is "
                        f"not a gate id; entries must be None or a "
                        f"nonnegative int")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0


Gate = Any  # InputGate | ConstGate | AddGate | MulGate | PermGate


class CircuitBuilder:
    """Hash-consing builder that keeps every gate in normal form.

    Gates are interned per class by their payload (input key, children
    tuple or entry matrix; a constant by its type and value, so ``1`` and
    ``1.0`` stay two gates): two gates are equal exactly when their
    classes and payloads are, the payload hashes in C, and the gate
    object is only made for a gate not seen before.  The input table
    doubles as the index of the input gates.

    The builder is the one owner of the circuits' normal form: it folds
    constants as it interns.  Nonnegative integer constants (and bools,
    interned as ``0``/``1``) are closed under ``Semiring.coerce`` — ``n``
    coerces to the ``n``-fold sum of ``1``, the unique homomorphism from
    ``N`` — so adding, multiplying and taking integer permanents of them
    with ordinary integer arithmetic is sound in *every* commutative
    semiring.  ``add`` merges them into one trailing constant and drops a
    0, ``mul`` multiplies them into one trailing coefficient, is zero on
    a 0 and drops a 1, and ``perm`` prunes zero entries and folds an
    all-constant matrix.  Exotic constants (other carrier values) are
    interned as they are and never folded.  So no ``add`` or ``mul`` of a
    built circuit has two integer-constant children, a 0 child or a 1
    factor, no permanent has a zero entry or only constant entries, and
    rebuilding a built gate interns it to itself.
    """

    def __init__(self) -> None:
        self.gates: List[Gate] = []
        self.inputs: Dict[Hashable, GateId] = {}
        self._index: Dict[type, Dict[Any, GateId]] = {
            InputGate: self.inputs, ConstGate: {}, AddGate: {}, MulGate: {},
            PermGate: {}}
        #: ``{gate id: value}`` of the nonnegative integer constants,
        #: the ones the builder folds (read with the ``Optional`` child
        #: ids gates are built from; ``None`` is never a key)
        self._ints: Dict[Optional[GateId], int] = {}

    def _intern(self, kind: type, payload: Any, key: Any = None) -> GateId:
        index = self._index[kind]
        if key is None:
            key = payload
        found = index.get(key)
        if found is None:
            gate = kind(payload)  # a malformed PermGate raises here
            found = index[key] = len(self.gates)
            self.gates.append(gate)
        return found

    def input(self, key: Hashable) -> GateId:
        return self._intern(InputGate, key)

    def const(self, value: Any) -> GateId:
        if isinstance(value, bool):
            # True and 1 coerce identically in every semiring.
            value = int(value)
        gate_id = self._intern(ConstGate, value, (type(value), value))
        if isinstance(value, int) and value >= 0:
            self._ints[gate_id] = value
        return gate_id

    def zero(self) -> Optional[GateId]:
        """The canonical 'absent' gate — represented as ``None``."""
        return None

    def one(self) -> GateId:
        return self.const(1)

    def add(self, children: Sequence[Optional[GateId]]) -> Optional[GateId]:
        present = tuple(children)
        if None in present:
            present = tuple(c for c in present if c is not None)
        ints = self._ints
        if not ints.keys().isdisjoint(present):
            total = sum(ints.get(c, 0) for c in present)
            present = tuple(c for c in present if c not in ints)
            if total:
                present += (self.const(total),)
        if not present:
            return None
        if len(present) == 1:
            return present[0]
        return self._intern(AddGate, present)

    def mul(self, children: Sequence[Optional[GateId]]) -> Optional[GateId]:
        factors = tuple(children)
        if None in factors:
            return None
        ints = self._ints
        if not ints.keys().isdisjoint(factors):
            coefficient = math.prod(ints.get(c, 1) for c in factors)
            if not coefficient:
                return None
            factors = tuple(c for c in factors if c not in ints)
            if coefficient != 1:
                factors += (self.const(coefficient),)
        if not factors:
            return self.one()
        if len(factors) == 1:
            return factors[0]
        return self._intern(MulGate, factors)

    def perm(self, entries: Sequence[Sequence[Optional[GateId]]]) -> Optional[GateId]:
        """A permanent gate; collapses trivial shapes and folds constants.

        * zero rows: the empty permanent is 1;
        * more rows than columns: no injection exists, value 0 (``None``);
        * a zero-constant entry is pruned to ``None``, and a matrix of
          integer constants and ``None`` folds to its integer permanent;
        * an all-``None`` row forces value 0;
        * one row: equivalent to an addition over the row.
        """
        rows = [tuple(row) for row in entries]
        if not rows:
            return self.one()
        cols = len(rows[0])
        if any(len(row) != cols for row in rows):
            raise ValueError("permanent gate requires a rectangular matrix")
        if len(rows) > cols:
            return None
        ints = self._ints
        if any(not ints.keys().isdisjoint(row) for row in rows):
            rows = [tuple(None if ints.get(e) == 0 else e for e in row)
                    for row in rows]
            if all(e is None or e in ints for row in rows for e in row):
                value = permanent([[ints.get(e, 0) for e in row]
                                   for row in rows], _NATURAL)
                return self.const(value) if value else None
        if any(all(e is None for e in row) for row in rows):
            return None
        if len(rows) == 1:
            return self.add(rows[0])
        return self._intern(PermGate, tuple(rows))

    def build(self, output: Optional[GateId]) -> "Circuit":
        if output is None:
            output = self.const(0)
        return Circuit(self.gates, output, dict(self.inputs))


class Circuit:
    """An immutable gate array with a distinguished output."""

    def __init__(self, gates: List[Gate], output: GateId,
                 inputs: Dict[Hashable, GateId]):
        self.gates = gates
        self.output = output
        self.inputs = inputs

    def __len__(self) -> int:
        return len(self.gates)

    def children_of(self, gate: Gate) -> List[GateId]:
        if isinstance(gate, (AddGate, MulGate)):
            return list(gate.children)
        if isinstance(gate, PermGate):
            return [e for row in gate.entries for e in row if e is not None]
        return []

    def live_gates(self) -> List[GateId]:
        """Gates reachable from the output (the builder may intern spares)."""
        seen = {self.output}
        stack = [self.output]
        while stack:
            gate_id = stack.pop()
            for child in self.children_of(self.gates[gate_id]):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return sorted(seen)

    def stats(self) -> Dict[str, Any]:
        """Size/depth/fan statistics — the quantities Theorem 6 bounds."""
        live = self.live_gates()
        depth: Dict[GateId, int] = {}
        fan_out: Dict[GateId, int] = {g: 0 for g in live}
        edges = 0
        kinds: Dict[str, int] = {}
        max_rows = 0
        max_fan_in = 0
        for gate_id in live:
            gate = self.gates[gate_id]
            kinds[type(gate).__name__] = kinds.get(type(gate).__name__, 0) + 1
            children = self.children_of(gate)
            edges += len(children)
            max_fan_in = max(max_fan_in, len(children))
            for child in children:
                fan_out[child] += 1
            depth[gate_id] = 1 + max((depth[c] for c in children), default=0)
            if isinstance(gate, PermGate):
                max_rows = max(max_rows, gate.rows)
        return {
            "gates": len(live),
            "stored_gates": len(self.gates),
            "dead_gates": len(self.gates) - len(live),
            "edges": edges,
            "size": len(live) + edges,
            "depth": depth.get(self.output, 0),
            "max_fan_in": max_fan_in,
            "max_fan_out": max(fan_out.values(), default=0),
            "max_perm_rows": max_rows,
            "kinds": kinds,
            "inputs": sum(1 for g in live
                          if isinstance(self.gates[g], InputGate)),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Circuit gates={len(self.gates)} output={self.output}>"
