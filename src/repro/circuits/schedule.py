"""Layer schedules: the static index of a compiled circuit.

A :class:`LayerSchedule` gives every live gate of a circuit its *layer*
subject to the **layer invariant**:

    every child of a gate in layer ``i`` lies in a layer ``j < i``;
    gates without children (inputs and constants) occupy layer 0.

Each gate is placed in the lowest layer the invariant allows (its depth:
``1 + max(layer of children)``), so all gates within one layer are
mutually independent.  The schedule does not group gates: the one
grouping of the circuit — by level, kind and fan-in, into contiguous
rank ranges a batched backend reduces at once — is the vector plan's
(:mod:`repro.circuits.vector_plan`), whose partial-sum trees move gates
to levels of their own.

The schedule is a pure-Python structure (no NumPy dependency), derived
once per circuit and cacheable: circuits are immutable after
construction/optimization, so a schedule never goes stale.
``CompiledQuery.schedule()`` memoizes it per compiled query.

The schedule also owns the circuit's other *static* tables, each built
once on first use and shared by every consumer: the input key -> slot
map (:meth:`LayerSchedule.slot_of`), the CSR child -> parent table
(:meth:`LayerSchedule.parents`) every upward walk reads, and — held
here, built elsewhere — the vector plan and the selector slot tables of
batched point reads (:func:`repro.core.closure.selector_slots`).
:func:`propagate` moves a change up its cone for the maintained values
of Theorem 8 and the supports of Theorem 24 alike; the
update-invalidation analysis (:func:`co_occurring_inputs`) keeps no
table of its own, so its memory stays linear in the circuit.
"""

from __future__ import annotations

from array import array
from heapq import heappop, heappush
from itertools import accumulate, chain
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from .gates import (AddGate, Circuit, ConstGate, GateId, InputGate, MulGate,
                    PermGate)

#: Gate kinds, as the vector plan groups and :meth:`LayerSchedule.stats`
#: counts them.
KIND_INPUT = "input"
KIND_CONST = "const"
KIND_ADD = "add"
KIND_MUL = "mul"
KIND_PERM = "perm"


class LayerSchedule:
    """The layer of every live gate of one circuit, plus its shared
    static tables (see the module docstring)."""

    def __init__(self, circuit: Circuit, layer_of: Dict[GateId, int],
                 input_gates: Tuple[Tuple[GateId, Hashable], ...],
                 const_gates: Tuple[Tuple[GateId, Any], ...]):
        self.circuit = circuit
        #: live gate id -> layer, in ascending gate-id order — which is
        #: topological (children precede parents), so a walk over it
        #: meets every child before its parents.
        self.layer_of = layer_of
        #: live input gates as ``(gate_id, key)`` pairs, in gate-id order.
        self.input_gates = input_gates
        #: live constant gates as ``(gate_id, raw value)`` pairs.
        self.const_gates = const_gates
        # Static tables, built on first use (schedules are immutable, so
        # none of them ever goes stale; a racing double build is benign).
        self._slot_of: Optional[Dict[Hashable, int]] = None
        self._parents: Optional[Tuple[array, array, array]] = None
        #: the NumPy rank tables both vectorized passes sweep
        #: (:func:`repro.circuits.vector_plan.vector_plan` builds and
        #: memoizes it here; this module itself stays NumPy-free).
        self._vector_plan: Optional[Any] = None
        #: selector position -> {element: slot}
        #: (:func:`repro.core.closure.selector_slots` builds and memoizes
        #: it here; only that module knows the selector key format).
        self._selector_slots: Optional[Any] = None

    def live_count(self) -> int:
        return len(self.layer_of)

    def slot_of(self) -> Dict[Hashable, int]:
        """Input key -> slot: position ``i`` of :attr:`input_gates` is
        slot ``i`` (a row of a prepared base column, a rank of the
        vector plan).  Shared — callers must not mutate it."""
        table = self._slot_of
        if table is None:
            table = self._slot_of = {
                key: slot for slot, (_, key) in enumerate(self.input_gates)}
        return table

    def parents(self) -> Tuple[array, array, array]:
        """The live child -> parent table in CSR form, three
        ``array('l')`` columns ``(ptr, parent, slot)``: gate ``g``'s
        parents are ``parent[ptr[g]:ptr[g + 1]]``, and ``slot`` is the
        operand ``g`` fills in each — its index in an addition or a
        multiplication, ``row * cols + col`` in a permanent (as in
        :class:`~repro.circuits.vector_plan.VectorPlan`); a child a gate
        lists twice appears twice.  Shared by every upward walk —
        callers must not mutate it."""
        table = self._parents
        if table is None:
            circuit = self.circuit
            parents: List[List[GateId]] = [[] for _ in circuit.gates]
            slots: List[List[int]] = [[] for _ in circuit.gates]
            for gate_id in self.layer_of:
                gate = circuit.gates[gate_id]
                if isinstance(gate, PermGate):
                    operands = [entry for row in gate.entries for entry in row]
                elif isinstance(gate, (AddGate, MulGate)):
                    operands = gate.children
                else:
                    continue
                for index, child in enumerate(operands):
                    if child is not None:
                        parents[child].append(gate_id)
                        slots[child].append(index)
            table = self._parents = (
                array("l", accumulate(map(len, parents), initial=0)),
                array("l", chain.from_iterable(parents)),
                array("l", chain.from_iterable(slots)))
        return table

    def stats(self) -> Dict[str, Any]:
        """Layout counts, computed on call: ``groups`` counts the
        distinct ``(layer, kind, fan-in)`` buckets of the live gates."""
        gates = self.circuit.gates
        widths: Dict[int, int] = {}
        buckets = set()
        kinds: Dict[str, int] = {}
        for gate_id, layer in self.layer_of.items():
            kind, fan_in = gate_kind(gates[gate_id])
            widths[layer] = widths.get(layer, 0) + 1
            buckets.add((layer, kind, fan_in))
            kinds[kind] = kinds.get(kind, 0) + 1
        return {
            "layers": len(widths),
            "live_gates": self.live_count(),
            "widest_layer": max(widths.values(), default=0),
            "groups": len(buckets),
            "inputs": len(self.input_gates),
            #: per-kind gate counts (add/mul are the reductions).
            "gate_kinds": kinds,
            "reducible_gates": kinds.get(KIND_ADD, 0) + kinds.get(KIND_MUL, 0),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<LayerSchedule layers="
                f"{max(self.layer_of.values(), default=-1) + 1} "
                f"gates={self.live_count()}>")


def propagate(schedule: LayerSchedule, gate_id: GateId,
              notify: Callable[[GateId, int, GateId], None],
              settle: Callable[[GateId], bool]) -> int:
    """Move the already-stored change of ``gate_id`` up its cone;
    returns the gates touched.  ``notify(parent, slot, child)`` folds a
    changed child into its parent's operand ``slot``
    (:meth:`LayerSchedule.parents`); ``settle(gate)`` recomputes and
    stores a gate, returning whether it changed.  Gates settle in id
    (= topological) order off a min-heap, each at most once."""
    ptr, parent, slot = schedule.parents()
    pending: List[GateId] = []
    queued = set()
    current, changed, touched = gate_id, True, 1
    while True:
        if changed:
            for at in range(ptr[current], ptr[current + 1]):
                gate = parent[at]
                notify(gate, slot[at], current)
                if gate not in queued:
                    queued.add(gate)
                    heappush(pending, gate)
        if not pending:
            return touched
        current = heappop(pending)
        queued.discard(current)
        touched += 1
        changed = settle(current)


def co_occurring_inputs(schedule: LayerSchedule, key: Hashable) -> frozenset:
    """The input keys that share a product monomial with input ``key``.

    Two inputs co-occur when some multiplication combines them: a MUL
    (or permanent) gate with ``key`` in one operand's input cone and the
    other input in a *different* operand's cone.  Every monomial of the
    polynomial the circuit computes multiplies its inputs together at
    such a gate, so this is a sound overapproximation of "appears in a
    common monomial" — the analysis behind touched-group-only result
    invalidation (an update to ``key`` can only change point queries
    whose selector inputs co-occur with it).  An unknown/dead ``key``
    returns the empty set (the circuit provably never reads it).

    Only gates with ``key`` in their cone can qualify, and those are
    exactly the ancestors of ``key``'s input gate, so the walk first
    climbs the shared parent table from that one gate; the climb's
    ``seen`` set is the upward cone, so an operand holds ``key`` exactly
    when it is in ``seen``.  At each product ancestor it then
    collects the inputs below the operands that multiply against
    ``key`` — every other operand, or all of them when two or more hold
    ``key`` — with one downward walk that visits each gate at most once.
    The cost is the input's upward cone (bounded reach-out, Corollary
    13) plus the collected sub-circuits, never the circuit, and nothing
    is memoized beyond the parent table.
    """
    slot = schedule.slot_of().get(key)
    if slot is None:
        return frozenset()
    ptr, parent, _ = schedule.parents()
    circuit = schedule.circuit
    gates = circuit.gates
    seen = {schedule.input_gates[slot][0]}
    stack = list(seen)
    products = []
    while stack:
        child = stack.pop()
        for gate_id in parent[ptr[child]:ptr[child + 1]]:
            if gate_id not in seen:
                seen.add(gate_id)
                stack.append(gate_id)
                if not isinstance(gates[gate_id], AddGate):
                    products.append(gate_id)
    for gate_id in products:
        operands = circuit.children_of(gates[gate_id])
        others = [child for child in operands if child not in seen]
        # One operand holds ``key``: the others multiply against it.
        # Two or more: each multiplies against the rest, so all do.  (A
        # permanent gate's sum-of-products pairs every operand with
        # operands of the other rows, which the all-pairs treatment
        # overapproximates.)
        stack.extend(others if len(operands) - len(others) == 1
                     else operands)
    met = []
    below = set()
    while stack:
        gate_id = stack.pop()
        if gate_id in below:
            continue
        below.add(gate_id)
        gate = gates[gate_id]
        if isinstance(gate, InputGate):
            met.append(gate.key)
        else:
            stack.extend(circuit.children_of(gate))
    return frozenset(met) - {key}


def gate_kind(gate: Any) -> Tuple[str, Optional[int]]:
    """``(kind, fan-in)`` of a gate; the fan-in is ``None`` except for
    additions and multiplications."""
    if isinstance(gate, InputGate):
        return KIND_INPUT, None
    if isinstance(gate, ConstGate):
        return KIND_CONST, None
    if isinstance(gate, AddGate):
        return KIND_ADD, len(gate.children)
    if isinstance(gate, MulGate):
        return KIND_MUL, len(gate.children)
    if isinstance(gate, PermGate):
        return KIND_PERM, None
    raise TypeError(f"unknown gate {gate!r}")


def build_schedule(circuit: Circuit) -> LayerSchedule:
    """Place every live gate in its lowest legal layer.

    Relies on the builder's topological gate-id order (children precede
    parents), the same property every evaluator already assumes.
    """
    gates = circuit.gates
    children_of = circuit.children_of
    layer_of: Dict[GateId, int] = {}
    input_gates: List[Tuple[GateId, Hashable]] = []
    const_gates: List[Tuple[GateId, Any]] = []
    for gate_id in circuit.live_gates():
        gate = gates[gate_id]
        children = children_of(gate)
        layer_of[gate_id] = (1 + max(map(layer_of.__getitem__, children))
                             if children else 0)
        if isinstance(gate, InputGate):
            input_gates.append((gate_id, gate.key))
        elif isinstance(gate, ConstGate):
            const_gates.append((gate_id, gate.value))
    return LayerSchedule(circuit, layer_of, tuple(input_gates),
                         tuple(const_gates))
