"""Evaluation contexts: bind a circuit to a semiring and a valuation.

* :class:`StaticEvaluator` — one bottom-up pass, O(size) semiring ops
  (permanent gates via the O(2^k n) DP).
* :class:`BatchedEvaluator` — evaluates one circuit over N valuations in
  a single bottom-up pass, keeping a list of values per gate.  Gate
  dispatch, reachability, and child lookups are paid once per gate
  instead of once per gate per valuation, which is where the per-probe
  overhead of a Python interpreter actually goes.
* :class:`DynamicEvaluator` — maintains all gate values under input
  updates.  Permanent gates carry a pluggable
  :class:`~repro.algebra.PermanentMaintainer` and wide addition gates a
  sum maintainer, so one update costs O(affected gates · per-gate
  cost): constant for rings, logarithmic in general — the Theorem 8
  bounds.  Updates climb the schedule's shared parent table
  (:func:`~repro.circuits.schedule.propagate`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, \
    Sequence

from ..algebra import make_maintainer, make_sum_maintainer, permanent
from ..semirings import Semiring
from .gates import (AddGate, Circuit, ConstGate, GateId, InputGate, MulGate,
                    PermGate)
from .schedule import LayerSchedule, build_schedule, propagate

Valuation = Callable[[Hashable], Any]


def valuation_from_dict(values: Dict[Hashable, Any], zero: Any) -> Valuation:
    return lambda key: values.get(key, zero)


def input_row(key: Hashable, valuations: Sequence[Any],
              base: Optional[Mapping[Hashable, Any]], zero: Any) -> List[Any]:
    """One input's value under every valuation of a batch: a callable is
    asked, an override mapping is read through to the one shared
    ``base`` valuation (never copied per batch element)."""
    default = zero if base is None else base.get(key, zero)
    return [valuation(key) if callable(valuation)
            else valuation.get(key, default) for valuation in valuations]


class StaticEvaluator:
    """Single-pass evaluation of every live gate."""

    def __init__(self, circuit: Circuit, sr: Semiring, valuation: Valuation):
        self.circuit = circuit
        self.sr = sr
        self.values: Dict[GateId, Any] = {}
        zero = sr.zero
        for gate_id in circuit.live_gates():
            gate = circuit.gates[gate_id]
            if isinstance(gate, InputGate):
                value = valuation(gate.key)
            elif isinstance(gate, ConstGate):
                value = sr.coerce(gate.value)
            elif isinstance(gate, AddGate):
                value = sr.sum(self.values[c] for c in gate.children)
            elif isinstance(gate, MulGate):
                value = sr.prod(self.values[c] for c in gate.children)
            elif isinstance(gate, PermGate):
                matrix = [[self.values[e] if e is not None else zero
                           for e in row] for row in gate.entries]
                value = permanent(matrix, sr)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown gate {gate!r}")
            self.values[gate_id] = value

    def value(self) -> Any:
        return self.values[self.circuit.output]


class BatchedEvaluator:
    """Evaluate one circuit over many valuations in a single pass.

    ``valuations`` is a sequence of N :data:`Valuation` callables — or
    mappings of input keys to values overriding the shared ``base``
    valuation (:func:`input_row`); gate ``g`` ends up with
    ``values[g] == [value under valuation 0, ..., value under valuation
    N-1]``.  The circuit is walked bottom-up once:
    per gate the kind is dispatched a single time and the inner loop over
    the batch runs with locally-bound semiring operations.  Amortized
    over the batch this beats N independent :class:`StaticEvaluator`
    passes by a large constant factor, and it is the evaluation substrate
    for ``CompiledQuery.evaluate_batch`` and its batched point queries
    (``evaluate_selected``).
    """

    #: :class:`~repro.circuits.VectorizedEvaluator`'s telemetry, for the
    #: backend without a kernel, a pass, a certificate or counted cells.
    kernel_requested = kernel_used = "python"
    fallbacks = cells = 0
    pass_used = None
    certified = False

    def __init__(self, circuit: Circuit, sr: Semiring,
                 valuations: Sequence[Any],
                 base: Optional[Mapping[Hashable, Any]] = None):
        self.circuit = circuit
        self.sr = sr
        self.batch_size = len(valuations)
        #: per-gate value rows, indexed by gate id (dead gates stay None)
        self.values: List[Optional[List[Any]]] = [None] * len(circuit.gates)
        values = self.values
        n = self.batch_size
        zero, add, mul = sr.zero, sr.add, sr.mul
        for gate_id in circuit.live_gates():
            gate = circuit.gates[gate_id]
            if isinstance(gate, InputGate):
                row = input_row(gate.key, valuations, base, zero)
            elif isinstance(gate, ConstGate):
                row = [sr.coerce(gate.value)] * n
            elif isinstance(gate, AddGate):
                children = [values[c] for c in gate.children]
                row = list(children[0])
                for other in children[1:]:
                    row = [add(a, b) for a, b in zip(row, other)]
            elif isinstance(gate, MulGate):
                children = [values[c] for c in gate.children]
                row = list(children[0])
                for other in children[1:]:
                    row = [mul(a, b) for a, b in zip(row, other)]
            elif isinstance(gate, PermGate):
                entry_rows = [[None if e is None else values[e]
                               for e in row] for row in gate.entries]
                row = [permanent(
                    [[zero if col is None else col[i] for col in entry_row]
                     for entry_row in entry_rows], sr)
                    for i in range(n)]
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown gate {gate!r}")
            values[gate_id] = row

    @property
    def rows(self) -> int:
        """Rows of the value table this evaluation held: one per gate."""
        return len(self.values)

    def value(self, index: int) -> Any:
        """The output value under valuation ``index``."""
        return self.values[self.circuit.output][index]

    def results(self) -> List[Any]:
        """Output values for the whole batch, in valuation order."""
        return list(self.values[self.circuit.output])

    def values_of(self, gate_id: GateId) -> List[Any]:
        """The per-valuation values of an arbitrary live gate."""
        row = self.values[gate_id]
        if row is None:
            raise KeyError(f"gate {gate_id} is not live in this circuit")
        return list(row)


#: Addition gates wider than this keep a sum maintainer; narrower ones
#: re-add their few operands, which is cheaper than the bookkeeping.
MAINTAINED_FAN_IN = 8


class DynamicEvaluator:
    """Incremental evaluation under input updates (Theorem 8 machinery).

    One input change is propagated along the gate's upward cone only,
    and no gate on the way re-reads all its operands: permanent gates
    and wide addition gates keep a maintainer (``strategy`` picks it —
    'ring', 'finite', 'segment-tree', or None for the automatic Theorem 8
    case split; 'recompute' is the O(fan-in) reference that re-evaluates
    every touched gate from its operands), multiplication gates have
    query-bounded fan-in and recompute.

    ``schedule`` lends the circuit's layer schedule, whose static
    child -> parent table (:meth:`LayerSchedule.parents`) every
    evaluator and enumeration context over the circuit shares (one is
    built when omitted).
    """

    def __init__(self, circuit: Circuit, sr: Semiring, valuation: Valuation,
                 strategy: Optional[str] = None,
                 schedule: Optional[LayerSchedule] = None):
        self.circuit = circuit
        self.sr = sr
        self.strategy = strategy
        if schedule is None:
            schedule = build_schedule(circuit)
        self.schedule = schedule
        self.values: Dict[GateId, Any] = {}
        #: permanent gates and wide addition gates -> their maintainer.
        self.maintainers: Dict[GateId, Any] = {}
        zero = sr.zero
        values = self.values
        for gate_id in schedule.layer_of:
            gate = circuit.gates[gate_id]
            if isinstance(gate, InputGate):
                values[gate_id] = valuation(gate.key)
                continue
            if isinstance(gate, ConstGate):
                values[gate_id] = sr.coerce(gate.value)
                continue
            if isinstance(gate, PermGate):
                self.maintainers[gate_id] = make_maintainer(
                    [[values[e] if e is not None else zero for e in row]
                     for row in gate.entries], sr, strategy=strategy)
            elif isinstance(gate, AddGate) and strategy != "recompute" \
                    and len(gate.children) > MAINTAINED_FAN_IN:
                self.maintainers[gate_id] = make_sum_maintainer(
                    [values[c] for c in gate.children], sr,
                    strategy=strategy)
            values[gate_id] = self._recompute(gate_id)

    def value(self) -> Any:
        return self.values[self.circuit.output]

    def value_of(self, gate_id: GateId) -> Any:
        return self.values[gate_id]

    def update_input(self, key: Hashable, value: Any) -> int:
        """Set the input gate for ``key``; returns # of gates recomputed."""
        gate_id = self.circuit.inputs.get(key)
        if gate_id is None or gate_id not in self.values:
            return 0
        return self._set_value(gate_id, value)

    def _set_value(self, gate_id: GateId, value: Any) -> int:
        if self.sr.eq(self.values[gate_id], value):
            return 0
        self.values[gate_id] = value
        return propagate(self.schedule, gate_id, self._notify, self._settle)

    def _notify(self, parent: GateId, slot: int, child: GateId) -> None:
        maintainer = self.maintainers.get(parent)
        if maintainer is not None:
            gate = self.circuit.gates[parent]
            position = divmod(slot, gate.cols) \
                if isinstance(gate, PermGate) else (slot,)
            maintainer.update(*position, self.values[child])

    def _recompute(self, gate_id: GateId) -> Any:
        maintainer = self.maintainers.get(gate_id)
        if maintainer is not None:
            return maintainer.value()
        # A narrow addition or a product re-reads its operands.
        gate = self.circuit.gates[gate_id]
        fold = self.sr.sum if isinstance(gate, AddGate) else self.sr.prod
        return fold(self.values[c] for c in gate.children)

    def _settle(self, gate_id: GateId) -> bool:
        value = self._recompute(gate_id)
        if self.sr.eq(self.values[gate_id], value):
            return False
        self.values[gate_id] = value
        return True
