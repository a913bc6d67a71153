"""Circuit optimization: one flatten rebuild over the Theorem 6 IR.

The compiler (``repro.core.pipeline``) emits circuits whose nested
additions mirror the shape of the elimination forest rather than the
arithmetic.  Every evaluator — static, dynamic, batched, enumeration —
pays for those gates on every pass, so shrinking the circuit once after
compilation is amortized across the whole workload (the
factorised-database playbook: restructure the compiled representation,
then reuse it).

Constant folding is not a pass: :class:`~repro.circuits.CircuitBuilder`
keeps every gate in normal form as it interns it, so a compiled circuit
arrives folded.  What is left is one rebuild of the live subcircuit
through a fresh builder:

* fan-in flattening — ``Add(Add(a, b), c) -> Add(a, b, c)`` and the same
  for ``Mul`` chains.  Only children with fan-out 1 are spliced, so a
  shared subexpression is never duplicated and the dynamic evaluator's
  update cost cannot regress.  The builder folds what splicing brings
  together (two constants pulled into one addition);
* dead-gate elimination and common-subexpression elimination — only
  gates reachable from the output are rebuilt, and the builder interns
  structurally equal gates to one id;

then :func:`compact` drops what the splicing left dead.  The rebuild
reports a **gate-id remap** ``old id -> new id`` (``None`` when the gate
was eliminated as dead or identically zero), so callers holding gate
references (debuggers, render tools, tests) can translate them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from .gates import (AddGate, Circuit, CircuitBuilder, ConstGate, GateId,
                    InputGate, MulGate, PermGate)

Remap = Dict[GateId, Optional[GateId]]


@dataclass
class OptimizeResult:
    """An optimized circuit plus the bookkeeping to relate it back.

    ``remap`` maps every gate id that was *live in the original circuit*
    to its replacement id in :attr:`circuit`, or ``None`` when the gate
    was eliminated (folded to the semiring zero, or made unreachable).
    """

    circuit: Circuit
    remap: Remap

    @property
    def gates_before(self) -> int:
        return len(self.remap)

    @property
    def gates_after(self) -> int:
        return len(self.circuit.live_gates())


def flatten(circuit: Circuit, live: List[GateId]) -> Tuple[Circuit, Remap]:
    """Rebuild the ``live`` gates (ascending, so every child is remapped
    before its parents) through a fresh builder, splicing each fan-out-1
    ``Add`` child of an ``Add`` and ``Mul`` child of a ``Mul`` into its
    parent."""
    fan_out: Dict[GateId, int] = {}
    for gate_id in live:
        for child in circuit.children_of(circuit.gates[gate_id]):
            fan_out[child] = fan_out.get(child, 0) + 1
    builder = CircuitBuilder()
    remap: Remap = {}
    for gate_id in live:
        gate = circuit.gates[gate_id]
        if isinstance(gate, (AddGate, MulGate)):
            kind = type(gate)
            children: List[Optional[GateId]] = []
            for child in gate.children:
                mapped = remap[child]
                if mapped is not None and fan_out[child] == 1 and \
                        isinstance(builder.gates[mapped], kind):
                    children.extend(builder.gates[mapped].children)
                else:
                    children.append(mapped)
            new = builder.add(children) if kind is AddGate \
                else builder.mul(children)
        elif isinstance(gate, PermGate):
            new = builder.perm([[None if e is None else remap[e] for e in row]
                                for row in gate.entries])
        elif isinstance(gate, InputGate):
            new = builder.input(gate.key)
        elif isinstance(gate, ConstGate):
            new = builder.const(gate.value)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown gate {gate!r}")
        remap[gate_id] = new
    rebuilt = builder.build(remap[circuit.output])
    # build() may have interned a fallback const-0 output.
    remap[circuit.output] = rebuilt.output
    return rebuilt, remap


def compact(circuit: Circuit, live: List[GateId]) -> Tuple[Circuit, Remap]:
    """Drop the dead gates of a rebuilt circuit by renumbering its
    ``live`` gates (ascending) to ``0 .. len(live) - 1``.

    Equal to rebuilding through a fresh :class:`CircuitBuilder` — the
    same gates, output, inputs table and remap — because a builder
    produced ``circuit``: live gates are pairwise distinct, a renaming
    keeps them distinct, and every gate is in the builder's normal form
    (no foldable constant child, no bool constant, no trivial
    ``add``/``perm``), so re-interning it would neither merge nor
    rewrite anything.
    """
    remap: Remap = {old: new for new, old in enumerate(live)}
    gates: List[object] = []
    inputs: Dict[Hashable, GateId] = {}
    for old in live:
        gate = circuit.gates[old]
        if isinstance(gate, AddGate):
            gate = AddGate(tuple([remap[c] for c in gate.children]))
        elif isinstance(gate, MulGate):
            gate = MulGate(tuple([remap[c] for c in gate.children]))
        elif isinstance(gate, PermGate):
            gate = PermGate(tuple(
                tuple([None if e is None else remap[e] for e in row])
                for row in gate.entries))
        elif isinstance(gate, InputGate):
            inputs[gate.key] = len(gates)
        gates.append(gate)
    return Circuit(gates, remap[circuit.output], inputs), remap


def optimize_circuit(circuit: Circuit) -> OptimizeResult:
    """Flatten ``circuit`` and drop its dead gates.

    The result's circuit computes the same value as ``circuit`` in
    **every** commutative semiring, its ``inputs`` table is rebuilt for
    the surviving input gates, every stored gate is live, and
    ``result.remap`` translates original gate ids.
    """
    flat, remap = flatten(circuit, circuit.live_gates())
    live = flat.live_gates()
    if len(live) != len(flat.gates):
        flat, step = compact(flat, live)
        remap = {old: (None if mid is None else step.get(mid))
                 for old, mid in remap.items()}
    return OptimizeResult(flat, remap)
