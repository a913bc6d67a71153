"""Circuit optimization: a pass pipeline over the Theorem 6 IR.

The compiler (``repro.core.pipeline``) emits circuits that are correct but
literal: constants produced by label folding survive as gates, nested
additions mirror the shape of the elimination forest rather than the
arithmetic, and the builder's hash-consing only dedups gates that happen
to be constructed identically.  Every evaluator — static, dynamic,
batched, enumeration — pays for those gates on every pass, so shrinking
the circuit once after compilation is amortized across the whole workload
(the factorised-database playbook: restructure the compiled
representation, then reuse it).

Passes are *place-preserving rewrites*: each takes a :class:`Circuit` and
produces a new circuit plus a **gate-id remap** ``old id -> new id`` (or
``None`` when the gate was eliminated as dead or identically zero).
Composing passes composes remaps, so callers holding gate references
(debuggers, render tools, tests) can always translate them.

Provided passes:

``cse`` / ``dce``
    Rebuild the live subcircuit through a fresh hash-consing builder.
    This is simultaneously dead-gate elimination (only gates reachable
    from the output are emitted, and ids are compacted) and
    common-subexpression elimination keyed on ``(gate type, children)``
    — structurally equal gates are interned to one id even when the
    original builder constructed them separately.  Every other pass
    inherits both properties because every pass rebuilds through the
    same interning builder.

``fold``
    Constant folding.  Integer constants are closed under the semiring
    interpretation ``Semiring.coerce`` (``n`` coerces to the ``n``-fold
    sum of ``1``, a homomorphism from the initial semiring ``N``), so
    adding/multiplying them with ordinary integer arithmetic — and taking
    integer permanents of all-constant matrices — is sound in *every*
    semiring.  Also applies the identities ``x + 0 = x``, ``x * 1 = x``,
    ``x * 0 = 0`` and prunes zero entries out of permanent gates.

``flatten``
    Fan-in flattening: ``Add(Add(a, b), c) -> Add(a, b, c)`` and the same
    for ``Mul`` chains.  Only children with fan-out 1 are inlined, so a
    shared subexpression is never duplicated and the dynamic evaluator's
    update cost cannot regress.

The default pipeline is ``fold, flatten, fold`` — flattening exposes new
constant-merging opportunities (two constant children pulled into one
addition), and the trailing fold collects them.

``compact``
    The closing step when a pipeline leaves dead storage (gates a
    rewrite absorbed into their parents).  It *renumbers* the live gates
    instead of rebuilding them: the pass before it interned every gate
    through one builder, so the live gates are already distinct and in
    the builder's normal form, and a rebuild would re-intern each one to
    itself under its rank — the same gates, inputs and remap.  Each
    circuit's live-gate list is computed once and handed to the pass that
    walks it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..algebra.permanent import permanent
from ..semirings.numeric import NaturalSemiring
from .gates import (AddGate, Circuit, CircuitBuilder, ConstGate, GateId,
                    InputGate, MulGate, PermGate)

_NATURAL = NaturalSemiring()

Remap = Dict[GateId, Optional[GateId]]


def _const_int(gate: object) -> Optional[int]:
    """The integer value of a foldable constant gate, else ``None``.

    Only nonnegative integers (and bools) are foldable: ``coerce`` maps
    them through the unique homomorphism ``N -> S``, which commutes with
    ``+``, ``*`` and permanents.  Exotic constants (raw carrier values)
    are left untouched.
    """
    if isinstance(gate, ConstGate):
        value = gate.value
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int) and value >= 0:
            return value
    return None


class RewritePass:
    """Base pass: rebuild the live subcircuit through an interning builder.

    Walking ``live_gates()`` in ascending id order is a topological order
    (the original builder appends children before parents), so every
    child is already remapped when a gate is rewritten.  Subclasses
    override the per-kind hooks; the base implementation is the identity
    rewrite, which still performs DCE + id compaction + CSE.
    """

    name = "rewrite"

    def run(self, circuit: Circuit,
            live: Optional[List[GateId]] = None) -> Tuple[Circuit, Remap]:
        """Rewrite ``circuit``; ``live`` is its :meth:`Circuit.live_gates`
        when the caller already has it."""
        if live is None:
            live = circuit.live_gates()
        builder = CircuitBuilder()
        remap: Remap = {}
        self.prepare(circuit, live)
        for gate_id in live:
            gate = circuit.gates[gate_id]
            if isinstance(gate, InputGate):
                new = builder.input(gate.key)
            elif isinstance(gate, ConstGate):
                new = self.rewrite_const(builder, gate)
            elif isinstance(gate, AddGate):
                new = self.rewrite_add(builder, gate, gate_id, remap)
            elif isinstance(gate, MulGate):
                new = self.rewrite_mul(builder, gate, gate_id, remap)
            elif isinstance(gate, PermGate):
                new = self.rewrite_perm(builder, gate, gate_id, remap)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown gate {gate!r}")
            remap[gate_id] = new
        rebuilt = builder.build(remap[circuit.output])
        # build() may have interned a fallback const-0 output.
        remap[circuit.output] = rebuilt.output
        return rebuilt, remap

    # -- hooks -----------------------------------------------------------------

    def prepare(self, circuit: Circuit, live: List[GateId]) -> None:
        """Per-circuit precomputation (e.g. fan-out counts) over the
        ``live`` gates the rewrite will visit."""

    def rewrite_const(self, builder: CircuitBuilder,
                      gate: ConstGate) -> GateId:
        # Canonicalize bools so ConstGate(True) and ConstGate(1) intern
        # to the same gate (they coerce identically in every semiring).
        value = int(gate.value) if isinstance(gate.value, bool) else gate.value
        return builder.const(value)

    def rewrite_add(self, builder: CircuitBuilder, gate: AddGate,
                    gate_id: GateId, remap: Remap) -> Optional[GateId]:
        return builder.add([remap[c] for c in gate.children])

    def rewrite_mul(self, builder: CircuitBuilder, gate: MulGate,
                    gate_id: GateId, remap: Remap) -> Optional[GateId]:
        return builder.mul([remap[c] for c in gate.children])

    def rewrite_perm(self, builder: CircuitBuilder, gate: PermGate,
                     gate_id: GateId, remap: Remap) -> Optional[GateId]:
        return builder.perm([[None if e is None else remap[e] for e in row]
                             for row in gate.entries])


class CommonSubexpressionPass(RewritePass):
    """DCE + id compaction + structural CSE (the base rewrite)."""

    name = "cse"


class ConstantFoldPass(RewritePass):
    """Fold integer-constant subexpressions and semiring identities."""

    name = "fold"

    def rewrite_add(self, builder: CircuitBuilder, gate: AddGate,
                    gate_id: GateId, remap: Remap) -> Optional[GateId]:
        total = 0
        rest: List[GateId] = []
        for child in gate.children:
            mapped = remap[child]
            if mapped is None:
                continue
            value = _const_int(builder.gates[mapped])
            if value is None:
                rest.append(mapped)
            else:
                total += value
        if not rest:
            return builder.const(total) if total else None
        if total:
            rest.append(builder.const(total))
        return builder.add(rest)

    def rewrite_mul(self, builder: CircuitBuilder, gate: MulGate,
                    gate_id: GateId, remap: Remap) -> Optional[GateId]:
        coefficient = 1
        rest: List[GateId] = []
        for child in gate.children:
            mapped = remap[child]
            if mapped is None:
                return None  # x * 0 = 0 (a semiring axiom)
            value = _const_int(builder.gates[mapped])
            if value is None:
                rest.append(mapped)
            elif value == 0:
                return None
            else:
                coefficient *= value
        if not rest:
            return builder.const(coefficient)
        if coefficient != 1:
            rest.append(builder.const(coefficient))
        return builder.mul(rest)

    def rewrite_perm(self, builder: CircuitBuilder, gate: PermGate,
                     gate_id: GateId, remap: Remap) -> Optional[GateId]:
        entries: List[List[Optional[GateId]]] = []
        all_const = True
        for row in gate.entries:
            mapped_row: List[Optional[GateId]] = []
            for entry in row:
                mapped = None if entry is None else remap[entry]
                if mapped is not None and \
                        _const_int(builder.gates[mapped]) == 0:
                    mapped = None  # zero entries never match
                if mapped is not None and \
                        _const_int(builder.gates[mapped]) is None:
                    all_const = False
                mapped_row.append(mapped)
            entries.append(mapped_row)
        if all_const:
            matrix = [[0 if e is None else _const_int(builder.gates[e])
                       for e in row] for row in entries]
            value = permanent(matrix, _NATURAL)
            return builder.const(value) if value else None
        return builder.perm(entries)


class FlattenPass(RewritePass):
    """Inline fan-out-1 Add-in-Add / Mul-in-Mul children into the parent."""

    name = "flatten"

    def __init__(self):
        self._fan_out: Dict[GateId, int] = {}

    def prepare(self, circuit: Circuit, live: List[GateId]) -> None:
        fan_out: Dict[GateId, int] = {}
        for gate_id in live:
            for child in circuit.children_of(circuit.gates[gate_id]):
                fan_out[child] = fan_out.get(child, 0) + 1
        self._fan_out = fan_out

    def _splice(self, builder: CircuitBuilder, gate, gate_id: GateId,
                remap: Remap, kind: type) -> Tuple[List[GateId], bool]:
        children: List[GateId] = []
        saw_zero = False
        for child in gate.children:
            mapped = remap[child]
            if mapped is None:
                saw_zero = True
                continue
            mapped_gate = builder.gates[mapped]
            if isinstance(mapped_gate, kind) and \
                    self._fan_out.get(child, 0) <= 1:
                children.extend(mapped_gate.children)
            else:
                children.append(mapped)
        return children, saw_zero

    def rewrite_add(self, builder: CircuitBuilder, gate: AddGate,
                    gate_id: GateId, remap: Remap) -> Optional[GateId]:
        children, _ = self._splice(builder, gate, gate_id, remap, AddGate)
        return builder.add(children)

    def rewrite_mul(self, builder: CircuitBuilder, gate: MulGate,
                    gate_id: GateId, remap: Remap) -> Optional[GateId]:
        children, saw_zero = self._splice(builder, gate, gate_id, remap,
                                          MulGate)
        if saw_zero:
            return None
        return builder.mul(children)


#: Registry of available passes by name.
PASSES = {
    "cse": CommonSubexpressionPass,
    "dce": CommonSubexpressionPass,  # alias: DCE is inherent to a rebuild
    "fold": ConstantFoldPass,
    "flatten": FlattenPass,
}

#: Default pipeline: fold constants, flatten chains, re-fold what
#: flattening exposed.  (DCE/CSE happen inside every pass.)
DEFAULT_PIPELINE: Tuple[str, ...] = ("fold", "flatten", "fold")


@dataclass
class OptimizeResult:
    """An optimized circuit plus the bookkeeping to relate it back.

    ``remap`` maps every gate id that was *live in the original circuit*
    to its replacement id in :attr:`circuit`, or ``None`` when the gate
    was eliminated (folded to the semiring zero, or made unreachable).
    ``trace`` records ``(pass name, stored gate count after the pass)``
    for every pass that ran; ``skipped`` lists passes elided because
    they were provably no-ops (e.g. constant folding on a circuit with
    no constant gates).
    """

    circuit: Circuit
    remap: Remap
    trace: List[Tuple[str, int]] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)

    @property
    def gates_before(self) -> int:
        return len(self.remap)

    @property
    def gates_after(self) -> int:
        return len(self.circuit.live_gates())


def compact(circuit: Circuit, live: List[GateId]) -> Tuple[Circuit, Remap]:
    """Drop the dead gates of a pass's output by renumbering its ``live``
    gates (ascending) to ``0 .. len(live) - 1``.

    Equal to rebuilding through a fresh :class:`CircuitBuilder` — the
    same gates, output, inputs table and remap — because the pass that
    produced ``circuit`` already interned every gate: live gates are
    pairwise distinct, a renaming keeps them distinct, and every gate is
    in the builder's normal form (no constant-one ``mul`` child, no bool
    constant, no trivial ``add``/``perm``), so re-interning it would
    neither merge nor rewrite anything.
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


def _compose(outer: Remap, inner: Remap) -> Remap:
    """``old -> mid`` composed with ``mid -> new`` (``None`` absorbs)."""
    return {old: (None if mid is None else inner.get(mid))
            for old, mid in outer.items()}


def optimize_circuit(circuit: Circuit,
                     passes: Optional[Sequence[str]] = None) -> OptimizeResult:
    """Run a pass pipeline over ``circuit``.

    ``passes`` is a sequence of names from :data:`PASSES` (default:
    :data:`DEFAULT_PIPELINE`).  The result's circuit computes the same
    value as ``circuit`` in **every** commutative semiring, its
    ``inputs`` table is rebuilt for the surviving input gates, and
    ``result.remap`` translates original gate ids.
    """
    if passes is None:
        passes = DEFAULT_PIPELINE
    live = circuit.live_gates()
    remap: Remap = {g: g for g in live}
    trace: List[Tuple[str, int]] = []
    skipped: List[str] = []
    current = circuit
    for name in passes:
        try:
            pass_cls = PASSES[name]
        except KeyError:
            raise ValueError(f"unknown optimization pass {name!r}; "
                             f"available: {sorted(PASSES)}") from None
        # Constant folding on a circuit without constant gates degenerates
        # to the base rebuild; elide it so an all-structural pipeline pays
        # for exactly one rebuild per pass that can make progress.
        if pass_cls is ConstantFoldPass and \
                not any(isinstance(g, ConstGate) for g in current.gates):
            skipped.append(name)
            continue
        current, step = pass_cls().run(current, live)
        live = current.live_gates()
        remap = _compose(remap, step)
        trace.append((name, len(current.gates)))
    if passes and not trace:
        # Everything was elided: still deliver the rebuild guarantees
        # (dead-gate elimination, id compaction, CSE).
        current, step = CommonSubexpressionPass().run(current, live)
        remap = _compose(remap, step)
        trace.append(("cse", len(current.gates)))
    elif len(live) != len(current.gates):
        # Rewrites that absorb children into parents (flattening, folding)
        # leave the absorbed gates as dead storage; one closing step
        # restores the compactness contract: every stored gate is live.
        # After a pass the live gates are already interned, so renaming
        # them is the rebuild; a circuit no pass touched is rebuilt.
        if trace:
            current, step = compact(current, live)
        else:
            current, step = CommonSubexpressionPass().run(current, live)
        remap = _compose(remap, step)
        trace.append(("compact", len(current.gates)))
    return OptimizeResult(current, remap, trace, skipped)
