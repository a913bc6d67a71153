"""Human-readable circuit dumps: indented text and Graphviz dot.

Debugging/teaching aids: Theorem 6's output is a data structure, and being
able to *look* at it (shared fragments, permanent gates, pruned labels) is
half the point of the circuit framework.
"""

from __future__ import annotations

from typing import List, Optional, Set

from .gates import (AddGate, Circuit, ConstGate, GateId, InputGate, MulGate,
                    PermGate)


def _label(circuit: Circuit, gate_id: GateId) -> str:
    gate = circuit.gates[gate_id]
    if isinstance(gate, InputGate):
        return f"in{gate_id}[{gate.key!r}]"
    if isinstance(gate, ConstGate):
        return f"const{gate_id}({gate.value!r})"
    if isinstance(gate, AddGate):
        return f"add{gate_id}(+{len(gate.children)})"
    if isinstance(gate, MulGate):
        return f"mul{gate_id}(*{len(gate.children)})"
    if isinstance(gate, PermGate):
        return f"perm{gate_id}({gate.rows}x{gate.cols})"
    return f"g{gate_id}"


def render_text(circuit: Circuit, max_depth: Optional[int] = None) -> str:
    """Indented tree view from the output gate (shared gates marked)."""
    lines: List[str] = []
    seen: Set[GateId] = set()

    def walk(gate_id: GateId, indent: int) -> None:
        prefix = "  " * indent
        label = _label(circuit, gate_id)
        if gate_id in seen:
            lines.append(f"{prefix}{label} (shared)")
            return
        seen.add(gate_id)
        lines.append(f"{prefix}{label}")
        if max_depth is not None and indent >= max_depth:
            return
        for child in circuit.children_of(circuit.gates[gate_id]):
            walk(child, indent + 1)

    walk(circuit.output, 0)
    return "\n".join(lines)


def render_dot(circuit: Circuit) -> str:
    """Graphviz dot of the live subcircuit."""
    shapes = {InputGate: "box", ConstGate: "plaintext", AddGate: "ellipse",
              MulGate: "diamond", PermGate: "hexagon"}
    lines = ["digraph circuit {", "  rankdir=BT;"]
    live = circuit.live_gates()
    for gate_id in live:
        gate = circuit.gates[gate_id]
        shape = shapes.get(type(gate), "ellipse")
        label = _label(circuit, gate_id).replace('"', "'")
        style = ' style=bold' if gate_id == circuit.output else ""
        lines.append(f'  g{gate_id} [label="{label}" shape={shape}{style}];')
    for gate_id in live:
        for child in circuit.children_of(circuit.gates[gate_id]):
            lines.append(f"  g{child} -> g{gate_id};")
    lines.append("}")
    return "\n".join(lines)


def summarize(circuit: Circuit) -> str:
    """One-paragraph summary of the Theorem 6 parameters.

    Counts are over *live* gates only, so the summary stays accurate for
    optimized circuits; when the gate array stores additional dead gates
    (builder spares, pre-compaction circuits) they are reported
    separately rather than inflating the headline number.
    """
    stats = circuit.stats()
    kinds = ", ".join(f"{count} {name}" for name, count in
                      sorted(stats["kinds"].items()))
    dead = stats["dead_gates"]
    dead_note = f" (+{dead} dead)" if dead else ""
    return (f"circuit: {stats['gates']} gates{dead_note} / "
            f"{stats['edges']} edges "
            f"(depth {stats['depth']}, fan-in <= {stats['max_fan_in']}, "
            f"fan-out <= {stats['max_fan_out']}, "
            f"permanent rows <= {stats['max_perm_rows']}); {kinds}")


def describe_optimization(result) -> str:
    """Render an :class:`~repro.circuits.OptimizeResult`: live gates
    before and after, gates eliminated and inputs kept."""
    eliminated = sum(1 for new in result.remap.values() if new is None)
    return (f"optimized {result.gates_before} -> {result.gates_after} live "
            f"gates; {eliminated} gates eliminated, "
            f"{len(result.circuit.inputs)} inputs retained")
