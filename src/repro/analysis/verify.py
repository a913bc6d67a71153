"""The compiled-plan IR verifier: machine-checked well-formedness.

A compiled plan crosses several trust seams — it is optimized in place
of the raw Theorem 6 circuit, layer-scheduled, ``rebind``-ed across
content-equal structures by the plan cache, serialized to disk by the
plan store, and deserialized in a *fresh process* from bytes nobody in
that process produced.  Each seam assumes the full well-formedness
contract of the IR:

* gates are stored in topological order (children before parents) and
  referenced by in-range ids — every evaluator walks the array relying
  on this;
* ``AddGate``/``MulGate`` have fan-in >= 2 (the builder collapses
  smaller ones) and ``PermGate`` matrices are rectangular;
* the circuit's input table maps each key to the input gate that
  carries it, and no two live input gates share a key (hash-consing);
* a :class:`~repro.circuits.LayerSchedule` lists every live gate
  once, in ascending id order, each gate's children lie in strictly
  earlier layers (hence all gates within a layer are mutually
  independent), and its input and constant tables agree with the
  circuit;
* every live input gate has a recorded valuation entry, and the
  serialized state carries every ``CompiledQuery`` field that is not
  derivable at load time.

:func:`verify_circuit`, :func:`verify_schedule` and :func:`verify_plan`
check these statically, in one linear pass over gates and edges, and
raise :class:`PlanVerifyError` naming the first violated invariant.
:func:`verify_plan_state` verifies a raw serialized state (the form the
plan store and the ``verify-store`` CLI see) without a host structure.

Verification runs at every trust boundary:

* :meth:`repro.serve.PlanStore.load` verifies every plan deserialized
  from disk; a rejection is a counted miss (recompile), never a crash;
* ``REPRO_VERIFY_PLANS=1`` (or ``compile_structure_query(verify=True)``)
  verifies every plan the compile pipeline produces, post-compile;
* the test suite's compile helpers verify every plan they build;
* ``python -m repro.analysis verify-store <dir>`` audits a store.
"""

from __future__ import annotations

import dataclasses
import os
from typing import TYPE_CHECKING, Any

from ..circuits import (AddGate, Circuit, ConstGate, InputGate, LayerSchedule,
                        MulGate, PermGate, PlanStateError)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core import CompiledQuery

__all__ = ["PlanVerifyError", "verify_circuit", "verify_schedule",
           "verify_plan", "verify_plan_state", "verification_enabled"]


class PlanVerifyError(PlanStateError):
    """A compiled plan violates the IR well-formedness contract.

    Subclasses :class:`~repro.circuits.PlanStateError`, so every seam
    that already treats malformed serialized state as a miss (the plan
    store, the compile fallback) handles verification rejections the
    same way — while callers that care can still tell the two apart.
    """


def _fail(message: str) -> None:
    raise PlanVerifyError(message)


#: The gate classes the IR vocabulary is closed over.
_GATE_TYPES = (InputGate, ConstGate, AddGate, MulGate, PermGate)


def _check_child(child: Any, gate_id: int, what: str) -> None:
    if isinstance(child, bool) or not isinstance(child, int):
        _fail(f"gate {gate_id}: {what} {child!r} is not a gate id")
    if not 0 <= child < gate_id:
        _fail(f"gate {gate_id}: {what} {child} is out of range [0, "
              f"{gate_id}) — children must precede parents "
              f"(topological gate order)")


def verify_circuit(circuit: Circuit) -> None:
    """Check the full circuit well-formedness contract.

    Gates in topological order with children strictly before parents,
    no dangling gate references, Add/Mul fan-in >= 2, rectangular
    permanent matrices, an in-range output, an input table consistent
    with the gate array, and no duplicate live input keys.  Raises
    :class:`PlanVerifyError` on the first violation; returns ``None``
    on success.  Cost is one linear pass over gates and edges.
    """
    gates = circuit.gates
    if not gates:
        _fail("circuit has no gates")
    for gate_id, gate in enumerate(gates):
        if not isinstance(gate, _GATE_TYPES):
            _fail(f"gate {gate_id}: unknown gate kind "
                  f"{type(gate).__name__!r}")
        if isinstance(gate, (AddGate, MulGate)):
            kind = type(gate).__name__
            if not isinstance(gate.children, tuple):
                _fail(f"gate {gate_id}: {kind} children must be a tuple, "
                      f"got {type(gate.children).__name__}")
            if len(gate.children) < 2:
                _fail(f"gate {gate_id}: {kind} fan-in "
                      f"{len(gate.children)} < 2 (the builder collapses "
                      f"smaller gates)")
            for child in gate.children:
                _check_child(child, gate_id, "child")
        elif isinstance(gate, PermGate):
            # Shape (rectangularity, entry types) is enforced by
            # PermGate.__post_init__; the id bound needs the position.
            for row in gate.entries:
                for entry in row:
                    if entry is not None:
                        _check_child(entry, gate_id, "permanent entry")
    output = circuit.output
    if isinstance(output, bool) or not isinstance(output, int) \
            or not 0 <= output < len(gates):
        _fail(f"output gate {output!r} is not a valid gate id "
              f"(circuit has {len(gates)} gates)")
    for key, gate_id in circuit.inputs.items():
        if isinstance(gate_id, bool) or not isinstance(gate_id, int) \
                or not 0 <= gate_id < len(gates):
            _fail(f"input table entry {key!r} -> {gate_id!r} is not a "
                  f"valid gate id")
        gate = gates[gate_id]
        if not isinstance(gate, InputGate) or gate.key != key:
            _fail(f"input table entry {key!r} -> gate {gate_id} does not "
                  f"name an InputGate with that key (found "
                  f"{type(gate).__name__})")
    seen_keys = set()
    for gate_id in circuit.live_gates():
        gate = gates[gate_id]
        if isinstance(gate, InputGate):
            if gate.key in seen_keys:
                _fail(f"duplicate live input gates for key {gate.key!r} "
                      f"(hash-consing requires one gate per key)")
            seen_keys.add(gate.key)
            if circuit.inputs.get(gate.key) != gate_id:
                _fail(f"live input gate {gate_id} (key {gate.key!r}) is "
                      f"missing from the circuit's input table")


def verify_schedule(schedule: LayerSchedule,
                    circuit: Circuit | None = None) -> None:
    """Check a layer schedule against its circuit.

    ``layer_of`` lists exactly the live gates, in ascending gate-id
    order, and places every child of a gate in layer ``i`` in a layer
    ``j < i`` (which makes all gates within one layer mutually
    independent); the input and constant tables list the circuit's live
    input and constant gates, in gate-id order.

    ``circuit`` (optional) asserts the schedule is bound to the circuit
    the caller is about to evaluate — a rebind seam check.
    """
    if circuit is not None and schedule.circuit is not circuit:
        _fail("schedule is bound to a different circuit object")
    circuit = schedule.circuit
    gates = circuit.gates
    layer_of = schedule.layer_of
    live = circuit.live_gates()
    scheduled = list(layer_of)
    if scheduled != live:
        live_set, scheduled_set = set(live), set(scheduled)
        if scheduled_set == live_set:
            _fail("schedule.layer_of is not in ascending gate-id order")
        missing = [g for g in live if g not in scheduled_set][:5]
        extra = [g for g in scheduled if g not in live_set][:5]
        _fail(f"schedule does not cover exactly the live gates "
              f"(missing {missing}, extra {extra})")
    inputs_seen = []
    consts_seen = []
    for gate_id, layer in layer_of.items():
        gate = gates[gate_id]
        for child in circuit.children_of(gate):
            if layer_of[child] >= layer:
                _fail(f"gate {gate_id} (layer {layer}) depends on gate "
                      f"{child} (layer {layer_of[child]}) — children must "
                      f"lie in strictly earlier layers")
        if isinstance(gate, InputGate):
            inputs_seen.append((gate_id, gate.key))
        elif isinstance(gate, ConstGate):
            consts_seen.append((gate_id, gate.value))
    if list(schedule.input_gates) != inputs_seen:
        _fail("schedule input-gate table disagrees with the circuit's "
              "live input gates")
    if list(schedule.const_gates) != consts_seen:
        _fail("schedule constant-gate table disagrees with the circuit's "
              "live constant gates")


#: CompiledQuery fields captured by ``to_state()``.
_STATE_FIELDS = frozenset({
    "circuit", "recorded", "dynamic_relations", "colors", "color_subsets",
    "max_forest_height",
})

#: CompiledQuery fields deliberately NOT serialized: rebound to the
#: caller's context at load time...
_REBOUND_FIELDS = frozenset({"structure", "gaifman"})

#: ...or ephemeral caches/telemetry rebuilt lazily (the layer schedule
#: is a function of the circuit).
_EPHEMERAL_FIELDS = frozenset({
    "_schedule", "_base_cache", "_base_lock", "_kernel_stats",
    "_kernel_stats_lock", "_stage_seconds",
})

#: The exact key set of a serialized plan state (``to_state()`` output).
_STATE_KEYS = frozenset({
    "format", "circuit", "recorded", "dynamic_relations", "decomposition",
})

_RECORDED_KINDS = ("b", "w", "s")


def verify_plan(plan: "CompiledQuery") -> None:
    """Check a whole compiled plan: circuit, schedule (when built),
    recorded-input coverage, and serialize-state completeness.

    The recorded table must cover every live input gate (selector
    inputs included, as value-less ``"s"`` entries) — that is what makes
    ``input_valuation`` total.  The decomposition counts must be
    natural numbers.  Finally, every dataclass field of
    ``CompiledQuery`` must be accounted for by the serializer: a
    field that is neither serialized, nor rebound at load time, nor a
    documented ephemeral cache means ``to_state``/``from_state`` would
    silently drop state — the drift this check exists to catch.
    """
    verify_circuit(plan.circuit)
    if plan._schedule is not None:
        verify_schedule(plan._schedule, plan.circuit)
    recorded = plan.recorded
    for key, entry in recorded.items():
        if not (isinstance(entry, tuple) and len(entry) == 2
                and entry[0] in _RECORDED_KINDS):
            _fail(f"recorded entry {key!r} -> {entry!r} is not a "
                  f"('b'|'w'|'s', value) pair")
    for key, gate_id in plan.circuit.inputs.items():
        if key not in recorded:
            _fail(f"input gate {gate_id} (key {key!r}) has no recorded "
                  f"valuation entry — input_valuation would be partial")
    for name in ("colors", "color_subsets", "max_forest_height"):
        count = getattr(plan, name)
        if type(count) is not int or count < 0:
            _fail(f"decomposition count {name} = {count!r} is not a "
                  f"natural number")
    if not isinstance(plan.dynamic_relations, frozenset):
        _fail(f"dynamic_relations {plan.dynamic_relations!r} is not a "
              f"frozenset")
    field_names = {field.name for field in dataclasses.fields(type(plan))}
    unaccounted = field_names - _STATE_FIELDS - _REBOUND_FIELDS \
        - _EPHEMERAL_FIELDS
    if unaccounted:
        _fail(f"CompiledQuery fields {sorted(unaccounted)} are not "
              f"covered by the serializer: add them to to_state()/"
              f"from_state() (and to repro.analysis.verify._STATE_FIELDS) "
              f"or declare them rebound/ephemeral there")
    missing = (_STATE_FIELDS | _REBOUND_FIELDS | _EPHEMERAL_FIELDS) \
        - field_names
    if missing:
        _fail(f"repro.analysis.verify declares CompiledQuery fields "
              f"{sorted(missing)} that no longer exist — update its "
              f"field registry")


def verify_plan_state(state: Any) -> "CompiledQuery":
    """Verify a raw serialized plan state (``to_state()`` output).

    This is the no-structure form used at the store/CLI seam, where the
    host structure is unknown: the state is decoded over an empty
    structure (plans never read the structure at load time — it is a
    rebind target) and pushed through the full :func:`verify_plan`
    contract.  Any decode failure or contract violation raises
    :class:`PlanVerifyError`; the decoded plan is returned so callers
    that do have the right structure can ``rebind`` it.
    """
    from ..core import CompiledQuery
    from ..structures import Structure
    if not isinstance(state, dict):
        _fail(f"plan state is not a mapping ({type(state).__name__})")
    keys = set(state)
    if keys != _STATE_KEYS:
        _fail(f"plan state keys {sorted(keys)} != expected "
              f"{sorted(_STATE_KEYS)} (missing "
              f"{sorted(_STATE_KEYS - keys)}, unexpected "
              f"{sorted(keys - _STATE_KEYS)})")
    try:
        plan = CompiledQuery.from_state(state, Structure([]), None)
    except PlanVerifyError:
        raise
    except PlanStateError as error:
        raise PlanVerifyError(str(error)) from None
    except (ValueError, TypeError, KeyError) as error:
        raise PlanVerifyError(f"malformed plan state: {error}") from None
    verify_plan(plan)
    return plan


def verification_enabled(explicit: bool | None = None) -> bool:
    """Whether post-compile plan verification is on.

    ``explicit`` (``compile_structure_query``'s ``verify=``) wins;
    ``None`` defers to the ``REPRO_VERIFY_PLANS`` environment variable
    (truthy unless empty/``0``/``false``/``no``/``off``) — how CI and
    debugging sessions opt whole processes in without code changes.
    """
    if explicit is not None:
        return bool(explicit)
    value = os.environ.get("REPRO_VERIFY_PLANS", "")
    return value.strip().lower() not in ("", "0", "false", "no", "off")
