"""The IR verifier: every seeded corruption rejected, every real plan passed.

Three families:

* pipeline plans are clean — every plan the compile pipeline produces,
  across all 13 shipped semirings, optimized and raw, passes
  ``verify_plan`` and ``verify_plan_state``;
* seeded mutations are rejected — flipped gate ids, dangling outputs,
  unary additions, truncated permanent rows, inconsistent input tables,
  misordered, incomplete or over-full layer tables, dropped or
  left-over serialized fields, missing recorded entries, malformed
  decomposition counts, and unserialized dataclass fields: each a
  distinct corruption class, each
  rejected with a precise :class:`PlanVerifyError`;
* the trust seams hold — a corrupted ``.plan-store`` entry is a counted
  ``rejected`` miss that falls back to recompile (never a crash), the
  ``REPRO_VERIFY_PLANS``/``compile_structure_query(verify=...)`` hook
  runs at compile time, and the ``verify-store`` CLI audits directories.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys

import pytest

from repro.analysis import (PlanVerifyError, verification_enabled,
                            verify_circuit, verify_plan, verify_plan_state,
                            verify_schedule)
from repro.circuits import (AddGate, Circuit, InputGate, MulGate, PermGate,
                            build_schedule, dump_plan_bytes, load_plan_bytes)
from repro.circuits.schedule import LayerSchedule
from repro.core import CompiledQuery, compile_structure_query, plan_cache_key
from repro.semirings import NATURAL
from repro.serve import PlanStore

from repro.logic import Atom, Bracket, Sum, Weight

from tests.test_plan_store import (EDGE_SUM, SEMIRING_CASES, TRIANGLE,
                                   weighted_structure)
from tests.util import compile_verified

#: A star query: two independent branches below ``x`` make the forest
#: compiler emit genuine multi-row permanent gates.
_E = lambda x, y: Atom("E", (x, y))  # noqa: E731
_w = lambda x, y: Weight("w", (x, y))  # noqa: E731
STAR = Sum(("x", "y", "z"),
           Bracket(_E("x", "y") & _E("x", "z")) * _w("x", "y") * _w("x", "z"))


def triangle_plan(optimize=True):
    return compile_structure_query(weighted_structure(), TRIANGLE,
                                    optimize=optimize)


def clone_circuit(circuit):
    return Circuit(list(circuit.gates), circuit.output,
                   dict(circuit.inputs))


# -- pipeline plans are clean ----------------------------------------------------


@pytest.mark.parametrize("sr,conv",
                         [(sr, conv) for _, sr, conv in SEMIRING_CASES],
                         ids=[name for name, _, _ in SEMIRING_CASES])
@pytest.mark.parametrize("expr", [TRIANGLE, EDGE_SUM],
                         ids=["triangle", "edge-sum"])
@pytest.mark.parametrize("optimize", [True, False],
                         ids=["optimized", "raw"])
def test_pipeline_plans_verify_clean(sr, conv, expr, optimize):
    plan = compile_structure_query(weighted_structure(conv), expr,
                                    optimize=optimize)
    verify_plan(plan)
    # The serialized form passes the no-structure (store/CLI) entry too.
    verify_plan_state(plan.to_state())


def test_schedule_verifies_against_its_circuit():
    plan = triangle_plan()
    verify_schedule(plan.schedule(), plan.circuit)
    other = triangle_plan()
    with pytest.raises(PlanVerifyError, match="different circuit"):
        verify_schedule(plan.schedule(), other.circuit)


# -- seeded mutations: circuit ---------------------------------------------------


def test_mutation_flipped_gate_id_breaks_topological_order():
    plan = triangle_plan()
    circuit = clone_circuit(plan.circuit)
    victim = next(i for i, g in enumerate(circuit.gates)
                  if isinstance(g, (AddGate, MulGate)))
    gate = circuit.gates[victim]
    # Flip one child to reference the gate itself (a forward edge).
    flipped = type(gate)((victim,) + tuple(gate.children[1:]))
    circuit.gates[victim] = flipped
    with pytest.raises(PlanVerifyError, match="topological"):
        verify_circuit(circuit)


def test_mutation_dangling_output():
    plan = triangle_plan()
    circuit = clone_circuit(plan.circuit)
    circuit.output = len(circuit.gates) + 7
    with pytest.raises(PlanVerifyError, match="output gate"):
        verify_circuit(circuit)


def test_mutation_unary_add_gate():
    plan = triangle_plan()
    circuit = clone_circuit(plan.circuit)
    victim = next(i for i, g in enumerate(circuit.gates)
                  if isinstance(g, AddGate))
    circuit.gates[victim] = AddGate(circuit.gates[victim].children[:1])
    with pytest.raises(PlanVerifyError, match="fan-in"):
        verify_circuit(circuit)


def test_mutation_truncated_perm_row_rejected_at_construction():
    # PermGate.__post_init__ is the first line of defense: a ragged
    # matrix cannot even be constructed.
    with pytest.raises(ValueError, match="not rectangular"):
        PermGate(((1, 2), (3,)))
    with pytest.raises(ValueError, match="not a gate id"):
        PermGate(((1, -2),))


def test_mutation_truncated_perm_row_in_state():
    plan = compile_structure_query(weighted_structure(), STAR,
                                    optimize=False)
    verify_plan(plan)
    state = plan.to_state()
    mutated = False
    for gate_state in state["circuit"]["gates"]:
        if gate_state[0] == "p" and len(gate_state[1][-1]) >= 2:
            gate_state[1][-1].pop()  # truncate the last row
            mutated = True
            break
    assert mutated, "expected a permanent gate in the raw star plan"
    with pytest.raises(PlanVerifyError):
        verify_plan_state(state)


def test_mutation_input_table_points_at_wrong_gate():
    plan = triangle_plan()
    circuit = clone_circuit(plan.circuit)
    key = next(iter(circuit.inputs))
    wrong = next(i for i, g in enumerate(circuit.gates)
                 if not (isinstance(g, InputGate) and g.key == key))
    circuit.inputs[key] = wrong
    with pytest.raises(PlanVerifyError, match="input table"):
        verify_circuit(circuit)


def test_mutation_duplicate_live_input_keys():
    plan = triangle_plan()
    circuit = clone_circuit(plan.circuit)
    key = next(k for k, gate_id in circuit.inputs.items()
               if gate_id in circuit.live_gates())
    # A second gate with the same key, fed into a new output add gate so
    # both duplicates are live.
    clone = len(circuit.gates)
    circuit.gates.append(InputGate(key))
    circuit.gates.append(AddGate((circuit.output, clone)))
    circuit.output = clone + 1
    with pytest.raises(PlanVerifyError, match="duplicate live input"):
        verify_circuit(circuit)


# -- seeded mutations: schedule --------------------------------------------------


def with_tables(schedule, layer_of=None, input_gates=None, const_gates=None):
    return LayerSchedule(
        schedule.circuit,
        schedule.layer_of if layer_of is None else layer_of,
        schedule.input_gates if input_gates is None else input_gates,
        schedule.const_gates if const_gates is None else const_gates)


def test_mutation_reordered_layers():
    schedule = build_schedule(triangle_plan().circuit)
    top = max(schedule.layer_of.values())
    assert top >= 1
    swapped = {0: top, top: 0}
    layer_of = {gate_id: swapped.get(layer, layer)
                for gate_id, layer in schedule.layer_of.items()}
    with pytest.raises(PlanVerifyError, match="strictly earlier"):
        verify_schedule(with_tables(schedule, layer_of=layer_of))


def test_mutation_child_in_its_parents_layer():
    schedule = build_schedule(triangle_plan().circuit)
    circuit = schedule.circuit
    output = circuit.output
    child = circuit.children_of(circuit.gates[output])[0]
    layer_of = dict(schedule.layer_of)
    layer_of[child] = layer_of[output]
    with pytest.raises(PlanVerifyError, match="strictly earlier"):
        verify_schedule(with_tables(schedule, layer_of=layer_of))


def test_mutation_dropped_layer_breaks_coverage():
    schedule = build_schedule(triangle_plan().circuit)
    layer_of = {gate_id: layer - 1
                for gate_id, layer in schedule.layer_of.items() if layer}
    with pytest.raises(PlanVerifyError, match="does not cover"):
        verify_schedule(with_tables(schedule, layer_of=layer_of))


def test_mutation_dead_gate_scheduled():
    circuit = clone_circuit(triangle_plan().circuit)
    live = circuit.live_gates()
    circuit.gates.append(AddGate((live[0], live[1])))   # never read
    schedule = build_schedule(circuit)
    layer_of = dict(schedule.layer_of)
    layer_of[len(circuit.gates) - 1] = 1 + max(layer_of[live[0]],
                                               layer_of[live[1]])
    with pytest.raises(PlanVerifyError, match="does not cover"):
        verify_schedule(with_tables(schedule, layer_of=layer_of))


def test_mutation_out_of_order_layer_table():
    schedule = build_schedule(triangle_plan().circuit)
    layer_of = dict(reversed(list(schedule.layer_of.items())))
    with pytest.raises(PlanVerifyError, match="ascending gate-id order"):
        verify_schedule(with_tables(schedule, layer_of=layer_of))


def test_mutation_wrong_input_table():
    schedule = build_schedule(triangle_plan().circuit)
    inputs = schedule.input_gates
    assert len(inputs) >= 2
    swapped = (inputs[1], inputs[0]) + inputs[2:]
    with pytest.raises(PlanVerifyError, match="input-gate table"):
        verify_schedule(with_tables(schedule, input_gates=swapped))


def test_mutation_wrong_constant_table():
    schedule = build_schedule(triangle_plan().circuit)
    gate_id = schedule.input_gates[0][0]   # an input, not a constant
    with pytest.raises(PlanVerifyError, match="constant-gate table"):
        verify_schedule(with_tables(
            schedule, const_gates=schedule.const_gates + ((gate_id, 1),)))


# -- seeded mutations: serialized state ------------------------------------------


def test_mutation_dropped_state_field():
    state = triangle_plan().to_state()
    del state["recorded"]
    with pytest.raises(PlanVerifyError, match="missing"):
        verify_plan_state(state)


def test_mutation_unexpected_state_field():
    # "forests", "coloring" and "schedule" were state keys once: a state
    # still carrying one was not written by this format.
    for key, value in (("extra", 1), ("forests", []), ("coloring", []),
                       ("schedule", None)):
        state = triangle_plan().to_state()
        state[key] = value
        with pytest.raises(PlanVerifyError, match="unexpected"):
            verify_plan_state(state)


def test_mutation_missing_recorded_entry():
    state = triangle_plan().to_state()
    assert state["recorded"], "triangle plan records inputs"
    state["recorded"] = state["recorded"][1:]
    with pytest.raises(PlanVerifyError, match="recorded"):
        verify_plan_state(state)


def test_mutation_malformed_decomposition_counts():
    for counts in ([3, -1, 2], [3, 7, "2"], [3, 7, True], [3, 7]):
        state = triangle_plan().to_state()
        state["decomposition"] = counts
        with pytest.raises(PlanVerifyError):
            verify_plan_state(state)
    plan = triangle_plan()
    plan.color_subsets = None
    with pytest.raises(PlanVerifyError, match="color_subsets"):
        verify_plan(plan)


def test_field_registry_matches_the_dataclass_exactly():
    from repro.analysis import verify as registry
    declared = (registry._STATE_FIELDS | registry._REBOUND_FIELDS
                | registry._EPHEMERAL_FIELDS)
    fields = {field.name for field in dataclasses.fields(CompiledQuery)}
    assert declared == fields
    assert not fields & {"forests", "coloring"}
    # One state key per serialized field, the three counts under one.
    assert registry._STATE_KEYS == set(triangle_plan().to_state())


def test_unserialized_dataclass_field_is_flagged():
    # A CompiledQuery variant grows a field without touching the
    # serializer: the completeness check must trip, naming the field.
    @dataclasses.dataclass
    class Extended(CompiledQuery):
        shiny_new_field: int = 0

    plan = triangle_plan()
    extended = Extended(**{f.name: getattr(plan, f.name)
                           for f in dataclasses.fields(CompiledQuery)})
    with pytest.raises(PlanVerifyError, match="shiny_new_field"):
        verify_plan(extended)


# -- the trust seams -------------------------------------------------------------


def corrupt_store_entry(store, key):
    """Rewrite the entry so it decodes cleanly but violates the IR
    contract (one recorded entry dropped) — the container checksum is
    regenerated, so only the verifier can catch it."""
    path = store._entry_path(key)
    with open(path, "rb") as handle:
        container = load_plan_bytes(handle.read())
    container["plan"]["recorded"] = container["plan"]["recorded"][1:]
    with open(path, "wb") as handle:
        handle.write(dump_plan_bytes(container))


def test_corrupted_store_entry_falls_back_to_recompile(tmp_path):
    structure = weighted_structure()
    store = PlanStore(tmp_path)
    compiled = compile_structure_query(structure, TRIANGLE,
                                        plan_store=store)
    key = plan_cache_key(structure, TRIANGLE, frozenset(), True)
    corrupt_store_entry(store, key)

    # Direct load: a counted rejection, never a crash, entry removed.
    assert store.load(key, weighted_structure(), TRIANGLE) is None
    assert store.stats()["rejected"] == 1
    assert len(store) == 0

    # Through the compile pipeline: transparent recompile + re-save.
    corrupt = PlanStore(tmp_path)
    compile_structure_query(structure, TRIANGLE, plan_store=corrupt)
    recompiled = compile_structure_query(weighted_structure(), TRIANGLE,
                                          plan_store=corrupt)
    assert recompiled.evaluate(NATURAL) == compiled.evaluate(NATURAL)
    stats = corrupt.stats()
    assert stats["rejected"] == 0 and stats["hits"] == 1


def test_rejected_store_load_recompiles_and_heals(tmp_path):
    structure = weighted_structure()
    store = PlanStore(tmp_path)
    compiled = compile_structure_query(structure, TRIANGLE,
                                        plan_store=store)
    key = plan_cache_key(structure, TRIANGLE, frozenset(), True)
    corrupt_store_entry(store, key)
    recompiled = compile_structure_query(weighted_structure(), TRIANGLE,
                                          plan_store=store)
    assert recompiled.evaluate(NATURAL) == compiled.evaluate(NATURAL)
    stats = store.stats()
    assert stats["rejected"] == 1
    assert stats["saves"] == 2  # the recompile healed the entry
    assert store.load(key, weighted_structure(), TRIANGLE) is not None


def test_compile_verify_hook_opt_in(monkeypatch):
    monkeypatch.delenv("REPRO_VERIFY_PLANS", raising=False)
    assert not verification_enabled()
    assert verification_enabled(True)
    assert not verification_enabled(False)
    monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")
    assert verification_enabled()
    assert not verification_enabled(False)  # explicit beats the env
    monkeypatch.setenv("REPRO_VERIFY_PLANS", "off")
    assert not verification_enabled()


def test_compile_verified_helper_runs_the_verifier():
    plan = compile_verified(weighted_structure(), TRIANGLE)
    assert plan.evaluate(NATURAL) == triangle_plan().evaluate(NATURAL)


def test_verify_plans_env_reaches_facade_compiles(monkeypatch):
    """The facade has no verify option: ``REPRO_VERIFY_PLANS`` is how a
    process opts every handle's compile into the verifier."""
    from repro.analysis import verify as verify_module
    from repro.api import Database
    expected = triangle_plan().evaluate(NATURAL)
    verified = []
    real = verify_module.verify_plan
    monkeypatch.setattr(verify_module, "verify_plan",
                        lambda plan: verified.append(plan) or real(plan))
    for setting, count in (("0", 0), ("1", 1)):
        monkeypatch.setenv("REPRO_VERIFY_PLANS", setting)
        with Database(weighted_structure()) as db:
            assert db.prepare(TRIANGLE).value(NATURAL) == expected
        assert len(verified) == count


def test_verify_store_cli(tmp_path):
    structure = weighted_structure()
    store = PlanStore(tmp_path)
    compile_structure_query(structure, TRIANGLE, plan_store=store)
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.path.join(root, "src") \
        + os.pathsep + env.get("PYTHONPATH", "")
    ok = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "verify-store",
         str(tmp_path)], capture_output=True, text=True, env=env)
    assert ok.returncode == 0, ok.stdout + ok.stderr
    assert "0 failed" in ok.stdout

    key = plan_cache_key(structure, TRIANGLE, frozenset(), True)
    corrupt_store_entry(store, key)
    bad = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "verify-store",
         str(tmp_path)], capture_output=True, text=True, env=env)
    assert bad.returncode == 1, bad.stdout + bad.stderr
    assert "FAIL" in bad.stdout and "recorded" in bad.stdout
