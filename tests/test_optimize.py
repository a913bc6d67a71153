"""Optimizer passes + batched evaluation: semantics-preservation suite.

The contract under test: for every circuit and every commutative
semiring, the optimized circuit computes the same value as the original
under every valuation — statically, dynamically (Theorem 8 maintenance),
batched, and through the full Theorem 6 pipeline.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import (AddGate, BatchedEvaluator, CircuitBuilder,
                            ConstGate, DEFAULT_PIPELINE, DynamicEvaluator,
                            InputGate, MulGate, PermGate, StaticEvaluator,
                            describe_optimization, optimize_circuit,
                            render_dot, render_text, summarize,
                            valuation_from_dict)
from repro.circuits.optimize import (CommonSubexpressionPass,
                                    ConstantFoldPass, FlattenPass, compact)
from repro.semirings import (BOOLEAN, FreeSemiring, INTEGER, MIN_PLUS,
                             NATURAL)

from tests.test_properties import circuits

SEMIRINGS = [
    pytest.param(NATURAL, lambda rng: rng.randint(0, 5), id="numeric"),
    pytest.param(MIN_PLUS, lambda rng: rng.randint(0, 5), id="tropical"),
    pytest.param(BOOLEAN, lambda rng: rng.random() < 0.6, id="boolean"),
]


def provenance_setup():
    sr = FreeSemiring()
    return sr, lambda rng: sr.generator(("g", rng.randrange(4)))


def build_random_circuit(seed, n_inputs=8, steps=14):
    """Random DAG mixing all gate kinds, with deliberate constant litter
    and nested add/add + mul/mul chains so every pass has work to do."""
    rng = random.Random(seed)
    builder = CircuitBuilder()
    pool = [builder.input(("x", i)) for i in range(n_inputs)]
    pool += [builder.const(0), builder.const(1), builder.const(2),
             builder.const(True)]
    for _ in range(steps):
        kind = rng.choice(["add", "mul", "perm", "add", "mul"])
        if kind == "add":
            gate = builder.add(rng.sample(pool, rng.randint(2, 4)))
        elif kind == "mul":
            gate = builder.mul(rng.sample(pool, rng.randint(2, 3)))
        else:
            cols = rng.randint(2, 4)
            entries = [[rng.choice(pool + [None]) for _ in range(cols)]
                       for _ in range(2)]
            gate = builder.perm(entries)
        if gate is not None:
            pool.append(gate)
    output = builder.add(pool[-4:])
    return builder.build(output)


def random_valuation(seed, sample, n_inputs=8):
    rng = random.Random(seed)
    return {("x", i): sample(rng) for i in range(n_inputs)}


class TestEquivalence:
    @pytest.mark.parametrize("sr,sample", SEMIRINGS)
    @pytest.mark.parametrize("seed", range(8))
    def test_optimized_matches_original(self, seed, sr, sample):
        circuit = build_random_circuit(seed)
        optimized = optimize_circuit(circuit).circuit
        for trial in range(4):
            values = random_valuation(seed * 31 + trial, sample)
            valuation = valuation_from_dict(values, sr.zero)
            expected = StaticEvaluator(circuit, sr, valuation).value()
            actual = StaticEvaluator(optimized, sr, valuation).value()
            assert sr.eq(expected, actual), (seed, trial, sr.name)

    @pytest.mark.parametrize("seed", range(4))
    def test_optimized_matches_original_provenance(self, seed):
        sr, sample = provenance_setup()
        circuit = build_random_circuit(seed)
        optimized = optimize_circuit(circuit).circuit
        for trial in range(3):
            values = random_valuation(seed * 17 + trial, sample)
            valuation = valuation_from_dict(values, sr.zero)
            expected = StaticEvaluator(circuit, sr, valuation).value()
            actual = StaticEvaluator(optimized, sr, valuation).value()
            assert sr.eq(expected, actual), (seed, trial)

    @pytest.mark.parametrize("passes", [("fold",), ("flatten",), ("cse",),
                                        ("dce",), DEFAULT_PIPELINE])
    @pytest.mark.parametrize("seed", range(4))
    def test_each_pass_alone_preserves_value(self, seed, passes):
        circuit = build_random_circuit(seed)
        optimized = optimize_circuit(circuit, passes=passes).circuit
        values = random_valuation(seed, lambda rng: rng.randint(0, 5))
        valuation = valuation_from_dict(values, 0)
        expected = StaticEvaluator(circuit, INTEGER, valuation).value()
        assert StaticEvaluator(optimized, INTEGER, valuation).value() \
            == expected

    def test_unknown_pass_rejected(self):
        circuit = build_random_circuit(0)
        with pytest.raises(ValueError, match="unknown optimization pass"):
            optimize_circuit(circuit, passes=("mystery",))


class TestDynamicOnOptimized:
    """Theorem 8 maintenance must hold on optimized circuits: a dynamic
    evaluator over the rewritten circuit tracks full recomputation."""

    @pytest.mark.parametrize("sr,sample", SEMIRINGS)
    @pytest.mark.parametrize("seed", range(5))
    def test_updates_match_recomputation(self, seed, sr, sample):
        circuit = optimize_circuit(build_random_circuit(seed)).circuit
        rng = random.Random(seed + 1000)
        values = random_valuation(seed, sample)
        dynamic = DynamicEvaluator(
            circuit, sr, valuation_from_dict(dict(values), sr.zero))
        for _ in range(10):
            key = ("x", rng.randrange(8))
            value = sample(rng)
            values[key] = value
            dynamic.update_input(key, value)
            static = StaticEvaluator(
                circuit, sr, valuation_from_dict(values, sr.zero)).value()
            assert sr.eq(dynamic.value(), static), seed

    def test_folded_away_inputs_are_harmless(self):
        """An input multiplied by a constant zero is eliminated; updating
        it afterwards is a no-op rather than an error."""
        builder = CircuitBuilder()
        a = builder.input("a")
        b = builder.input("b")
        dead = builder.mul([a, builder.const(0)])
        live = builder.mul([b, builder.const(3)])
        circuit = builder.build(builder.add([dead, live]))
        optimized = optimize_circuit(circuit).circuit
        assert "a" not in optimized.inputs
        dynamic = DynamicEvaluator(optimized, INTEGER,
                                   valuation_from_dict({"b": 2}, 0))
        assert dynamic.update_input("a", 99) == 0
        assert dynamic.value() == 6
        dynamic.update_input("b", 5)
        assert dynamic.value() == 15


class TestPasses:
    def test_constant_folding_collapses_const_circuit(self):
        builder = CircuitBuilder()
        two = builder.const(2)
        three = builder.const(3)
        total = builder.add([builder.mul([two, three]), builder.const(4)])
        result = optimize_circuit(builder.build(total))
        assert result.gates_after == 1
        gate = result.circuit.gates[result.circuit.output]
        assert isinstance(gate, ConstGate) and gate.value == 10

    def test_constant_folding_through_perm(self):
        builder = CircuitBuilder()
        entries = [[builder.const(1), builder.const(2)],
                   [builder.const(3), builder.const(4)]]
        gate = builder.perm(entries)
        result = optimize_circuit(builder.build(gate))
        out = result.circuit.gates[result.circuit.output]
        assert isinstance(out, ConstGate)
        assert out.value == 1 * 4 + 2 * 3  # permanent of [[1,2],[3,4]]

    def test_zero_entries_pruned_from_perm(self):
        builder = CircuitBuilder()
        x = builder.input("x")
        y = builder.input("y")
        zero = builder.const(0)
        gate = builder.perm([[x, zero, x], [zero, y, y]])
        result = optimize_circuit(builder.build(gate), passes=("fold",))
        out = result.circuit.gates[result.circuit.output]
        assert isinstance(out, PermGate)
        assert out.entries[0][1] is None and out.entries[1][0] is None

    def test_flatten_merges_chains(self):
        builder = CircuitBuilder()
        xs = [builder.input(("x", i)) for i in range(6)]
        nested = builder.add([builder.add(xs[:2]),
                              builder.add([builder.add(xs[2:4]), xs[4]]),
                              xs[5]])
        result = optimize_circuit(builder.build(nested),
                                  passes=("flatten",))
        out = result.circuit.gates[result.circuit.output]
        assert isinstance(out, AddGate) and len(out.children) == 6

    def test_flatten_keeps_shared_children(self):
        builder = CircuitBuilder()
        xs = [builder.input(("x", i)) for i in range(3)]
        shared = builder.add(xs[:2])
        top = builder.add([builder.mul([shared, xs[2]]), shared])
        result = optimize_circuit(builder.build(top), passes=("flatten",))
        # `shared` feeds two parents: it must survive as its own gate,
        # not be spliced into the top addition.
        out = result.circuit.gates[result.circuit.output]
        mapped = result.remap[shared]
        assert isinstance(out, AddGate) and mapped in out.children
        assert isinstance(result.circuit.gates[mapped], AddGate)

    def test_cse_merges_structural_duplicates(self):
        gates = [InputGate("a"), InputGate("b"),
                 AddGate((0, 1)), AddGate((0, 1)),
                 MulGate((2, 3))]
        from repro.circuits import Circuit
        circuit = Circuit(gates, 4, {"a": 0, "b": 1})
        result = optimize_circuit(circuit, passes=("cse",))
        assert result.gates_after < len(gates)
        assert result.remap[2] == result.remap[3]

    def test_remap_translates_every_live_gate(self):
        for seed in range(4):
            circuit = build_random_circuit(seed)
            result = optimize_circuit(circuit)
            live = set(circuit.live_gates())
            assert set(result.remap) == live
            for new in result.remap.values():
                if new is not None:
                    assert 0 <= new < len(result.circuit.gates)

    def test_inputs_table_rebuilt(self):
        circuit = build_random_circuit(2)
        result = optimize_circuit(circuit)
        for key, gate_id in result.circuit.inputs.items():
            gate = result.circuit.gates[gate_id]
            assert isinstance(gate, InputGate) and gate.key == key


class TestCompaction:
    """The closing ``compact`` renumbers a pass's live gates; the rebuild
    it replaced (``CommonSubexpressionPass().run``) is the reference."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_renumbering_equals_the_rebuild(self, data):
        circuit, _ = data.draw(circuits())
        pass_cls = data.draw(st.sampled_from([FlattenPass, ConstantFoldPass]))
        rewritten, _ = pass_cls().run(circuit)
        live = rewritten.live_gates()
        expected, expected_remap = CommonSubexpressionPass().run(rewritten)
        got, remap = compact(rewritten, live)
        assert got.gates == expected.gates
        assert got.output == expected.output
        assert list(got.inputs.items()) == list(expected.inputs.items())
        assert remap == expected_remap

    @pytest.mark.parametrize("seed", range(8))
    def test_pipeline_closes_with_a_renumbering(self, seed):
        circuit = build_random_circuit(seed)
        result = optimize_circuit(circuit)
        assert len(result.circuit.live_gates()) == len(result.circuit.gates)
        rebuilt, _ = CommonSubexpressionPass().run(result.circuit)
        assert rebuilt.gates == result.circuit.gates


class TestBatchedEvaluator:
    @pytest.mark.parametrize("sr,sample", SEMIRINGS)
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_valuation_static(self, seed, sr, sample):
        circuit = build_random_circuit(seed)
        batch = [random_valuation(seed * 7 + t, sample) for t in range(5)]
        batched = BatchedEvaluator(
            circuit, sr,
            [valuation_from_dict(values, sr.zero) for values in batch])
        for index, values in enumerate(batch):
            expected = StaticEvaluator(
                circuit, sr, valuation_from_dict(values, sr.zero)).value()
            assert sr.eq(batched.value(index), expected)
        assert len(batched.results()) == len(batch)

    def test_values_of_intermediate_gate(self):
        builder = CircuitBuilder()
        a, b = builder.input("a"), builder.input("b")
        total = builder.add([a, b])
        circuit = builder.build(builder.mul([total, total]))
        batched = BatchedEvaluator(circuit, INTEGER, [
            valuation_from_dict({"a": 1, "b": 2}, 0),
            valuation_from_dict({"a": 3, "b": 4}, 0)])
        assert batched.values_of(total) == [3, 7]
        assert batched.results() == [9, 49]

    def test_empty_batch(self):
        circuit = build_random_circuit(0)
        batched = BatchedEvaluator(circuit, INTEGER, [])
        assert batched.results() == []


class TestStatsAndRender:
    """The satellite fix: post-optimization circuits report and render
    with remapped ids and no dangling references."""

    def test_stats_on_optimized_circuit(self):
        circuit = build_random_circuit(3)
        result = optimize_circuit(circuit)
        stats = result.circuit.stats()
        assert stats["gates"] <= circuit.stats()["gates"]
        assert stats["stored_gates"] == len(result.circuit.gates)
        assert stats["dead_gates"] == stats["stored_gates"] - stats["gates"]
        assert stats["max_fan_in"] >= 2

    def test_render_optimized_circuit_has_no_dangling_ids(self):
        circuit = build_random_circuit(4)
        result = optimize_circuit(circuit)
        dot = render_dot(result.circuit)
        declared = {line.split(" ", 3)[2]
                    for line in dot.splitlines() if "[label=" in line}
        for line in dot.splitlines():
            if "->" in line:
                src, dst = line.strip().rstrip(";").split(" -> ")
                assert src in declared and dst in declared
        text = render_text(result.circuit)
        assert text  # walks without KeyError/IndexError

    def test_summarize_reports_dead_gates(self):
        from repro.circuits import Circuit
        gates = [InputGate("a"), InputGate("b"), AddGate((0, 1))]
        circuit = Circuit(gates, 0, {"a": 0})  # gates 1, 2 are dead
        summary = summarize(circuit)
        assert "1 gates" in summary and "+2 dead" in summary
        live_only = optimize_circuit(circuit).circuit
        assert "dead" not in summarize(live_only)

    def test_describe_optimization(self):
        result = optimize_circuit(build_random_circuit(5))
        text = describe_optimization(result)
        assert "optimized" in text and "->" in text
        for name, _ in result.trace:
            assert name in text
