"""Circuit IR: builder collapses, stats, static vs dynamic evaluation."""

from __future__ import annotations

import random

import pytest

from repro.circuits import (AddGate, CircuitBuilder, DynamicEvaluator,
                            PermGate, StaticEvaluator, valuation_from_dict)
from repro.semirings import INTEGER, MIN_PLUS, NATURAL, ModularRing


class TestBuilder:
    def test_hash_consing(self):
        builder = CircuitBuilder()
        a = builder.input("a")
        b = builder.input("b")
        first = builder.mul([a, b])
        second = builder.mul([a, b])
        assert first == second
        assert builder.add([first]) == first  # single-child collapse

    def test_zero_propagation(self):
        builder = CircuitBuilder()
        a = builder.input("a")
        assert builder.mul([a, None]) is None
        assert builder.add([None, None]) is None
        assert builder.add([a, None]) == a

    def test_const_one_dropped_in_products(self):
        builder = CircuitBuilder()
        a = builder.input("a")
        one = builder.const(1)
        assert builder.mul([a, one]) == a
        assert builder.mul([one, one]) == builder.one()

    def test_perm_collapses(self):
        builder = CircuitBuilder()
        row = [builder.input(("r", i)) for i in range(3)]
        assert builder.perm([]) == builder.one()          # zero rows
        assert builder.perm([row, row, row, row]) is None  # rows > cols
        assert builder.perm([[None, None, None], row]) is None
        single = builder.perm([row])
        assert isinstance(builder.gates[single], AddGate)  # 1 row = sum
        double = builder.perm([row, row])
        assert isinstance(builder.gates[double], PermGate)

    def test_constants_are_interned_by_type_and_value(self):
        builder = CircuitBuilder()
        x = builder.input("x")
        real, one = builder.const(1.0), builder.const(1)
        assert real != one
        assert builder.gates[one].value == 1
        assert type(builder.gates[one].value) is int
        assert builder.mul([x, one]) == x  # the int 1 folds away
        assert builder.const(True) == one


def build_random_circuit(seed, n_inputs=6):
    rng = random.Random(seed)
    builder = CircuitBuilder()
    pool = [builder.input(("x", i)) for i in range(n_inputs)]
    pool.append(builder.const(1))
    for _ in range(8):
        kind = rng.choice(["add", "mul", "perm"])
        if kind == "add":
            pool.append(builder.add(rng.sample(pool, rng.randint(2, 3))))
        elif kind == "mul":
            pool.append(builder.mul(rng.sample(pool, 2)))
        else:
            cols = rng.randint(2, 4)
            entries = [[rng.choice(pool) for _ in range(cols)]
                       for _ in range(2)]
            gate = builder.perm(entries)
            if gate is not None:
                pool.append(gate)
    output = builder.add(pool[-3:])
    return builder.build(output)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("sr,conv", [
    (INTEGER, lambda v: v), (NATURAL, lambda v: v),
    (MIN_PLUS, lambda v: v), (ModularRing(5), lambda v: v % 5)],
    ids=["Z", "N", "min-plus", "Z5"])
def test_dynamic_matches_static_on_random_circuits(seed, sr, conv):
    circuit = build_random_circuit(seed)
    rng = random.Random(seed + 99)
    values = {("x", i): conv(rng.randint(0, 5)) for i in range(6)}
    dynamic = DynamicEvaluator(circuit, sr,
                               valuation_from_dict(dict(values), sr.zero))
    for _ in range(12):
        key = ("x", rng.randrange(6))
        value = conv(rng.randint(0, 5))
        values[key] = value
        dynamic.update_input(key, value)
        static = StaticEvaluator(circuit, sr,
                                 valuation_from_dict(values, sr.zero)).value()
        assert sr.eq(dynamic.value(), static), seed


def test_update_propagation_is_local():
    """Updating an input that only feeds a small subcircuit must not touch
    the rest (the bounded fan-out/reach-out property in action)."""
    builder = CircuitBuilder()
    left = [builder.input(("l", i)) for i in range(50)]
    right = [builder.input(("r", i)) for i in range(50)]
    output = builder.add([builder.add(left), builder.add(right)])
    circuit = builder.build(output)
    dynamic = DynamicEvaluator(circuit, INTEGER,
                               valuation_from_dict({}, 0))
    touched = dynamic.update_input(("l", 3), 7)
    assert touched <= 4
    assert dynamic.value() == 7


def test_stats_fields():
    circuit = build_random_circuit(1)
    stats = circuit.stats()
    assert set(stats) >= {"gates", "edges", "size", "depth", "max_fan_out",
                          "max_perm_rows", "kinds", "inputs"}
    assert stats["gates"] <= len(circuit.gates)


def test_unknown_input_update_is_noop():
    builder = CircuitBuilder()
    a = builder.input("a")
    circuit = builder.build(a)
    dynamic = DynamicEvaluator(circuit, INTEGER, valuation_from_dict({}, 0))
    assert dynamic.update_input("missing", 5) == 0
    assert dynamic.update_input("a", 5) >= 1
    assert dynamic.value() == 5


def test_no_change_update_short_circuits():
    builder = CircuitBuilder()
    a = builder.input("a")
    total = builder.add([a, builder.const(2)])
    circuit = builder.build(total)
    dynamic = DynamicEvaluator(circuit, INTEGER,
                               valuation_from_dict({"a": 3}, 0))
    assert dynamic.update_input("a", 3) == 0  # identical value
    assert dynamic.value() == 5


class TestRender:
    def test_text_and_dot_and_summary(self):
        from repro.circuits import render_dot, render_text, summarize
        circuit = build_random_circuit(2)
        text = render_text(circuit)
        assert "add" in text or "mul" in text or "perm" in text
        assert "(shared)" in text or len(text.splitlines()) >= 3
        dot = render_dot(circuit)
        assert dot.startswith("digraph circuit {") and dot.endswith("}")
        assert "->" in dot
        summary = summarize(circuit)
        assert "gates" in summary and "depth" in summary

    def test_text_depth_cap(self):
        from repro.circuits import render_text
        circuit = build_random_circuit(3)
        shallow = render_text(circuit, max_depth=1)
        deep = render_text(circuit)
        assert len(shallow.splitlines()) <= len(deep.splitlines())
