"""Builder normal form + optimizer + batched evaluation: semantics suite.

The contract under test: the builder folds constants as it interns and
keeps every gate in normal form, and for every circuit and every
commutative semiring the optimized circuit computes the same value as
the original under every valuation — statically, dynamically (Theorem 8
maintenance), batched, and through the full Theorem 6 pipeline.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import permanent_naive
from repro.circuits import (AddGate, BatchedEvaluator, Circuit,
                            CircuitBuilder, ConstGate, DynamicEvaluator,
                            InputGate, MulGate, PermGate, StaticEvaluator,
                            describe_optimization, optimize_circuit,
                            render_dot, render_text, summarize,
                            valuation_from_dict)
from repro.circuits.optimize import compact, flatten
from repro.semirings import (BOOLEAN, FreeSemiring, INF, INTEGER, MIN_PLUS,
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
    """Random DAG mixing all gate kinds, with constants for the builder
    to fold and nested add/add + mul/mul chains for the flatten rebuild."""
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


def rebuild(circuit):
    """Reference: re-intern the live gates one by one (ascending) through
    a fresh builder — no splicing — and compact the ids."""
    builder = CircuitBuilder()
    remap = {}
    for gate_id in circuit.live_gates():
        gate = circuit.gates[gate_id]
        if isinstance(gate, InputGate):
            new = builder.input(gate.key)
        elif isinstance(gate, ConstGate):
            new = builder.const(gate.value)
        elif isinstance(gate, AddGate):
            new = builder.add([remap[c] for c in gate.children])
        elif isinstance(gate, MulGate):
            new = builder.mul([remap[c] for c in gate.children])
        else:
            new = builder.perm([[None if e is None else remap[e] for e in row]
                                for row in gate.entries])
        remap[gate_id] = new
    rebuilt = builder.build(remap[circuit.output])
    remap[circuit.output] = rebuilt.output
    return rebuilt, remap


#: The rebuild's stages by name, each run alone or in sequence.
STAGES = {
    "rebuild": lambda circuit: rebuild(circuit)[0],
    "flatten": lambda circuit: flatten(circuit, circuit.live_gates())[0],
    "compact": lambda circuit: compact(circuit, circuit.live_gates())[0],
    "optimize": lambda circuit: optimize_circuit(circuit).circuit,
}


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

    @pytest.mark.parametrize("passes", [("rebuild",), ("flatten",),
                                        ("compact",), ("optimize",),
                                        ("flatten", "compact", "optimize")])
    @pytest.mark.parametrize("seed", range(4))
    def test_each_pass_alone_preserves_value(self, seed, passes):
        circuit = build_random_circuit(seed)
        optimized = circuit
        for name in passes:
            optimized = STAGES[name](optimized)
        values = random_valuation(seed, lambda rng: rng.randint(0, 5))
        valuation = valuation_from_dict(values, 0)
        expected = StaticEvaluator(circuit, INTEGER, valuation).value()
        assert StaticEvaluator(optimized, INTEGER, valuation).value() \
            == expected


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
    """The builder's folds and the optimizer's flatten rebuild."""

    def test_constant_folding_collapses_const_circuit(self):
        builder = CircuitBuilder()
        two = builder.const(2)
        three = builder.const(3)
        total = builder.add([builder.mul([two, three]), builder.const(4)])
        gate = builder.gates[total]
        assert isinstance(gate, ConstGate) and gate.value == 10

    def test_constant_folding_through_perm(self):
        builder = CircuitBuilder()
        entries = [[builder.const(1), builder.const(2)],
                   [builder.const(3), builder.const(4)]]
        out = builder.gates[builder.perm(entries)]
        assert isinstance(out, ConstGate)
        assert out.value == 1 * 4 + 2 * 3  # permanent of [[1,2],[3,4]]

    def test_zero_entries_pruned_from_perm(self):
        builder = CircuitBuilder()
        x = builder.input("x")
        y = builder.input("y")
        zero = builder.const(0)
        out = builder.gates[builder.perm([[x, zero, x], [zero, y, y]])]
        assert isinstance(out, PermGate)
        assert out.entries[0][1] is None and out.entries[1][0] is None

    def test_flatten_merges_chains(self):
        builder = CircuitBuilder()
        xs = [builder.input(("x", i)) for i in range(6)]
        nested = builder.add([builder.add(xs[:2]),
                              builder.add([builder.add(xs[2:4]), xs[4]]),
                              xs[5]])
        result = optimize_circuit(builder.build(nested))
        out = result.circuit.gates[result.circuit.output]
        assert isinstance(out, AddGate) and len(out.children) == 6

    def test_flatten_keeps_shared_children(self):
        builder = CircuitBuilder()
        xs = [builder.input(("x", i)) for i in range(3)]
        shared = builder.add(xs[:2])
        top = builder.add([builder.mul([shared, xs[2]]), shared])
        result = optimize_circuit(builder.build(top))
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
        circuit = Circuit(gates, 4, {"a": 0, "b": 1})
        result = optimize_circuit(circuit)
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


#: The five carriers the builder's folds are checked in, each with a
#: sampler mapping a drawn ``0..3`` (and the input's index) to a value.
FREE = FreeSemiring()
FOLD_SEMIRINGS = [
    pytest.param(NATURAL, lambda v, i: v, id="N"),
    pytest.param(INTEGER, lambda v, i: v - 1, id="Z"),
    pytest.param(MIN_PLUS, lambda v, i: INF if v == 0 else v, id="min-plus"),
    pytest.param(BOOLEAN, lambda v, i: v >= 2, id="B"),
    pytest.param(FREE, lambda v, i: FREE.generator(("x", i)) if v
                 else FREE.zero, id="free"),
]
CONSTANTS = (0, 1, 2, 3, True)


@st.composite
def build_scripts(draw):
    """A build script: steps ``("input", i)``, ``("const", c)``,
    ``("add" | "mul", refs)`` and ``("perm", rows of refs)``, where a ref
    is an earlier step's index or ``None`` (zero)."""
    script = []
    for _ in range(draw(st.integers(1, 12))):
        ref = st.one_of(st.none(), st.integers(0, len(script) - 1)) \
            if script else st.none()
        kind = draw(st.sampled_from(["input", "const", "const", "add", "mul",
                                     "perm"]))
        if kind == "input":
            script.append(("input", draw(st.integers(0, 2))))
        elif kind == "const":
            script.append(("const", draw(st.sampled_from(CONSTANTS))))
        elif kind == "perm":
            rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
            script.append(("perm", [[draw(ref) for _ in range(cols)]
                                    for _ in range(rows)]))
        else:
            script.append((kind, draw(st.lists(ref, max_size=4))))
    return script


def run_script(script, sr, values):
    """Every step's value, computed gate by gate with nothing folded."""
    out = []

    def read(ref):
        return sr.zero if ref is None else out[ref]

    for kind, arg in script:
        if kind == "input":
            value = values[arg]
        elif kind == "const":
            value = sr.coerce(arg)
        elif kind == "add":
            value = sr.sum(map(read, arg))
        elif kind == "mul":
            value = sr.prod(map(read, arg))
        else:
            value = permanent_naive([[read(r) for r in row] for row in arg],
                                    sr)
        out.append(value)
    return out


def build_script(builder, script):
    """Every step's gate (``None`` for zero), built through ``builder``."""
    ids = []

    def ref(index):
        return None if index is None else ids[index]

    for kind, arg in script:
        if kind == "input":
            gate = builder.input(("x", arg))
        elif kind == "const":
            gate = builder.const(arg)
        elif kind == "perm":
            gate = builder.perm([[ref(r) for r in row] for row in arg])
        else:
            gate = getattr(builder, kind)([ref(r) for r in arg])
        ids.append(gate)
    return ids


def int_constant(circuit, gate_id):
    gate = circuit.gates[gate_id]
    if isinstance(gate, ConstGate) and isinstance(gate.value, int) and \
            not isinstance(gate.value, bool) and gate.value >= 0:
        return gate.value
    return None


def unfolded(circuit, gate):
    """What the builder's normal form forbids in ``gate``, or ``None``."""
    if isinstance(gate, ConstGate) and isinstance(gate.value, bool):
        return "bool constant"
    if isinstance(gate, (AddGate, MulGate)):
        consts = [v for v in (int_constant(circuit, c) for c in gate.children)
                  if v is not None]
        if len(gate.children) < 2:
            return "trivial fan-in"
        if len(consts) > 1:
            return "two constant children"
        if 0 in consts:
            return "zero child"
        if isinstance(gate, MulGate) and 1 in consts:
            return "one factor"
    if isinstance(gate, PermGate):
        entries = [int_constant(circuit, e) for row in gate.entries
                   for e in row if e is not None]
        if 0 in entries:
            return "zero entry"
        if None not in entries:
            return "constant matrix"
        if gate.rows < 2 or gate.rows > gate.cols or \
                any(all(e is None for e in row) for row in gate.entries):
            return "trivial shape"
    return None


class TestBuilderNormalForm:
    """The builder folds as it interns: every step of a random build
    script equals its unfolded gate-by-gate value, and no live gate of
    the result is left foldable."""

    @pytest.mark.parametrize("sr,sample", FOLD_SEMIRINGS)
    @settings(max_examples=60, deadline=None)
    @given(script=build_scripts(),
           drawn=st.lists(st.integers(0, 3), min_size=3, max_size=3))
    def test_builder_folds_to_the_unfolded_value(self, sr, sample, script,
                                                 drawn):
        values = [sample(v, i) for i, v in enumerate(drawn)]
        expected = run_script(script, sr, values)
        builder = CircuitBuilder()
        ids = build_script(builder, script)
        valuation = lambda key: values[key[1]]
        for step, gate in enumerate(ids):
            circuit = builder.build(gate)
            got = StaticEvaluator(circuit, sr, valuation).value()
            assert sr.eq(got, expected[step]), (step, script)
            for gate_id in circuit.live_gates():
                reason = unfolded(circuit, circuit.gates[gate_id])
                assert reason is None, (reason, gate_id, script)


def perm_case(builder, spec):
    """Entries from a spec of ``None``, constants and ``"x<i>"`` inputs."""
    return [[e if e is None else builder.input(("x", int(e[1:])))
             if isinstance(e, str) else builder.const(e) for e in row]
            for row in spec]


#: The collapses ``builder.perm`` makes, by name.
PERM_SHAPES = {
    "no rows": [],
    "more rows than columns": [["x0"], ["x1"]],
    "all-None row": [["x0", "x1"], [None, None]],
    "one row": [["x0", 2, None, 0]],
    "all-constant": [[1, 2, None], [3, 0, True]],
    "zero entries pruned": [["x0", 0, "x1"], [0, "x2", 3]],
}


class TestBuilderPermanent:
    """``builder.perm`` against :func:`permanent_naive` of its entries."""

    @staticmethod
    def check(sr, sample, builder, entries, drawn):
        values = [sample(v, i) for i, v in enumerate(drawn)]
        gate_values = {}
        for gate_id, gate in enumerate(builder.gates):
            gate_values[gate_id] = values[gate.key[1]] \
                if isinstance(gate, InputGate) else sr.coerce(gate.value)
        matrix = [[sr.zero if e is None else gate_values[e] for e in row]
                  for row in entries]
        gate = builder.perm(entries)
        got = StaticEvaluator(builder.build(gate), sr,
                              lambda key: values[key[1]]).value()
        assert sr.eq(got, permanent_naive(matrix, sr)), entries
        return gate

    @pytest.mark.parametrize("sr,sample", FOLD_SEMIRINGS)
    @pytest.mark.parametrize("shape", sorted(PERM_SHAPES))
    def test_each_collapse(self, sr, sample, shape):
        builder = CircuitBuilder()
        entries = perm_case(builder, PERM_SHAPES[shape])
        gate = self.check(sr, sample, builder, entries, [1, 2, 3])
        kind = None if gate is None else type(builder.gates[gate])
        assert kind is {"no rows": ConstGate,
                        "more rows than columns": None,
                        "all-None row": None, "one row": AddGate,
                        "all-constant": ConstGate,
                        "zero entries pruned": PermGate}[shape]

    @pytest.mark.parametrize("sr,sample", FOLD_SEMIRINGS)
    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(0, 3), cols=st.integers(0, 3),
           data=st.data(),
           drawn=st.lists(st.integers(0, 3), min_size=3, max_size=3))
    def test_random_matrices(self, sr, sample, rows, cols, data, drawn):
        entry = st.one_of(st.none(), st.sampled_from(CONSTANTS),
                          st.sampled_from(["x0", "x1", "x2"]))
        spec = [[data.draw(entry) for _ in range(cols)] for _ in range(rows)]
        builder = CircuitBuilder()
        self.check(sr, sample, builder, perm_case(builder, spec), drawn)


class TestCompaction:
    """The closing ``compact`` renumbers a built circuit's live gates;
    the identity rebuild (:func:`rebuild`) is the reference."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_renumbering_equals_the_rebuild(self, data):
        circuit, _ = data.draw(circuits())
        if data.draw(st.booleans()):
            circuit, _ = flatten(circuit, circuit.live_gates())
        live = circuit.live_gates()
        expected, expected_remap = rebuild(circuit)
        got, remap = compact(circuit, live)
        assert got.gates == expected.gates
        assert got.output == expected.output
        assert list(got.inputs.items()) == list(expected.inputs.items())
        assert remap == expected_remap

    @pytest.mark.parametrize("seed", range(8))
    def test_pipeline_closes_with_a_renumbering(self, seed):
        circuit = build_random_circuit(seed)
        result = optimize_circuit(circuit)
        assert len(result.circuit.live_gates()) == len(result.circuit.gates)
        rebuilt, _ = rebuild(result.circuit)
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
        gates = [InputGate("a"), InputGate("b"), AddGate((0, 1))]
        circuit = Circuit(gates, 0, {"a": 0})  # gates 1, 2 are dead
        summary = summarize(circuit)
        assert "1 gates" in summary and "+2 dead" in summary
        live_only = optimize_circuit(circuit).circuit
        assert "dead" not in summarize(live_only)

    def test_describe_optimization(self):
        result = optimize_circuit(build_random_circuit(5))
        eliminated = sum(1 for new in result.remap.values() if new is None)
        assert describe_optimization(result) == (
            f"optimized {result.gates_before} -> {result.gates_after} live "
            f"gates; {eliminated} gates eliminated, "
            f"{len(result.circuit.inputs)} inputs retained")
