"""Vectorized (NumPy) backend: equivalence with the pure-Python backend,
the generic object kernel of carriers without a native one, batch edge
cases (empty batch, single valuation, sweeps split into column blocks),
and the override scatter against the per-edit loop it replaced."""

from __future__ import annotations

import random
import types
from fractions import Fraction

import pytest

from repro.circuits import (HAVE_NUMPY, BatchedEvaluator, build_schedule,
                            kernel_for, valuation_from_dict, vectorized)
from repro.core import close_over, compile_structure_query, pipeline
from repro.graphs import path_graph, triangulated_grid
from repro.logic import Atom, Bracket, Sum, Weight
from repro.semirings import (BOOLEAN, FLOAT, INF, INTEGER, MAX_PLUS, MIN_MAX,
                             MIN_PLUS, NATURAL, RATIONAL, FreeSemiring,
                             ModularRing, ProductSemiring)

from tests.test_schedule import random_circuit
from tests.util import weighted_graph_structure

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

E = lambda x, y: Atom("E", (x, y))
w = lambda x, y: Weight("w", (x, y))

EDGE_SUM = Sum(("x", "y"), Bracket(E("x", "y")) * w("x", "y"))

#: (id, semiring, random carrier element) for every array-carried semiring.
ARRAY_CASES = [
    ("N", NATURAL, lambda rng: rng.randint(0, 5)),
    ("Z", INTEGER, lambda rng: rng.randint(-5, 5)),
    ("Q", RATIONAL,
     lambda rng: Fraction(rng.randint(-4, 4), rng.randint(1, 5))),
    ("float", FLOAT, lambda rng: round(rng.uniform(-2.0, 2.0), 3)),
    ("min-plus", MIN_PLUS,
     lambda rng: INF if rng.random() < 0.2 else rng.randint(0, 9)),
    ("max-plus", MAX_PLUS,
     lambda rng: -INF if rng.random() < 0.2 else rng.randint(0, 9)),
    ("min-max", MIN_MAX,
     lambda rng: INF if rng.random() < 0.2 else rng.randint(0, 9)),
]

#: Carriers without a native kernel: each runs its generic object kernel.
GENERIC_SEMIRINGS = [BOOLEAN, ModularRing(5), FreeSemiring(),
                     ProductSemiring(INTEGER, BOOLEAN)]


def array_params():
    return pytest.mark.parametrize(
        "sr,element", [(sr, element) for _, sr, element in ARRAY_CASES],
        ids=[name for name, _, _ in ARRAY_CASES])


def random_valuations(circuit, sr, element, seed, batch):
    rng = random.Random(seed)
    keys = sorted(circuit.inputs, key=repr)
    return [valuation_from_dict({key: element(rng) for key in keys}, sr.zero)
            for _ in range(batch)]


def assert_rows_equal(sr, got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert sr.eq(a, b), (sr.name, a, b)


@needs_numpy
class TestEquivalence:
    @array_params()
    @pytest.mark.parametrize("seed", range(4))
    def test_random_circuits(self, sr, element, seed):
        from repro.circuits import VectorizedEvaluator
        circuit = random_circuit(seed)
        valuations = random_valuations(circuit, sr, element, seed + 17,
                                       batch=7)
        expected = BatchedEvaluator(circuit, sr, valuations).results()
        got = VectorizedEvaluator(circuit, sr, valuations).results()
        assert_rows_equal(sr, got, expected)

    @array_params()
    def test_from_overrides_matches_callables(self, sr, element):
        from repro.circuits import VectorizedEvaluator
        circuit = random_circuit(11)
        rng = random.Random(42)
        keys = sorted(circuit.inputs, key=repr)
        base = {key: element(rng) for key in keys}
        overrides = [{key: element(rng)
                      for key in rng.sample(keys, 3)} for _ in range(5)]
        overrides.append({})  # no-edit row reproduces the base valuation
        evaluator = VectorizedEvaluator.from_overrides(circuit, sr, base,
                                                       overrides)
        expected = BatchedEvaluator(circuit, sr, [
            valuation_from_dict({**base, **override}, sr.zero)
            for override in overrides]).results()
        assert_rows_equal(sr, evaluator.results(), expected)
        for index in range(len(overrides)):
            assert sr.eq(evaluator.value(index), expected[index])

    def test_values_of_interior_gate(self):
        from repro.circuits import VectorizedEvaluator
        circuit = random_circuit(3)
        valuations = random_valuations(circuit, NATURAL,
                                       lambda rng: rng.randint(0, 4), 5, 4)
        batched = BatchedEvaluator(circuit, NATURAL, valuations)
        vectorized = VectorizedEvaluator(circuit, NATURAL, valuations)
        for gate_id in circuit.live_gates():
            assert vectorized.values_of(gate_id) == batched.values_of(gate_id)
        with pytest.raises(KeyError):
            dead = next(g for g in range(len(circuit.gates))
                        if g not in set(circuit.live_gates()))
            vectorized.values_of(dead)

    @pytest.mark.parametrize("batch", [0, 1])
    def test_edge_batches(self, batch):
        from repro.circuits import VectorizedEvaluator
        circuit = random_circuit(8)
        for sr, element in ((NATURAL, lambda rng: rng.randint(0, 4)),
                            (MIN_PLUS, lambda rng: rng.randint(0, 9))):
            valuations = random_valuations(circuit, sr, element, 1, batch)
            got = VectorizedEvaluator(circuit, sr, valuations).results()
            expected = BatchedEvaluator(circuit, sr, valuations).results()
            assert_rows_equal(sr, got, expected)


@needs_numpy
class TestCompiledBackends:
    def test_backend_equivalence_on_compiled_query(self):
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=2)
        compiled = compile_structure_query(structure, EDGE_SUM)
        edges = sorted(structure.relations["E"])
        rng = random.Random(0)
        batch = [{("w", "w", rng.choice(edges)): rng.randint(1, 9)}
                 for _ in range(9)] + [{}]
        python = compiled.evaluate_batch(NATURAL, batch, backend="python")
        numpy_ = compiled.evaluate_batch(NATURAL, batch, backend="numpy")
        auto = compiled.evaluate_batch(NATURAL, batch)
        assert python == numpy_ == auto
        assert python[-1] == compiled.evaluate(NATURAL)

    def test_callable_valuations_take_generic_path(self):
        structure = weighted_graph_structure(path_graph(6), seed=3)
        compiled = compile_structure_query(structure, EDGE_SUM)
        base = compiled.input_valuation(NATURAL)
        fns = [lambda key, _o=dict(base): _o.get(key, 0), lambda key: 0]
        assert compiled.evaluate_batch(NATURAL, fns, backend="numpy") \
            == compiled.evaluate_batch(NATURAL, fns, backend="python")

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_blocks_sweep_equivalently(self, backend, monkeypatch):
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=6)
        compiled = compile_structure_query(structure, EDGE_SUM)
        edges = sorted(structure.relations["E"])
        rng = random.Random(4)
        batch = [{("w", "w", rng.choice(edges)): rng.randint(1, 9)}
                 for _ in range(13)]
        mixed = batch[:6] + [lambda key: 1] + batch[6:]  # the generic path
        whole = compiled.evaluate_batch(NATURAL, batch, backend=backend)
        whole_mixed = compiled.evaluate_batch(NATURAL, mixed, backend=backend)
        assert compiled.kernel_stats()["batches"] == 2
        # Room for four columns of one cell per gate: 13 take four sweeps.
        monkeypatch.setattr(vectorized, "DENSE_BYTES",
                            4 * 8 * len(compiled.circuit.gates))
        monkeypatch.setattr(vectorized, "DELTA_PASS_CELLS", 10 ** 18)
        assert compiled.evaluate_batch(NATURAL, batch, backend=backend) \
            == whole
        stats = compiled.kernel_stats()
        assert stats["batches"] >= 2 + 4 and stats["width"] <= 4
        assert compiled.evaluate_batch(NATURAL, mixed, backend=backend) \
            == whole_mixed
        assert compiled.kernel_stats()["batches"] >= stats["batches"] + 4

    def test_unknown_backend_rejected(self):
        structure = weighted_graph_structure(path_graph(4), seed=0)
        compiled = compile_structure_query(structure, EDGE_SUM)
        with pytest.raises(ValueError):
            compiled.evaluate_batch(NATURAL, [{}], backend="fortran")

    def test_engine_query_batch_backends_agree(self):
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=4)
        expr = Sum("y", Bracket(E("x", "y")) * w("x", "y"))
        plan = compile_structure_query(structure, close_over(expr, ("x",)))
        dynamic = plan.dynamic(INTEGER)
        probes = structure.domain[:7]
        columns = [(v,) for v in probes]
        python = plan.evaluate_selected(INTEGER, columns, backend="python")
        numpy_ = plan.evaluate_selected(INTEGER, columns, backend="numpy")
        assert python == numpy_
        assert python == [dynamic.point((v,)) for v in probes]


def reference_scatter(slot_of, overrides):
    """The per-edit loop ``VectorizedEvaluator.from_overrides`` ran
    before its scatter became C-level iteration — kept as the reference
    ``Scatter.of_overrides`` must reproduce, edit for edit."""
    slots, cols, values = [], [], []
    for index, override in enumerate(overrides):
        for key, value in override.items():
            slot = slot_of.get(key)
            if slot is not None:
                slots.append(slot)
                cols.append(index)
                values.append(value)
    return slots, cols, values


@needs_numpy
class TestScatter:
    circuit = random_circuit(11)
    keys = sorted(circuit.inputs, key=repr)
    base = {key: index + 1 for index, key in enumerate(keys)}

    @pytest.mark.parametrize("overrides", [
        [{}, {}],
        [{("nowhere", 1): 7}, {("nowhere", 2): 8, ("nowhere", 3): 9}],
        [{keys[0]: 5, ("nowhere", 1): 7}, {}, {keys[1]: 0, keys[2]: 4}],
        [types.MappingProxyType({keys[0]: 3}), {keys[1]: 2},
         types.MappingProxyType({})],
    ], ids=["empty", "all-unknown", "mixed", "mapping-proxy"])
    def test_vectorized_scatter_matches_the_per_edit_loop(self, overrides):
        from repro.circuits import VectorizedEvaluator
        slot_of = build_schedule(self.circuit).slot_of()
        scatter = vectorized.Scatter.of_overrides(slot_of, overrides)
        assert (scatter.slots.tolist(), scatter.cols.tolist(),
                list(scatter.values), scatter.width) \
            == (*reference_scatter(slot_of, overrides), len(overrides))
        evaluator = VectorizedEvaluator.from_overrides(
            self.circuit, NATURAL, self.base, overrides)
        expected = BatchedEvaluator(self.circuit, NATURAL, [
            valuation_from_dict({**self.base, **override}, 0)
            for override in overrides]).results()
        assert evaluator.results() == expected
        # An empty override reproduces the base valuation's value().
        plain = BatchedEvaluator(self.circuit, NATURAL, [
            valuation_from_dict(self.base, 0)]).results()[0]
        for index, override in enumerate(overrides):
            if not any(key in slot_of for key in override):
                assert evaluator.value(index) == plain

    def test_empty_override_reproduces_the_compiled_value(self):
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=8)
        compiled = compile_structure_query(structure, EDGE_SUM)
        edges = sorted(structure.relations["E"])
        batch = [{}, {("w", "w", edges[0]): 9, ("w", "w", ("no", "edge")): 1},
                 types.MappingProxyType({("w", "w", edges[1]): 0}), {}]
        got = compiled.evaluate_batch(NATURAL, batch)
        assert got[0] == got[-1] == compiled.evaluate(NATURAL)
        assert got == compiled.evaluate_batch(NATURAL, batch,
                                              backend="python")

    def test_uniform_scatter_and_blocks(self):
        slot_of = build_schedule(self.circuit).slot_of()
        live = sorted(slot_of, key=repr)
        # Per position, element -> slot; "x" is in no table, and a
        # second-position "a" reaches the first position's slot.
        tables = ({"a": slot_of[live[0]], "b": slot_of[live[1]],
                   "c": slot_of[live[2]]}, {"a": slot_of[live[0]]})
        rows = [("a", "x"), ("x", "x"), ("b", "x"), ("c", "a")]
        columns = [(live[0],), (), (live[1],), (live[2], live[0])]
        scatter = vectorized.Scatter.of_elements(tables, rows, 1)
        slots, cols, _ = reference_scatter(
            slot_of, [dict.fromkeys(keys, 1) for keys in columns])
        assert (scatter.slots.tolist(), scatter.cols.tolist(),
                scatter.values, scatter.shared) == (slots, cols, [1], True)
        # A column block is the batch of its own columns, renumbered.
        block = scatter.block(1, 3)
        assert (block.slots.tolist(), block.cols.tolist(), block.width) \
            == ([slot_of[live[1]]], [1], 2)
        assert scatter.block(0, 10) is scatter


class TestFallback:
    """A carrier without a native kernel runs its generic object kernel
    on the same passes; the pure-Python backend runs only when asked
    for, or without NumPy (``kernel_for`` then answers ``None``)."""

    @pytest.mark.parametrize("sr", GENERIC_SEMIRINGS,
                             ids=[sr.name for sr in GENERIC_SEMIRINGS])
    def test_generic_kernel_for_non_native_semirings(self, sr):
        if not HAVE_NUMPY:
            assert kernel_for(sr) is None
            return
        import numpy as np
        for mode in ("auto", "object"):
            kernel = kernel_for(sr, mode)
            assert (kernel.name, kernel.dtype, kernel.window,
                    kernel.fallback) == (f"{sr.name}-pyfunc", object, None,
                                         None)
        one, zero = sr.one, sr.zero
        stacked = np.empty((1, 2), dtype=object)
        stacked[0, 0], stacked[0, 1] = one, zero
        assert kernel.add_reduce(stacked, axis=1)[0] == sr.add(one, zero)
        assert kernel.mul_reduce(stacked, axis=1)[0] == sr.mul(one, zero)

    @needs_numpy
    def test_auto_runs_the_generic_kernel(self):
        structure = weighted_graph_structure(
            path_graph(6), seed=1, conv=lambda v: v > 0)
        compiled = compile_structure_query(structure, EDGE_SUM)
        edges = sorted(structure.relations["E"])
        batch = [{("w", "w", edges[0]): False}, {}]
        auto = compiled.evaluate_batch(BOOLEAN, batch)
        assert compiled.kernel_stats()["used"] == "B-pyfunc"
        python = compiled.evaluate_batch(BOOLEAN, batch, backend="python")
        assert compiled.kernel_stats()["used"] == "python"
        assert auto == python
        assert auto[-1] == compiled.evaluate(BOOLEAN)

    def test_auto_falls_back_to_python(self, monkeypatch):
        structure = weighted_graph_structure(
            path_graph(6), seed=1, conv=lambda v: v > 0)
        compiled = compile_structure_query(structure, EDGE_SUM)
        expected = compiled.evaluate_batch(BOOLEAN, [{}], backend="python")
        monkeypatch.setattr(pipeline, "kernel_for",
                            lambda sr, exact_mode="auto": None)  # no NumPy
        compiled.kernel_stats().clear()
        assert compiled.evaluate_batch(BOOLEAN, [{}]) == expected
        assert compiled.kernel_stats()["used"] == "python"

    def test_explicit_numpy_backend_raises_without_kernel(self, monkeypatch):
        structure = weighted_graph_structure(path_graph(4), seed=0)
        compiled = compile_structure_query(structure, EDGE_SUM)
        monkeypatch.setattr(pipeline, "kernel_for",
                            lambda sr, exact_mode="auto": None)  # no NumPy
        with pytest.raises(RuntimeError, match="numpy is not installed"):
            compiled.evaluate_batch(BOOLEAN, [{}], backend="numpy")

    @needs_numpy
    def test_vectorized_evaluator_takes_any_semiring(self):
        from repro.circuits import VectorizedEvaluator
        circuit = random_circuit(2)
        valuations = random_valuations(circuit, BOOLEAN,
                                       lambda rng: rng.random() < 0.5, 9, 6)
        evaluator = VectorizedEvaluator(circuit, BOOLEAN, valuations)
        assert evaluator.kernel_used == "B-pyfunc"
        assert evaluator.results() \
            == BatchedEvaluator(circuit, BOOLEAN, valuations).results()


# -- the dense sweep's in-place fold ------------------------------------------


@needs_numpy
@array_params()
def test_the_fold_and_the_stacked_reduce_agree_bit_for_bit(sr, element,
                                                           monkeypatch):
    """A group folded operand by operand into its slice gives exactly
    what a reduce over the stacked gather gives — same left-to-right
    order, so float sums match bit for bit."""
    from repro.circuits import VectorizedEvaluator
    circuit = random_circuit(7)
    valuations = random_valuations(circuit, sr, element, 3, 40)
    folds = []
    fold_into = vectorized._fold_into

    def counted(*args):
        folds.append(args)
        fold_into(*args)

    monkeypatch.setattr(vectorized, "_fold_into", counted)
    results = []
    for cells in (0, 10 ** 18):  # fold every group / none
        monkeypatch.setattr(vectorized, "FOLD_CELLS", cells)
        del folds[:]
        evaluator = VectorizedEvaluator(circuit, sr, valuations)
        results.append(evaluator.results())
        # Every shipped kernel reduces with a ufunc's own ``reduce``,
        # native or exact, so every one folds.
        assert bool(folds) == (cells == 0)
    assert results[0] == results[1]
