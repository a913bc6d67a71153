"""Layer schedules: the layer invariant, the stats, the shared tables and
caching; and the vector plan's grouping of the gates."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.analysis import verify_schedule
from repro.api import Database
from repro.circuits import (HAVE_NUMPY, AddGate, CircuitBuilder, InputGate,
                            LayerSchedule, MulGate, PermGate, build_schedule,
                            optimize_circuit)
from repro.core import compile_structure_query
from repro.graphs import path_graph, triangulated_grid
from repro.logic import Atom, Bracket, Sum, Weight
from repro.semirings import NATURAL

from tests.util import weighted_graph_structure

E = lambda x, y: Atom("E", (x, y))
w = lambda x, y: Weight("w", (x, y))

TRIANGLE = Sum(("x", "y", "z"),
               Bracket(E("x", "y") & E("y", "z") & E("z", "x"))
               * w("x", "y") * w("y", "z") * w("z", "x"))


def random_circuit(seed: int, n_inputs: int = 8, n_ops: int = 40):
    """A random well-formed circuit mixing all gate kinds."""
    rng = random.Random(seed)
    builder = CircuitBuilder()
    pool = [builder.input(("in", i)) for i in range(n_inputs)]
    pool.append(builder.const(rng.randint(0, 3)))
    for _ in range(n_ops):
        kind = rng.choice(("add", "mul", "mul", "perm"))
        if kind == "perm":
            n_rows = rng.randint(2, 3)
            n_cols = rng.randint(n_rows, n_rows + 2)
            gate = builder.perm(
                [[rng.choice(pool) if rng.random() < 0.85 else None
                  for _ in range(n_cols)] for _ in range(n_rows)])
        else:
            children = [rng.choice(pool) for _ in range(rng.randint(2, 4))]
            gate = (builder.add if kind == "add" else builder.mul)(children)
        if gate is not None:
            pool.append(gate)
    return builder.build(builder.add(pool[-5:]))


@pytest.mark.parametrize("seed", range(6))
def test_layer_invariant_random_circuits(seed):
    circuit = random_circuit(seed)
    schedule = build_schedule(circuit)
    verify_schedule(schedule)
    # Every live gate is scheduled exactly once, in id order, in its
    # lowest legal layer.
    assert list(schedule.layer_of) == circuit.live_gates()
    for gate_id, layer in schedule.layer_of.items():
        children = circuit.children_of(circuit.gates[gate_id])
        expected = (1 + max(schedule.layer_of[c] for c in children)
                    if children else 0)
        assert layer == expected


@pytest.mark.skipif(not HAVE_NUMPY, reason="the vector plan needs NumPy")
def test_groups_are_kind_and_fanin_uniform():
    """The vector plan is where gates are grouped: each group is one
    kind and one fan-in over a contiguous rank range above all of its
    operands, and the groups, the inputs and the constants partition
    the plan's ranks."""
    from repro.circuits.vector_plan import vector_plan
    kind_of = {AddGate: "add", MulGate: "mul", PermGate: "perm"}
    for seed in [*range(12), 99]:
        circuit = random_circuit(seed)
        schedule = build_schedule(circuit)
        plan = vector_plan(schedule)
        gate_at = {rank: gate_id for gate_id, rank in plan.rank_of.items()}
        assert [plan.rank_of[gate_id] for gate_id, _ in schedule.input_gates] \
            == list(range(plan.inputs))
        covered = list(range(plan.inputs)) + [rank for rank, _ in plan.consts]
        for level, stop in zip(plan.levels, plan.level_stops):
            for group in level:
                assert group.start == len(covered) < group.stop <= stop
                covered.extend(range(group.start, group.stop))
                if group.kind == "perm":
                    operands = [entry for matrix in group.entries
                                for row in matrix for entry in row
                                if entry is not None]
                else:
                    fan_in = group.children.shape[1]
                    operands = group.children.ravel().tolist()
                for rank in range(group.start, group.stop):
                    gate = circuit.gates[gate_at[rank]]
                    assert kind_of[type(gate)] == group.kind
                    if group.kind != "perm":
                        assert len(gate.children) == fan_in
                        assert group.children[rank - group.start].tolist() \
                            == [plan.rank_of[c] for c in gate.children]
                assert max(operands) < group.start
            assert len(covered) == stop
        assert covered == list(range(plan.size))
        # No addition here is wide enough for a partial-sum tree.
        assert plan.size == plan.live


def chained_additions(seed: int):
    """Eight wide additions over 200 products, each later one also
    summing some earlier ones, so some operands are themselves
    tree-summed."""
    rng = random.Random(seed)
    builder = CircuitBuilder()
    inputs = [builder.input(("in", i)) for i in range(24)]
    products = [builder.mul([rng.choice(inputs), rng.choice(inputs)])
                for _ in range(200)]
    sums: list = []
    for _ in range(8):
        nested = rng.sample(sums, min(len(sums), rng.randint(1, 3)))
        operands = rng.sample(products, rng.randint(17, 60) - len(nested))
        operands += nested
        rng.shuffle(operands)
        sums.append(builder.add(operands))
    return builder.build(builder.add(sums))


@pytest.mark.skipif(not HAVE_NUMPY, reason="the vector plan needs NumPy")
@pytest.mark.parametrize("seed", range(30))
def test_partial_sum_trees_are_keyed_by_real_operands(seed):
    """A wide addition's partial-sum tree lists its operands sorted by
    each operand's smallest real child (its own id for an input): a key
    read off the circuit, never off the virtual nodes of an operand
    that is itself tree-summed."""
    from repro.circuits.vector_plan import TREE_ARITY, vector_plan
    circuit = chained_additions(seed)
    plan = vector_plan(build_schedule(circuit))
    gate_at = {rank: gate_id for gate_id, rank in plan.rank_of.items()}
    row_of = {}
    for level in plan.levels:
        for group in level:
            if group.kind == "add":
                for rank, row in enumerate(group.children.tolist(),
                                           group.start):
                    row_of[rank] = row

    def leaves(rank):
        for child in row_of[rank]:
            if child in gate_at:
                yield gate_at[child]
            else:
                yield from leaves(child)

    def key(gate_id):
        return min(circuit.children_of(circuit.gates[gate_id]),
                   default=gate_id)

    wide = [gate_id for gate_id in circuit.live_gates()
            if isinstance(circuit.gates[gate_id], AddGate)
            and len(circuit.gates[gate_id].children) > TREE_ARITY]
    assert len(wide) == 8
    for gate_id in wide:
        operands = circuit.gates[gate_id].children
        assert list(leaves(plan.rank_of[gate_id])) \
            == sorted(operands, key=key)


def test_inputs_and_consts_in_layer_zero():
    circuit = random_circuit(7)
    schedule = build_schedule(circuit)
    assert schedule.input_gates
    for gate_id, key in schedule.input_gates:
        assert schedule.layer_of[gate_id] == 0
        assert circuit.gates[gate_id].key == key
    for gate_id, raw in schedule.const_gates:
        assert schedule.layer_of[gate_id] == 0
        assert circuit.gates[gate_id].value == raw


def test_schedule_covers_only_live_gates():
    builder = CircuitBuilder()
    a, b = builder.input("a"), builder.input("b")
    builder.add([a, b])           # dead: not reachable from the output
    out = builder.mul([a, b])
    schedule = build_schedule(builder.build(out))
    verify_schedule(schedule)
    assert set(schedule.layer_of) == set(builder.build(out).live_gates())


@pytest.mark.parametrize("optimize", [False, True])
def test_compiled_query_schedules(optimize):
    structure = weighted_graph_structure(triangulated_grid(3, 3), seed=5)
    compiled = compile_structure_query(structure, TRIANGLE, optimize=optimize)
    schedule = compiled.schedule()
    verify_schedule(schedule, compiled.circuit)
    # Cached: the same object comes back (circuits are immutable).
    assert compiled.schedule() is schedule
    stats = schedule.stats()
    assert stats["live_gates"] == compiled.circuit.stats()["gates"]
    assert stats["layers"] == 1 + max(schedule.layer_of.values()) > 1
    assert stats["inputs"] == compiled.circuit.stats()["inputs"]


#: perfbench records ``stats()["layers"]`` and ``["groups"]``: pinned so
#: its counts stay comparable across commits.
PINNED_STATS = {
    "triangle-raw": dict(
        layers=5, groups=5, widest_layer=32, live_gates=73, inputs=32,
        gate_kinds={"input": 32, "mul": 32, "add": 9}, reducible_gates=41),
    "triangle-optimized": dict(
        layers=3, groups=3, widest_layer=32, live_gates=49, inputs=32,
        gate_kinds={"input": 32, "mul": 16, "add": 1}, reducible_gates=17),
    "random-99": dict(
        layers=11, groups=27, widest_layer=9, live_gates=42, inputs=8,
        gate_kinds={"input": 8, "const": 1, "add": 8, "mul": 18, "perm": 7},
        reducible_gates=26),
}


@pytest.mark.parametrize("case", sorted(PINNED_STATS))
def test_schedule_stats_are_pinned(case):
    if case == "random-99":
        schedule = build_schedule(random_circuit(99))
    else:
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=5)
        schedule = compile_structure_query(
            structure, TRIANGLE,
            optimize=case == "triangle-optimized").schedule()
    assert schedule.stats() == PINNED_STATS[case]


def test_optimized_circuit_schedule_no_staler_than_raw():
    structure = weighted_graph_structure(path_graph(6), seed=1)
    compiled = compile_structure_query(structure, TRIANGLE, optimize=False)
    optimized = optimize_circuit(compiled.circuit).circuit
    raw, opt = build_schedule(compiled.circuit), build_schedule(optimized)
    verify_schedule(raw)
    verify_schedule(opt)
    assert opt.live_count() <= raw.live_count()


# -- the shared child -> parent table ----------------------------------------


def parents_by_oracle(circuit):
    """Every live child's multiset of ``(parent, slot)``, read off the
    gates: the operand index in an addition or a multiplication,
    ``row * cols + col`` in a permanent gate."""
    table = {}
    for gate_id in circuit.live_gates():
        gate = circuit.gates[gate_id]
        if isinstance(gate, (AddGate, MulGate)):
            operands = enumerate(gate.children)
        elif isinstance(gate, PermGate):
            operands = ((row * gate.cols + col, entry)
                        for row, entries in enumerate(gate.entries)
                        for col, entry in enumerate(entries))
        else:
            continue
        for slot, child in operands:
            if child is not None:
                table.setdefault(child, Counter())[(gate_id, slot)] += 1
    return table


def parents_by_table(schedule):
    ptr, parent, slot = schedule.parents()
    assert len(ptr) == len(schedule.circuit.gates) + 1
    table = {}
    for child in range(len(ptr) - 1):
        pairs = zip(parent[ptr[child]:ptr[child + 1]],
                    slot[ptr[child]:ptr[child + 1]])
        for pair in pairs:
            table.setdefault(child, Counter())[pair] += 1
    return table


@pytest.mark.parametrize("seed", range(12))
def test_parent_table_matches_the_gates_on_random_circuits(seed):
    circuit = random_circuit(seed)
    schedule = build_schedule(circuit)
    assert parents_by_table(schedule) == parents_by_oracle(circuit)
    assert schedule.parents() is schedule.parents()  # memoized


def test_parent_table_keeps_every_repeated_operand():
    """A child an addition lists twice, a product ``x·x`` and a
    permanent entry reused in two cells each fill one slot per use."""
    builder = CircuitBuilder()
    x, y = builder.input("x"), builder.input("y")
    twice = builder.add([x, x, y])
    square = builder.mul([y, y])
    reused = builder.perm([[x, y], [y, square]])
    circuit = builder.build(builder.add([twice, square, reused]))
    assert circuit.gates[twice].children == (x, x, y)
    assert circuit.gates[square].children == (y, y)
    oracle = parents_by_oracle(circuit)
    assert oracle[x][(twice, 0)] == oracle[x][(twice, 1)] == 1
    assert oracle[y][(square, 0)] == oracle[y][(square, 1)] == 1
    assert {pair for pair in oracle[y] if pair[0] == reused} == \
        {(reused, 1), (reused, 2)}
    assert parents_by_table(build_schedule(circuit)) == oracle


def test_one_plan_builds_its_parent_table_once(monkeypatch):
    """A plan's maintained point evaluator, its ``count()`` evaluator,
    its enumeration context and its eviction analysis all walk the one
    table on the plan's schedule: it is built once."""
    built = [0]
    parents = LayerSchedule.parents

    def counted(self):
        built[0] += self._parents is None
        return parents(self)

    monkeypatch.setattr(LayerSchedule, "parents", counted)
    structure = weighted_graph_structure(triangulated_grid(4, 4), seed=3)
    with Database(structure) as db:
        query = db.prepare(E("x", "y"), params=("x", "y"), dynamic=("E",))
        a, b = sorted(structure.relations["E"])[0]
        assert query.bind(a, b).value(NATURAL) == 1
        enumerator = query.enumerate()
        assert enumerator.count() == len(list(enumerator))
        with db.update() as tx:
            assert tx.set_relation("E", (a, b), False) > 0
        assert enumerator.count() == len(list(enumerator))
        assert query.bind(a, b).value(NATURAL) == 0
        reached = query.plan().affected_arguments(
            [("dynrel", "E", (a, b), present) for present in (True, False)],
            2)
        assert a in reached[0] and b in reached[1]
    assert built[0] == 1
