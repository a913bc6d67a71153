"""The update path costs the written input's upward cone, not the circuit.

Three families:

* maintained :class:`~repro.circuits.DynamicEvaluator` ≡ a fresh
  :class:`~repro.circuits.StaticEvaluator` after every step of a random
  update stream, on random circuits with *wide* addition gates (the ones
  that carry a sum maintainer), for every shipped semiring and every
  ``strategy`` — plus the float stream the summation tree exists for;
* the cone-walking :func:`~repro.circuits.co_occurring_inputs` returns
  exactly the sets of the bitmask full-circuit scan it replaced (kept
  here as the reference, with its per-gate input-cone masks), on the
  plan corpus, on served point-query circuits, on the random circuits
  and on hand-built shapes for each branch of the rule;
* the growth guard: semiring operations and gate reads per write are
  *counted* at two sizes — the slope Theorem 8 promises, not a timing —
  and so are result-cache key visits at two cache fills.
"""

from __future__ import annotations

import importlib.util
import os
import random
from collections import Counter, OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Database
from repro.circuits import (CircuitBuilder, DynamicEvaluator, MulGate,
                            PermGate, StaticEvaluator, build_schedule,
                            co_occurring_inputs)
from repro.circuits.evaluation import MAINTAINED_FAN_IN
from repro.graphs import triangulated_grid
from repro.logic import Atom, Bracket, Sum, Weight
from repro.semirings import INTEGER, MIN_PLUS, NATURAL, FloatField, Semiring

from tests.test_plan_store import weighted_structure
from tests.test_properties import SEMIRING_STRATEGIES
from tests.test_properties import circuits as small_circuits
from tests.util import weighted_graph_structure

E = lambda x, y: Atom("E", (x, y))
w = lambda x, y: Weight("w", (x, y))

EDGE_SUM = Sum(("x", "y"), Bracket(E("x", "y")) * w("x", "y"))
DEGREE = Sum("y", Bracket(E("x", "y")) * w("x", "y"))
PAIR = Bracket(E("x", "y")) * w("x", "y")  # free: x, y

FLOAT = FloatField()


def strategies_for(sr):
    """Every ``strategy`` value the semiring supports (permanent gates
    refuse 'ring' outside rings and 'finite' outside finite carriers)."""
    names = [None, "recompute", "segment-tree"]
    if sr.is_ring:
        names.append("ring")
    if sr.is_finite:
        names.append("finite")
    return names


# -- maintained evaluation ≡ fresh evaluation -------------------------------------


@st.composite
def wide_circuits(draw):
    """A random circuit whose additions are wide enough to be maintained.

    Products of two inputs feed wide additions (children drawn with
    replacement, so duplicates occur); permanent gates sit above the
    additions and a last wide addition above the permanents, so every
    maintainer kind has maintained gates both below and above it.
    """
    builder = CircuitBuilder()
    keys = [("in", index) for index in range(draw(st.integers(3, 6)))]
    inputs = [builder.input(key) for key in keys]
    pool = list(inputs)
    for _ in range(draw(st.integers(2, 5))):
        pool.append(builder.mul([draw(st.sampled_from(inputs)),
                                 draw(st.sampled_from(inputs))]))
    wide = st.integers(MAINTAINED_FAN_IN + 1, MAINTAINED_FAN_IN + 6)

    def wide_add(candidates):
        return builder.add([draw(st.sampled_from(candidates))
                            for _ in range(draw(wide))])

    sums = [wide_add(pool) for _ in range(draw(st.integers(1, 3)))]
    pool.extend(sums)
    perms = []
    for _ in range(draw(st.integers(1, 2))):
        rows = draw(st.integers(2, 3))
        cols = draw(st.integers(rows, 4))
        gate = builder.perm(
            [[draw(st.one_of(st.none(), st.sampled_from(pool)))
              for _ in range(cols)] for _ in range(rows)])
        if gate is not None:
            perms.append(gate)
    top = wide_add(pool + perms)
    return builder.build(builder.add([top] + perms + sums[:1])), keys


def assert_tracks_static(sr, dynamic, circuit, values):
    static = StaticEvaluator(circuit, sr, lambda key: values[key])
    assert sr.eq(dynamic.value(), static.value())
    for gate_id, expected in static.values.items():
        assert sr.eq(dynamic.value_of(gate_id), expected), gate_id


@pytest.mark.parametrize("sr,elements",
                         [(sr, strat) for _, sr, strat in SEMIRING_STRATEGIES],
                         ids=[name for name, _, _ in SEMIRING_STRATEGIES])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_maintained_gates_track_a_fresh_evaluation(sr, elements, data):
    circuit, keys = data.draw(wide_circuits())
    # Zero is always in play: a product annihilated and later revived is
    # where a maintainer that skipped an "unchanged" operand would drift.
    element = st.one_of(elements, st.just(sr.zero))
    values = {key: data.draw(element) for key in keys}
    stream = data.draw(st.lists(st.tuples(st.sampled_from(keys), element),
                                min_size=1, max_size=8))
    schedule = build_schedule(circuit)
    for strategy in strategies_for(sr):
        current = dict(values)
        dynamic = DynamicEvaluator(circuit, sr, lambda key: current[key],
                                   strategy=strategy, schedule=schedule)
        assert_tracks_static(sr, dynamic, circuit, current)
        for key, value in stream:
            current[key] = value
            dynamic.update_input(key, value)
            assert_tracks_static(sr, dynamic, circuit, current)


def test_wide_additions_are_maintained_and_narrow_ones_are_not():
    builder = CircuitBuilder()
    inputs = [builder.input(("in", i)) for i in range(MAINTAINED_FAN_IN + 1)]
    narrow = builder.add(inputs[:MAINTAINED_FAN_IN])
    wide = builder.add(inputs)
    circuit = builder.build(builder.mul([narrow, wide]))
    for strategy, expected in ((None, {wide}), ("segment-tree", {wide}),
                               ("ring", {wide}), ("recompute", set())):
        dynamic = DynamicEvaluator(circuit, INTEGER, lambda key: 1,
                                   strategy=strategy)
        assert set(dynamic.maintainers) == expected, strategy


def test_annihilated_products_revive_under_every_strategy():
    builder = CircuitBuilder()
    switch = builder.input("switch")
    terms = [builder.mul([switch, builder.input(("in", i))])
             for i in range(12)]
    circuit = builder.build(builder.add(terms))
    for strategy in strategies_for(INTEGER):
        dynamic = DynamicEvaluator(circuit, INTEGER, lambda key: 1,
                                   strategy=strategy)
        assert dynamic.value() == 12
        dynamic.update_input("switch", 0)
        assert dynamic.value() == 0
        dynamic.update_input(("in", 3), 5)  # invisible while annihilated
        assert dynamic.value() == 0
        dynamic.update_input("switch", 2)
        assert dynamic.value() == 2 * (11 + 5)


def float_stream(rng, keys, writes):
    """Positive non-integer writes over nine orders of magnitude, with a
    1e18 spike now and then — the summand that absorbs a running total."""
    for step in range(writes):
        spike = step % 97 == 0
        yield rng.choice(keys), (1e18 if spike else
                                 rng.random() * 10.0 ** rng.randint(-3, 6))


def test_float_sums_stay_within_eq_after_ten_thousand_writes():
    builder = CircuitBuilder()
    keys = [("in", i) for i in range(64)]
    circuit = builder.build(builder.add([builder.input(key)
                                         for key in keys]))
    rng = random.Random(17)
    values = {key: rng.random() for key in keys}
    maintained = DynamicEvaluator(circuit, FLOAT, lambda key: values[key])
    drifting = DynamicEvaluator(circuit, FLOAT, lambda key: values[key],
                                strategy="ring")
    for key, value in float_stream(rng, keys, 10_000):
        values[key] = value
        maintained.update_input(key, value)
        drifting.update_input(key, value)
    for key in keys:  # settle: no spike is left in the final state
        values[key] = rng.random() * 100.0
        maintained.update_input(key, values[key])
        drifting.update_input(key, values[key])
    fresh = StaticEvaluator(circuit, FLOAT, lambda key: values[key]).value()
    assert FLOAT.eq(maintained.value(), fresh)
    # Why floats do not get the ring's subtract-old/add-new by default:
    # each spike swallowed the running total and gave back only rounding.
    assert not FLOAT.eq(drifting.value(), fresh)


# -- the retag analysis: cone walk ≡ the bitmask full scan --------------------------


def input_cone_masks(schedule):
    """Per-gate bitmask of the input slots in the gate's input cone: slot
    ``i`` is position ``i`` of ``schedule.input_gates``, and a gate's
    mask is the OR of its children's.  A gates × inputs table — the
    reason the shipped analysis walks cones instead; kept here only as
    the oracle's input."""
    circuit = schedule.circuit
    masks = {gate_id: 1 << slot
             for slot, (gate_id, _) in enumerate(schedule.input_gates)}
    for gate_id in schedule.layer_of:  # children precede parents
        if gate_id not in masks:
            mask = 0
            for child in circuit.children_of(circuit.gates[gate_id]):
                mask |= masks[child]
            masks[gate_id] = mask
    return masks


def co_occurring_inputs_by_full_scan(schedule, key):
    """The full-scan, bitmask implementation, kept as the reference:
    visit every MUL/PERM gate of the circuit and apply the per-gate rule
    to the operands' input-cone masks."""
    slot_of = {k: slot for slot, (_, k) in enumerate(schedule.input_gates)}
    slot = slot_of.get(key)
    if slot is None:
        return frozenset()
    masks = input_cone_masks(schedule)
    circuit = schedule.circuit
    bit = 1 << slot
    met = 0
    for gate_id in schedule.layer_of:
        gate = circuit.gates[gate_id]
        if not isinstance(gate, (MulGate, PermGate)):
            continue
        child_masks = [masks[child] for child in circuit.children_of(gate)]
        for index, mask in enumerate(child_masks):
            if mask & bit:
                for j, other in enumerate(child_masks):
                    if j != index:
                        met |= other
    keys = []
    inputs = schedule.input_gates
    while met:
        low = (met & -met).bit_length() - 1
        keys.append(inputs[low][1])
        met &= met - 1
    return frozenset(keys) - {key}


def assert_walk_matches_scan(schedule):
    for _, key in schedule.input_gates:
        assert co_occurring_inputs(schedule, key) \
            == co_occurring_inputs_by_full_scan(schedule, key), key
    assert co_occurring_inputs(schedule, ("no", "such", "input")) \
        == frozenset()


def plan_corpus_queries():
    """The queries of the CI plan corpus.  Its thirteen semiring legs
    only change recorded weight *values* — inputs, not topology — so the
    corpus holds one circuit per query."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), ".github", "scripts",
        "build_plan_corpus.py")
    spec = importlib.util.spec_from_file_location("build_plan_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.QUERIES


@pytest.mark.parametrize("name,expr", plan_corpus_queries(),
                         ids=[name for name, _ in plan_corpus_queries()])
def test_upward_walk_matches_full_scan_on_the_plan_corpus(name, expr):
    from repro.core import compile_structure_query
    compiled = compile_structure_query(weighted_structure(), expr)
    assert_walk_matches_scan(compiled.schedule())


@pytest.mark.parametrize("expr,free", [(DEGREE, ("x",)), (PAIR, ("x", "y"))],
                         ids=["degree", "pair"])
def test_upward_walk_matches_full_scan_on_point_query_circuits(expr, free):
    """The circuits the analysis actually serves: selector inputs, whose
    co-occurrence with a written weight *is* the retag set."""
    from repro.core import close_over, compile_structure_query
    structure = weighted_graph_structure(triangulated_grid(4, 4), seed=3)
    plan = compile_structure_query(structure, close_over(expr, free))
    schedule = plan.schedule()
    assert_walk_matches_scan(schedule)
    for edge in sorted(structure.relations["E"]):
        key = ("w", "w", edge)
        met = co_occurring_inputs_by_full_scan(schedule, key)
        assert plan.affected_arguments((key,), len(free)) == tuple(
            frozenset(k[2] for k in met if k[:2] == ("sel", position))
            for position in range(len(free)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_upward_walk_matches_full_scan_on_random_circuits(data):
    circuit, _ = data.draw(st.one_of(small_circuits(), wide_circuits()))
    assert_walk_matches_scan(build_schedule(circuit))


class GateReads(list):
    """A circuit's gate array that counts indexed reads per gate id."""

    def __init__(self, gates):
        super().__init__(gates)
        self.reads = Counter()

    def __getitem__(self, index):
        self.reads[index] += 1
        return list.__getitem__(self, index)


def analysed(output, builder):
    """The schedule of ``builder``'s circuit, checked walk ≡ scan."""
    schedule = build_schedule(builder.build(output))
    assert_walk_matches_scan(schedule)
    return schedule


def test_a_permanent_pairs_every_operand_with_every_other():
    builder = CircuitBuilder()
    a, b, c, d = (builder.input(k) for k in "abcd")
    schedule = analysed(builder.perm([[a, b], [c, d]]), builder)
    assert co_occurring_inputs(schedule, "a") == {"b", "c", "d"}
    assert co_occurring_inputs(schedule, "d") == {"a", "b", "c"}


def test_an_operand_holding_the_key_twice_multiplies_against_itself():
    """(a + b)² and (a + b)(a + c): two operands hold ``a``, so each
    multiplies against the other — ``b`` (and ``c``) co-occur with
    ``a`` although every operand holds ``a``."""
    builder = CircuitBuilder()
    a, b, c = (builder.input(k) for k in "abc")
    ab = builder.add([a, b])
    square = analysed(builder.mul([ab, ab]), builder)
    assert co_occurring_inputs(square, "a") == {"b"}
    assert co_occurring_inputs(square, "b") == {"a"}
    builder = CircuitBuilder()
    a, b, c = (builder.input(k) for k in "abc")
    both = analysed(builder.mul([builder.add([a, b]), builder.add([a, c])]),
                    builder)
    assert co_occurring_inputs(both, "a") == {"b", "c"}
    assert co_occurring_inputs(both, "b") == {"a", "c"}


def test_a_shared_sub_circuit_is_walked_once():
    """``a`` multiplies ``c + d`` at two products; the walk collects the
    shared addition below both but reads it once."""
    builder = CircuitBuilder()
    a, b, c, d = (builder.input(k) for k in "abcd")
    shared = builder.add([c, d])
    schedule = analysed(builder.add([builder.mul([a, shared]),
                                     builder.mul([builder.add([a, b]),
                                                  shared])]), builder)
    assert co_occurring_inputs(schedule, "c") == {"a", "b"}
    schedule.circuit.gates = gates = GateReads(schedule.circuit.gates)
    assert co_occurring_inputs(schedule, "a") == {"c", "d"}
    assert gates.reads[shared] == 1
    assert max(gates.reads.values()) <= 2  # climbed once, collected once


def test_an_unknown_or_dead_key_co_occurs_with_nothing():
    builder = CircuitBuilder()
    a, b = builder.input("a"), builder.input("b")
    builder.input("dead")  # interned, never read by the output
    schedule = analysed(builder.mul([a, b]), builder)
    assert co_occurring_inputs(schedule, "a") == {"b"}
    for key in ("dead", "unknown"):
        assert co_occurring_inputs(schedule, key) == frozenset()


# -- growth guard: counted, not timed ---------------------------------------------


class CountingSemiring(Semiring):
    """A semiring that counts its own ``add``/``mul`` calls (``sub`` is
    an ``add`` of a ``neg``, ``sum``/``prod`` fold through them)."""

    def __init__(self, inner):
        self.inner = inner
        self.name = f"counting({inner.name})"
        self.is_ring = inner.is_ring
        self.is_finite = inner.is_finite
        self.is_exact = inner.is_exact
        self.zero, self.one = inner.zero, inner.one
        self.ops = 0

    def add(self, a, b):
        self.ops += 1
        return self.inner.add(a, b)

    def mul(self, a, b):
        self.ops += 1
        return self.inner.mul(a, b)

    def neg(self, a):
        return self.inner.neg(a)

    def eq(self, a, b):
        return self.inner.eq(a, b)

    def coerce(self, value):
        return self.inner.coerce(value)


class CountingGates(list):
    """A circuit's gate array that counts indexed reads: one per gate an
    upward walk visits, one per gate an evaluator recomputes."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return list.__getitem__(self, index)


GUARD_SIDES = (8, 16)
GUARD_WRITES = 12
#: Quadrupling the data may add two levels (one addition each) to a
#: summation tree — one per doubling; a ring must not grow at all.
TREE_LEVELS = 2

GUARD_CASES = [("N", NATURAL, TREE_LEVELS), ("Z", INTEGER, 0),
               ("min-plus", MIN_PLUS, TREE_LEVELS)]


def guard_structure(side):
    return weighted_graph_structure(triangulated_grid(side, side),
                                    seed=side, wmax=9)


def guard_writes(structure):
    rng = random.Random(5)
    edges = sorted(structure.weights["w"])
    return [(rng.choice(edges), rng.randint(10, 99))
            for _ in range(GUARD_WRITES)]


@pytest.mark.parametrize("inner,slack",
                         [(sr, slack) for _, sr, slack in GUARD_CASES],
                         ids=[name for name, _, _ in GUARD_CASES])
def test_maintained_write_cost_does_not_grow_with_the_data(inner, slack):
    worst = {}
    for side in GUARD_SIDES:
        structure = guard_structure(side)
        sr = CountingSemiring(inner)
        with Database(structure) as db:
            handle = db.prepare(EDGE_SUM).maintain(sr)
            handle.value()
            ops = touched = 0
            for edge, value in guard_writes(structure):
                sr.ops = 0
                with db.update() as tx:
                    touched = max(touched, tx.set_weight("w", edge, value))
                ops = max(ops, sr.ops)
            assert touched > 1  # the writes did reach the output
            worst[side] = (ops, touched)
    small, large = (worst[side] for side in GUARD_SIDES)
    assert large[0] <= 1.25 * small[0] + slack, worst
    assert large[1] <= 1.25 * small[1], worst


@pytest.mark.parametrize("inner,slack",
                         [(sr, slack) for _, sr, slack in GUARD_CASES],
                         ids=[name for name, _, _ in GUARD_CASES])
def test_routed_write_cost_with_a_live_service_does_not_grow(inner, slack):
    """One ``db.update()`` write under a live ``db.serve(DEGREE, sr)``
    with a warm result cache: the recorded write, the retag analysis
    and the base patch together read a bounded number of gates and do a
    bounded number of semiring operations."""
    worst = {}
    for side in GUARD_SIDES:
        structure = guard_structure(side)
        sr = CountingSemiring(inner)
        with Database(structure, result_cache_size=64) as db:
            service = db.serve(DEGREE, sr)
            service.query_batch([(v,) for v in structure.domain[:32]], 60)
            circuit = service.prepared.plan().circuit
            circuit.gates = gates = CountingGates(circuit.gates)
            ops = reads = 0
            first, *writes = guard_writes(structure)
            with db.update() as tx:  # builds the static tables, once
                tx.set_weight("w", *first)
            for edge, value in writes:
                sr.ops = gates.reads = 0
                with db.update() as tx:
                    assert tx.set_weight("w", edge, value) > 0
                ops, reads = max(ops, sr.ops), max(reads, gates.reads)
            assert service.stats()["retagged"] > 0  # the analysis ran
            worst[side] = (ops, reads)
    small, large = (worst[side] for side in GUARD_SIDES)
    assert large[0] <= 1.25 * small[0] + slack, worst
    assert large[1] <= 1.25 * small[1], worst


class CountingEntries(OrderedDict):
    """A result cache's entry table that counts key visits: one per key
    an iteration yields, one per keyed read, write or removal."""

    visits = 0

    def __iter__(self):
        for key in OrderedDict.__iter__(self):
            self.visits += 1
            yield key

    def _counted(name):
        inherited = getattr(OrderedDict, name)

        def method(self, key, *args):
            self.visits += 1
            return inherited(self, key, *args)

        return method

    get, pop, move_to_end = map(_counted, ("get", "pop", "move_to_end"))
    __getitem__, __setitem__, __delitem__, __contains__ = map(
        _counted, ("__getitem__", "__setitem__", "__delitem__",
                   "__contains__"))
    del _counted


CACHE_GUARD_WARM = (64, 1024)
#: Key visits a write may add at the larger cache: none are expected —
#: a DEGREE write looks up the points it reaches, whatever else is warm.
CACHE_GUARD_SLACK = 4


@pytest.mark.parametrize("path", ["service", "group_by"])
def test_write_cost_is_flat_in_the_result_cache(path):
    """One ``db.update()`` write against 64 and against 1 024 warm
    entries on the 32×32 grid visits the same number of result-cache
    keys: a write evicts what it can reach and never walks the rest."""
    structure = guard_structure(32)
    worst = {}
    for warm in CACHE_GUARD_WARM:
        with Database(structure.copy(), result_cache_size=1024) as db:
            keys = [(v,) for v in structure.domain[:warm]]
            if path == "service":
                service = db.serve(DEGREE, NATURAL)
                rewarm = lambda: service.query_batch(keys, 60)
            else:
                handle = db.prepare(DEGREE, params=("x",))
                rewarm = lambda: handle.group_by(keys, NATURAL)
            rewarm()
            cache = db.result_cache
            cache._entries = entries = CountingEntries(cache._entries)
            assert len(cache) == warm
            visits = 0
            for edge, value in guard_writes(structure):
                entries.visits = 0
                with db.update() as tx:
                    assert tx.set_weight("w", edge, value) > 0
                visits = max(visits, entries.visits)
                rewarm()
            assert visits > 0  # the writes did look their reach up
            worst[warm] = visits
    small, large = (worst[warm] for warm in CACHE_GUARD_WARM)
    assert large <= small + CACHE_GUARD_SLACK, worst
