"""The paper's complexity claims as counted guards, not wall-clock floors.

Each guard counts the units of work a claim bounds — with hooks the test
installs, never a counter on the hot path — at two sizes where the
constants have saturated, and fails on a named mutant that adds one
linear walk.  A count does not move with the host's load, so the guards
run in tier-1 in seconds.
"""

from __future__ import annotations

import gc
import itertools
import random
import sys
import tracemalloc
from math import comb

import pytest

from repro.api import Database
from repro.circuits import HAVE_NUMPY, DynamicEvaluator, StaticEvaluator
from repro.core import close_over, closure, compile_structure_query
from repro.core.stages import ColoredFacts
from repro.enumeration import AnswerEnumerator, EnumerationContext
from repro.graphs import (low_treedepth_coloring, random_bounded_degree,
                          triangulated_grid)
from repro.logic import Atom, Bracket, Sum, Weight, normalize
from repro.semirings import BOOLEAN, MIN_PLUS, NATURAL, ModularRing
from repro.structures import graph_structure

from tests.test_dynamic_maintainers import CountingGates
from tests.util import enumerator_over, weighted_graph_structure

E = lambda x, y: Atom("E", (x, y))
EDGE_F = E("x", "y") & Atom("S", ("x",)) & ~Atom("S", ("y",))
#: f(x) = Σ_y [E(x, y)] · w(x, y): one selector, a point read per key.
DEGREE = Sum("y", Bracket(E("x", "y")) * Weight("w", ("x", "y")))
#: Closed: the total edge weight, a maintained value.
EDGE_SUM = Sum(("x", "y"), Bracket(E("x", "y")) * Weight("w", ("x", "y")))
#: Clique-guarded: every pair of its variables shares a positive E atom.
TRIANGLE = Sum(("x", "y", "z"),
               Bracket(E("x", "y") & E("y", "z") & E("z", "x"))
               * Weight("w", ("x", "y")) * Weight("w", ("y", "z"))
               * Weight("w", ("z", "x")))
#: Unguarded: x and z share no atom.
PATH = Sum(("x", "y", "z"), Bracket(E("x", "y") & E("y", "z")))
#: Unguarded: weight factors do not guard.
UNARY_PAIRS = Sum(("x", "y"), Weight("u", ("x",)) * Weight("u", ("y",)))


class CountingLinks(dict):
    """A :class:`~repro.enumeration.LinkedSet`'s successor map that counts
    every read: each is one linked-set step, whichever method takes it."""

    reads = 0

    def __getitem__(self, key):
        CountingLinks.reads += 1
        return dict.__getitem__(self, key)


class CountingLeaves(dict):
    """A context's leaf map (``EnumerationContext.values``) that counts
    every leaf sequence read: a leaf opened on its own and each leaf
    factor a spliced product reads are one unit each."""

    reads = 0

    def get(self, key, default=None):
        found = dict.get(self, key, default)
        if found is not None:
            CountingLeaves.reads += 1
        return found


@pytest.fixture
def subtree_opens(monkeypatch):
    """Counts every subtree a walk or a cursor opens above the leaves
    (a leaf's open is its sequence read, which :class:`CountingLeaves`
    counts)."""
    opened = [0]
    for name in ("_walk", "_cursor"):
        method = getattr(EnumerationContext, name)

        def counted(self, gate_id, _method=method):
            if gate_id not in self.values:
                opened[0] += 1
            return _method(self, gate_id)

        monkeypatch.setattr(EnumerationContext, name, counted)
    return opened


def edge_enumerator(side: int) -> AnswerEnumerator:
    structure = graph_structure(triangulated_grid(side, side))
    rng = random.Random(side)
    for vertex in structure.domain:
        if rng.random() < 0.5:
            structure.add_tuple("S", (vertex,))
    return enumerator_over(structure, EDGE_F, ("x", "y"), dynamic=("S",))


#: Subtree opens, leaf reads and linked-set steps per answer.  EDGE_F
#: reads ~6 on average: each answer is one supported child of the root
#: sum — a product whose spliced factors are two or four one-monomial
#: inputs — opened once and read leaf by leaf, plus one step along the
#: root's linked set.
WORK_PER_ANSWER = 7
#: The most work between two answers (or before the first): 9, where a
#: product's factor is a sum whose own child is a product.
WORK_PER_DELAY = 12


def test_theorem24_work_per_answer_is_flat(subtree_opens):
    """Theorem 24: constant delay.  Over a full forward pass of EDGE_F,
    count the subtrees opened, the leaf sequences read and the
    linked-set steps taken.  Per
    answer on average, and before each answer at most, that work stays
    under a fixed constant, and the average agrees within 10 % between
    grid sides 12 and 24 (4× the answers).

    Fails on the mutant that rewrites ``LinkedSet.after`` as a scan
    from the head (``item = self.next[HEAD]`` until the successor of
    ``item`` is found): each step of the root sum then costs its
    position, and the work per answer grows with the grid.  Fails too
    on a walk that materialises an enumeration before its first answer
    (``list(self._walk(gate_id))`` in ``EnumerationContext.walk``): the
    first answer then waits for the whole pass.
    """
    def work():
        return subtree_opens[0] + CountingLeaves.reads + CountingLinks.reads

    average = {}
    for side in (12, 24):
        enumerator = edge_enumerator(side)
        context = enumerator.context
        for linked in context.add_children.values():
            linked.next = CountingLinks(linked.next)
        context.values = CountingLeaves(context.values)
        subtree_opens[0] = CountingLeaves.reads = CountingLinks.reads = 0
        delays, before = [], 0
        for _answer in enumerator:
            delays.append(work() - before)
            before = work()
        assert len(delays) == enumerator.count() > 0
        assert max(delays) <= WORK_PER_DELAY, (side, max(delays))
        average[side] = work() / len(delays)
    assert max(average.values()) < WORK_PER_ANSWER, average
    assert average[24] <= 1.1 * average[12], average
    assert average[12] <= 1.1 * average[24], average


@pytest.fixture
def full_evaluations(monkeypatch):
    """Counts every full evaluation of a circuit: a static pass, or the
    construction of a maintained evaluator (which evaluates every
    gate once)."""
    built = [0]
    for cls in (StaticEvaluator, DynamicEvaluator):
        init = cls.__init__

        def counted(self, *args, _init=init, **kwargs):
            built[0] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return built


@pytest.fixture
def gates_recomputed(monkeypatch):
    """Counts the gates every maintained evaluator recomputes."""
    touched = [0]
    update_input = DynamicEvaluator.update_input

    def counted(self, key, value):
        gates = update_input(self, key, value)
        touched[0] += gates
        return gates

    monkeypatch.setattr(DynamicEvaluator, "update_input", counted)
    return touched


#: Gates one ``S`` toggle recomputes in ``count()``'s evaluator on
#: EDGE_F: ~16 on average, 22 at most (the vertex's incident edges, each
#: a short product under its colour subset's sum, and the sums above).
GATES_PER_TOGGLE = 24
#: The average over a toggle stream.
GATES_PER_TOGGLE_AVERAGE = 19


def test_theorem24_count_after_a_toggle_is_its_cone(full_evaluations,
                                                    gates_recomputed):
    """Theorem 24's count is maintained, not re-evaluated: after a
    routed ``S`` toggle, ``count()`` runs no full evaluation, and the
    toggle recomputes only its cone in the count's evaluator — under a
    fixed constant per toggle, and on average within 10 % between grid
    sides 12 and 24 (4× the gates).

    Fails on the mutant that rewrites ``AnswerEnumerator.count`` as
    ``plan.evaluate(NATURAL, selected=1)``: every call is then a static
    pass over the whole circuit.  Fails too on a count that rebuilds its
    maintained evaluator after each write.
    """
    touched = gates_recomputed
    toggles = 100
    average = {}
    for side in (12, 24):
        enumerator = edge_enumerator(side)
        structure = enumerator.prepared.db.structure
        edges = sorted(structure.relations["E"])
        enumerator.count()  # builds the maintained count: one pass
        full_evaluations[0] = 0
        rng = random.Random(-side)
        total = 0
        for _ in range(toggles):
            vertex = rng.choice(structure.domain)
            present = not structure.has_tuple("S", (vertex,))
            touched[0] = 0
            with enumerator.prepared.db.update() as tx:
                tx.set_relation("S", (vertex,), present)
            assert touched[0] <= GATES_PER_TOGGLE, (side, touched[0])
            total += touched[0]
            assert enumerator.count() == sum(
                1 for x, y in edges if structure.has_tuple("S", (x,))
                and not structure.has_tuple("S", (y,)))
        assert full_evaluations[0] == 0, side
        average[side] = total / toggles
    assert max(average.values()) < GATES_PER_TOGGLE_AVERAGE, average
    assert average[24] <= 1.1 * average[12], average
    assert average[12] <= 1.1 * average[24], average


#: Gates one routed ``w`` write recomputes, summed over the maintained
#: ``EDGE_SUM`` and the ``DEGREE`` point evaluator: ~3.7 on average, 5
#: at most (the edge's product, its colour subset's sum, the root).
GATES_PER_WRITE = 8
#: Gates one ``DEGREE`` point read recomputes: the selector raise and
#: restore, ~15 on average, 16 at most.
GATES_PER_READ = 24


def test_theorem8_a_write_and_a_read_cost_their_cone(full_evaluations,
                                                     gates_recomputed):
    """Theorem 8: after a routed ``w`` write, the maintained value and a
    point query are read from evaluators that recompute only the cone
    of what changed.  Over 200 writes, each followed by one maintained
    read of ``EDGE_SUM`` and one point read of ``DEGREE``, no full
    evaluation runs, the gates recomputed per write and per read stay
    under fixed constants, and their averages agree within 15 % between
    grid sides 12 and 24 (4× the gates).

    Fails on the mutant whose ``PreparedQuery._apply_weight`` drops the
    handle's ``_dynamics`` instead of calling ``update_input`` on them:
    the next read rebuilds its evaluator, a full evaluation.  Fails too
    on ``MaintainedQuery.value`` rewritten as ``plan.evaluate(sr)``:
    every read is then a static pass over the whole circuit.
    """
    writes = 200
    average = {}
    for side in (12, 24):
        structure = weighted_graph_structure(
            triangulated_grid(side, side), seed=side)
        with Database(structure, result_cache_size=0) as db:
            degree = db.prepare(DEGREE, params=("x",))
            total = db.prepare(EDGE_SUM).maintain(NATURAL)
            weights = structure.weights["w"]
            edges = sorted(weights)
            # Warm-up: one pass each builds the two evaluators.
            assert total.value() == sum(weights.values())
            degree.bind(edges[0][0]).value(NATURAL)
            full_evaluations[0] = 0
            rng = random.Random(side)
            spent = {"write": [], "read": []}
            for _ in range(writes):
                edge = rng.choice(edges)
                gates_recomputed[0] = 0
                with db.update() as tx:
                    tx.set_weight("w", edge, rng.randint(1, 9))
                spent["write"].append(gates_recomputed[0])
                assert total.value() == sum(weights.values())
                vertex = rng.choice(edges)[0]
                gates_recomputed[0] = 0
                assert degree.bind(vertex).value(NATURAL) == sum(
                    value for (x, _), value in weights.items()
                    if x == vertex)
                spent["read"].append(gates_recomputed[0])
            assert full_evaluations[0] == 0, side
        assert max(spent["write"]) <= GATES_PER_WRITE, side
        assert max(spent["read"]) <= GATES_PER_READ, side
        average[side] = {kind: sum(counts) / writes
                         for kind, counts in spent.items()}
    for kind in ("write", "read"):
        small, large = average[12][kind], average[24][kind]
        assert large <= 1.15 * small and small <= 1.15 * large, average


@pytest.fixture
def argument_work(monkeypatch):
    """Counts every ``normalize_arguments`` call and every selector key
    built, through whichever ``repro`` module's global makes it."""
    counts = {"normalize_arguments": 0, "selector_key": 0}
    for name in counts:
        original = getattr(closure, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        for module in list(sys.modules.values()):
            if module is not None \
                    and module.__name__.startswith("repro") \
                    and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


#: Cells a warm full ``group_by`` of DEGREE computes per group on the
#: vectorized backend: ~12 (the adjoint pass — one visit per rank of the
#: plan; read 12.06 at side 12, 12.72 at side 24; the delta pass, the
#: group's selector edit and the cone above it, read 9.95 and 10.44).
CELLS_PER_GROUP = 16

#: The carriers the ``group_by`` guards run: two native kernels and two
#: generic object kernels (``B-pyfunc``, ``Z_5-pyfunc``).  Every carrier
#: takes the vectorized passes; ``backend="python"`` is the one
#: exemption, a dense sweep of every gate per group.
GROUP_CARRIERS = (NATURAL, MIN_PLUS, BOOLEAN, ModularRing(5))


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
def test_theorem8_a_group_costs_its_cone(argument_work):
    """Theorem 8 batched over the group domain: a warm
    ``group_by(None, sr)`` of DEGREE computes under a fixed number of
    cells per group, within 15 % between grid sides 12 and 24 (4× the
    groups), in every carrier of :data:`GROUP_CARRIERS` — and pays
    nothing per group
    before its cone but one slot lookup per element: no
    ``normalize_arguments`` call (the keys come from the domain) and no
    selector key built.  A served window of m distinct misses validates
    each argument once, at submit: m calls.

    Fails on the mutant whose ``PreparedQuery._query_batch`` validates
    its tuples again (``normalize_arguments`` per tuple): the window
    then calls it 2m times and every ``group_by`` once per group.
    Fails too on a vectorized ``evaluate_selected`` that builds
    ``selector_key`` tuples and scatters them through ``slot_of``, and
    on a ``kernel_for`` that returns ``None`` for a carrier without a
    native kernel (``B`` and ``Z_5`` then have no vectorized pass).
    """
    per_group = {}
    for side in (12, 24):
        structure = weighted_graph_structure(
            triangulated_grid(side, side), seed=side)
        weights = structure.weights["w"]
        with Database(structure, result_cache_size=0,
                      backend="numpy") as db:
            degree = db.prepare(DEGREE, params=("x",))
            for sr in GROUP_CARRIERS:
                degree.group_by(None, sr)  # warm: the base sweep
                argument_work.update(normalize_arguments=0, selector_key=0)
                table = degree.group_by(None, sr)
                assert argument_work == {"normalize_arguments": 0,
                                         "selector_key": 0}, (side, sr)
                groups = len(structure.domain)
                assert len(table) == groups
                per_group[side, sr.name] = table.stats["cells"] / groups
                assert per_group[side, sr.name] <= CELLS_PER_GROUP, \
                    per_group
            keys = [(x,) for x in structure.domain[:32]]
            with db.serve(DEGREE, NATURAL, params=("x",)) as service:
                argument_work.update(normalize_arguments=0)
                assert service.query_batch(keys) == [
                    sum(value for (x, _), value in weights.items()
                        if x == key) for (key,) in keys]
                assert argument_work["normalize_arguments"] == len(keys)
    for sr in GROUP_CARRIERS:
        small, large = per_group[12, sr.name], per_group[24, sr.name]
        assert large <= 1.15 * small and small <= 1.15 * large, per_group


@pytest.fixture
def reverse_sweeps(monkeypatch):
    """Counts every rank the adjoint pass's reverse sweeps visit: one
    call of ``AdjointEvaluator._reverse`` visits each rank of its plan
    once."""
    from repro.circuits.adjoint import AdjointEvaluator
    visited = [0]
    reverse = AdjointEvaluator._reverse

    def counted(self, values):
        visited[0] += self.plan.size
        return reverse(self, values)

    monkeypatch.setattr(AdjointEvaluator, "_reverse", counted)
    return visited


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
def test_theorem8_every_group_from_one_reverse_sweep(reverse_sweeps):
    """A one-key closed form is linear in its selectors, so a warm
    ``group_by(None, sr)`` of DEGREE reads every group off one reverse
    sweep of adjoints: the shipped rule runs the adjoint pass at grid
    sides 12 and 24, in every carrier of :data:`GROUP_CARRIERS`, and it
    visits each rank of the plan once — ``cells`` is the plan's size,
    however many keys (12.06 / 12.72 ranks per group).

    Fails on the mutant whose ``AdjointEvaluator._run_overrides`` runs
    the reverse sweep once per key (a sweep per column, each reading
    its own selector's adjoint): it visits ``|D|`` times the plan; and
    on a ``kernel_for`` that returns ``None`` for a carrier without a
    native kernel."""
    from repro.circuits.vector_plan import vector_plan
    for side in (12, 24):
        structure = weighted_graph_structure(
            triangulated_grid(side, side), seed=side)
        with Database(structure, result_cache_size=0,
                      backend="numpy") as db:
            degree = db.prepare(DEGREE, params=("x",))
            for sr in GROUP_CARRIERS:
                degree.group_by(None, sr)  # warm: the base sweep
                reverse_sweeps[0] = 0
                table = degree.group_by(None, sr)
                size = vector_plan(degree.plan().schedule()).size
                assert table.stats["pass"] == "adjoint", (side, sr)
                assert table.stats["cells"] == size == reverse_sweeps[0], \
                    (side, sr, table.stats["cells"], reverse_sweeps[0])
                assert size / len(structure.domain) <= CELLS_PER_GROUP


#: Bytes per live gate the first ``affected_arguments`` of a DEGREE
#: plan leaves allocated: the shared parent table (three 8-byte CSR
#: columns, 31-34 B) and the slot map (33-38 B), 67 / 67 B at sides
#: 12 / 24 (66 at side 48) on CPython 3.11.
BYTES_PER_GATE = 120
#: Gates one DEGREE write's analysis reads: 4 (the weight's product and
#: the sums above it, then the selector it multiplies).
GATES_PER_ANALYSIS = 8


def test_theorem8_the_eviction_analysis_is_linear(monkeypatch):
    """The analysis that picks which cached points a write evicts holds
    linear memory and visits a bounded cone: the bytes the first
    ``affected_arguments`` of a DEGREE plan leaves allocated (tracemalloc),
    per live gate, stay under a fixed constant and agree within 15 %
    between grid sides 12 and 24 (4× the gates and the inputs); and the
    gates each later write's analysis reads stay under a fixed constant.

    Fails on the mutant whose ``co_occurring_inputs`` reads a memoized
    per-gate bitmask of every input slot again (``input_cone_masks``):
    a gates × inputs table, 410 → 617 B per gate from side 12 to 24;
    and on the mutant whose ``LayerSchedule.parents`` is a dict of
    ``[(parent, position)]`` lists again, 274 / 278 B per gate with
    the slot map.
    """
    per_gate = {}
    for side in (12, 24):
        structure = weighted_graph_structure(
            triangulated_grid(side, side), seed=side)
        with Database(structure, result_cache_size=0) as db:
            plan = db.prepare(DEGREE, params=("x",)).plan()
            schedule = plan.schedule()
            keys = [("w", "w", edge) for edge in sorted(structure.weights["w"])]
            # A full collection empties the interpreter's free lists, so
            # every tuple the tables hold is a traced allocation.
            gc.collect()
            tracemalloc.start()
            try:
                reached = plan.affected_arguments(keys[:1], 1)
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert reached[0], side  # the write reaches some point
            per_gate[side] = held / schedule.live_count()
            gates = CountingGates(plan.circuit.gates)
            monkeypatch.setattr(plan.circuit, "gates", gates)
            for key in random.Random(side).sample(keys, 50):
                gates.reads = 0
                plan.affected_arguments((key,), 1)
                assert 0 < gates.reads <= GATES_PER_ANALYSIS, (side, key)
            monkeypatch.undo()
    assert max(per_gate.values()) <= BYTES_PER_GATE, per_gate
    small, large = per_gate[12], per_gate[24]
    assert large <= 1.15 * small and small <= 1.15 * large, per_gate


@pytest.fixture
def forests_built(monkeypatch):
    """Counts every ``ColoredFacts.forest`` call: one elimination forest
    built for one color subset."""
    built = [0]
    forest = ColoredFacts.forest

    def counted(self, colors):
        built[0] += 1
        return forest(self, colors)

    monkeypatch.setattr(ColoredFacts, "forest", counted)
    return built


def sparse_structure(family: str, size: int):
    """A weighted structure over a triangulated grid of side ``size`` or
    a random graph of ``size`` vertices and degree at most 4, with a
    unary weight ``u`` on every vertex."""
    graph = triangulated_grid(size, size) if family == "grid" \
        else random_bounded_degree(size, 4, seed=size)
    structure = weighted_graph_structure(graph, seed=size)
    for index, vertex in enumerate(structure.domain):
        structure.set_weight("u", (vertex,), 1 + index % 3)
    return structure


def clique_color_sets(graph, coloring, p: int) -> set:
    """The color sets of the cliques of at most ``p`` vertices, by brute
    force: every such clique is a vertex with a few of its neighbors."""
    found = set()
    for vertex in graph.vertices():
        around = sorted(graph.neighbors(vertex), key=repr)
        for size in range(p):
            for rest in itertools.combinations(around, size):
                if all(graph.has_edge(a, b)
                       for a, b in itertools.combinations(rest, 2)):
                    found.add(frozenset(coloring[v]
                                        for v in (vertex,) + rest))
    return found


def compiled_forests(forests_built, structure, expr):
    """Compile ``expr`` under a coloring the test knows; returns
    ``(forests built, the coloring's clique color sets by size, its
    color count, the query's width p)``."""
    p = max(len(block.vars) for block in normalize(expr))
    coloring = low_treedepth_coloring(structure.gaifman(), p)
    forests_built[0] = 0
    compiled = compile_structure_query(structure, expr, coloring=coloring)
    assert compiled.stats()["color_subsets"] == forests_built[0]
    by_size: dict = {}
    for colors in clique_color_sets(structure.gaifman(), coloring, p):
        by_size[len(colors)] = by_size.get(len(colors), 0) + 1
    return forests_built[0], by_size, len(set(coloring.values())), p


@pytest.mark.parametrize("family,sizes", [("grid", (8, 12)),
                                          ("bdeg4", (150, 600))])
def test_theorem6_builds_a_forest_per_clique_color_set(forests_built,
                                                       family, sizes):
    """Theorem 6's Lemma 35 split is output-sensitive: a clique-guarded
    block (TRIANGLE; DEGREE's closed form) builds one forest per color
    set of a Gaifman clique of at most p vertices — brute-forced here —
    and none for any other color subset, on the grid and on a random
    graph of degree at most 4, at two sizes.  An unguarded block (the
    weight-free path, ``Σ u(x)·u(y)``) still builds one per non-empty
    subset of at most p colors, and a sum of both builds the union.

    Fails on the mutant that prunes an unguarded block
    (``_clique_guarded`` answering ``True`` for every block): the path
    then builds the clique color sets only.  Fails too on the loop that
    builds a forest for every subset whatever its blocks: TRIANGLE then
    builds all C(k, <= 3) of them (696 for 132 on the 6 x 6 grid).
    """
    for size in sizes:
        structure = sparse_structure(family, size)
        for expr in (TRIANGLE, close_over(DEGREE, ("x",))):
            built, cliques, _, _ = compiled_forests(forests_built,
                                                    structure, expr)
            assert built == sum(cliques.values()), (family, size, expr)
    # Unguarded blocks pay for every subset, so they run at the smaller
    # size only, and the path (p = 3) on the grid's fewer colors only.
    structure = sparse_structure(family, sizes[0])
    for expr in (PATH, UNARY_PAIRS) if family == "grid" else (UNARY_PAIRS,):
        built, _, colors, p = compiled_forests(forests_built, structure, expr)
        assert built == sum(comb(colors, k) for k in range(1, p + 1)), \
            (family, expr)
    built, cliques, colors, _ = compiled_forests(
        forests_built, structure, TRIANGLE + UNARY_PAIRS)
    assert built == colors + comb(colors, 2) + cliques[3], family
