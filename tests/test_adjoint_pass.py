"""One reverse sweep answers every group: the adjoint pass.

Four families:

* differential: a one-key ``group_by`` that runs the adjoint pass
  equals the delta pass and ``bind(a).value(sr)`` bit for bit — on the
  grid and on ``random_bounded_degree`` graphs, in ``N``, ``Z``
  (negative weights), ``Q``, ``R`` (integer-valued), min-plus,
  max-plus and min-max; after routed weight writes and after
  dynamic-relation toggles; and with a weight above M*, where both
  passes run on the exact object kernel;
* refusals: a plan with a permanent group, arity-2 keys and
  non-integer float weights never run the adjoint pass;
* the reverse sweep itself on random circuits: every input's adjoint
  is the formal derivative (dual numbers), and a native sweep at the
  adjoint bound equals the object kernel's (nothing wraps);
* the serving paths keep the delta pass: a served window and a cluster
  worker's batch of at most 64 keys.

The pass is pinned with ``tests.test_delta_pass.forced``, which patches
the cost rule's module constants; production code has no switch.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")

from repro.api import Database  # noqa: E402
from repro.circuits import (CircuitBuilder, StaticEvaluator,  # noqa: E402
                            VectorizedEvaluator, build_schedule, kernel_for)
from repro.circuits.adjoint import (AdjointEvaluator,  # noqa: E402
                                    adjoint_bound)
from repro.circuits.vector_plan import input_bound, vector_plan  # noqa: E402
from repro.circuits.vectorized import Scatter  # noqa: E402
from repro.cluster.sharding import shard_structure  # noqa: E402
from repro.graphs import (Graph, random_bounded_degree,  # noqa: E402
                          triangulated_grid)
from repro.logic import Atom, Bracket, Sum, Weight  # noqa: E402
from repro.semirings import (BOOLEAN, INTEGER, MAX_PLUS,  # noqa: E402
                             MIN_MAX, MIN_PLUS, NATURAL, RATIONAL,
                             FloatField, ModularRing, Semiring)
from repro.structures import graph_structure  # noqa: E402

from tests.test_delta_pass import DEGREE, forced  # noqa: E402
from tests.util import weighted_graph_structure  # noqa: E402

FLOAT = FloatField()

E = lambda x, y: Atom("E", (x, y))  # noqa: E731
w = lambda x, y: Weight("w", (x, y))  # noqa: E731

#: DEGREE through a dynamic unary relation: toggles of S are routed.
DEGREE_S = Sum("y", Bracket(E("x", "y") & Atom("S", ("y",))) * w("x", "y"))
#: Σ_{y,z} [E(x, y) ∧ E(y, z)]: its plan holds a permanent group.
TWO_STEPS = Sum(("y", "z"), Bracket(E("x", "y") & E("y", "z")))

#: (id, semiring, small int -> carrier value): every carrier the pass
#: serves, on integer values (``Z`` shifted into the negatives; ``B``
#: and ``Z_5`` run their generic object kernels).
CARRIERS = [
    ("B", BOOLEAN, lambda v: v > 4),
    ("Z_5", ModularRing(5), lambda v: v % 5),
    ("N", NATURAL, lambda v: v),
    ("Z", INTEGER, lambda v: v - 5),
    ("Q", RATIONAL, Fraction),
    ("R", FLOAT, float),
    ("min-plus", MIN_PLUS, float),
    ("max-plus", MAX_PLUS, float),
    ("min-max", MIN_MAX, float),
]
carriers = pytest.mark.parametrize(
    "sr,conv", [case[1:] for case in CARRIERS],
    ids=[case[0] for case in CARRIERS])

GRAPHS = {
    "grid": lambda: triangulated_grid(6, 6),
    "bounded-degree": lambda: random_bounded_degree(40, 4, seed=7),
}
graphs = pytest.mark.parametrize("graph", sorted(GRAPHS))


def same(got, want):
    """Bit for bit: equal values of the same type."""
    assert list(map(type, got)) == list(map(type, want))
    assert got == want


def grouped(query, sr, which):
    """A full ``group_by`` pinned to one pass: (values, stats)."""
    with forced(which):
        table = query.group_by(None, sr)
    return table.values(), table.stats


def assert_passes_agree(query, sr, domain):
    """Adjoint ≡ delta ≡ ``bind(a).value(sr)``, bit for bit."""
    fast, stats = grouped(query, sr, "adjoint")
    assert stats["pass"] == "adjoint"
    slow, slow_stats = grouped(query, sr, "delta")
    assert slow_stats["pass"] == "delta"
    same(fast, slow)
    same(fast, [query.bind(x).value(sr) for x in domain])
    return stats


@graphs
@carriers
def test_adjoint_equals_delta_equals_point_reads(graph, sr, conv):
    structure = weighted_graph_structure(GRAPHS[graph](), seed=3, wmax=9,
                                         conv=conv)
    edges = sorted(structure.weights["w"])
    rng = random.Random(graph)
    with Database(structure, result_cache_size=0) as db:
        query = db.prepare(DEGREE, params=("x",))
        stats = assert_passes_agree(query, sr, structure.domain)
        assert stats["sweeps"] == 1 and stats["sweep_shape"] is None
        for _ in range(3):
            with db.update() as tx:
                for edge in rng.sample(edges, 2):
                    tx.set_weight("w", edge, conv(rng.randint(1, 9)))
            assert_passes_agree(query, sr, structure.domain)
        # Explicit keys, duplicates and a vertex without out-edges (its
        # selector is no live input: the base output).
        keys = [structure.domain[0], structure.domain[3],
                structure.domain[0]]
        with forced("adjoint"):
            table = query.group_by(keys, sr)
        assert table.stats["pass"] == "adjoint"
        same(table.values(), [query.bind(x).value(sr)
                              for x in dict.fromkeys(keys)])


def test_an_element_without_a_selector_reads_the_base_output():
    graph = Graph(range(6), [(0, 1), (1, 2), (3, 4)])  # 5 is isolated
    structure = weighted_graph_structure(graph, seed=1, wmax=9)
    with Database(structure, result_cache_size=0) as db:
        query = db.prepare(DEGREE, params=("x",))
        fast, stats = grouped(query, NATURAL, "adjoint")
        slow, _ = grouped(query, NATURAL, "delta")
    assert stats["pass"] == "adjoint"
    same(fast, slow)
    assert fast[5] == 0


@carriers
def test_routed_toggles_of_a_dynamic_relation(sr, conv):
    structure = weighted_graph_structure(triangulated_grid(5, 5), seed=4,
                                         wmax=9, conv=conv)
    for vertex in structure.domain[::2]:
        structure.add_tuple("S", (vertex,))
    rng = random.Random(5)
    with Database(structure, result_cache_size=0) as db:
        query = db.prepare(DEGREE_S, params=("x",), dynamic=("S",))
        assert_passes_agree(query, sr, structure.domain)
        plan = query.plan()
        for _ in range(4):
            with db.update() as tx:
                for vertex in rng.sample(structure.domain, 3):
                    tx.set_relation("S", (vertex,),
                                    not structure.has_tuple("S", (vertex,)))
            assert_passes_agree(query, sr, structure.domain)
        assert query.plan() is plan  # every toggle was routed


@pytest.mark.parametrize("sr", [NATURAL, INTEGER], ids=["N", "Z"])
def test_weights_above_the_bound_run_both_passes_on_the_object_kernel(sr):
    structure = weighted_graph_structure(triangulated_grid(5, 5), seed=2,
                                         wmax=9)
    edge = sorted(structure.weights["w"])[4]
    with Database(structure, result_cache_size=0) as db:
        query = db.prepare(DEGREE, params=("x",))
        plan = vector_plan(query.plan().schedule())
        window = kernel_for(sr).window
        assert adjoint_bound(plan, window) <= input_bound(plan, window)
        _, stats = grouped(query, sr, "adjoint")
        assert stats["kernel"] == f"{sr.name}-int64"
        with db.update() as tx:
            tx.set_weight("w", edge, -(input_bound(plan, window) + 1)
                          if sr is INTEGER else 2 ** 70)
        before = query.plan().kernel_stats()["fallbacks"]
        stats = assert_passes_agree(query, sr, structure.domain)
        assert stats["kernel"] == f"{sr.name}-object"
        assert query.plan().kernel_stats()["fallbacks"] == before + 2


# -- refusals ------------------------------------------------------------------


def test_a_plan_with_a_permanent_group_never_runs_the_adjoint_pass():
    structure = weighted_graph_structure(triangulated_grid(4, 4), seed=1)
    with Database(structure, result_cache_size=0) as db:
        query = db.prepare(TWO_STEPS, params=("x",))
        fast, stats = grouped(query, NATURAL, "adjoint")
        plan = vector_plan(query.plan().schedule())
        slow, _ = grouped(query, NATURAL, "delta")
        points = [query.bind(x).value(NATURAL) for x in structure.domain]
    assert any(group.kind == "perm" for level in plan.levels
               for group in level)
    assert stats["pass"] in ("delta", "dense")
    same(fast, slow)
    same(fast, points)


def test_arity_two_keys_never_run_the_adjoint_pass():
    structure = weighted_graph_structure(triangulated_grid(4, 4), seed=1)
    edges = sorted(structure.weights["w"])
    with Database(structure, result_cache_size=0) as db:
        query = db.prepare(Bracket(E("x", "y")) * w("x", "y"),
                           params=("x", "y"))
        with forced("adjoint"):
            table = query.group_by(edges, NATURAL)
    assert table.stats["pass"] in ("delta", "dense")
    assert table.values() == [structure.weights["w"][edge] for edge in edges]


@pytest.mark.parametrize("sr,conv", [
    (FLOAT, lambda v: v / 4), (MIN_PLUS, lambda v: v + 0.5),
    (MAX_PLUS, lambda v: v / 3)], ids=["R", "min-plus", "max-plus"])
def test_non_integer_float_weights_never_run_the_adjoint_pass(sr, conv):
    structure = weighted_graph_structure(triangulated_grid(4, 4), seed=1,
                                         wmax=9, conv=conv)
    with Database(structure, result_cache_size=0) as db:
        query = db.prepare(DEGREE, params=("x",))
        fast, stats = grouped(query, sr, "adjoint")
        slow, _ = grouped(query, sr, "delta")
    assert stats["pass"] in ("delta", "dense")
    same(fast, slow)


@pytest.mark.parametrize("sr", [FLOAT, MIN_PLUS], ids=["R", "min-plus"])
def test_a_non_integer_write_turns_the_adjoint_pass_off_at_once(sr,
                                                                monkeypatch):
    """Whether a float base is integral is read once per write: memoized
    on the prepared base, dropped by the patch a routed write makes."""
    structure = weighted_graph_structure(triangulated_grid(5, 5), seed=1,
                                         wmax=9, conv=float)
    edge = sorted(structure.weights["w"])[3]
    scans = [0]
    trunc = np.trunc

    def counted(*args, **kwargs):
        scans[0] += 1
        return trunc(*args, **kwargs)

    monkeypatch.setattr(np, "trunc", counted)
    with Database(structure, result_cache_size=0) as db:
        query = db.prepare(DEGREE, params=("x",))
        assert grouped(query, sr, "adjoint")[1]["pass"] == "adjoint"
        scans[0] = 0
        assert grouped(query, sr, "adjoint")[1]["pass"] == "adjoint"
        assert scans[0] == 0  # the column's profile is memoized
        for weight, passes in ((2.5, ("delta", "dense")), (3.0, ("adjoint",))):
            with db.update() as tx:
                tx.set_weight("w", edge, weight)
            fast, stats = grouped(query, sr, "adjoint")
            assert stats["pass"] in passes, weight
            assert scans[0] == 1, weight  # one scan of the patched column
            scans[0] = 0
            same(fast, [query.bind(x).value(sr) for x in structure.domain])


# -- the reverse sweep on random circuits --------------------------------------


class Dual(Semiring):
    """``Z[ε]/(ε²)``: ``(a, b)`` is ``a + bε``, so evaluating with one
    input at ``x + ε`` yields the derivative in that input as ``b``."""

    name = "dual"
    zero = (0, 0)
    one = (1, 0)

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def mul(self, a, b):
        return (a[0] * b[0], a[0] * b[1] + a[1] * b[0])

    def coerce(self, value):
        return (int(value), 0)


DUAL = Dual()


@st.composite
def sum_product_circuits(draw, inputs=6):
    """A random circuit of additions and multiplications (no
    permanents): operands drawn with replacement, additions wide enough
    for partial-sum trees, constants, and one input nothing reads."""
    builder = CircuitBuilder()
    keys = [("in", index) for index in range(inputs)]
    pool = [builder.input(key) for key in keys]
    builder.input(("dead", 0))
    pool.append(builder.const(draw(st.integers(0, 3))))
    for _ in range(draw(st.integers(2, 10))):
        kind = draw(st.sampled_from(("add", "mul", "wide")))
        fan_in = draw(st.integers(2, 20 if kind == "wide" else 4))
        operands = [draw(st.sampled_from(pool)) for _ in range(fan_in)]
        pool.append((builder.mul if kind == "mul" else builder.add)(
            operands))
    return builder.build(builder.add(pool[-3:])), keys


def reverse_sweep(circuit, keys, sr, base, exact_mode="auto"):
    """Every key's adjoint at ``base``: column ``i`` of one adjoint pass
    reads the slot of ``keys[i]``."""
    schedule = build_schedule(circuit)
    slot_of = schedule.slot_of()
    kernel = kernel_for(sr, exact_mode)
    prepared = VectorizedEvaluator.prepare_base(circuit, sr, base,
                                                schedule=schedule,
                                                kernel=kernel)
    scatter = Scatter.of_overrides(slot_of, [{key: sr.one} for key in keys])
    return AdjointEvaluator.from_scatter(circuit, sr, prepared, scatter,
                                         schedule, kernel)


@settings(max_examples=40, deadline=None)
@given(drawn=sum_product_circuits(), data=st.data())
def test_every_adjoint_is_the_formal_derivative(drawn, data):
    circuit, keys = drawn
    base = {key: data.draw(st.integers(-4, 4)) for key in keys}
    evaluator = reverse_sweep(circuit, keys, INTEGER, base)
    assert evaluator.pass_used == "adjoint"
    live = build_schedule(circuit).slot_of()
    for key, got in zip(keys, evaluator.results()):
        if key not in live:  # a read key with no slot: the base output
            continue
        dual = StaticEvaluator(circuit, DUAL, lambda k, _key=key: (
            base.get(k, 0), int(k == _key))).value()
        assert got == dual[1], key


@settings(max_examples=40, deadline=None)
@given(drawn=sum_product_circuits(), data=st.data())
def test_a_native_sweep_at_the_bound_equals_the_exact_one(drawn, data):
    circuit, keys = drawn
    plan = vector_plan(build_schedule(circuit))
    bound = adjoint_bound(plan, kernel_for(INTEGER).window)
    if bound is None:
        return
    sign = st.sampled_from((-1, 1))
    base = {key: data.draw(sign) * bound for key in keys}
    native = reverse_sweep(circuit, keys, INTEGER, base)
    exact = reverse_sweep(circuit, keys, INTEGER, base, "object")
    assert (native.certified, native.kernel_used) == (True, "Z-int64")
    assert exact.kernel_used == "Z-object"
    assert native.results() == exact.results()


# -- the serving paths keep the delta pass -------------------------------------


def test_served_windows_and_worker_batches_keep_the_delta_pass():
    """A served window of 64 misses on the 32 x 32 grid, and a cluster
    worker's batch of 64 keys over its shard of 512 eight-vertex
    chains, both in ``R``: their cones cost less than one reverse sweep
    of the plan, so the rule keeps them on the delta pass."""
    grid = weighted_graph_structure(triangulated_grid(32, 32), seed=3,
                                    wmax=9, conv=float)
    keys = random.Random(1).sample(grid.domain, 64)
    with Database(grid, result_cache_size=256) as db:
        with db.serve(DEGREE, FLOAT, params=("x",)) as service:
            service.query_batch([(x,) for x in keys], 30)
            ran = service.prepared.plan().kernel_stats()
    assert ran["pass"] == "delta" and ran["batches"] >= 1

    chains = Graph(range(512 * 8), [(c * 8 + i, c * 8 + i + 1)
                                    for c in range(512) for i in range(7)])
    forest = graph_structure(chains)
    for edge in sorted(forest.relations["E"]):
        forest.set_weight("w", edge, float(edge[0] % 9 + 1))
    shard = shard_structure(forest, 2).shards[0]
    keys = random.Random(2).sample(shard.domain, 64)
    with Database(shard, result_cache_size=0) as db:
        query = db.prepare(DEGREE, params=("x",))
        query.batch([(x,) for x in keys], FLOAT)
        assert query.plan().kernel_stats()["pass"] == "delta"
        # The whole shard's group domain does take the adjoint pass.
        assert query.group_by(None, FLOAT).stats["pass"] == "adjoint"


# -- the deep variant ----------------------------------------------------------


@pytest.mark.slow
@settings(deadline=None)
@given(n=st.integers(8, 60), degree=st.integers(1, 5),
       seed=st.integers(0, 2 ** 16), carrier=st.sampled_from(CARRIERS),
       data=st.data())
def test_deep_adjoint_equals_delta_on_random_graphs(n, degree, seed, carrier,
                                                    data):
    _, sr, conv = carrier
    structure = weighted_graph_structure(random_bounded_degree(n, degree,
                                                               seed=seed),
                                         seed=seed, wmax=9, conv=conv)
    edges = sorted(structure.weights["w"])
    with Database(structure, result_cache_size=0) as db:
        query = db.prepare(DEGREE, params=("x",))
        assert_passes_agree(query, sr, structure.domain)
        if edges:
            with db.update() as tx:
                for edge in data.draw(st.lists(st.sampled_from(edges),
                                               max_size=4)):
                    tx.set_weight("w", edge,
                                  conv(data.draw(st.integers(0, 9))))
            assert_passes_agree(query, sr, structure.domain)
