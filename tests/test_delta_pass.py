"""Override batches cost their cones: the delta pass of the vectorized
backend.

Five families:

* the cone-restricted delta pass ≡ the dense sweep ≡ a per-column
  :class:`~repro.circuits.StaticEvaluator`, on random circuits (wide
  additions with duplicate children summed through partial-sum trees,
  permanent gates above and below them, constants, dead inputs), for
  every shipped array kernel and both override constructors — including
  overrides past the overflow certificate, where the pass runs on the
  exact object kernel, results stay exact and the fallback is counted;
* ``CompiledQuery._record`` interleavings (write, batch, write): a batch
  never reads a base sweep older than the last write;
* the growth guard: the *cells* a full ``group_by`` and a one-probe
  ``batch`` compute are counted at two sizes — the slope, not a timing;
* the cone table against a brute-force closure, and the counted
  guard: a delta pass is one cone expansion (one ``expand_parents``
  call, cells = unique edits + the dirty cone pairs above them);
* the cost rule, the dense byte budget and the telemetry around them.

Production code has no switch between the passes (the choice is a pure
function of the batch); the tests pin it by patching the cost rule's
module constants.  The API-level tests force and check all three
passes: a one-key ``group_by`` may also take the adjoint pass
(``tests/test_adjoint_pass.py`` holds its own differential suite).
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")

from repro.api import Database  # noqa: E402
from repro.circuits import (CircuitBuilder, StaticEvaluator,  # noqa: E402
                            VectorizedEvaluator, adjoint, build_schedule,
                            kernel_for, vector_plan, vectorized)
from repro.core import selector_key  # noqa: E402
from repro.core.closure import selector_slots  # noqa: E402
from repro.graphs import triangulated_grid  # noqa: E402
from repro.logic import Atom, Bracket, Sum, Weight  # noqa: E402
from repro.semirings import (BOOLEAN, INF, INTEGER, MAX_PLUS,  # noqa: E402
                             MIN_MAX, MIN_PLUS, NATURAL, RATIONAL,
                             FloatField)

from tests.test_dynamic_maintainers import wide_circuits  # noqa: E402
from tests.test_properties import circuits as small_circuits  # noqa: E402
from tests.util import compile_verified, weighted_graph_structure  # noqa: E402

FLOAT = FloatField()

E = lambda x, y: Atom("E", (x, y))
w = lambda x, y: Weight("w", (x, y))

EDGE_SUM = Sum(("x", "y"), Bracket(E("x", "y")) * w("x", "y"))
DEGREE = Sum("y", Bracket(E("x", "y")) * w("x", "y"))

#: (id, semiring, small int -> carrier value, exact_mode) — every shipped
#: array kernel: N/Z guarded int64 and object, Q guarded float64 and
#: object, float64, and the three tropical carriers.
KERNEL_CASES = [
    ("N-int64", NATURAL, lambda v: v, "auto"),
    ("N-object", NATURAL, lambda v: v, "object"),
    ("Z-int64", INTEGER, lambda v: v - 3, "auto"),
    ("Z-object", INTEGER, lambda v: v - 3, "object"),
    ("Q-f64int", RATIONAL, Fraction, "auto"),
    ("Q-object", RATIONAL, lambda v: Fraction(v, 2), "object"),
    ("float64", FLOAT, lambda v: v / 4, "auto"),
    ("min-plus", MIN_PLUS, lambda v: float(v) if v else INF, "auto"),
    ("max-plus", MAX_PLUS, lambda v: float(v) if v else -INF, "auto"),
    ("min-max", MIN_MAX, lambda v: v if v else INF, "auto"),
]
kernel_cases = pytest.mark.parametrize(
    "sr,conv,mode", [case[1:] for case in KERNEL_CASES],
    ids=[case[0] for case in KERNEL_CASES])


#: The three passes of the cost rule.
PASSES = ("adjoint", "delta", "dense")


@contextmanager
def forced(which, arity=None):
    """Pin the cost rule to one pass (and, optionally, the partial-sum
    tree arity of plans built inside the block).  ``"adjoint"`` runs the
    adjoint pass wherever it is offered and leaves the shipped rule
    between the other two; ``"shipped"`` prices the adjoint pass out
    and leaves that rule alone."""
    saved = (vectorized.DELTA_PASS_CELLS, vectorized.DELTA_CELL_COST,
             adjoint.ADJOINT_PASS_CELLS, adjoint.ADJOINT_RANK_COST,
             vector_plan.TREE_ARITY)
    if which == "delta":
        vectorized.DELTA_PASS_CELLS, vectorized.DELTA_CELL_COST = 0, 0
    elif which == "dense":
        vectorized.DELTA_PASS_CELLS, vectorized.DELTA_CELL_COST = \
            10 ** 18, 1
    adjoint.ADJOINT_PASS_CELLS, adjoint.ADJOINT_RANK_COST = \
        (-1, 0) if which == "adjoint" else (10 ** 18, 1)
    if arity is not None:
        vector_plan.TREE_ARITY = arity
    try:
        yield
    finally:
        (vectorized.DELTA_PASS_CELLS, vectorized.DELTA_CELL_COST,
         adjoint.ADJOINT_PASS_CELLS, adjoint.ADJOINT_RANK_COST,
         vector_plan.TREE_ARITY) = saved


# -- delta ≡ dense ≡ static on random circuits ---------------------------------


@st.composite
def cone_circuits(draw):
    """A random circuit with everything the delta pass special-cases:
    products over inputs and a constant, a permanent gate below wide
    additions (children drawn with replacement, so duplicates occur;
    wide enough for two tree levels at arity 3), permanents above them,
    a top addition over all of it, and one input nothing reads."""
    builder = CircuitBuilder()
    keys = [("in", index) for index in range(draw(st.integers(3, 6)))]
    inputs = [builder.input(key) for key in keys]
    builder.input(("dead", 0))
    pool = inputs + [builder.const(draw(st.integers(0, 3)))]
    for _ in range(draw(st.integers(2, 5))):
        pool.append(builder.mul([draw(st.sampled_from(pool)),
                                 draw(st.sampled_from(inputs))]))

    def perm(candidates):
        rows = draw(st.integers(2, 3))
        cols = draw(st.integers(rows, 4))
        return builder.perm(
            [[draw(st.one_of(st.none(), st.sampled_from(candidates)))
              for _ in range(cols)] for _ in range(rows)])

    def wide_add(candidates):
        return builder.add([draw(st.sampled_from(candidates))
                            for _ in range(draw(st.integers(2, 12)))])

    below = perm(pool)
    if below is not None:
        pool.append(below)
    sums = [wide_add(pool) for _ in range(draw(st.integers(1, 3)))]
    pool.extend(sums)
    above = [gate for gate in (perm(pool) for _ in range(2))
             if gate is not None]
    top = wide_add(pool + above)
    return builder.build(builder.add([top] + above + sums[:1])), keys


#: The suite's two older generators ride along: small circuits with
#: constants and narrow gates, and additions just wide enough for a sum
#: maintainer (9-14 operands: trees of depth 2-3 at arity 3).
any_circuit = st.one_of(cone_circuits(), small_circuits(), wide_circuits())


def assert_columns_match_static(sr, evaluator, circuit, base, overrides):
    """Every accessor of ``evaluator`` against one StaticEvaluator per
    batch column (exact carriers compare equal, floats within ``eq``)."""
    results = evaluator.results()
    assert len(results) == len(overrides)
    live = build_schedule(circuit).layer_of
    rows = {gate_id: evaluator.values_of(gate_id) for gate_id in live}
    for index, override in enumerate(overrides):
        merged = {**base, **override}
        static = StaticEvaluator(circuit, sr,
                                 lambda key, _m=merged: _m.get(key, sr.zero))
        assert sr.eq(results[index], static.value()), (index, override)
        assert sr.eq(evaluator.value(index), static.value())
        for gate_id in live:
            assert sr.eq(rows[gate_id][index], static.values[gate_id]), \
                (index, gate_id)


@kernel_cases
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_delta_equals_dense_equals_static(sr, conv, mode, data):
    circuit, keys = data.draw(any_circuit)
    kernel = kernel_for(sr, mode)
    value = st.integers(0, 6).map(conv)
    base = {key: data.draw(value) for key in keys}
    # Overrides name live inputs (sometimes at their base value), the
    # dead input and a key the circuit never had.
    named = st.sampled_from(keys + [("dead", 0), ("nowhere", 9)])
    overrides = data.draw(st.lists(
        st.dictionaries(named, value, max_size=3), max_size=4))
    if overrides:
        overrides[0].update({keys[0]: base[keys[0]]})
    with forced("delta", arity=3):
        delta = VectorizedEvaluator.from_overrides(
            circuit, sr, base, overrides, kernel=kernel)
    with forced("dense"):
        dense = VectorizedEvaluator.from_overrides(
            circuit, sr, base, overrides, kernel=kernel)
    # An empty batch has nothing to restrict: always the dense sweep.
    assert delta.pass_used == ("delta" if overrides else "dense")
    assert dense.pass_used == "dense"
    if sr.is_exact:
        assert delta.results() == dense.results()
    assert_columns_match_static(sr, delta, circuit, base, overrides)
    assert_columns_match_static(sr, dense, circuit, base, overrides)


def uniform_scatter(slot_of, columns, value):
    """Batch column ``i`` raises every key of ``columns[i]`` to the one
    shared ``value``: a repeated key repeats its edit, a key without a
    slot makes none."""
    edits = [(slot_of[key], column) for column, keys in enumerate(columns)
             for key in keys if key in slot_of]
    slots, cols = (np.array([edit[side] for edit in edits], dtype=np.int64)
                   for side in (0, 1))
    return vectorized.Scatter(slots, cols, [value], len(columns),
                              shared=True)


@kernel_cases
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_uniform_overrides_delta_equals_dense(sr, conv, mode, data):
    circuit, keys = data.draw(any_circuit)
    kernel = kernel_for(sr, mode)
    value = st.integers(0, 6).map(conv)
    base = {key: data.draw(value) for key in keys}
    raised = data.draw(value)
    # Columns may repeat a key, name the dead input, or be empty.
    columns = data.draw(st.lists(
        st.lists(st.sampled_from(keys + [("dead", 0), ("nowhere", 9)]),
                 max_size=3), min_size=1, max_size=4))
    schedule = build_schedule(circuit)
    prepared = VectorizedEvaluator.prepare_base(circuit, sr, base,
                                                schedule=schedule,
                                                kernel=kernel)
    overrides = [{key: raised for key in column} for column in columns]
    scatter = uniform_scatter(schedule.slot_of(), columns, raised)
    for which, arity in (("delta", 3), ("delta", None), ("dense", 3),
                         ("dense", None)):
        with forced(which, arity):
            evaluator = VectorizedEvaluator.from_scatter(
                circuit, sr, prepared if arity is None else base, scatter,
                schedule, kernel)
        assert evaluator.pass_used == which
        assert_columns_match_static(sr, evaluator, circuit, base, overrides)


def chain(values):
    """in0 * in1 * in2 summed with in3: one product above the inputs."""
    builder = CircuitBuilder()
    keys = [("in", index) for index in range(4)]
    gates = [builder.input(key) for key in keys]
    circuit = builder.build(builder.add([builder.mul(gates[:3]), gates[3]]))
    return circuit, dict(zip(keys, values))


def test_empty_overrides_and_base_valued_overrides_compute_nothing():
    circuit, base = chain([2, 3, 5, 7])
    prepared = VectorizedEvaluator.prepare_base(circuit, NATURAL, base)
    with forced("delta"):
        cold = VectorizedEvaluator.from_overrides(circuit, NATURAL,
                                                  prepared, [{}])
        warm = VectorizedEvaluator.from_overrides(
            circuit, NATURAL, prepared,
            [{}, {("in", 0): 2}, {("nowhere", 1): 9}, {("in", 3): 8}])
    assert cold.results() == [37]
    assert warm.results() == [37, 37, 37, 38]
    plan = vector_plan.vector_plan(cold.schedule)
    # The first batch swept the base (memoized on the prepared column);
    # the second computed the two edited inputs and one addition.
    assert cold.cells == plan.size
    assert (warm.kernel_requested, warm.kernel_used, warm.fallbacks,
            warm.pass_used, warm.cells) == ("N-int64", "N-int64", 0,
                                            "delta", 3)
    with pytest.raises(KeyError):
        warm.values_of(10 ** 6)
    with pytest.raises(IndexError):
        warm.value(4)
    assert warm.value(-1) == 38
    empty = VectorizedEvaluator.from_overrides(circuit, NATURAL, prepared, [])
    assert empty.results() == [] and empty.pass_used == "dense"


# -- uncertified batches: exact results, counted fallbacks --------------------


@pytest.mark.parametrize("values,override,expected", [
    # an override that does not fit int64
    ([2, 3, 5, 7], {("in", 3): 2 ** 63}, 30 + 2 ** 63),
    # a product leaving int64 in the middle of the cone
    ([1, 2 ** 31, 2 ** 31, 7], {("in", 0): 2}, 2 ** 63 + 7),
    # a sum leaving int64 at the top of the cone
    ([1, 2 ** 31, 2 ** 31, 2 ** 62], {("in", 3): 2 ** 63 - 1},
     2 ** 62 + 2 ** 63 - 1),
], ids=["override-2^63", "product-mid-cone", "sum-at-top"])
def test_a_guard_trip_in_the_delta_pass_restarts_on_the_exact_kernel(
        values, override, expected):
    circuit, base = chain(values)
    with forced("delta"):
        delta = VectorizedEvaluator.from_overrides(
            circuit, NATURAL, base, [{}, override, {("in", 3): 1}])
    assert delta.pass_used == "delta"
    assert delta.results() == [
        values[0] * values[1] * values[2] + values[3], expected,
        values[0] * values[1] * values[2] + 1]
    assert (delta.kernel_requested, delta.kernel_used, delta.fallbacks) \
        == ("N-int64", "N-object", 1)


def test_a_base_that_left_int64_is_followed_not_recounted():
    # The base product itself would overflow: the memoized base sweep is
    # uncertified and runs on the object kernel, and every delta pass
    # over it reports one fallback (the evaluation ran on the exact
    # kernel).
    circuit, base = chain([4, 2 ** 31, 2 ** 31, 7])
    prepared = VectorizedEvaluator.prepare_base(circuit, NATURAL, base)
    assert prepared.kernel.name == "N-int64"
    with forced("delta"):
        for _ in range(2):
            delta = VectorizedEvaluator.from_overrides(
                circuit, NATURAL, prepared, [{}, {("in", 0): 1}])
            assert delta.results() == [2 ** 64 + 7, 2 ** 62 + 7]
            assert (delta.kernel_used, delta.fallbacks) == ("N-object", 1)


def test_a_proper_fraction_demotes_the_rational_delta_pass():
    circuit, base = chain([Fraction(v) for v in (2, 3, 5, 7)])
    with forced("delta"):
        delta = VectorizedEvaluator.from_overrides(
            circuit, RATIONAL, base, [{("in", 0): Fraction(1, 3)}, {}])
    assert delta.results() == [Fraction(12), Fraction(37)]
    assert all(isinstance(value, Fraction) for value in delta.results())
    assert (delta.kernel_requested, delta.kernel_used, delta.fallbacks) \
        == ("Q-f64int", "Q-object", 1)
    with forced("delta"):  # a product leaving the 2^53 window
        wide = VectorizedEvaluator.from_scatter(
            circuit, RATIONAL, base, uniform_scatter(
                build_schedule(circuit).slot_of(), [[("in", 0), ("in", 1)]],
                Fraction(2 ** 30)))
    assert wide.results() == [Fraction(5 * 2 ** 60 + 7)]
    assert wide.fallbacks == 1


# -- _record interleavings never serve a stale base sweep ----------------------


@pytest.mark.parametrize("sr,conv", [
    (NATURAL, lambda v: v), (RATIONAL, Fraction), (FLOAT, float),
    (MIN_PLUS, lambda v: float(v) if v else INF)],
    ids=["N", "Q", "float", "min-plus"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_batches_between_writes_read_the_current_base(sr, conv, data):
    structure = weighted_graph_structure(triangulated_grid(3, 3), seed=4,
                                         conv=conv)
    compiled = compile_verified(structure, EDGE_SUM)
    dynamic = compiled.dynamic(sr)
    edges = sorted(structure.weights["w"])
    value = st.integers(0, 9).map(conv)
    steps = data.draw(st.lists(
        st.tuples(st.sampled_from(("write", "batch")),
                  st.sampled_from(edges), value),
        min_size=2, max_size=8))
    with forced("delta"):
        compiled.evaluate_batch(sr, [{}])  # memoize the base sweep
        for kind, edge, new in steps + [("batch", edges[0], conv(3))]:
            if kind == "write":
                dynamic.update_weight("w", edge, new)
                continue
            got = compiled.evaluate_batch(sr, [{}, {("w", "w", edge): new}])
            fresh = compiled.input_valuation(sr)
            want = [StaticEvaluator(
                compiled.circuit, sr,
                lambda key, _m=merged: _m.get(key, sr.zero)).value()
                for merged in (fresh, {**fresh, ("w", "w", edge): new})]
            assert sr.eq(got[0], want[0]) and sr.eq(got[1], want[1])
            assert sr.eq(got[0], dynamic.value())
    assert compiled.stats()["exact_kernel"]["pass"] == "delta"


def test_a_write_drops_the_swept_base_and_a_dead_write_keeps_it():
    structure = weighted_graph_structure(triangulated_grid(3, 3), seed=4)
    compiled = compile_verified(structure, EDGE_SUM)
    kernel = kernel_for(NATURAL)
    edge = sorted(structure.weights["w"])[0]
    with forced("delta"):
        compiled.evaluate_batch(NATURAL, [{}])
        before = compiled._cached_override_base(NATURAL, kernel)
        assert before._swept
        compiled._record(("w", "never-read", (0,)), "w", 5)
        assert compiled._cached_override_base(NATURAL, kernel) is before
        compiled.dynamic(NATURAL).update_weight("w", edge, 77)
        after = compiled._cached_override_base(NATURAL, kernel)
        assert after is not before and not after._swept
        assert before._swept  # in-flight batches keep their snapshot
        assert compiled.evaluate_batch(NATURAL, [{}]) \
            == [compiled.evaluate(NATURAL)]


def test_a_routed_write_leaves_a_certified_base_sweep(monkeypatch):
    """After a routed write, a DEGREE ``group_by`` over every vertex of
    the 24 x 24 grid re-sweeps the patched base for the delta and the
    adjoint pass (the shipped rule picks the adjoint).  The base sweep
    is certified like any evaluation: it runs natively, and neither it
    nor the pass allocates an object array or falls back.  A dense
    sweep broadcasts the patched input column and sweeps no base."""
    from tests.test_exact_kernels import value_dtypes
    structure = weighted_graph_structure(triangulated_grid(24, 24), seed=3)
    edge = sorted(structure.weights["w"])[0]
    with Database(structure, result_cache_size=0) as db:
        query = db.prepare(DEGREE, params=("x",))
        assert query.group_by(None, NATURAL).stats["pass"] == "adjoint"
        compiled = query.plan()
        for value, which in zip((7, 8, 9), PASSES):
            with db.update() as tx:
                tx.set_weight("w", edge, value)
            before = compiled.kernel_stats()
            dtypes = value_dtypes(monkeypatch)
            with forced(which):
                table = query.group_by(None, NATURAL)
            after = compiled.kernel_stats()
            swept = compiled._cached_override_base(
                NATURAL, kernel_for(NATURAL))._swept
            monkeypatch.undo()
            assert table.values() == compiled.evaluate_selected(
                NATURAL, table.keys(), exact_mode="object")
            assert table.stats["pass"] == which
            assert after["fallbacks"] == before["fallbacks"]
            assert after["certified"] == before["certified"] + 1
            if which == "dense":
                assert not swept and dtypes == ["int64"]
                continue
            assert (swept[0].certified, swept[0].kernel_used,
                    swept[0].fallbacks) == (True, "N-int64", 0)
            # The base sweep, then the pass's own values.
            assert dtypes == ["int64", "int64"], which


# -- the API inherits the pass: group_by / batch / serve -----------------------


@pytest.mark.parametrize("sr,conv", [
    (NATURAL, lambda v: v), (INTEGER, lambda v: v - 2), (RATIONAL, Fraction),
    (FLOAT, lambda v: v / 4), (MIN_PLUS, float), (MAX_PLUS, float),
    (MIN_MAX, lambda v: v)],
    ids=["N", "Z", "Q", "float", "min-plus", "max-plus", "min-max"])
def test_group_by_and_batch_agree_across_passes(sr, conv):
    """Every pass answers a ``group_by``, a ``batch`` and a served
    window alike; the adjoint pass runs wherever its arithmetic is
    exact — every case here but ``float``, whose weights are quarters —
    and equals the delta pass bit for bit there."""
    structure = weighted_graph_structure(triangulated_grid(4, 4), seed=2,
                                         wmax=9, conv=conv)
    exact = sr is not FLOAT
    tables = {}
    for which in PASSES:
        ran = which if exact or which != "adjoint" else None
        with forced(which), \
                Database(structure.copy(), result_cache_size=0) as db:
            query = db.prepare(DEGREE, params=("x",))
            table = query.group_by(None, sr)
            if ran is None:  # refused: the shipped rule of the other two
                ran = table.stats["pass"]
                assert ran in ("delta", "dense")
            assert table.stats["pass"] == ran
            assert table.stats["sweeps"] == 1 and table.stats["cells"] > 0
            points = query.batch(table.keys()[:5], sr)
            assert all(sr.eq(got, want) for got, want
                       in zip(points, table.values()[:5]))
            assert query.stats()["exact_kernel"]["pass"] == ran
            assert f"pass={ran!r}" in query.explain()
            with db.serve(DEGREE, sr) as service:
                served = service.query_batch(table.keys()[:5], 30)
            assert all(sr.eq(got, want) for got, want
                       in zip(served, table.values()[:5]))
            tables[which] = table
    for which in ("adjoint", "dense"):
        assert tables[which].keys() == tables["delta"].keys()
        for fast, slow in zip(tables[which].values(),
                              tables["delta"].values()):
            assert fast == slow if sr.is_exact else sr.eq(fast, slow)
    if exact:
        assert tables["adjoint"].values() == tables["delta"].values()


def test_the_python_backend_reports_no_pass():
    structure = weighted_graph_structure(triangulated_grid(3, 3), seed=1)
    with Database(structure, result_cache_size=0) as db:
        db.prepare(DEGREE, params=("x",)).group_by(None, NATURAL)
        query = db.prepare(DEGREE, params=("x",), backend="python")
        table = query.group_by(None, NATURAL)
        assert (table.stats["kernel"], table.stats["pass"],
                table.stats["cells"]) == ("python", None, 0)


# -- the cone table and the one cone expansion ---------------------------------


def upward_closures(plan):
    """Per input slot, every rank its value can reach, ascending, by
    brute force over the plan's groups (not its CSR tables)."""
    parents = {}
    for groups in plan.levels:
        for group in groups:
            if group.kind == "perm":
                rows = ((rank, [entry for row in matrix for entry in row
                                if entry is not None])
                        for rank, matrix in enumerate(group.entries,
                                                      group.start))
            else:
                rows = enumerate(group.children.tolist(), group.start)
            for rank, children in rows:
                for child in children:
                    parents.setdefault(child, set()).add(rank)
    closures = []
    for slot in range(plan.inputs):
        seen, todo = {slot}, [slot]
        while todo:
            for parent in parents.get(todo.pop(), ()):
                if parent not in seen:
                    seen.add(parent)
                    todo.append(parent)
        closures.append(sorted(seen))
    return closures


@settings(max_examples=40, deadline=None)
@given(drawn=cone_circuits(), arity=st.sampled_from([3, None]))
def test_the_cone_table_is_every_slots_upward_closure(drawn, arity):
    with forced("dense", arity):
        plan = vector_plan.vector_plan(build_schedule(drawn[0]))
    assert plan.cone_rank.size == plan.cone_sizes.sum() == plan.cone_ptr[-1]
    for slot, closure in enumerate(upward_closures(plan)):
        cone = plan.cone_rank[plan.cone_ptr[slot]:
                              plan.cone_ptr[slot + 1]].tolist()
        assert cone[0] == slot
        assert cone == sorted(set(cone)) == closure


def deep_circuit(depth, seed):
    """A chain of alternating sums and products, each reading its
    predecessor and one random earlier gate or input: cones up to
    ``depth`` levels tall that share most of their ranks."""
    import random
    rng = random.Random(seed)
    builder = CircuitBuilder()
    keys = [("in", index) for index in range(6)]
    pool = [builder.input(key) for key in keys]
    gate = pool[0]
    for level in range(depth):
        gate = (builder.add if level % 2 else builder.mul)(
            [gate, rng.choice(pool)])
        pool.append(gate)
    return builder.build(gate), keys


def assert_one_cone_expansion(monkeypatch, circuit, base, columns, value):
    """A delta pass of ``columns`` (each key raised to ``value``) calls
    ``expand_parents`` once, computes the unique edits plus the cone
    pairs above those that differ from the base, and answers as the
    dense pass does."""
    schedule = build_schedule(circuit)
    plan = vector_plan.vector_plan(schedule)
    prepared = VectorizedEvaluator.prepare_base(circuit, NATURAL, base,
                                                schedule=schedule)
    scatter = uniform_scatter(schedule.slot_of(), columns, value)
    run = lambda: VectorizedEvaluator.from_scatter(  # noqa: E731
        circuit, NATURAL, prepared, scatter, schedule=schedule)
    with forced("delta"):
        run()  # the base sweep exists
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(vectorized, "expand_parents",
                          lambda *args: calls.append(args) or
                          vector_plan.expand_parents(*args))
            delta = run()
    with forced("dense"):
        dense = run()
    assert (delta.pass_used, len(calls)) == ("delta", 1)
    slot_of = schedule.slot_of()
    closures = upward_closures(plan)
    edits = {(slot_of[key], column) for column, keys in enumerate(columns)
             for key in keys if key in slot_of}
    above = {(rank, column) for slot, column in edits
             if prepared.column[slot, 0] != value
             for rank in closures[slot][1:]}
    assert delta.cells == len(edits) + len(above)
    assert delta.results() == dense.results()
    return len(above)


@pytest.mark.parametrize("side", [8, 16])
def test_a_degree_delta_pass_is_one_cone_expansion(monkeypatch, side):
    structure = weighted_graph_structure(triangulated_grid(side, side),
                                         seed=side, wmax=9)
    with Database(structure, result_cache_size=0) as db:
        compiled = db.prepare(DEGREE, params=("x",)).plan()
    base = compiled.input_valuation(NATURAL)
    keys = [selector_key(0, x) for x in structure.domain]
    # One key repeated inside a column, and a key no input has.
    columns = [keys[index::7][:3] for index in range(7)] \
        + [[keys[1], keys[1]], [("nowhere", 0)], []]
    assert assert_one_cone_expansion(monkeypatch, compiled.circuit, base,
                                     columns, 1) > 0
    # Raised to their resting value, the selectors dirty nothing.
    assert assert_one_cone_expansion(monkeypatch, compiled.circuit, base,
                                     columns, 0) == 0


@pytest.mark.parametrize("seed", [0, 1])
def test_a_deep_delta_pass_is_one_cone_expansion(monkeypatch, seed):
    circuit, keys = deep_circuit(40, seed)
    base = dict.fromkeys(keys, 1)
    columns = [[keys[0]], [keys[3], keys[3]], keys[2:5], [keys[5]], []]
    assert assert_one_cone_expansion(monkeypatch, circuit, base,
                                     columns, 2) > 40
    assert assert_one_cone_expansion(monkeypatch, circuit, base,
                                     columns, 1) == 0


# -- the cost rule and the dense byte budget -----------------------------------


def test_the_cost_rule_reads_cones_width_and_live_gates():
    structure = weighted_graph_structure(triangulated_grid(16, 16), seed=3)
    with Database(structure, result_cache_size=0) as db:
        query = db.prepare(DEGREE, params=("x",))

        def ran(keys):
            return query.group_by(keys, NATURAL).stats["pass"]

        # 256 selector cones against 256 full columns and one reverse
        # sweep of the plan: the adjoint pass.
        assert ran(None) == "adjoint"
        # 16 cones: cheaper than 16 columns and than the whole plan.
        assert ran(structure.domain[:16]) == "delta"
        # One probe: its cone is cheap, but so is one dense column.
        assert ran(structure.domain[:1]) == "dense"
        with forced("shipped"):  # the adjoint priced out: delta again
            assert ran(None) == "delta"
            assert ran(structure.domain[:1]) == "dense"
        plan = vector_plan.vector_plan(query.plan().schedule())
        selectors = list(selector_slots(query.plan().schedule(), 1)[0]
                         .values())
    # The adjoint's price reads the plan's ranks alone, not the batch.
    dense, delta = vectorized.pass_costs(plan, np.array(selectors), 256)
    price = adjoint.ADJOINT_PASS_CELLS \
        + adjoint.ADJOINT_RANK_COST * plan.size
    assert price < min(dense, delta) and len(selectors) == 256
    assert price > min(vectorized.pass_costs(plan, np.array(selectors[:16]),
                                             16))
    # Every slot's cone holds itself and its path to the output; the
    # selectors' also their (at most 8) products.
    assert plan.cone_sizes.min() >= len(plan.levels)
    assert plan.cone_sizes.max() <= 1 + 8 + 2 * len(plan.levels)
    # The wide top addition became a tree: more ranks than gates.
    assert plan.size > plan.live
    for groups in plan.levels:
        for group in groups:
            if group.children is not None:
                assert group.children.shape[1] <= vector_plan.TREE_ARITY \
                    or group.kind != "add"


def test_a_dense_group_by_is_chunked_under_the_byte_budget(monkeypatch):
    structure = weighted_graph_structure(triangulated_grid(4, 4), seed=2)
    edges = sorted(structure.weights["w"])
    whatifs = [{("w", "w", edge): 7} for edge in edges[:16]]
    probes = [(x,) for x in structure.domain]
    with Database(structure, result_cache_size=0) as db:
        query = db.prepare(DEGREE, params=("x",))
        closed = db.prepare(EDGE_SUM)

        def sweeps(plan, run):
            """``run()``'s answers and how many evaluators they took."""
            before = plan.kernel_stats().get("batches", 0)
            answers = run()
            return answers, plan.kernel_stats()["batches"] - before

        def served():
            """A served window's answers, its sweeps and its batches."""
            with db.serve(DEGREE, NATURAL, max_batch_size=16) as service:
                window = service.query_batch(probes, 30)
                return (window,
                        service.prepared.plan().kernel_stats()["batches"],
                        service.stats()["batches"])

        with forced("dense"):
            whole = query.group_by(None, NATURAL)
            assert whole.stats["sweeps"] == 1
            plan = query.plan()
            whole_whatifs = sweeps(closed.plan(),
                                   lambda: closed.batch(whatifs, NATURAL))
            whole_probes = sweeps(plan,
                                  lambda: query.batch(probes, NATURAL))
            assert whole_whatifs[1] == whole_probes[1] == 1
            whole_window = served()
            assert whole_window[1] == whole_window[2]  # a sweep per batch
            # Room for five int64 columns: 16 groups take four sweeps.
            size = vector_plan.vector_plan(plan.schedule()).size
            monkeypatch.setattr(vectorized, "DENSE_BYTES", size * 8 * 5)
            chunked = query.group_by(None, NATURAL)
            assert chunked.stats["sweeps"] == 4
            assert chunked.stats["sweep_shape"] == (size, 5)
            assert chunked.stats["cells"] == whole.stats["cells"]
            # Every override batch crosses the same bound: a closed
            # what-if batch, a parameterized batch, a service window.
            chunked_whatifs = sweeps(closed.plan(),
                                     lambda: closed.batch(whatifs, NATURAL))
            chunked_probes = sweeps(plan,
                                    lambda: query.batch(probes, NATURAL))
            chunked_window = served()
            for small, large in ((chunked_whatifs, whole_whatifs),
                                 (chunked_probes, whole_probes)):
                assert small[0] == large[0] and small[1] > large[1] >= 1
            assert chunked_window[0] == whole_window[0]
            assert chunked_window[1] > chunked_window[2]  # batches split
        for which in ("delta", "adjoint"):
            with forced(which):
                # The delta pass allocates per dirty pair, the adjoint
                # pass one vector of ranks: nothing to chunk, and no
                # value matrix to report — their size is their cells.
                sparse = query.group_by(None, NATURAL)
                assert sparse.stats["pass"] == which
                assert sparse.stats["sweeps"] == 1
                assert sparse.stats["sweep_shape"] is None
                assert sparse.stats["cells"] > 0
                assert "shape=" not in query.explain()
                assert sparse.values() == whole.values()
            # The adjoint pass visits every rank once: its cells are
            # the plan's size, under the byte budget or not.
            if which == "adjoint":
                assert sparse.stats["cells"] == size
        assert chunked.values() == whole.values()
        assert chunked.keys() == whole.keys()


def test_a_python_group_by_is_chunked_under_the_same_budget(monkeypatch):
    # Every carrier has an array kernel; the pure-Python sweep runs only
    # when asked for (or without NumPy), under the same byte budget.
    structure = weighted_graph_structure(triangulated_grid(16, 16), seed=2)
    with Database(structure, result_cache_size=0, backend="python") as db:
        query = db.prepare(DEGREE, params=("x",))
        whole = query.group_by(None, BOOLEAN)
        assert (whole.stats["kernel"], whole.stats["sweeps"]) \
            == ("python", 1)
        gates = whole.stats["sweep_shape"][0]
        # Room for 16 columns of one pointer per gate: 256 groups take
        # 16 sweeps, none of them holding more than 16 values per gate.
        monkeypatch.setattr(vectorized, "DENSE_BYTES", gates * 8 * 16)
        tracemalloc.start()
        try:
            chunked = query.group_by(None, BOOLEAN)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chunked.stats["sweeps"] == 16
        assert chunked.stats["sweep_shape"] == (gates, 16)
        assert list(chunked) == list(whole)
        # One copy of the recorded valuation per *column* took 24.7 MB
        # here; override reads fall through to the one shared base.
        assert peak <= 6 * 2 ** 20, peak


# -- the growth guard: cells counted at two sizes ------------------------------

GUARD_SIDES = (8, 16)


def guard_cells(sr, side):
    """(cells of a warm full group_by per pass, cells of a warm
    one-probe batch, the stats of the shipped rule's group_by)."""
    structure = weighted_graph_structure(triangulated_grid(side, side),
                                         seed=side, wmax=9)
    probe = [(structure.domain[side + 1],)]  # an interior vertex
    cells = {}
    with Database(structure, result_cache_size=0) as db:
        query = db.prepare(DEGREE, params=("x",))
        shipped = query.group_by(None, sr).stats
        for which in PASSES:
            with forced(which):
                query.group_by(None, sr)  # the plan and base sweep exist
                grouped = query.group_by(None, sr).stats
                assert grouped["pass"] == which
                cells[which] = grouped["cells"]
        with forced("delta"):
            query.batch(probe, sr)
            before = query.stats()["exact_kernel"]["cells"]
            query.batch(probe, sr)
            probed = query.stats()["exact_kernel"]["cells"] - before
    return cells, probed, shipped


@pytest.mark.parametrize("sr", [NATURAL, MIN_PLUS], ids=["N", "min-plus"])
def test_group_by_cells_grow_with_the_data_not_its_square(sr):
    (small, probe_small, shipped_small), (large, probe_large, shipped_large) \
        = (guard_cells(sr, side) for side in GUARD_SIDES)
    # 4x the data: 4x the groups, each with a cone of bounded size for
    # the delta pass, and one visit per rank — 4x the plan — for the
    # adjoint pass; the dense sweep computes 16x the cells.
    for which in ("delta", "adjoint"):
        assert large[which] <= 4.5 * small[which], (which, small, large)
    assert large["dense"] >= 12 * small["dense"], (small, large)
    # One probe costs its cone; only the partial-sum tree may deepen.
    assert probe_large <= probe_small + 2, (probe_small, probe_large)
    assert probe_large < 32
    # And the shipped rule, left alone, gets there: at both sizes it
    # runs the adjoint pass, within the same bound.
    assert shipped_small["pass"] == shipped_large["pass"] == "adjoint"
    assert shipped_large["cells"] <= 4.5 * shipped_small["cells"]
