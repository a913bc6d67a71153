"""A write patches the memoized base valuation and columns in place.

``CompiledQuery._record`` is the one write path into ``recorded``; it
must leave every memoized per-semiring base — the valuation dict and one
prepared column per kernel — exactly as a from-scratch
``input_valuation`` + ``prepare_base`` would build them, whatever
interleaving of weight updates, relation toggles and batches came
before, including the values that do not fit a native column (the
column demotes, and comes back once the value is gone) — and the
overflow certificate the column's magnitude feeds follows every write.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import HAVE_NUMPY, VectorizedEvaluator, kernel_for
from repro.graphs import triangulated_grid
from repro.logic import Atom, Bracket, Sum, Weight
from repro.semirings import INF, MIN_PLUS, NATURAL, RATIONAL, FloatField

from tests.util import compile_verified, weighted_graph_structure

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable")

FLOAT = FloatField()

E = lambda x, y: Atom("E", (x, y))
S = lambda x: Atom("S", (x,))
w = lambda x, y: Weight("w", (x, y))

#: Reads a weight and a dynamic relation, positively and negatively, so
#: one toggle rewrites two boolean inputs.
MARKED_SUM = Sum(("x", "y"),
                 Bracket(E("x", "y") & S("x") & ~S("y")) * w("x", "y"))

EDGE_SUM = Sum(("x", "y"), Bracket(E("x", "y")) * w("x", "y"))

#: (id, semiring, int -> carrier value, kernels' exact_mode values)
CASES = [
    ("N", NATURAL, lambda v: v, ("auto", "object")),
    ("Q", RATIONAL, Fraction, ("auto", "object")),
    ("float", FLOAT, float, ("auto",)),
    ("min-plus", MIN_PLUS, lambda v: float(v) if v else INF, ("auto",)),
]


def compile_marked(conv):
    structure = weighted_graph_structure(triangulated_grid(3, 3), seed=4,
                                         conv=conv)
    for vertex in structure.domain[::2]:
        structure.add_tuple("S", (vertex,))
    return compile_verified(structure, MARKED_SUM, dynamic_relations=("S",))


def assert_bases_match_a_fresh_build(compiled, sr, modes):
    """The memoized dict and every kernel's memoized column equal what
    ``input_valuation`` + ``prepare_base`` build from ``recorded`` now."""
    import numpy as np
    fresh_base = compiled.input_valuation(sr)
    assert compiled._cached_input_valuation(sr) == fresh_base
    for mode in modes:
        kernel = kernel_for(sr, mode)
        cached = compiled._cached_override_base(sr, kernel)
        fresh = VectorizedEvaluator.prepare_base(
            compiled.circuit, sr, fresh_base, schedule=compiled.schedule(),
            kernel=kernel)
        assert cached.kernel.name == fresh.kernel.name
        assert cached.column.dtype == fresh.column.dtype
        assert np.array_equal(cached.column, fresh.column)
        assert cached.slot_of is fresh.slot_of  # the schedule's one table
    assert compiled.evaluate_batch(sr, [{}]) == [compiled.evaluate(sr)]


@pytest.mark.parametrize("sr,conv,modes",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_patched_bases_equal_a_fresh_build_after_any_interleaving(
        sr, conv, modes, data):
    compiled = compile_marked(conv)
    dynamic = compiled.dynamic(sr)
    edges = sorted(compiled.structure.weights["w"])
    vertices = compiled.structure.domain
    operation = st.one_of(
        st.tuples(st.just("weight"), st.sampled_from(edges),
                  st.integers(0, 9).map(conv)),
        st.tuples(st.just("relation"), st.sampled_from(vertices),
                  st.booleans()),
        st.tuples(st.just("mark"), st.sampled_from(vertices), st.booleans()),
        st.tuples(st.just("batch"), st.sampled_from(edges),
                  st.sampled_from(modes)))
    # Memoize before the first write, so every write below is a patch.
    assert_bases_match_a_fresh_build(compiled, sr, modes)
    for kind, target, argument in data.draw(
            st.lists(operation, min_size=1, max_size=10)):
        if kind == "weight":
            dynamic.update_weight("w", target, argument)
        elif kind == "relation":
            dynamic.set_relation("S", (target,), argument)
        elif kind == "mark":
            for key, state in compiled.mark_relation("S", (target,),
                                                     argument):
                dynamic.evaluator.update_input(
                    key, sr.one if state else sr.zero)
        else:
            override = {("w", "w", target): conv(3)}
            batch = compiled.evaluate_batch(sr, [{}, override],
                                            exact_mode=argument)
            assert sr.eq(batch[0], dynamic.value())
        assert_bases_match_a_fresh_build(compiled, sr, modes)
        assert sr.eq(dynamic.value(), compiled.evaluate(sr))


def test_a_write_replaces_the_column_and_leaves_the_old_array_alone():
    """In-flight batches keep the array they hold: a patch is a copy."""
    compiled = compile_marked(lambda v: v)
    kernel = kernel_for(NATURAL)
    before = compiled._cached_override_base(NATURAL, kernel)
    snapshot = before.column.copy()
    edge = sorted(compiled.structure.weights["w"])[0]
    compiled.dynamic(NATURAL).update_weight("w", edge, 77)
    after = compiled._cached_override_base(NATURAL, kernel)
    assert after is not before and after.column is not before.column
    assert (before.column == snapshot).all()
    assert after.column[after.slot_of[("w", "w", edge)], 0] == 77
    assert after.slot_of is before.slot_of


def test_int64_column_demotes_on_an_overflowing_write_and_comes_back():
    compiled = compile_marked(lambda v: v)
    dynamic = compiled.dynamic(NATURAL)
    fast = kernel_for(NATURAL)
    edges = sorted(compiled.structure.weights["w"])
    for vertex in compiled.structure.domain:  # every edge counts
        dynamic.set_relation("S", (vertex,), vertex == edges[0][0])
    assert compiled.evaluate_batch(NATURAL, [{}]) == [dynamic.value()]
    assert compiled._cached_override_base(NATURAL, fast).kernel.name \
        == "N-int64"
    assert compiled.stats()["exact_kernel"]["fallbacks"] == 0

    dynamic.update_weight("w", edges[0], 2 ** 63)
    assert dynamic.value() >= 2 ** 63
    assert compiled.evaluate_batch(NATURAL, [{}]) == [dynamic.value()] \
        == [compiled.evaluate(NATURAL)]
    assert compiled._cached_override_base(NATURAL, fast).kernel.name \
        == "N-object"
    assert compiled.stats()["exact_kernel"]["fallbacks"] == 1
    assert_bases_match_a_fresh_build(compiled, NATURAL, ("auto", "object"))

    dynamic.update_weight("w", edges[0], 5)
    assert compiled._cached_override_base(NATURAL, fast).kernel.name \
        == "N-int64"
    assert compiled.evaluate_batch(NATURAL, [{}]) == [dynamic.value()] \
        == [compiled.evaluate(NATURAL)]
    assert_bases_match_a_fresh_build(compiled, NATURAL, ("auto", "object"))


def test_a_patch_drops_the_memoized_sweep_and_magnitude():
    compiled = compile_marked(lambda v: v)
    prepared = VectorizedEvaluator.prepare_base(
        compiled.circuit, NATURAL, compiled.input_valuation(NATURAL),
        schedule=compiled.schedule())
    largest = max(prepared.column.ravel().tolist())
    assert prepared.magnitude() == largest
    assert prepared._magnitude == [largest]
    key = ("w", "w", sorted(compiled.structure.weights["w"])[0])
    patched = prepared.patched(key, 2 ** 40)
    assert patched._magnitude == [] and patched._swept == []
    assert patched.magnitude() == 2 ** 40
    assert prepared.magnitude() == largest


def test_a_write_past_the_bound_uncertifies_until_written_back():
    """A routed write is what moves a base column's magnitude: one past
    the plan's M* sends the next batch to the object kernel (one
    fallback, although the value itself fits int64 and the column stays
    native), a second past int64 demotes the column as before, and
    writing back under M* certifies the next batch again."""
    from repro.api import Database
    from repro.circuits.vector_plan import input_bound, vector_plan
    structure = weighted_graph_structure(triangulated_grid(3, 3), seed=4)
    edges = sorted(structure.weights["w"])
    with Database(structure) as db:
        q = db.prepare(EDGE_SUM)
        plan = q.plan()
        bound = input_bound(vector_plan(plan.schedule()),
                            kernel_for(NATURAL).window)
        batch = [{("w", "w", edges[1]): 3}, {}]

        def run():
            """The batch on the guarded kernel, checked against the object
            kernel; returns (certified, fallbacks, kernel) of that one
            batch."""
            before = plan.kernel_stats()
            fast = q.batch(batch, NATURAL)
            ran = plan.kernel_stats()
            assert fast == plan.evaluate_batch(NATURAL, batch,
                                               exact_mode="object")
            return (ran["certified"] - before.get("certified", 0),
                    ran["fallbacks"] - before.get("fallbacks", 0),
                    ran["used"])

        assert run() == (1, 0, "N-int64")
        for value, expected in ((bound + 1, (0, 1, "N-object")),
                                (2 ** 63, (0, 1, "N-object")),
                                (bound, (1, 0, "N-int64")),
                                (5, (1, 0, "N-int64"))):
            with db.update() as tx:
                tx.set_weight("w", edges[0], value)
            assert run() == expected, value
        assert plan is q.plan()  # every write was routed, none recompiled


def test_rational_column_demotes_on_a_proper_fraction():
    compiled = compile_marked(Fraction)
    dynamic = compiled.dynamic(RATIONAL)
    fast = kernel_for(RATIONAL)
    edges = sorted(compiled.structure.weights["w"])
    for vertex in compiled.structure.domain:
        dynamic.set_relation("S", (vertex,), vertex == edges[0][0])
    compiled.evaluate_batch(RATIONAL, [{}])
    assert compiled._cached_override_base(RATIONAL, fast).kernel.name \
        == "Q-f64int"

    dynamic.update_weight("w", edges[0], Fraction(1, 3))
    assert dynamic.value().denominator == 3
    assert compiled.evaluate_batch(RATIONAL, [{}]) == [dynamic.value()] \
        == [compiled.evaluate(RATIONAL)]
    assert compiled._cached_override_base(RATIONAL, fast).kernel.name \
        == "Q-object"
    assert compiled.stats()["exact_kernel"]["fallbacks"] >= 1
    assert_bases_match_a_fresh_build(compiled, RATIONAL, ("auto", "object"))

    dynamic.update_weight("w", edges[0], Fraction(4))
    assert compiled._cached_override_base(RATIONAL, fast).kernel.name \
        == "Q-f64int"
    assert_bases_match_a_fresh_build(compiled, RATIONAL, ("auto", "object"))


def test_concurrent_dense_batches_and_writes_agree_with_the_serial_run(
        monkeypatch):
    """Four threads run dense override batches on one plan, whose
    certified ones fold their groups in place: every answer equals the
    serial run and the object kernel, and the fallbacks are the serial
    run's.  Among the batches: an input at M*+1 (uncertified, though
    it fits int64), one at 2^62 (a product would leave int64) and one at
    2^63 (it does not cast): each runs on the object kernel.  A routed write then
    feeds a delta batch over the memoized base sweep, which later dense
    batches leave as it was."""
    import random
    import sys
    import threading

    from repro.api import Database
    from repro.circuits import vectorized
    from repro.circuits.vector_plan import input_bound, vector_plan

    from tests.test_schedule import TRIANGLE
    dense = (10 ** 18, 1)
    monkeypatch.setattr(vectorized, "DELTA_PASS_CELLS", dense[0])
    structure = weighted_graph_structure(triangulated_grid(4, 4), seed=6,
                                         wmax=9)
    edges = sorted(structure.weights["w"])
    with Database(structure, result_cache_size=0) as db:
        q = db.prepare(TRIANGLE)
        compiled = q.plan()
        bound = input_bound(vector_plan(compiled.schedule()),
                            kernel_for(NATURAL).window)

        def whatifs(seed, width, extreme=None):
            rng = random.Random(seed)
            batch = [{("w", "w", edge): rng.randint(1, 9)
                      for edge in rng.sample(edges, 2)}
                     for _ in range(width)]
            if extreme is not None:
                batch[width // 2][("w", "w", edges[3])] = extreme
            return batch

        batches = [whatifs(seed, 300 + 170 * seed) for seed in range(5)]
        batches += [whatifs(7, 400, bound + 1), whatifs(8, 350, 2 ** 62),
                    whatifs(9, 200, 2 ** 63)]

        def run(batch):
            before = compiled.kernel_stats()
            values = q.batch(batch, NATURAL)
            after = compiled.kernel_stats()
            return values, (after["fallbacks"] - before.get("fallbacks", 0),
                            after["certified"] - before.get("certified", 0))

        serial = [run(batch) for batch in batches]
        assert [counts for _, counts in serial] == \
            [(0, 1)] * 5 + [(1, 0)] * 3
        for batch, (values, _) in zip(batches, serial):
            assert values == compiled.evaluate_batch(
                NATURAL, batch, exact_mode="object")
        assert compiled.kernel_stats()["pass"] == "dense"

        before = compiled.kernel_stats()["fallbacks"]
        answers = {}
        errors = []

        def worker(shift):
            try:
                for turn in range(3):
                    for index in range(len(batches)):
                        at = (index + shift + turn) % len(batches)
                        answers[shift, turn, at] = \
                            q.batch(batches[at], NATURAL)
            except Exception as error:  # pragma: no cover - reported below
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(shift,))
                   for shift in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-sweep
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(answers) == 4 * 3 * len(batches)
        for (_, _, at), values in answers.items():
            assert values == serial[at][0], at
        assert compiled.kernel_stats()["fallbacks"] - before == 4 * 3 * 3

        with db.update() as tx:
            tx.set_weight("w", edges[0], 8)
        monkeypatch.setattr(vectorized, "DELTA_PASS_CELLS", 0)
        monkeypatch.setattr(vectorized, "DELTA_CELL_COST", 0)
        probe = [{("w", "w", edges[1]): 5}, {("w", "w", edges[2]): 2}, {}]
        first = q.batch(probe, NATURAL)
        assert compiled.kernel_stats()["pass"] == "delta"
        assert first == compiled.evaluate_batch(NATURAL, probe,
                                                exact_mode="object")
        swept = compiled._cached_override_base(
            NATURAL, kernel_for(NATURAL))._swept[0]
        column = swept._values.copy()
        monkeypatch.setattr(vectorized, "DELTA_PASS_CELLS", dense[0])
        monkeypatch.setattr(vectorized, "DELTA_CELL_COST", dense[1])
        for batch in batches[:3]:
            q.batch(batch, NATURAL)
        assert (swept._values == column).all()
        monkeypatch.setattr(vectorized, "DELTA_PASS_CELLS", 0)
        monkeypatch.setattr(vectorized, "DELTA_CELL_COST", 0)
        assert q.batch(probe, NATURAL) == first
