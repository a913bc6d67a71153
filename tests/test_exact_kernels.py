"""The guarded exact-carrier kernels (repro.circuits.vectorized).

The one guard is the overflow certificate: an ``N``/``Z``/``Q``
evaluation runs its native kernel exactly when every input casts to the
native dtype and stays within the plan's static bound M*, and on the
exact object kernel from the start otherwise.  Three families:

* a hypothesis equivalence suite proving the guarded kernel, the exact
  object-dtype kernel, and the pure-Python backend agree on random
  circuits (permanent gates included) under random valuations for
  ``N``/``Z``/``Q`` — with a dedicated strategy that straddles the int64
  (and, for ``Q``, the 2^53 float) overflow boundary so both sides of
  the certificate run, plus a slow-marked deep sweep for the nightly
  hypothesis profile (see ``tests/conftest.py``);
* deterministic unit tests at the boundaries: inputs at M* stay native,
  results that land on ``INT64_MAX``/``INT64_MIN`` from inputs past M*
  run on the object kernel, negative products, the ``INT64_MIN * -1``
  wraparound, ``Q`` denominator blow-ups, mixed-layer circuits where
  only one layer would overflow, and the fallback telemetry surfaced
  through ``stats()``/``explain()``;
* the certificate itself: the bound M*, certified batches equal to the
  object kernel and the pure-Python backend on random circuits with
  inputs drawn at M* - 1, M*, M* + 1 and at both windows' edges, a
  TRIANGLE what-if batch that allocates no object array, and a plan with
  a permanent gate, certified iff its inputs stay within M*;
* eager validation of the plan-level ``exact_mode`` through the one
  shared seam (:mod:`repro.circuits.backends`): anything but ``"auto"``
  and ``"object"`` is rejected on every path, the pure-Python one
  included.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Database, ExecOptions
from repro.circuits import (HAVE_NUMPY, BatchedEvaluator, CircuitBuilder,
                            VectorizedEvaluator, build_schedule, kernel_for,
                            valuation_from_dict, validate_exact_mode,
                            vectorized)
from repro.circuits.adjoint import AdjointEvaluator
from repro.circuits.vector_plan import input_bound, vector_plan
from repro.graphs import triangulated_grid
from repro.logic import Atom, Bracket, Sum, Weight
from repro.logic.weighted import WConst
from repro.semirings import INTEGER, NATURAL, RATIONAL

from tests.test_properties import circuits
from tests.util import compile_verified, weighted_graph_structure

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

INT64_MAX = 2 ** 63 - 1
INT64_MIN = -(2 ** 63)


def build_sum(*keys):
    """One add gate over fresh inputs."""
    builder = CircuitBuilder()
    return builder.build(builder.add([builder.input(k) for k in keys])), keys


def build_product(*keys):
    """One mul gate over fresh inputs."""
    builder = CircuitBuilder()
    return builder.build(builder.mul([builder.input(k) for k in keys])), keys


def run_all_paths(circuit, sr, assignments):
    """(python, object-kernel, int64-kernel evaluator) for one batch."""
    valuations = [valuation_from_dict(a, sr.zero) for a in assignments]
    python = BatchedEvaluator(circuit, sr, valuations).results()
    exact = VectorizedEvaluator(circuit, sr, valuations,
                                kernel=kernel_for(sr, "object"))
    fast = VectorizedEvaluator(circuit, sr, valuations,
                               kernel=kernel_for(sr))
    return python, exact, fast


def value_dtypes(monkeypatch):
    """The dtype of every value array a sweep runs on, recorded in
    order: each dense sweep's value array (base sweeps included), the
    base column each delta pass patches and the base values each
    adjoint pass sweeps back over."""
    seen = []
    run_dense = VectorizedEvaluator._run_dense
    delta = VectorizedEvaluator._delta
    reverse = AdjointEvaluator._reverse

    def dense(self):
        seen.append(self._values.dtype)
        run_dense(self)

    def patched(self, base, *args):
        seen.append(base.dtype)
        delta(self, base, *args)

    def reversed_(self, values):
        seen.append(values.dtype)
        return reverse(self, values)

    monkeypatch.setattr(VectorizedEvaluator, "_run_dense", dense)
    monkeypatch.setattr(VectorizedEvaluator, "_delta", patched)
    monkeypatch.setattr(AdjointEvaluator, "_reverse", reversed_)
    return seen


def within_bound(evaluator, values):
    """Whether ``values`` all cast to the guarded kernel's native dtype
    (integers; |v| < 2^53 for ``Q`` is implied by the bound) and stay
    within the evaluation's plan's M*."""
    bound = input_bound(evaluator.plan,
                        kernel_for(evaluator.sr).window)
    return bound is not None and all(
        abs(value) <= bound and value.denominator == 1 for value in values)


def assert_the_rule(evaluator, certified):
    """A certified evaluation runs its native kernel, any other one the
    exact object kernel (one fallback)."""
    assert evaluator.certified is certified
    used = evaluator.kernel_requested if certified \
        else f"{evaluator.sr.name}-object"
    assert (evaluator.kernel_used, evaluator.fallbacks) == \
        (used, 0 if certified else 1)


# -- hypothesis: the three paths agree, straddling the overflow boundary --------

#: Values concentrated around the int64 (and 2^53) boundaries, mixed
#: with small counting weights: products and sums of a handful of these
#: routinely cross 2^63, so uncertified batches run for real.
def straddling_naturals():
    return st.one_of(
        st.integers(0, 9),
        st.integers(2 ** 31, 2 ** 32),        # pairs overflow products
        st.integers(2 ** 62, 2 ** 63 + 2),    # straddles the add boundary
        st.integers(2 ** 63, 2 ** 70),        # beyond int64 entirely
    )


def straddling_integers():
    magnitude = straddling_naturals()
    return st.builds(lambda v, neg: -v if neg else v,
                     magnitude, st.booleans()) | st.just(INT64_MIN)


def straddling_rationals():
    return st.one_of(
        straddling_integers().map(Fraction),
        st.integers(2 ** 52, 2 ** 54).map(Fraction),  # the float window edge
        st.fractions(min_value=-10, max_value=10, max_denominator=12),
    )


STRADDLE_CASES = [
    ("N", NATURAL, straddling_naturals),
    ("Z", INTEGER, straddling_integers),
    ("Q", RATIONAL, straddling_rationals),
]


def _assert_three_way(sr, data):
    circuit, keys = data.draw(circuits())
    strategy = {name: strat for name, _, strat in STRADDLE_CASES}[sr.name]()
    batch = data.draw(st.integers(1, 4))
    assignments = [{key: data.draw(strategy) for key in keys}
                   for _ in range(batch)]
    python, exact, fast = run_all_paths(circuit, sr, assignments)
    for a, b, c in zip(python, exact.results(), fast.results()):
        assert sr.eq(a, b), (sr.name, a, b)
        assert sr.eq(a, c), (sr.name, a, c)
    # Native exactly when every live input is within M*.
    assert fast.kernel_requested.endswith(("-int64", "-f64int"))
    live = fast.schedule.slot_of()
    assert_the_rule(fast, within_bound(
        fast, [assignment[key] for assignment in assignments
               for key in live]))


@needs_numpy
@pytest.mark.parametrize("sr", [sr for _, sr, _ in STRADDLE_CASES],
                         ids=[name for name, _, _ in STRADDLE_CASES])
@given(data=st.data())
def test_fast_path_exact_across_overflow_boundary(sr, data):
    _assert_three_way(sr, data)


@needs_numpy
@pytest.mark.slow
@pytest.mark.parametrize("sr", [sr for _, sr, _ in STRADDLE_CASES],
                         ids=[name for name, _, _ in STRADDLE_CASES])
@settings(max_examples=200)
@given(data=st.data())
def test_fast_path_exact_deep_sweep(sr, data):
    """The nightly-budget version of the three-way equivalence sweep."""
    _assert_three_way(sr, data)


@needs_numpy
@given(data=st.data())
def test_override_path_matches_full_batch(data):
    """from_overrides (the serving hot path) agrees with the full-batch
    constructor and the pure-Python backend under straddling edits."""
    circuit, keys = data.draw(circuits())
    strategy = straddling_integers()
    base = {key: data.draw(strategy) for key in keys}
    overrides = [
        {key: data.draw(strategy)
         for key in data.draw(st.lists(st.sampled_from(list(keys)),
                                       unique=True, max_size=len(keys)))}
        for _ in range(data.draw(st.integers(1, 3)))]
    evaluator = VectorizedEvaluator.from_overrides(
        circuit, INTEGER, base, overrides,
        kernel=kernel_for(INTEGER))
    expected = BatchedEvaluator(circuit, INTEGER, [
        valuation_from_dict({**base, **override}, 0)
        for override in overrides]).results()
    assert evaluator.results() == expected


# -- deterministic guard unit tests ---------------------------------------------

def bound_of(circuit, window=INT64_MAX):
    return input_bound(vector_plan(build_schedule(circuit)), window)


@needs_numpy
class TestInt64Guard:
    def test_sum_landing_on_int64_max_stays_native(self):
        # M* of a two-input sum is 2^62 - 1: inputs at it stay native.
        # A sum landing exactly on INT64_MAX needs an input past M*, so
        # it runs on the object kernel — exact, and fits int64 anyway.
        circuit, _ = build_sum("u", "v")
        assert bound_of(circuit) == 2 ** 62 - 1
        for assignment, total, certified in (
                ({"u": 2 ** 62 - 1, "v": 2 ** 62 - 1}, INT64_MAX - 1, True),
                ({"u": 2 ** 62, "v": 2 ** 62 - 1}, INT64_MAX, False)):
            python, exact, fast = run_all_paths(circuit, NATURAL,
                                                [assignment])
            assert python == exact.results() == fast.results() == [total]
            assert_the_rule(fast, certified)

    def test_sum_one_past_int64_max_falls_back_exactly(self):
        circuit, _ = build_sum("u", "v")
        python, exact, fast = run_all_paths(
            circuit, NATURAL, [{"u": 2 ** 62, "v": 2 ** 62}])
        assert python == exact.results() == fast.results() == [2 ** 63]
        assert fast.fallbacks == 1
        assert fast.kernel_used == "N-object"

    def test_negative_sum_boundary(self):
        circuit, _ = build_sum("u", "v")
        low = -(2 ** 62 - 1)
        native = [{"u": low, "v": low}]          # both inputs at -M*
        land = [{"u": INT64_MIN + 1, "v": -1}]   # lands exactly on INT64_MIN
        past = [{"u": INT64_MIN, "v": -1}]       # one past it
        for assignments, certified in ((native, True), (land, False),
                                       (past, False)):
            python, exact, fast = run_all_paths(circuit, INTEGER, assignments)
            assert python == exact.results() == fast.results()
            assert_the_rule(fast, certified)

    def test_negative_product_overflow_detected(self):
        circuit, _ = build_product("u", "v")
        python, exact, fast = run_all_paths(
            circuit, INTEGER, [{"u": -(2 ** 32), "v": 2 ** 32}])
        assert python == exact.results() == fast.results() == [-(2 ** 64)]
        assert_the_rule(fast, False)

    def test_negative_product_landing_on_int64_min_stays_native(self):
        # M* of a two-input product is isqrt(INT64_MAX): a product of
        # inputs at it stays native; one landing on INT64_MIN needs an
        # input past M* and runs on the object kernel.
        circuit, _ = build_product("u", "v")
        bound = bound_of(circuit)
        assert bound == 3037000499
        for assignment, product, certified in (
                ({"u": -bound, "v": bound}, -bound * bound, True),
                ({"u": -(2 ** 31), "v": 2 ** 32}, INT64_MIN, False)):
            python, exact, fast = run_all_paths(circuit, INTEGER,
                                                [assignment])
            assert python == exact.results() == fast.results() == [product]
            assert_the_rule(fast, certified)

    def test_int64_min_times_minus_one_wraparound_detected(self):
        # The one product whose division-based check itself overflows:
        # INT64_MIN * -1 wraps back to INT64_MIN and INT64_MIN // -1
        # cannot be computed in int64 — the guard masks it explicitly.
        circuit, _ = build_product("u", "v")
        python, exact, fast = run_all_paths(
            circuit, INTEGER, [{"u": INT64_MIN, "v": -1}])
        assert python == exact.results() == fast.results() == [2 ** 63]
        assert fast.fallbacks == 1

    def test_inputs_beyond_int64_fall_back_before_any_gate(self):
        circuit, _ = build_sum("u", "v")
        python, exact, fast = run_all_paths(
            circuit, NATURAL, [{"u": 2 ** 100, "v": 1}])
        assert python == exact.results() == fast.results() == [2 ** 100 + 1]
        assert fast.fallbacks == 1
        assert fast.kernel_used == "N-object"

    def test_mixed_layer_circuit_promotes_at_the_overflowing_layer(self):
        # Layer 1: two sums that fit int64.  Layer 2: their product
        # overflows.  The plan's bound sees the product (mass 4, degree
        # 2), so the inputs are past M* and the whole evaluation runs on
        # the object kernel from the start; at M* it runs natively.
        builder = CircuitBuilder()
        a = builder.add([builder.input("a1"), builder.input("a2")])
        b = builder.add([builder.input("b1"), builder.input("b2")])
        circuit = builder.build(builder.mul([a, b]))
        bound = bound_of(circuit)
        assert 4 * bound ** 2 <= INT64_MAX < 4 * (bound + 1) ** 2
        for value, certified in ((2 ** 31, False), (bound, True)):
            assignments = [dict.fromkeys(("a1", "a2", "b1", "b2"), value)]
            python, exact, fast = run_all_paths(circuit, NATURAL,
                                                assignments)
            assert python == exact.results() == fast.results() \
                == [4 * value ** 2]
            assert fast.kernel_requested == "N-int64"
            assert_the_rule(fast, certified)

    def test_batch_isolation_one_hot_row_demotes_whole_batch_exactly(self):
        # One overflowing row in a 5-row batch: everything stays exact.
        circuit, _ = build_product("u", "v")
        assignments = [{"u": i, "v": i + 1} for i in range(4)]
        assignments.append({"u": 2 ** 40, "v": 2 ** 40})
        python, exact, fast = run_all_paths(circuit, NATURAL, assignments)
        assert python == exact.results() == fast.results()
        assert fast.results()[-1] == 2 ** 80
        assert_the_rule(fast, False)


@needs_numpy
class TestRationalGuard:
    def test_integer_rationals_ride_the_float_fast_path(self):
        circuit, _ = build_product("u", "v")
        python, exact, fast = run_all_paths(
            circuit, RATIONAL, [{"u": Fraction(6), "v": Fraction(7)}])
        assert python == exact.results() == fast.results() == [Fraction(42)]
        assert fast.fallbacks == 0
        assert fast.kernel_used == "Q-f64int"
        assert all(isinstance(v, Fraction) for v in fast.results())

    def test_denominator_blow_up_falls_back_before_losing_precision(self):
        circuit, _ = build_sum("u", "v")
        python, exact, fast = run_all_paths(
            circuit, RATIONAL,
            [{"u": Fraction(1, 3), "v": Fraction(1, 10 ** 12 + 39)}])
        assert python == exact.results() == fast.results()
        assert fast.fallbacks == 1
        assert fast.kernel_used == "Q-object"

    def test_product_leaving_the_exact_float_window_trips(self):
        circuit, _ = build_product("u", "v")
        python, exact, fast = run_all_paths(
            circuit, RATIONAL,
            [{"u": Fraction(2 ** 30), "v": Fraction(2 ** 30)}])
        assert python == exact.results() == fast.results() \
            == [Fraction(2 ** 60)]
        assert fast.fallbacks == 1

    def test_promote_is_total_over_uninitialized_garbage(self,
                                                        monkeypatch):
        # Nothing converts a half-computed value array any more.  The one
        # whole-array conversion left carries a native base column or
        # base sweep into an uncertified batch's object kernel, and
        # every slot of those was written: np.empty heap garbage (maybe
        # NaN/Inf) is never read.  Poison the heap, sweep the base
        # natively, then run a delta batch past M* over that sweep.
        import numpy as np
        poison = [np.full(4096, np.nan) for _ in range(32)]
        del poison
        monkeypatch.setattr(vectorized, "DELTA_PASS_CELLS", 0)
        monkeypatch.setattr(vectorized, "DELTA_CELL_COST", 0)
        circuit, _ = build_product("u", "v")
        prepared = VectorizedEvaluator.prepare_base(
            circuit, RATIONAL, {"u": Fraction(3), "v": Fraction(5)})
        small = VectorizedEvaluator.from_overrides(
            circuit, RATIONAL, prepared, [{"u": Fraction(2)}])
        assert small.results() == [Fraction(10)]
        assert_the_rule(small, True)
        assert prepared._swept[0].certified
        big = VectorizedEvaluator.from_overrides(
            circuit, RATIONAL, prepared, [{"u": Fraction(2 ** 40)}])
        assert big.pass_used == "delta"
        assert big.results() == [Fraction(5 * 2 ** 40)]
        assert_the_rule(big, False)
        assert big._base.dtype == object
        assert all(isinstance(v, Fraction) for v in big._base)

    def test_guard_trip_survives_nan_poisoned_heap(self):
        # The dense shape of the same hazard: poison the allocator with
        # NaNs, then run a batch whose product would leave the 2^53
        # window — it runs on the object kernel from the start.
        import numpy as np
        poison = [np.full(4096, np.nan) for _ in range(32)]
        del poison
        circuit, _ = build_product("u", "v")
        python, exact, fast = run_all_paths(
            circuit, RATIONAL,
            [{"u": Fraction(2 ** 40), "v": Fraction(2 ** 40)}])
        assert python == exact.results() == fast.results() \
            == [Fraction(2 ** 80)]
        assert fast.fallbacks == 1

    def test_sum_inside_the_window_is_exact_and_native(self):
        # M* of a two-input sum in the 2^53 window is 2^52 - 1: inputs at
        # it stay native; a sum landing on 2^53 - 1 from an input past
        # it runs on the object kernel.
        circuit, _ = build_sum("u", "v")
        assert bound_of(circuit, 2 ** 53 - 1) == 2 ** 52 - 1
        for u, certified in ((2 ** 52 - 1, True), (2 ** 52, False)):
            python, exact, fast = run_all_paths(
                circuit, RATIONAL,
                [{"u": Fraction(u), "v": Fraction(2 ** 52 - 1)}])
            assert python == exact.results() == fast.results() \
                == [Fraction(u + 2 ** 52 - 1)]
            assert_the_rule(fast, certified)


@needs_numpy
class TestTelemetry:
    def test_prepared_base_records_demotion(self):
        circuit, _ = build_sum("u", "v")
        kernel = kernel_for(NATURAL)
        small = VectorizedEvaluator.prepare_base(circuit, NATURAL,
                                                 {"u": 1, "v": 2},
                                                 kernel=kernel)
        assert small.kernel.name == "N-int64"
        huge = VectorizedEvaluator.prepare_base(circuit, NATURAL,
                                                {"u": 2 ** 90, "v": 2},
                                                kernel=kernel)
        assert huge.kernel.name == "N-object"

    def test_stats_and_explain_report_kernel_and_fallbacks(
            self, small_grid_structure):
        from repro.logic import Atom, Bracket, Sum, Weight
        edge_sum = Sum(("x", "y"),
                       Bracket(Atom("E", ("x", "y"))) * Weight("w",
                                                               ("x", "y")))
        edges = sorted(small_grid_structure.relations["E"])
        with Database(small_grid_structure) as db:
            q = db.prepare(edge_sum)
            q.batch([{("w", "w", edges[0]): 5}, {}], NATURAL)
            stats = q.stats()["exact_kernel"]
            assert stats["requested"] == "N-int64"
            assert stats["used"] == "N-int64"
            assert stats["fallbacks"] == 0
            assert stats["certified"] == 1
            assert stats["batches"] == 1
            q.batch([{("w", "w", edges[0]): 2 ** 70}], NATURAL)
            stats = q.stats()["exact_kernel"]
            assert stats["fallbacks"] == 1
            assert stats["certified"] == 1
            assert stats["used"] == "N-object"
            assert q.plan().kernel_stats()["certified"] == 1
            text = q.explain()
            assert "exact kernel" in text and "1 fallback(s)" in text
            assert "1 certified" in text

    def test_service_stats_surface_exact_mode_and_kernel(
            self, small_grid_structure):
        from repro.logic import Atom, Bracket, Sum, Weight
        degree = Sum("y", Bracket(Atom("E", ("x", "y"))) * Weight("w",
                                                                  ("x", "y")))
        with Database(small_grid_structure) as db:
            with db.serve(degree, NATURAL) as service:
                vertex = small_grid_structure.domain[0]
                service.query(vertex)
                stats = service.stats()
                # The kernel that ran is the report; no option echoes it.
                assert "exact_mode" not in stats
                assert stats["exact_kernel"]["requested"] == "N-int64"
                assert stats["exact_kernel"]["fallbacks"] == 0

    def test_schedule_stats_expose_reduction_group_metadata(
            self, small_grid_structure):
        from repro.logic import Atom, Bracket, Sum, Weight
        edge_sum = Sum(("x", "y"),
                       Bracket(Atom("E", ("x", "y"))) * Weight("w",
                                                               ("x", "y")))
        with Database(small_grid_structure) as db:
            stats = db.prepare(edge_sum).plan().schedule().stats()
            assert stats["gate_kinds"]["input"] == stats["inputs"]
            assert stats["reducible_gates"] == \
                stats["gate_kinds"].get("add", 0) \
                + stats["gate_kinds"].get("mul", 0)


# -- the per-batch overflow certificate ------------------------------------------

CERTIFIED_CASES = [
    ("N", NATURAL, lambda v: v),
    ("Z", INTEGER, lambda v: v),
    ("Q", RATIONAL, Fraction),
]

E = lambda x, y: Atom("E", (x, y))
w = lambda x, y: Weight("w", (x, y))
TRIANGLE = Sum(("x", "y", "z"),
               Bracket(E("x", "y") & E("y", "z") & E("z", "x"))
               * w("x", "y") * w("y", "z") * w("z", "x"))


def edge_values(sr, conv, bound):
    """Small counting weights and the certificate's edges: M* - 1, M*,
    M* + 1 and both kernel windows' boundaries (signed for ``Z``/``Q``),
    so certified batches, uncertified ones whose inputs cast and ones
    whose inputs do not all run."""
    edges = [2 ** 53 - 1, 2 ** 53, 2 ** 63 - 1, 2 ** 63]
    if bound is not None:
        edges += [bound - 1, bound, bound + 1]
    magnitude = st.one_of(st.integers(0, 3), st.sampled_from(edges))
    if sr is not NATURAL:
        magnitude = st.builds(lambda v, neg: -v if neg else v, magnitude,
                              st.booleans())
    return magnitude.map(conv)


@needs_numpy
@pytest.mark.parametrize("sr,conv", [case[1:] for case in CERTIFIED_CASES],
                         ids=[case[0] for case in CERTIFIED_CASES])
@settings(deadline=None)
@given(data=st.data())
def test_certified_batches_equal_the_object_kernel_and_python(sr, conv,
                                                              data):
    circuit, keys = data.draw(circuits())
    schedule = build_schedule(circuit)
    fast = kernel_for(sr)
    bound = input_bound(vector_plan(schedule), fast.window)
    value = edge_values(sr, conv, bound)
    base = {key: data.draw(value) for key in keys}
    overrides = [
        {key: data.draw(value)
         for key in data.draw(st.lists(st.sampled_from(keys), unique=True))}
        for _ in range(data.draw(st.integers(1, 3)))]
    got = VectorizedEvaluator.from_overrides(circuit, sr, base, overrides,
                                             schedule=schedule, kernel=fast)
    exact = VectorizedEvaluator.from_overrides(
        circuit, sr, base, overrides, schedule=schedule,
        kernel=kernel_for(sr, "object"))
    valuations = [valuation_from_dict({**base, **override}, sr.zero)
                  for override in overrides]
    python = BatchedEvaluator(circuit, sr, valuations).results()
    assert got.results() == exact.results() == python
    # Certified — and native — exactly when the base column and every
    # edit stay within M* ...
    live = schedule.slot_of()
    inputs = [base[key] for key in live] + [
        edit for override in overrides
        for key, edit in override.items() if key in live]
    assert_the_rule(got, within_bound(got, inputs))
    # ... and the callable-valuation constructor certifies the merged
    # values each column reads by the same rule.
    merged = VectorizedEvaluator(circuit, sr, valuations,
                                 schedule=schedule, kernel=fast)
    assert merged.results() == python
    assert_the_rule(merged, within_bound(
        merged, [{**base, **override}[key] for override in overrides
                 for key in live]))


def chain_circuit():
    """in0 * in1 * in2 + in3: mass 2 at degree 3 on top."""
    builder = CircuitBuilder()
    gates = [builder.input(("in", index)) for index in range(4)]
    return builder.build(builder.add([builder.mul(gates[:3]), gates[3]]))


@needs_numpy
class TestCertificate:
    def test_bound_is_the_largest_magnitude_the_window_admits(self):
        plan = vector_plan(build_schedule(chain_circuit()))
        for window in (INT64_MAX, 2 ** 53 - 1):
            bound = input_bound(plan, window)
            assert 2 * bound ** 3 <= window < 2 * (bound + 1) ** 3
        assert input_bound(plan, INT64_MAX) is input_bound(plan, INT64_MAX)

    def test_constants_enter_the_bound(self):
        builder = CircuitBuilder()
        scaled = builder.mul([builder.const(2 ** 62), builder.input("u")])
        plan = vector_plan(build_schedule(builder.build(scaled)))
        assert input_bound(plan, INT64_MAX) == 1
        assert input_bound(plan, 2 ** 53 - 1) is None
        builder = CircuitBuilder()
        squared = builder.mul([builder.const(2 ** 32), builder.const(2 ** 32),
                               builder.input("u")])
        plan = vector_plan(build_schedule(builder.build(squared)))
        assert input_bound(plan, INT64_MAX) is None

    @pytest.mark.parametrize("offset,certified", [(-1, True), (0, True),
                                                  (1, False)])
    def test_inputs_at_the_bound(self, offset, certified):
        circuit = chain_circuit()
        bound = input_bound(vector_plan(build_schedule(circuit)), INT64_MAX)
        base = {("in", index): 1 for index in range(4)}
        overrides = [{("in", index): bound + offset for index in range(4)},
                     {}]
        got = VectorizedEvaluator.from_overrides(circuit, NATURAL, base,
                                                 overrides)
        top = bound + offset
        assert got.results() == [top ** 3 + top, 2]
        assert_the_rule(got, certified)

    def test_a_permanent_gate_is_never_certified(self):
        """A permanent plan is certified iff its inputs stay within M*:
        the 2 x 2 permanent sums P(2, 2) = 2 products of two entries
        (mass 2, degree 2), and the top addition adds one input."""
        builder = CircuitBuilder()
        inputs = [builder.input(("in", index)) for index in range(4)]
        perm = builder.perm([inputs[:2], inputs[2:]])
        circuit = builder.build(builder.add([perm, inputs[0]]))
        plan = vector_plan(build_schedule(circuit))
        base = {("in", index): index for index in range(4)}
        for sr, conv in ((NATURAL, int), (RATIONAL, Fraction)):
            window = kernel_for(sr).window
            bound = input_bound(plan, window)
            assert 3 * bound ** 2 <= window < 3 * (bound + 1) ** 2
            small = VectorizedEvaluator.from_overrides(
                circuit, sr, {k: conv(v) for k, v in base.items()},
                [{("in", 0): conv(1)}, {}])
            assert small.results() == [conv(1 * 3 + 1 * 2 + 1),
                                       conv(0 * 3 + 1 * 2 + 0)]
            assert_the_rule(small, True)
            for top, certified in ((bound, True), (bound + 1, False)):
                got = VectorizedEvaluator.from_overrides(
                    circuit, sr, {k: conv(v) for k, v in base.items()},
                    [dict.fromkeys(base, conv(top))])
                assert got.results() == [conv(2 * top ** 2 + top)]
                assert_the_rule(got, certified)

    def test_a_triangle_what_if_batch_runs_no_guard(self, monkeypatch):
        structure = weighted_graph_structure(triangulated_grid(4, 4),
                                             seed=5, wmax=9)
        compiled = compile_verified(structure, TRIANGLE)
        edges = sorted(structure.weights["w"])
        rng = random.Random(3)
        whatifs = [{("w", "w", edge): rng.randint(1, 9)
                    for edge in rng.sample(edges, 2)} for _ in range(64)]
        exact = compiled.evaluate_batch(NATURAL, whatifs, exact_mode="object")
        dtypes = value_dtypes(monkeypatch)
        assert compiled.evaluate_batch(NATURAL, whatifs) == exact
        assert dtypes == ["int64"]
        stats = compiled.kernel_stats()
        assert (stats["pass"], stats["certified"]) == ("dense", 1)

        # The delta pass too, and the base sweep it memoizes.
        monkeypatch.setattr(vectorized, "DELTA_PASS_CELLS", 0)
        monkeypatch.setattr(vectorized, "DELTA_CELL_COST", 0)
        dtypes.clear()
        assert compiled.evaluate_batch(NATURAL, whatifs) == exact
        assert dtypes == ["int64", "int64"]
        stats = compiled.kernel_stats()
        assert (stats["pass"], stats["certified"]) == ("delta", 2)

        bound = input_bound(vector_plan(compiled.schedule()), INT64_MAX)
        above = whatifs[:-1] + [{("w", "w", edges[0]): bound + 1}]
        dtypes.clear()
        assert compiled.evaluate_batch(NATURAL, above) == \
            compiled.evaluate_batch(NATURAL, above, exact_mode="object")
        # The uncertified batch ran on the object kernel from the start.
        assert dtypes and all(dtype == object for dtype in dtypes)
        stats = compiled.kernel_stats()
        assert (stats["certified"], stats["fallbacks"]) == (2, 1)


# -- eager exact_mode validation (the shared backends seam) ----------------------

class TestExactModeValidation:
    def test_unknown_exact_mode_rejected_everywhere(self,
                                                    small_grid_structure):
        """``exact_mode`` is a plan-level spelling only: ``"auto"`` or
        ``"object"``, validated through the one shared seam on every
        path — ``"int64"`` (``"auto"`` plus a NumPy check) is gone."""
        with pytest.raises(ValueError, match="unknown exact_mode"):
            validate_exact_mode("float128")
        with Database(small_grid_structure) as db:
            plan = db.prepare(WConst(1)).plan()
            for mode in ("int32", "int64"):
                with pytest.raises(ValueError, match="unknown exact_mode"):
                    plan.evaluate_batch(NATURAL, [{}], exact_mode=mode)
                with pytest.raises(ValueError, match="unknown exact_mode"):
                    plan.evaluate_selected(NATURAL, [()], exact_mode=mode,
                                           backend="python")
                with pytest.raises(ValueError, match="unknown exact_mode"):
                    kernel_for(NATURAL, mode)
        # The facade always runs "auto": there is no knob to set.
        with pytest.raises(TypeError, match="unknown execution option"):
            ExecOptions(exact_mode="object")

    @needs_numpy
    def test_exact_modes_accepted_with_numpy(self):
        for mode in ("auto", "object"):
            assert validate_exact_mode(mode) == mode
        assert kernel_for(NATURAL, "object").name == "N-object"
        assert kernel_for(NATURAL, "auto").name == "N-int64"
