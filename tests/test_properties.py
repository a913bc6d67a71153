"""Hypothesis property tests: semiring axioms and backend equivalence.

Two families:

* every shipped semiring satisfies the commutative-semiring axioms on
  random carrier samples (via ``check_semiring_axioms``), and lasso
  arithmetic agrees with naive n-fold addition on finite carriers;
* the pure-Python and vectorized NumPy batched backends agree on random
  circuits (inputs, constants, add/mul/perm gates) under random
  valuation batches, for every semiring with an array kernel.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import (HAVE_NUMPY, BatchedEvaluator, CircuitBuilder,
                            StaticEvaluator, VectorizedEvaluator, kernel_for)
from repro.semirings import (BOOLEAN, INF, INTEGER, MAX_PLUS, MIN_MAX,
                            MIN_PLUS, NATURAL, RATIONAL, BoundedMinMax,
                            FloatField, FreeSemiring, ModularRing, Poly,
                            ProductSemiring, ScalarMultiplier, SetAlgebra,
                            check_semiring_axioms,
                            saturating_counter_semiring)

FLOAT = FloatField()
FREE = FreeSemiring()

# -- carrier strategies ---------------------------------------------------------

_GENERATORS = ("x", "y", "z")


def _poly_strategy():
    monomial = st.lists(st.sampled_from(_GENERATORS),
                        max_size=2).map(lambda g: tuple(sorted(g)))
    return st.dictionaries(monomial, st.integers(1, 3),
                           max_size=3).map(Poly)


def _finite(sr):
    return st.sampled_from(list(sr.elements()))


#: (id, semiring, element strategy) for every shipped semiring.  Floats
#: are restricted to integral values so associativity/distributivity are
#: exact; tropical carriers include their infinities.
SEMIRING_STRATEGIES = [
    ("B", BOOLEAN, st.booleans()),
    ("set-algebra", SetAlgebra(frozenset("abc")),
     st.frozensets(st.sampled_from("abc"))),
    ("N", NATURAL, st.integers(0, 50)),
    ("Z", INTEGER, st.integers(-50, 50)),
    ("Q", RATIONAL, st.fractions(min_value=-10, max_value=10,
                                 max_denominator=12)),
    ("float", FLOAT, st.integers(-30, 30).map(float)),
    ("min-plus", MIN_PLUS,
     st.one_of(st.integers(-20, 20).map(float), st.just(INF))),
    ("max-plus", MAX_PLUS,
     st.one_of(st.integers(-20, 20).map(float), st.just(-INF))),
    ("min-max", MIN_MAX,
     st.one_of(st.integers(0, 20), st.just(INF))),
    ("min-max-3", BoundedMinMax(3), _finite(BoundedMinMax(3))),
    ("Z_7", ModularRing(7), _finite(ModularRing(7))),
    ("sat-4", saturating_counter_semiring(4),
     _finite(saturating_counter_semiring(4))),
    ("N x B", ProductSemiring(NATURAL, BOOLEAN),
     st.tuples(st.integers(0, 20), st.booleans())),
    ("free", FREE, _poly_strategy()),
]


@pytest.mark.parametrize("sr,elements",
                         [(sr, strat) for _, sr, strat in SEMIRING_STRATEGIES],
                         ids=[name for name, _, _ in SEMIRING_STRATEGIES])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_semiring_axioms_hold_on_random_samples(sr, elements, data):
    samples = data.draw(st.lists(elements, min_size=1, max_size=4))
    check_semiring_axioms(sr, samples)


@pytest.mark.parametrize("sr,elements",
                         [(sr, strat) for _, sr, strat in SEMIRING_STRATEGIES],
                         ids=[name for name, _, _ in SEMIRING_STRATEGIES])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_scale_matches_repeated_addition(sr, elements, data):
    element = data.draw(elements)
    n = data.draw(st.integers(0, 12))
    naive = sr.zero
    for _ in range(n):
        naive = sr.add(naive, element)
    assert sr.eq(sr.scale(n, element), naive)


FINITE_CASES = [(name, sr, strat) for name, sr, strat in SEMIRING_STRATEGIES
                if sr.is_finite]


@pytest.mark.parametrize("sr,elements",
                         [(sr, strat) for _, sr, strat in FINITE_CASES],
                         ids=[name for name, _, _ in FINITE_CASES])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_lasso_arithmetic_matches_naive_multiples(sr, elements, data):
    element = data.draw(elements)
    n = data.draw(st.integers(1, 200))
    multiplier = ScalarMultiplier(sr, element)
    naive = sr.zero
    for _ in range(min(n, 40)):
        naive = sr.add(naive, element)
    if n <= 40:
        assert sr.eq(multiplier.times(n), naive)
    else:  # deep into the cycle: consistency with the recurrence
        assert sr.eq(multiplier.times(n),
                     sr.add(multiplier.times(n - 1), element))


# -- random circuits: backend equivalence ----------------------------------------


@st.composite
def circuits(draw, kinds=("add", "mul", "perm"), selectors=0):
    """A small random circuit plus its input keys.

    Starts from input and constant gates and grows a random DAG of
    ``kinds`` gates through the hash-consing builder (which may
    collapse trivial shapes, exactly as compilation does).  With
    ``selectors``, the output is a closed form ``Σ_i g_i · sel_i`` over
    that many selector inputs ``("sel", i)`` (not among the keys), each
    ``g_i`` a drawn gate.
    """
    builder = CircuitBuilder()
    num_inputs = draw(st.integers(1, 5))
    keys = [("in", index) for index in range(num_inputs)]
    gates = [builder.input(key) for key in keys]
    gates.append(builder.const(draw(st.integers(0, 3))))
    num_ops = draw(st.integers(1, 10))
    for _ in range(num_ops):
        kind = draw(st.sampled_from(kinds))
        if kind == "perm":
            rows = draw(st.integers(2, 3))
            cols = draw(st.integers(rows, 4))
            entries = [[draw(st.one_of(st.none(), st.sampled_from(gates)))
                        for _ in range(cols)] for _ in range(rows)]
            gate = builder.perm(entries)
        else:
            fan_in = draw(st.integers(2, 4))
            children = [draw(st.sampled_from(gates)) for _ in range(fan_in)]
            gate = (builder.add if kind == "add" else builder.mul)(children)
        if gate is not None:
            gates.append(gate)
    output = builder.add([g for g in gates[-3:]])
    if selectors:
        output = builder.add([
            builder.mul([draw(st.sampled_from(gates)),
                         builder.input(("sel", index))])
            for index in range(selectors)])
    return builder.build(output), keys


def _valuation_batch(draw, keys, convert):
    batch_size = draw(st.integers(1, 4))
    batches = []
    for _ in range(batch_size):
        values = {key: convert(draw(st.integers(0, 6))) for key in keys}
        batches.append(lambda key, _v=values: _v[key])
    return batches


#: Semirings with an array kernel, plus a converter from small ints.
KERNEL_CASES = [
    ("N", NATURAL, lambda v: v),
    ("Z", INTEGER, lambda v: v - 3),
    ("Q", RATIONAL, lambda v: RATIONAL.coerce(v)),
    ("float", FLOAT, float),
    ("min-plus", MIN_PLUS, lambda v: float(v) if v else INF),
    ("max-plus", MAX_PLUS, lambda v: float(v) if v else -INF),
]


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable")
@pytest.mark.parametrize("sr,convert",
                         [(sr, conv) for _, sr, conv in KERNEL_CASES],
                         ids=[name for name, _, _ in KERNEL_CASES])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_numpy_backend_matches_python_on_random_circuits(sr, convert, data):
    assert kernel_for(sr) is not None
    circuit, keys = data.draw(circuits())
    valuations = _valuation_batch(data.draw, keys, convert)
    python_results = BatchedEvaluator(circuit, sr, valuations).results()
    numpy_results = VectorizedEvaluator(circuit, sr, valuations).results()
    assert len(python_results) == len(numpy_results)
    for expected, got in zip(python_results, numpy_results):
        assert sr.eq(expected, got), (expected, got)


@pytest.mark.parametrize("sr,convert",
                         [(sr, conv) for _, sr, conv in KERNEL_CASES],
                         ids=[name for name, _, _ in KERNEL_CASES])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_batched_backend_matches_static_loop(sr, convert, data):
    """The python batched sweep is the per-valuation StaticEvaluator, in
    every semiring — holds on the no-numpy CI leg too."""
    circuit, keys = data.draw(circuits())
    valuations = _valuation_batch(data.draw, keys, convert)
    batched = BatchedEvaluator(circuit, sr, valuations).results()
    singles = [StaticEvaluator(circuit, sr, fn).value() for fn in valuations]
    for expected, got in zip(singles, batched):
        assert sr.eq(expected, got)
