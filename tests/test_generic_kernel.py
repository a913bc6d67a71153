"""The generic object kernel: every carrier without a native kernel runs
the vectorized passes on ``np.frompyfunc`` of its own ``add``/``mul``.

Three families, over every such shipped carrier — ``B``, ``P(X)``
(:class:`SetAlgebra`), ``min-max-3`` (:class:`BoundedMinMax`), ``Z_7``,
a saturating counter (:class:`TableSemiring`), ``N x B`` (tuple values)
and the free semiring (provenance polynomials):

* on the random ``circuits()`` of ``tests.test_properties`` (permanent
  gates included), the dense pass (stacked reduce and in-place fold),
  the delta pass and — on closed forms ``Σ_i g_i · sel_i`` — the
  adjoint pass equal :class:`BatchedEvaluator` bit for bit: equal
  values of the same type.  ``N x B`` pins that a tuple value stays one
  scalar of the object array;
* a ``group_by`` of DEGREE pinned to each pass equals the pure-Python
  backend's, before and after routed writes (a deep, slow variant runs
  it on larger random graphs at the nightly budget);
* a warm ``group_by(None, B)`` of DEGREE at grid sides 12 and 24 runs
  ``B-pyfunc`` on the adjoint or delta pass, within the counted guard's
  cells per group, and equals ``backend="python"``.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")

from repro.api import Database  # noqa: E402
from repro.circuits import (BatchedEvaluator, VectorizedEvaluator,  # noqa
                            build_schedule, kernel_for, valuation_from_dict,
                            vectorized)
from repro.circuits.adjoint import AdjointEvaluator  # noqa: E402
from repro.circuits.vectorized import Scatter  # noqa: E402
from repro.graphs import random_bounded_degree, triangulated_grid  # noqa
from repro.semirings import BOOLEAN  # noqa: E402
from repro.structures import graph_structure  # noqa: E402

from tests.test_adjoint_pass import same  # noqa: E402
from tests.test_complexity import CELLS_PER_GROUP  # noqa: E402
from tests.test_delta_pass import DEGREE, forced  # noqa: E402
from tests.test_properties import SEMIRING_STRATEGIES, circuits  # noqa: E402
from tests.util import weighted_graph_structure  # noqa: E402

#: (id, semiring, element strategy) for every shipped carrier that runs
#: its generic object kernel.
GENERIC = [case for case in SEMIRING_STRATEGIES
           if kernel_for(case[1]).name == f"{case[1].name}-pyfunc"]
generic = pytest.mark.parametrize(
    "sr,elements", [case[1:] for case in GENERIC],
    ids=[case[0] for case in GENERIC])


def test_the_generic_carriers_are_the_non_native_ones():
    assert [case[0] for case in GENERIC] == [
        "B", "set-algebra", "min-max-3", "Z_7", "sat-4", "N x B", "free"]


# -- the three passes on random circuits ---------------------------------------


@generic
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_the_dense_pass_equals_the_python_sweep(sr, elements, data):
    circuit, keys = data.draw(circuits())
    valuations = [valuation_from_dict({key: data.draw(elements)
                                       for key in keys}, sr.zero)
                  for _ in range(data.draw(st.integers(1, 4)))]
    expected = BatchedEvaluator(circuit, sr, valuations).results()
    reduced = VectorizedEvaluator(circuit, sr, valuations)
    assert reduced.kernel_used == f"{sr.name}-pyfunc"
    same(reduced.results(), expected)
    with mock.patch.object(vectorized, "FOLD_CELLS", 0):  # fold every group
        same(VectorizedEvaluator(circuit, sr, valuations).results(),
             expected)


@generic
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_the_delta_pass_equals_the_python_sweep(sr, elements, data):
    circuit, keys = data.draw(circuits())
    base = {key: data.draw(elements) for key in keys}
    overrides = [{key: data.draw(elements)
                  for key in data.draw(st.lists(st.sampled_from(keys),
                                                max_size=3))}
                 for _ in range(data.draw(st.integers(1, 4)))]
    expected = BatchedEvaluator(circuit, sr, overrides, base=base).results()
    for which in ("delta", "dense"):
        with forced(which):
            evaluator = VectorizedEvaluator.from_overrides(
                circuit, sr, base, overrides)
        assert evaluator.pass_used == which
        same(evaluator.results(), expected)


@generic
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_the_adjoint_pass_equals_the_python_sweep(sr, elements, data):
    selectors = data.draw(st.integers(1, 4))
    circuit, keys = data.draw(circuits(kinds=("add", "mul"),
                                       selectors=selectors))
    base = {key: data.draw(elements) for key in keys}
    base.update({("sel", index): sr.zero for index in range(selectors)})
    reads = [{("sel", index): sr.one} for index in data.draw(
        st.lists(st.integers(0, selectors - 1), min_size=1, max_size=6))]
    schedule = build_schedule(circuit)
    kernel = kernel_for(sr)
    prepared = VectorizedEvaluator.prepare_base(circuit, sr, base,
                                                schedule=schedule,
                                                kernel=kernel)
    evaluator = AdjointEvaluator.from_scatter(
        circuit, sr, prepared, Scatter.of_overrides(schedule.slot_of(),
                                                    reads),
        schedule, kernel)
    assert evaluator.pass_used == "adjoint"
    same(evaluator.results(),
         BatchedEvaluator(circuit, sr, reads, base=base).results())


# -- group_by through every pass -----------------------------------------------


def assert_group_by_agrees(structure, sr, draw, elements):
    """A ``group_by(None, sr)`` of DEGREE pinned to each pass equals the
    pure-Python backend's, before and after one routed write."""
    edges = sorted(structure.weights["w"])
    with Database(structure, result_cache_size=0) as db, \
            Database(structure.copy(), result_cache_size=0,
                     backend="python") as reference:
        query = db.prepare(DEGREE, params=("x",))
        slow = reference.prepare(DEGREE, params=("x",))
        for _ in range(2):
            want = slow.group_by(None, sr).values()
            for which in ("adjoint", "delta", "dense"):
                with forced(which):
                    table = query.group_by(None, sr)
                assert table.stats["kernel"] == f"{sr.name}-pyfunc"
                assert table.stats["pass"] == which
                same(table.values(), want)
            if not edges:
                return
            edge, value = draw(st.sampled_from(edges)), draw(elements)
            for database in (db, reference):
                with database.update() as tx:
                    tx.set_weight("w", edge, value)


def weighted_by(graph, draw, elements):
    structure = graph_structure(graph)
    for edge in sorted(structure.relations["E"]):
        structure.set_weight("w", edge, draw(elements))
    return structure


@generic
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_a_group_by_equals_the_python_backend_in_every_pass(sr, elements,
                                                            data):
    structure = weighted_by(triangulated_grid(4, 4), data.draw, elements)
    assert_group_by_agrees(structure, sr, data.draw, elements)


@pytest.mark.slow
@settings(deadline=None)
@given(n=st.integers(8, 60), degree=st.integers(1, 5),
       seed=st.integers(0, 2 ** 16), case=st.sampled_from(GENERIC),
       data=st.data())
def test_deep_group_by_equals_the_python_backend_on_random_graphs(
        n, degree, seed, case, data):
    _, sr, elements = case
    structure = weighted_by(random_bounded_degree(n, degree, seed=seed),
                            data.draw, elements)
    assert_group_by_agrees(structure, sr, data.draw, elements)


def test_a_boolean_group_by_runs_its_generic_kernel():
    """The acceptance read of a carrier without a native kernel: warm
    ``group_by(None, B)`` of DEGREE at sides 12 and 24."""
    for side in (12, 24):
        structure = weighted_graph_structure(
            triangulated_grid(side, side), seed=side)
        with Database(structure, result_cache_size=0) as db, \
                Database(structure, result_cache_size=0,
                         backend="python") as reference:
            query = db.prepare(DEGREE, params=("x",))
            query.group_by(None, BOOLEAN)  # warm: the base sweep
            table = query.group_by(None, BOOLEAN)
            want = reference.prepare(DEGREE, params=("x",)).group_by(
                None, BOOLEAN)
        assert table.stats["kernel"] == "B-pyfunc"
        assert table.stats["pass"] in ("adjoint", "delta")
        assert table.stats["cells"] / len(structure.domain) \
            <= CELLS_PER_GROUP
        assert want.stats["kernel"] == "python"
        same(table.values(), want.values())
        assert list(table.keys()) == list(want.keys())
