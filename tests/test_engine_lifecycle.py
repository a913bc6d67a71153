"""Engine lifecycle regressions: exception-safe point queries, a
structure no engine ever writes to (selectors are circuit inputs, not
data), close() as pure lifecycle, and concurrent engines on one
structure."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import SELECTED
from repro.engine import WeightedQueryEngine
from repro.graphs import path_graph, triangulated_grid
from repro.logic import Atom, Bracket, StructureModel, Sum, Weight, \
    eval_expression
from repro.semirings import NATURAL, IntegerRing

from tests.util import weighted_graph_structure

E = lambda x, y: Atom("E", (x, y))
w = lambda x, y: Weight("w", (x, y))

OUT_SUM = Sum("y", Bracket(E("x", "y")) * w("x", "y"))
EDGE_SUM = Sum(("x", "y"), Bracket(E("x", "y")) * w("x", "y"))


class FailingRing(IntegerRing):
    """Z whose ``add`` can be armed to blow up once, mid-propagation."""

    name = "Z-failing"

    def __init__(self):
        self.failures_left = 0

    def arm(self, failures: int = 1) -> None:
        self.failures_left = failures

    def add(self, a, b):
        if self.failures_left > 0:
            self.failures_left -= 1
            raise ArithmeticError("injected semiring failure")
        return a + b


def selector_values(engine):
    """The maintained evaluator's current value of every selector input."""
    evaluator = engine.dynamic.evaluator
    return [evaluator.value_of(engine.compiled.circuit.inputs[key])
            for key, (kind, _) in engine.compiled.recorded.items()
            if kind == SELECTED]


class TestQueryExceptionSafety:
    def test_failed_query_does_not_poison_later_queries(self):
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=4)
        sr = FailingRing()
        engine = WeightedQueryEngine(structure, OUT_SUM, sr)
        model = StructureModel(structure, 0)
        probes = structure.domain[:4]
        expected = [eval_expression(OUT_SUM, model, sr, {"x": v})
                    for v in probes]
        assert [engine.query(v) for v in probes] == expected

        sr.arm(1)  # the next semiring add (selector raise) explodes
        with pytest.raises(ArithmeticError):
            engine.query(probes[0])

        # Regression: selectors must be back at zero, so every later
        # query still sees exactly one hot selector per free variable.
        assert [engine.query(v) for v in probes] == expected

    def test_restore_loop_survives_a_failing_restore(self):
        # Regression: with two free variables and a double failure (the
        # read path and then the first restore), the restore loop must
        # still zero the *second* selector instead of aborting.
        structure = weighted_graph_structure(path_graph(6), seed=2)
        sr = FailingRing()
        expr = Bracket(E("x", "y")) * w("x", "y")
        engine = WeightedQueryEngine(structure, expr, sr,
                                     free_order=("x", "y"))
        a, b = structure.domain[0], structure.domain[1]
        expected = engine.query(a, b)
        sr.arm(2)  # failure 1: raising a selector; failure 2: one restore
        with pytest.raises(ArithmeticError):
            engine.query(a, b)
        values = selector_values(engine)
        assert len(values) == 2 * len(structure.domain)
        assert all(value == sr.zero for value in values)
        assert engine.query(a, b) == expected

    def test_selectors_zeroed_in_dynamic_state_after_failure(self):
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=7)
        sr = FailingRing()
        engine = WeightedQueryEngine(structure, OUT_SUM, sr)
        v = structure.domain[0]
        sr.arm(1)
        with pytest.raises(ArithmeticError):
            engine.query(v)
        values = selector_values(engine)
        assert values and all(value == sr.zero for value in values)


class TestCloseLifecycle:
    def test_close_strips_selector_weights(self):
        # Construction, use and close never touch the structure.
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=1)
        weight_names = set(structure.weights)
        fingerprint = structure.fingerprint()
        engine = WeightedQueryEngine(structure, OUT_SUM, NATURAL)
        engine.query(structure.domain[0])
        engine.query_batch([(v,) for v in structure.domain])
        assert set(structure.weights) == weight_names
        assert structure.fingerprint() == fingerprint
        engine.close()
        assert set(structure.weights) == weight_names
        assert structure.fingerprint() == fingerprint
        assert structure.fingerprint() == structure.full_fingerprint()
        assert engine.closed
        with pytest.raises(RuntimeError):
            engine.query(structure.domain[0])

    def test_close_is_idempotent_and_blocks_use(self):
        structure = weighted_graph_structure(path_graph(5), seed=0)
        engine = WeightedQueryEngine(structure, OUT_SUM, NATURAL)
        engine.close()
        engine.close()
        with pytest.raises(RuntimeError):
            engine.query(structure.domain[0])
        with pytest.raises(RuntimeError):
            engine.query_batch([(structure.domain[0],)])
        with pytest.raises(RuntimeError):
            engine.update_weight("w", next(iter(structure.relations["E"])), 2)

    def test_context_manager(self):
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=3)
        model = StructureModel(structure, 0)
        with WeightedQueryEngine(structure, OUT_SUM, NATURAL) as engine:
            v = structure.domain[1]
            assert engine.query(v) == eval_expression(OUT_SUM, model,
                                                      NATURAL, {"x": v})
        assert engine.closed
        assert set(structure.weights) == {"w"}

    def test_repeated_engines_do_not_grow_weight_table(self):
        # Regression: constructing engines on one shared structure used to
        # leak |free| selector weight functions per engine, forever.
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=8)
        baseline = len(structure.weights)
        values = []
        for _ in range(12):
            with WeightedQueryEngine(structure, OUT_SUM, NATURAL) as engine:
                values.append(engine.query(structure.domain[0]))
            assert len(structure.weights) == baseline
        assert len(set(values)) == 1  # engines see identical data

    def test_failed_construction_leaves_no_selectors_behind(self):
        # Regression: if compilation/initial evaluation raises, there is
        # no engine object to close() — the constructor itself must strip
        # the selectors it already installed.
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=2)
        weight_names = set(structure.weights)
        sr = FailingRing()
        sr.arm(1)  # first semiring add (initial circuit pass) explodes
        with pytest.raises(ArithmeticError):
            WeightedQueryEngine(structure, OUT_SUM, sr)
        assert set(structure.weights) == weight_names

    def test_closed_query_close_is_harmless(self):
        structure = weighted_graph_structure(path_graph(4), seed=0)
        with WeightedQueryEngine(structure, EDGE_SUM, NATURAL) as engine:
            assert engine.value() == eval_expression(
                EDGE_SUM, StructureModel(structure, 0), NATURAL)


class TestEngineTagging:
    def test_concurrent_construction_mints_unique_selectors(self):
        # Nothing is minted any more: 32 concurrent engines share ONE
        # structure (no copies), answer right, and leave it unmoved.
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=5)
        fingerprint = structure.fingerprint()
        model = StructureModel(structure, 0)
        expected = [eval_expression(OUT_SUM, model, NATURAL, {"x": v})
                    for v in structure.domain]

        def build(_):
            with WeightedQueryEngine(structure, OUT_SUM, NATURAL) as engine:
                return [engine.query(v) for v in structure.domain]

        with ThreadPoolExecutor(max_workers=8) as pool:
            answers = list(pool.map(build, range(32)))
        assert all(answer == expected for answer in answers)
        assert set(structure.weights) == {"w"}
        assert structure.fingerprint() == fingerprint


class TestArgumentValidation:
    """Outside input is validated explicitly, by the one normaliser
    (``repro.engine.normalize_arguments``), before any selector is
    raised — never as a side effect of an internal name lookup."""

    MESSAGE = "'nope' is not in the structure's domain"

    def consumers(self, structure):
        """``(name, point query callable)`` for every point-read path."""
        from repro.api import Database
        from repro.serve import QueryService
        engine = WeightedQueryEngine(structure.copy(), OUT_SUM, NATURAL)
        db = Database(structure.copy())
        prepared = db.prepare(OUT_SUM, params=("x",))
        service = QueryService(structure.copy(), OUT_SUM, NATURAL)
        return [
            ("engine.query", engine.query),
            ("engine.query_batch",
             lambda *args: engine.query_batch([args])[0]),
            ("bind().value()",
             lambda *args: (prepared.bind(**args[0]) if args
                            and isinstance(args[0], dict)
                            else prepared.bind(*args)).value(NATURAL)),
            ("service.query", service.query),
        ], (db, service)

    def test_unknown_element_is_a_key_error_in_every_form(self):
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=6)
        model = StructureModel(structure, 0)
        good = structure.domain[4]
        expected = eval_expression(OUT_SUM, model, NATURAL, {"x": good})
        consumers, owners = self.consumers(structure)
        try:
            for name, query in consumers:
                for bad in (("nope",), ({"x": "nope"},)):
                    with pytest.raises(KeyError) as caught:
                        query(*bad)
                    assert caught.value.args[0] == self.MESSAGE, name
                    # Nothing is left hot: the next valid read is right,
                    # positional and mapping form alike.
                    assert query(good) == expected, name
                    assert query({"x": good}) == expected, name
        finally:
            for owner in owners:
                owner.close()

    def test_wrong_arity_is_a_value_error(self):
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=6)
        good = structure.domain[0]
        consumers, owners = self.consumers(structure)
        try:
            for name, query in consumers:
                if name == "bind().value()":
                    continue  # bind() has its own, earlier arity message
                for bad in ((), (good, good)):
                    with pytest.raises(ValueError, match="expected 1 arg"):
                        query(*bad)
        finally:
            for owner in owners:
                owner.close()

    def test_unknown_element_never_reaches_the_evaluator(self):
        structure = weighted_graph_structure(path_graph(5), seed=1)
        with WeightedQueryEngine(structure, OUT_SUM, NATURAL) as engine:
            toggles = []
            update_input = engine.dynamic.evaluator.update_input
            engine.dynamic.evaluator.update_input = \
                lambda key, value: toggles.append(key) or \
                update_input(key, value)
            with pytest.raises(KeyError):
                engine.query("nope")
            assert toggles == []
            engine.query(structure.domain[0])
            assert len(toggles) == 2  # one raise, one restore
