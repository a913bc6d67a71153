"""Point-query lifecycle regressions: exception-safe selector toggles
(``DynamicQuery.point``), a structure no handle ever writes to
(selectors are circuit inputs, not data), maintained evaluators built
only by the modes that read them, and concurrent readers on one
structure."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import Database
from repro.circuits import evaluation
from repro.core import SELECTED, close_over, compile_structure_query
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


class FailingMulRing(FailingRing):
    """Z whose ``mul`` (and not ``add``) can be armed to blow up once."""

    name = "Z-failing-mul"
    add = IntegerRing.add

    def mul(self, a, b):
        if self.failures_left > 0:
            self.failures_left -= 1
            raise ArithmeticError("injected semiring failure")
        return a * b


def point_reader(structure, expr, sr, free=("x",)):
    """The maintained evaluator of ``expr``'s Theorem 8 closed form."""
    return compile_structure_query(
        structure, close_over(expr, free)).dynamic(sr)


def selector_values(dynamic):
    """The maintained evaluator's current value of every selector input."""
    evaluator, plan = dynamic.evaluator, dynamic.compiled
    return [evaluator.value_of(plan.circuit.inputs[key])
            for key, (kind, _) in plan.recorded.items()
            if kind == SELECTED]


class TestQueryExceptionSafety:
    def test_failed_query_does_not_poison_later_queries(self):
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=4)
        sr = FailingRing()
        dynamic = point_reader(structure, OUT_SUM, sr)
        model = StructureModel(structure, 0)
        probes = structure.domain[:4]
        expected = [eval_expression(OUT_SUM, model, sr, {"x": v})
                    for v in probes]
        assert [dynamic.point((v,)) for v in probes] == expected

        sr.arm(1)  # the next semiring add (selector raise) explodes
        with pytest.raises(ArithmeticError):
            dynamic.point((probes[0],))

        # Regression: selectors must be back at zero, so every later
        # query still sees exactly one hot selector per free variable.
        assert [dynamic.point((v,)) for v in probes] == expected

    def test_failed_bind_does_not_poison_later_binds(self):
        # The same protocol through the facade's point read.
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=4)
        sr = FailingRing()
        model = StructureModel(structure, 0)
        probes = structure.domain[:4]
        expected = [eval_expression(OUT_SUM, model, sr, {"x": v})
                    for v in probes]
        with Database(structure, result_cache_size=0) as db:
            query = db.prepare(OUT_SUM, params=("x",))
            assert [query.bind(v).value(sr) for v in probes] == expected
            sr.arm(1)
            with pytest.raises(ArithmeticError):
                query.bind(probes[0]).value(sr)
            dynamic, = query._dynamics.values()
            values = selector_values(dynamic)
            assert values and all(value == sr.zero for value in values)
            assert [query.bind(v).value(sr) for v in probes] == expected

    def test_restore_loop_survives_a_failing_restore(self):
        # Regression: with two free variables and a double failure (the
        # read path and then the first restore), the restore loop must
        # still zero the *second* selector instead of aborting.
        structure = weighted_graph_structure(path_graph(6), seed=2)
        sr = FailingRing()
        expr = Bracket(E("x", "y")) * w("x", "y")
        dynamic = point_reader(structure, expr, sr, free=("x", "y"))
        a, b = structure.domain[0], structure.domain[1]
        expected = dynamic.point((a, b))
        sr.arm(2)  # failure 1: raising a selector; failure 2: one restore
        with pytest.raises(ArithmeticError):
            dynamic.point((a, b))
        values = selector_values(dynamic)
        assert len(values) == 2 * len(structure.domain)
        assert all(value == sr.zero for value in values)
        assert dynamic.point((a, b)) == expected

    def test_selectors_zeroed_in_dynamic_state_after_failure(self):
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=7)
        sr = FailingRing()
        dynamic = point_reader(structure, OUT_SUM, sr)
        v = structure.domain[0]
        sr.arm(1)
        with pytest.raises(ArithmeticError):
            dynamic.point((v,))
        values = selector_values(dynamic)
        assert values and all(value == sr.zero for value in values)


class TestCloseLifecycle:
    def test_close_strips_selector_weights(self):
        # Preparing, binding, batching and closing never touch the
        # structure.
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=1)
        weight_names = set(structure.weights)
        fingerprint = structure.fingerprint()
        with Database(structure) as db:
            query = db.prepare(OUT_SUM, params=("x",))
            query.bind(structure.domain[0]).value(NATURAL)
            query.batch([(v,) for v in structure.domain], NATURAL)
            assert set(structure.weights) == weight_names
            assert structure.fingerprint() == fingerprint
            query.close()
            assert set(structure.weights) == weight_names
            assert structure.fingerprint() == fingerprint
            assert structure.fingerprint() == structure.full_fingerprint()
            with pytest.raises(RuntimeError):
                query.bind(structure.domain[0]).value(NATURAL)

    def test_repeated_engines_do_not_grow_weight_table(self):
        # Regression: readers on one shared structure used to leak
        # |free| selector weight functions each, forever.
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=8)
        baseline = len(structure.weights)
        values = []
        with Database(structure) as db:
            for _ in range(12):
                query = db.prepare(OUT_SUM, params=("x",))
                values.append(query.bind(structure.domain[0]).value(NATURAL))
                query.close()
                assert len(structure.weights) == baseline
        assert len(set(values)) == 1  # handles see identical data

    def test_failed_construction_leaves_no_selectors_behind(self):
        # If the evaluator's initial pass raises, nothing is left
        # behind: not in the structure, not in the handle.
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=2)
        weight_names = set(structure.weights)
        sr = FailingRing()
        sr.arm(1)  # first semiring add (initial circuit pass) explodes
        with pytest.raises(ArithmeticError):
            point_reader(structure, OUT_SUM, sr)
        assert set(structure.weights) == weight_names
        with Database(structure) as db:
            query = db.prepare(OUT_SUM, params=("x",))
            sr.arm(1)
            with pytest.raises(ArithmeticError):
                query.bind(structure.domain[0]).value(sr)
            assert query.stats()["engines"] == []
            assert set(structure.weights) == weight_names
            assert query.bind(structure.domain[0]).value(sr) == \
                eval_expression(OUT_SUM, StructureModel(structure, 0), sr,
                                {"x": structure.domain[0]})

    def test_closed_query_close_is_harmless(self):
        structure = weighted_graph_structure(path_graph(4), seed=0)
        dynamic = point_reader(structure, EDGE_SUM, NATURAL, free=())
        assert dynamic.value() == eval_expression(
            EDGE_SUM, StructureModel(structure, 0), NATURAL)


class TestBatchModesBuildNoEvaluator:
    def test_batch_group_by_and_serve_build_no_evaluator(self, monkeypatch):
        """Only the modes that read a maintained value build one: a
        handle that ran ``batch``, ``group_by`` or a served query reads
        its plan and nothing else."""
        built = []
        init = evaluation.DynamicEvaluator.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(evaluation.DynamicEvaluator, "__init__", counted)
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=3)
        probes = [(v,) for v in structure.domain]
        # No result cache: the bind below must compute.
        with Database(structure, result_cache_size=0) as db:
            query = db.prepare(OUT_SUM, params=("x",))
            query.batch(probes, NATURAL)
            query.group_by(NATURAL)
            with db.serve(OUT_SUM, NATURAL) as service:
                service.query_batch(probes, 30)
                assert service.prepared.stats()["engines"] == []
            assert query.stats()["engines"] == []
            assert built == []
            query.bind(structure.domain[0]).value(NATURAL)
            assert query.stats()["engines"] == [NATURAL.name]
            assert len(built) == 1


class TestEngineTagging:
    def test_concurrent_construction_mints_unique_selectors(self):
        # Nothing is minted any more: 32 concurrent readers share ONE
        # structure (no copies), answer right, and leave it unmoved.
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=5)
        fingerprint = structure.fingerprint()
        model = StructureModel(structure, 0)
        expected = [eval_expression(OUT_SUM, model, NATURAL, {"x": v})
                    for v in structure.domain]

        def build(_):
            dynamic = point_reader(structure, OUT_SUM, NATURAL)
            return [dynamic.point((v,)) for v in structure.domain]

        with ThreadPoolExecutor(max_workers=8) as pool:
            answers = list(pool.map(build, range(32)))
        assert all(answer == expected for answer in answers)
        assert set(structure.weights) == {"w"}
        assert structure.fingerprint() == fingerprint


class TestArgumentValidation:
    """Outside input is validated explicitly, by the one normaliser
    (``repro.core.normalize_arguments``), before any selector is
    raised — never as a side effect of an internal name lookup."""

    MESSAGE = "'nope' is not in the structure's domain"

    def consumers(self, structure):
        """``(name, point query callable)`` for every point-read path."""
        db = Database(structure.copy())
        prepared = db.prepare(OUT_SUM, params=("x",))
        service = Database(structure.copy()).serve(OUT_SUM, NATURAL)
        return [
            ("batch", lambda *args: prepared.batch([args], NATURAL)[0]),
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
        with Database(structure, result_cache_size=0) as db:
            query = db.prepare(OUT_SUM, params=("x",))
            query.bind(structure.domain[0]).value(NATURAL)
            evaluator = query._dynamics[NATURAL].evaluator
            toggles = []
            update_input = evaluator.update_input
            evaluator.update_input = \
                lambda key, value: toggles.append(key) or \
                update_input(key, value)
            with pytest.raises(KeyError):
                query.bind("nope").value(NATURAL)
            assert toggles == []
            query.bind(structure.domain[0]).value(NATURAL)
            assert len(toggles) == 2  # one raise, one restore


#: An edge of the 3×3 grid: a weight tuple and a clique of its Gaifman
#: graph, so both writes below are maintained, not invalidations.
EDGE = ((0, 0), (0, 1))


class TestFailedWriteLeavesNoHandleAhead:
    """A write whose routing raises in one handle's maintained evaluator
    leaves the structure unwritten, and no later read of any handle the
    write reached — the failing one, or one that routed it cleanly
    before — answers from the write (it read 104 where the structure
    says 6 when the plans kept the recorded write)."""

    WRITES = {
        "weight": lambda tx: tx.set_weight("w", EDGE, 100),
        "relation": lambda tx: tx.set_relation("E", EDGE, False),
    }

    @pytest.mark.parametrize("handles", [1, 2])
    @pytest.mark.parametrize("write", sorted(WRITES))
    def test_reads_follow_the_unwritten_structure(self, write, handles):
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=4)
        fingerprint = structure.fingerprint()
        sr = FailingMulRing()
        domain = structure.domain
        with Database(structure, result_cache_size=0) as db:
            queries = [db.prepare(OUT_SUM, params=("x",), dynamic=("E",))
                       for _ in range(handles)]
            # Every handle but the last routes the write cleanly; the
            # last one's evaluator raises mid-propagation.
            for query in queries[:-1]:
                query.bind(EDGE[0]).value(NATURAL)
            queries[-1].bind(EDGE[0]).value(sr)
            sr.arm(1)
            with pytest.raises(ArithmeticError):
                with db.update() as tx:
                    self.WRITES[write](tx)
            assert structure.fingerprint() == fingerprint
            model = StructureModel(structure, 0)
            expected = [eval_expression(OUT_SUM, model, NATURAL, {"x": v})
                        for v in domain]
            for query in queries:
                assert [query.bind(v).value(NATURAL)
                        for v in domain] == expected
                assert [query.bind(v).value(sr) for v in domain] == expected
                assert query.batch([(v,) for v in domain],
                                   NATURAL) == expected
                table = query.group_by(None, NATURAL)
                assert [table[v] for v in domain] == expected
