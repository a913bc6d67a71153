"""End-to-end Theorem 6/8 pipeline: correctness against the naive oracle."""

from __future__ import annotations

import random

import pytest

from repro.api import Database
from repro.core import (close_over, compile_structure_query,
                        forest_from_structure, plan_cache_key)
from repro.core.closure import relation_key, weight_key
from repro.graphs import (cycle_graph, path_graph, random_tree, star_graph,
                          triangulated_grid)
from repro.logic import (Atom, Bracket, Eq, FuncAtom, LabelAtom,
                         StructureModel, Sum, WConst, Weight, eval_expression,
                         neq)
from repro.semirings import BOOLEAN, INTEGER, MIN_PLUS, NATURAL
from repro.serve import PlanCache
from repro.structures import graph_structure

from tests.util import name_clash_structure, weighted_graph_structure

E = lambda x, y: Atom("E", (x, y))
w = lambda x, y: Weight("w", (x, y))

TRIANGLE = Sum(("x", "y", "z"),
               Bracket(E("x", "y") & E("y", "z") & E("z", "x"))
               * w("x", "y") * w("y", "z") * w("z", "x"))
TRIANGLE_COUNT = Sum(("x", "y", "z"),
                     Bracket(E("x", "y") & E("y", "z") & E("z", "x")))
PATH2 = Sum(("x", "y", "z"),
            Bracket(E("x", "y") & E("y", "z") & neq("x", "z"))
            * w("x", "y") * w("y", "z"))
EDGE_SUM = Sum(("x", "y"), Bracket(E("x", "y")) * w("x", "y"))
NON_EDGES = Sum(("x", "y"), Bracket(~E("x", "y") & ~Eq("x", "y")))

GRAPH_CASES = {
    "tri3x3": triangulated_grid(3, 3),
    "path8": path_graph(8),
    "cycle7": cycle_graph(7),
    "star8": star_graph(8),
    "tree12": random_tree(12, seed=6),
}


@pytest.mark.parametrize("graph_name", list(GRAPH_CASES))
@pytest.mark.parametrize("expr_name,expr", [
    ("triangle", TRIANGLE), ("path2", PATH2), ("edges", EDGE_SUM)])
def test_weighted_queries_match_naive(graph_name, expr_name, expr):
    structure = weighted_graph_structure(GRAPH_CASES[graph_name], seed=3)
    compiled = compile_structure_query(structure, expr)
    for sr in (NATURAL, INTEGER, MIN_PLUS):
        expected = eval_expression(expr, StructureModel(structure, sr.zero),
                                   sr)
        assert sr.eq(compiled.evaluate(sr), expected), (graph_name,
                                                        expr_name, sr.name)


@pytest.mark.parametrize("graph_name", ["tri3x3", "path8", "star8"])
def test_counting_and_boolean(graph_name):
    structure = graph_structure(GRAPH_CASES[graph_name])
    compiled = compile_structure_query(structure, TRIANGLE_COUNT)
    expected = eval_expression(TRIANGLE_COUNT,
                               StructureModel(structure, 0), NATURAL)
    assert compiled.evaluate(NATURAL) == expected
    assert compiled.evaluate(BOOLEAN) == (expected > 0)


def test_negated_relation_query():
    structure = graph_structure(path_graph(6))
    compiled = compile_structure_query(structure, NON_EDGES)
    expected = eval_expression(NON_EDGES, StructureModel(structure, 0),
                               NATURAL)
    assert compiled.evaluate(NATURAL) == expected


def test_exactness_for_any_coloring():
    """Lemma 35's decomposition is exact even for an adversarial coloring."""
    structure = weighted_graph_structure(triangulated_grid(3, 3), seed=1)
    rng = random.Random(0)
    bad_coloring = {v: rng.randrange(3) for v in structure.domain}
    compiled = compile_structure_query(structure, TRIANGLE,
                                       coloring=bad_coloring)
    expected = eval_expression(TRIANGLE, StructureModel(structure, 0),
                               NATURAL)
    assert compiled.evaluate(NATURAL) == expected


def test_dynamic_weight_updates():
    structure = weighted_graph_structure(triangulated_grid(3, 3), seed=2)
    compiled = compile_structure_query(structure, TRIANGLE)
    dynamic = compiled.dynamic(INTEGER)
    rng = random.Random(7)
    edges = sorted(structure.relations["E"])
    for _ in range(15):
        edge = rng.choice(edges)
        value = rng.randint(0, 5)
        dynamic.update_weight("w", edge, value)
        expected = eval_expression(TRIANGLE, StructureModel(structure, 0),
                                   INTEGER)
        assert dynamic.value() == expected


def test_dynamic_updates_reject_undeclared_tuples():
    structure = weighted_graph_structure(path_graph(5), seed=0)
    compiled = compile_structure_query(structure, EDGE_SUM)
    dynamic = compiled.dynamic(INTEGER)
    with pytest.raises(KeyError):
        dynamic.update_weight("w", (0, 4), 3)


def test_dynamic_relation_updates_value():
    structure = graph_structure(triangulated_grid(3, 3))
    for v in structure.domain:
        structure.add_tuple("S", (v,))
    expr = Sum(("x", "y"),
               Bracket(E("x", "y") & Atom("S", ("x",)) & ~Atom("S", ("y",))))
    compiled = compile_structure_query(structure, expr,
                                       dynamic_relations=("S",))
    dynamic = compiled.dynamic(NATURAL)
    rng = random.Random(3)
    for _ in range(12):
        v = rng.choice(structure.domain)
        dynamic.set_relation("S", (v,), rng.random() < 0.5)
        expected = eval_expression(expr, StructureModel(structure, 0),
                                   NATURAL)
        assert dynamic.value() == expected


def test_write_records_and_the_routed_write_moves_the_structure():
    """``CompiledQuery.write`` turns a fact write into the input changes
    it records in the plan — a weight's one input, a toggle's two
    polarities, nothing for a tuple the plan never read — and refuses a
    toggle outside Theorem 24's model whole; the one structure write is
    the caller's — ``db.update()`` for a handle."""
    expr = Sum(("x", "y"), Bracket(E("x", "y") & Atom("S", ("x",))
                                   & ~Atom("S", ("y",))) * w("x", "y"))

    def marked():
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=1)
        for v in structure.domain:
            structure.add_tuple("S", (v,))
        return structure

    structure = marked()
    compiled = compile_structure_query(structure, expr,
                                       dynamic_relations=("S", "E"))
    target = (structure.domain[4],)
    edge = sorted(structure.weights["w"])[0]
    far = next((a, b) for a in structure.domain for b in structure.domain
               if a != b and not structure.gaifman().has_edge(a, b))
    before = structure.fingerprint()
    value = structure.weights["w"][edge] + 1
    assert compiled.write("w", "w", edge, value) == [
        (weight_key("w", edge), "w", value)]
    assert compiled.write("r", "S", target, False) == [
        (relation_key("S", target, True), "b", False),
        (relation_key("S", target, False), "b", True)]
    recorded = dict(compiled.recorded)
    with pytest.raises(ValueError, match="not a clique"):
        compiled.write("r", "E", far, True)
    assert compiled.write("w", "w", far, 5) == []
    assert compiled.write("w", "w", edge, value) == []  # unchanged
    assert compiled.recorded == recorded
    assert structure.fingerprint() == before
    assert structure.has_tuple("S", target)

    db = Database(marked())
    handle = db.prepare(expr, dynamic=("S",))
    handle.value(NATURAL)
    before = db.structure.fingerprint()
    with db.update() as tx:
        assert tx.set_relation("S", target, False) > 0
    assert db.structure.fingerprint() != before
    assert not db.structure.has_tuple("S", target)
    assert handle.value(NATURAL) == eval_expression(
        expr, StructureModel(db.structure, 0), NATURAL)


#: Forest vocabulary inside structure queries: a parent atom, a color
#: label of the internal coloring, and a function atom.
FOREST_ATOM_QUERIES = {
    "parent": Sum(("x", "y"), Bracket(FuncAtom(("parent", 1), "x", "y"))),
    "color-label": Sum(("x",), Bracket(LabelAtom(("color", 0), "x"))),
    "function": Sum(("x", "y"), Bracket(FuncAtom("f", "x", "y"))),
}


@pytest.mark.parametrize("expr", list(FOREST_ATOM_QUERIES.values()),
                         ids=list(FOREST_ATOM_QUERIES))
def test_structure_queries_refuse_forest_atoms(expr):
    """Label and parent atoms read the compiler's own colorings and
    forests, not the structure: every compile path refuses them, as the
    naive oracle does — even when a warm plan sits under their key."""
    structure = graph_structure(triangulated_grid(4, 4))
    with pytest.raises(TypeError):
        eval_expression(expr, StructureModel(structure, 0), NATURAL)
    with pytest.raises(TypeError, match="forest atom"):
        Database(structure).prepare(expr).value(NATURAL)
    with pytest.raises(TypeError, match="forest atom"):
        compile_structure_query(structure, expr)
    cache = PlanCache()
    cache.store(plan_cache_key(structure, expr),
                compile_structure_query(structure, TRIANGLE_COUNT))
    with pytest.raises(TypeError, match="forest atom"):
        compile_structure_query(structure, expr, plan_cache=cache)
    with pytest.raises(TypeError, match="forest atom"):
        Database(structure, plan_cache=cache).prepare(expr).value(NATURAL)


def test_stats_report_theorem6_quantities(small_grid_structure):
    compiled = compile_structure_query(small_grid_structure, TRIANGLE)
    stats = compiled.stats()
    assert stats["gates"] > 0
    assert stats["max_perm_rows"] <= 3
    assert stats["colors"] >= 1 and stats["color_subsets"] >= 1
    assert stats["depth"] <= 2 * stats["max_forest_height"] + 4


def test_compile_stages_contract(small_grid_structure, tmp_path):
    """perfbench turns every key of ``compile_stages`` into a
    ``core.<stage>_s`` metric: a fresh compile reports exactly these
    stages (the per-compile shape table accrues to ``forest_compiler``,
    the color bucketing to ``forests``), a store-loaded plan none."""
    from repro.serve import PlanStore
    store = PlanStore(tmp_path)
    compiled = compile_structure_query(small_grid_structure, TRIANGLE,
                                       plan_store=store)
    stages = compiled.stats()["compile_stages"]
    expected = {"normalize", "coloring", "forests", "forest_compiler",
                "optimize", "schedule"}
    assert set(stages) == expected
    assert all(seconds >= 0.0 for seconds in stages.values())
    loaded = compile_structure_query(small_grid_structure, TRIANGLE,
                                     plan_store=PlanStore(tmp_path))
    assert loaded.circuit.gates == compiled.circuit.gates
    assert loaded.stats().get("compile_stages", {}) == {}


def test_forest_from_structure_chain_encoding():
    structure = weighted_graph_structure(triangulated_grid(3, 3), seed=5)
    forest = forest_from_structure(structure)
    # Every stored edge decodes back from its reltup label.
    count = 0
    for key, nodes in forest.labels.items():
        if isinstance(key, tuple) and key[0] == "reltup":
            _, name, depths = key
            for node in nodes:
                tup = tuple(forest.ancestor(node, d) for d in depths)
                assert structure.has_tuple(name, tup)
                count += 1
    assert count == len(structure.relations["E"])


def test_unary_relations_and_weights():
    structure = graph_structure(path_graph(6))
    rng = random.Random(1)
    for v in structure.domain:
        if rng.random() < 0.5:
            structure.add_tuple("R", (v,))
        structure.set_weight("u", (v,), rng.randint(0, 3))
    expr = Sum("x", Bracket(Atom("R", ("x",))) * Weight("u", ("x",)))
    compiled = compile_structure_query(structure, expr)
    expected = eval_expression(expr, StructureModel(structure, 0), NATURAL)
    assert compiled.evaluate(NATURAL) == expected


def test_empty_structure():
    structure = graph_structure(path_graph(0))
    compiled = compile_structure_query(structure, EDGE_SUM + WConst(2))
    assert compiled.evaluate(NATURAL) == 2


def point_reader(structure, expr, sr, free=None):
    """The plan of ``expr``'s Theorem 8 closed form over ``free`` and
    its maintained evaluator in ``sr``."""
    free = tuple(sorted(expr.free_vars()) if free is None else free)
    plan = compile_structure_query(structure, close_over(expr, free))
    return plan, plan.dynamic(sr)


def point_batch(plan, sr, probes):
    """``[f(a) for a in probes]`` as one batch of selector columns."""
    return plan.evaluate_selected(sr, probes)


class TestEngine:
    def test_free_variable_queries(self):
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=4)
        expr = Sum("y", Bracket(E("x", "y")) * w("x", "y"))
        _, dynamic = point_reader(structure, expr, INTEGER)
        model = StructureModel(structure, 0)
        for v in structure.domain[:6]:
            expected = eval_expression(expr, model, INTEGER, {"x": v})
            assert dynamic.point((v,)) == expected

    def test_query_then_update_then_query(self):
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=4)
        expr = Sum("y", Bracket(E("x", "y")) * w("x", "y"))
        _, dynamic = point_reader(structure, expr, INTEGER)
        v = structure.domain[0]
        before = dynamic.point((v,))
        edge = next(iter(e for e in structure.relations["E"] if e[0] == v))
        dynamic.update_weight("w", edge, structure.weight("w", edge) + 10)
        assert dynamic.point((v,)) == before + 10

    def test_minplus_queries_need_log_strategy(self):
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=9)
        expr = Sum(("y", "z"),
                   Bracket(E("x", "y") & E("y", "z") & E("z", "x"))
                   * w("x", "y") * w("y", "z") * w("z", "x"))
        _, dynamic = point_reader(structure, expr, MIN_PLUS)
        model = StructureModel(structure, MIN_PLUS.zero)
        for v in structure.domain[:4]:
            expected = eval_expression(expr, model, MIN_PLUS, {"x": v})
            assert MIN_PLUS.eq(dynamic.point((v,)), expected)

    def test_two_free_variables(self):
        structure = weighted_graph_structure(path_graph(6), seed=2)
        expr = Bracket(E("x", "y")) * w("x", "y")
        _, dynamic = point_reader(structure, expr, INTEGER, ("x", "y"))
        model = StructureModel(structure, 0)
        for a in structure.domain[:3]:
            for b in structure.domain[:3]:
                expected = eval_expression(expr, model, INTEGER,
                                           {"x": a, "y": b})
                assert dynamic.point((a, b)) == expected

    def test_closed_value_and_errors(self):
        structure = weighted_graph_structure(path_graph(4), seed=0)
        _, dynamic = point_reader(structure, EDGE_SUM, NATURAL)
        assert dynamic.value() == eval_expression(
            EDGE_SUM, StructureModel(structure, 0), NATURAL)
        with Database(structure) as db:
            prepared = db.prepare(Sum("y", Bracket(E("x", "y"))))
            with pytest.raises(ValueError):
                prepared.value(NATURAL)
            with pytest.raises(ValueError):
                prepared.batch([()], NATURAL)

    def test_query_batch_matches_pointwise(self):
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=4)
        expr = Sum("y", Bracket(E("x", "y")) * w("x", "y"))
        plan, dynamic = point_reader(structure, expr, INTEGER)
        probes = structure.domain[:6]
        batched = point_batch(plan, INTEGER, [(v,) for v in probes])
        assert batched == [dynamic.point((v,)) for v in probes]
        # A weight update must be visible to subsequent batches.
        edge = next(iter(structure.relations["E"]))
        dynamic.update_weight("w", edge, structure.weight("w", edge) + 10)
        assert point_batch(plan, INTEGER, [(v,) for v in probes]) \
            == [dynamic.point((v,)) for v in probes]

    def test_batch_reads_a_mapping_item_as_its_arguments(self):
        # A {var: element} item is the mapping form, never the tuple of
        # its keys: here that tuple is the element "x" (a wrong answer),
        # and with another parameter name no element at all.
        expr = Sum("y", Bracket(E("x", "y")) * w("x", "y"))
        renamed = Sum("z", Bracket(E("v", "z")) * w("v", "z"))
        with Database(name_clash_structure()) as db:
            query = db.prepare(expr, params=("x",))
            assert query.batch([{"x": "b"}, ("x",), {"x": "y"}],
                               NATURAL) == [7, 1, 5]
            assert query.bind(x="b").value(NATURAL) == 7
            other = db.prepare(renamed, params=("v",))
            assert other.batch([{"v": "b"}], NATURAL) == [7]
            with pytest.raises(KeyError):
                query.batch([{"x": "nowhere"}], NATURAL)
            with pytest.raises(KeyError):
                query.batch([{"v": "b"}], NATURAL)

    def test_query_batch_arity_checked(self):
        structure = weighted_graph_structure(path_graph(4), seed=0)
        with Database(structure) as db:
            prepared = db.prepare(Sum("y", Bracket(E("x", "y"))))
            with pytest.raises(ValueError):
                prepared.batch([(structure.domain[0], structure.domain[1])],
                               NATURAL)


class TestOptimizedPipeline:
    @pytest.mark.parametrize("graph_name", ["tri3x3", "cycle7", "tree12"])
    @pytest.mark.parametrize("expr_name,expr", [
        ("triangle", TRIANGLE), ("path2", PATH2), ("edges", EDGE_SUM)])
    def test_optimize_flag_preserves_values(self, graph_name, expr_name,
                                            expr):
        structure = weighted_graph_structure(GRAPH_CASES[graph_name], seed=3)
        raw = compile_structure_query(structure, expr, optimize=False)
        opt = compile_structure_query(structure, expr, optimize=True)
        assert opt.stats()["size"] <= raw.stats()["size"]
        for sr in (NATURAL, INTEGER, MIN_PLUS, BOOLEAN):
            assert sr.eq(opt.evaluate(sr), raw.evaluate(sr)), \
                (graph_name, expr_name, sr.name)

    def test_dynamic_updates_on_optimized_circuit(self):
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=7)
        compiled = compile_structure_query(structure, TRIANGLE,
                                           optimize=True)
        dynamic = compiled.dynamic(NATURAL)
        rng = random.Random(11)
        edges = sorted(structure.relations["E"])
        for _ in range(8):
            edge = rng.choice(edges)
            dynamic.update_weight("w", edge, rng.randint(0, 9))
            expected = eval_expression(
                TRIANGLE, StructureModel(structure, 0), NATURAL)
            assert dynamic.value() == expected

    def test_evaluate_batch_weight_overrides(self):
        structure = weighted_graph_structure(triangulated_grid(3, 3), seed=7)
        compiled = compile_structure_query(structure, TRIANGLE)
        edges = sorted(structure.relations["E"])[:4]
        valuations = [{}] + [{("w", "w", edge): 0} for edge in edges]
        batched = compiled.evaluate_batch(NATURAL, valuations)
        assert batched[0] == compiled.evaluate(NATURAL)
        for edge, value in zip(edges, batched[1:]):
            old = structure.weight("w", edge)
            structure.set_weight("w", edge, 0)
            expected = eval_expression(
                TRIANGLE, StructureModel(structure, 0), NATURAL)
            structure.set_weight("w", edge, old)
            assert value == expected
