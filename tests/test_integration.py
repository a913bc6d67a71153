"""Randomized cross-system integration battery.

Random sparse structures with unary/binary/ternary relations and weights,
random small queries — compiled circuits must agree with the naive oracle
in every semiring, and every front-end (point query, enumerator, FOG) must agree
with its own baseline.  These tests are the repository's strongest end-to-
end evidence.
"""

from __future__ import annotations

import random

import pytest

from repro.core import close_over, compile_structure_query
from repro.graphs import enumerate_cliques, sparse_binomial, triangulated_grid
from repro.logic import (Atom, Bracket, Eq, StructureModel, Sum, Weight,
                         eval_expression, eval_formula, neq)
from repro.semirings import INTEGER, MIN_PLUS, NATURAL, ModularRing
from repro.structures import Structure, graph_structure

from tests.util import enumerator_over


def rich_structure(seed: int, side: int = 3) -> Structure:
    """Sparse structure with E/2, R/1, T/3 and weights u/1, w/2, h/3."""
    graph = triangulated_grid(side, side)
    structure = graph_structure(graph)
    rng = random.Random(seed)
    for v in structure.domain:
        if rng.random() < 0.5:
            structure.add_tuple("R", (v,))
        structure.set_weight("u", (v,), rng.randint(0, 4))
    for edge in sorted(structure.relations["E"]):
        if rng.random() < 0.7:
            structure.set_weight("w", edge, rng.randint(1, 4))
    for clique in enumerate_cliques(graph, 3):
        if rng.random() < 0.6:
            structure.add_tuple("T", clique)
            structure.set_weight("h", clique, rng.randint(1, 3))
    return structure


E = lambda x, y: Atom("E", (x, y))
R = lambda x: Atom("R", (x,))
T = lambda x, y, z: Atom("T", (x, y, z))
u = lambda x: Weight("u", (x,))
w = lambda x, y: Weight("w", (x, y))
h = lambda x, y, z: Weight("h", (x, y, z))

QUERIES = {
    "hyperedge-weight": Sum(("x", "y", "z"), Bracket(T("x", "y", "z"))
                            * h("x", "y", "z")),
    "guarded-ternary": Sum(("x", "y", "z"),
                           Bracket(E("x", "y") & E("y", "z") & E("z", "x")
                                   & ~T("x", "y", "z")) * u("x")),
    "mixed-arity": Sum(("x", "y"), Bracket(E("x", "y") & R("x") & ~R("y"))
                       * w("x", "y") * u("y")),
    "eq-and-neg": Sum(("x", "y"),
                      Bracket((Eq("x", "y") & R("x"))
                              | (~E("x", "y") & neq("x", "y") & R("y")))
                      * u("x")),
    "two-blocks": Sum(("x", "y"), Bracket(E("x", "y")) * w("x", "y"))
                  + Sum("x", Bracket(R("x")) * u("x") * u("x")),
}

SEMIRINGS = [NATURAL, INTEGER, MIN_PLUS]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("query_name", sorted(QUERIES))
def test_pipeline_battery(seed, query_name):
    structure = rich_structure(seed)
    expr = QUERIES[query_name]
    compiled = compile_structure_query(structure, expr)
    for sr in SEMIRINGS:
        expected = eval_expression(expr, StructureModel(structure, sr.zero),
                                   sr)
        assert sr.eq(compiled.evaluate(sr), expected), (query_name, sr.name)


@pytest.mark.parametrize("seed", range(2))
def test_dynamic_battery_ternary_weights(seed):
    structure = rich_structure(seed)
    expr = QUERIES["hyperedge-weight"]
    compiled = compile_structure_query(structure, expr)
    dynamic = compiled.dynamic(INTEGER)
    rng = random.Random(seed + 50)
    triples = sorted(structure.weights["h"])
    for _ in range(10):
        triple = rng.choice(triples)
        dynamic.update_weight("h", triple, rng.randint(0, 9))
        expected = eval_expression(expr, StructureModel(structure, 0),
                                   INTEGER)
        assert dynamic.value() == expected


@pytest.mark.parametrize("seed", range(2))
def test_dynamic_ternary_relation_toggles(seed):
    structure = rich_structure(seed)
    expr = QUERIES["guarded-ternary"]
    compiled = compile_structure_query(structure, expr,
                                       dynamic_relations=("T",))
    dynamic = compiled.dynamic(NATURAL)
    graph = triangulated_grid(3, 3)
    cliques = list(enumerate_cliques(graph, 3))
    rng = random.Random(seed + 9)
    for _ in range(8):
        clique = rng.choice(cliques)
        dynamic.set_relation("T", clique, rng.random() < 0.5)
        expected = eval_expression(expr, StructureModel(structure, 0),
                                   NATURAL)
        assert dynamic.value() == expected


@pytest.mark.parametrize("seed", range(2))
def test_engine_battery(seed):
    structure = rich_structure(seed)
    expr = Sum("y", Bracket(E("x", "y") & R("y")) * w("x", "y"))
    dynamic = compile_structure_query(
        structure, close_over(expr, ("x",))).dynamic(INTEGER)
    model = StructureModel(structure, 0)
    for v in structure.domain[:5]:
        assert dynamic.point((v,)) == eval_expression(expr, model, INTEGER,
                                                      {"x": v})


@pytest.mark.parametrize("seed", range(2))
def test_enumeration_battery(seed):
    structure = rich_structure(seed)
    formula = E("x", "y") & R("x") & ~T("x", "y", "y")
    enumerator = enumerator_over(structure, formula, ("x", "y"))
    model = StructureModel(structure)
    expected = sorted(
        (a, b) for a in structure.domain for b in structure.domain
        if eval_formula(formula, model, {"x": a, "y": b}))
    answers = sorted(enumerator)
    assert answers == expected
    assert len(answers) == len(set(answers))
    assert enumerator.count() == len(expected)


def test_binomial_graph_workload():
    """Sparse random graphs (G(n, c/n)) through the whole pipeline."""
    graph = sparse_binomial(40, 1.8, seed=3)
    structure = graph_structure(graph)
    rng = random.Random(1)
    for edge in sorted(structure.relations["E"]):
        structure.set_weight("w", edge, rng.randint(1, 5))
    expr = Sum(("x", "y"), Bracket(E("x", "y")) * w("x", "y"))
    compiled = compile_structure_query(structure, expr)
    for sr in (NATURAL, MIN_PLUS):
        expected = eval_expression(expr, StructureModel(structure, sr.zero),
                                   sr)
        assert sr.eq(compiled.evaluate(sr), expected)


def test_finite_ring_strategy_through_pipeline():
    """Z_m exercises the finite + ring dispatch inside circuit evaluation."""
    structure = rich_structure(1)
    sr = ModularRing(7)
    conv = {tup: value % 7 for tup, value in structure.weights["w"].items()}
    for tup, value in conv.items():
        structure.set_weight("w", tup, value)
    expr = QUERIES["mixed-arity"]
    compiled = compile_structure_query(structure, expr)
    for strategy in (None, "segment-tree", "recompute"):
        dynamic = compiled.dynamic(sr, strategy=strategy)
        expected = eval_expression(expr, StructureModel(structure, 0), sr)
        assert dynamic.value() == expected
