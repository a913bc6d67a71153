"""ABL-2: color-decomposition overhead on already-shallow inputs."""

import pytest

from repro.circuits import StaticEvaluator, valuation_from_dict
# compile_structure_query: this bench ablates the compiler stages
# themselves, below the repro.api facade seam.
from repro.core import compile_forest_query
from repro.core import compile_structure_query
from repro.logic import Atom, Bracket, Sum, Weight, neq, normalize
from repro.logic.fo import FuncAtom
from repro.semirings import NATURAL
from repro.structures import Structure

from common import report, timed
from tests_shim import random_labeled_forest


def forest_as_structure(forest):
    """View a labeled forest as a relational structure with a parent edge."""
    structure = Structure(forest.nodes())
    for node, par in forest.parent.items():
        if par is not None:
            structure.add_tuple("P", (node, par))
    for name, mapping in forest.weights.items():
        for node, value in mapping.items():
            structure.set_weight(name, (node,), value)
    return structure


# neq excludes the saturating parent(root) = root pairs so both encodings
# agree on proper parent edges.
FOREST_EXPR = Sum(("x", "y"),
                  Bracket(FuncAtom(("parent", 1), "x", "y") & neq("x", "y"))
                  * Weight("w", ("x",)) * Weight("u", ("y",)))
STRUCT_EXPR = Sum(("x", "y"), Bracket(Atom("P", ("x", "y")))
                  * Weight("w", ("x",)) * Weight("u", ("y",)))


@pytest.mark.parametrize("mode", ["direct-forest", "full-pipeline"])
def test_ablation(benchmark, mode):
    forest = random_labeled_forest(120, 3, seed=1)
    if mode == "direct-forest":
        benchmark.pedantic(
            lambda: compile_forest_query(forest, normalize(FOREST_EXPR)),
            rounds=1, iterations=1)
    else:
        structure = forest_as_structure(forest)
        benchmark.pedantic(
            lambda: compile_structure_query(structure, STRUCT_EXPR),
            rounds=1, iterations=1)


def test_ablation_table(capsys):
    rows = []
    for n in (60, 120, 240):
        forest = random_labeled_forest(n, 3, seed=2)
        circuit, direct = timed(compile_forest_query, forest,
                                normalize(FOREST_EXPR))
        values = {("w", name, (node,)): val
                  for name, mp in forest.weights.items()
                  for node, val in mp.items()}
        direct_value = StaticEvaluator(
            circuit, NATURAL, valuation_from_dict(values, 0)).value()
        structure = forest_as_structure(forest)
        compiled, full = timed(compile_structure_query, structure,
                               STRUCT_EXPR)
        assert compiled.evaluate(NATURAL) == direct_value
        rows.append([n, round(direct, 3), round(full, 3)])
    with capsys.disabled():
        report("ABL-2: direct forest compile vs full pipeline (s)",
               ["n", "direct", "pipeline"], rows)
