"""Quantifier elimination layer (the Theorem 3 substitution)."""

from __future__ import annotations

import itertools

import pytest

from repro.graphs import path_graph, star_graph, triangulated_grid
from repro.logic import (Atom, StructureModel, eval_formula, exists, forall,
                         is_quantifier_free, neq)
from repro.qe import eliminate_quantifiers, existential_sentence_value
from repro.structures import graph_structure

from tests.util import enumerator_over

E = lambda x, y: Atom("E", (x, y))


def check_equivalent(structure, original, rewritten, variables, sample=5):
    reference = StructureModel(structure)
    for tup in itertools.product(structure.domain[:sample],
                                 repeat=len(variables)):
        env = dict(zip(variables, tup))
        assert eval_formula(rewritten, reference, env) == \
            eval_formula(original, reference, env), env


FORMULAS = [
    ("inner-exists", exists("y", E("x", "y")), False),
    ("exists-conj", exists("y", E("x", "y") & neq("x", "y")), False),
    ("forall", forall("y", ~E("x", "y") | E("y", "x")), True),
    ("nested", exists("y", E("x", "y") &
                      exists("z", E("y", "z") & neq("z", "x"))), True),
    ("alternation", forall("y", ~E("x", "y") |
                           exists("z", E("y", "z") & E("z", "x"))), True),
]


@pytest.mark.parametrize("name,formula,densify", FORMULAS,
                         ids=[n for n, _, _ in FORMULAS])
def test_elimination_preserves_semantics(name, formula, densify):
    structure = graph_structure(triangulated_grid(3, 3))
    reference = structure.copy()
    rewritten = eliminate_quantifiers(structure, formula,
                                      allow_densify=densify)
    assert is_quantifier_free(rewritten)
    reference_model = StructureModel(reference)
    model = StructureModel(structure)
    for v in structure.domain:
        assert eval_formula(rewritten, model, {"x": v}) == \
            eval_formula(formula, reference_model, {"x": v})


def test_unary_materialization_preserves_gaifman():
    structure = graph_structure(path_graph(6))
    before = structure.gaifman().edge_count()
    eliminate_quantifiers(structure, exists("y", E("x", "y")))
    assert structure.gaifman().edge_count() == before


def test_binary_materialization_guarded():
    structure = graph_structure(path_graph(6))
    distant = exists("z", E("x", "z") & E("z", "y") & neq("x", "y"))
    with pytest.raises(ValueError):
        eliminate_quantifiers(structure, distant)
    rewritten = eliminate_quantifiers(structure.copy() if False else
                                      graph_structure(path_graph(6)),
                                      distant, allow_densify=True)
    assert is_quantifier_free(rewritten)


def test_sentence_folds_to_constant():
    structure = graph_structure(triangulated_grid(2, 3))
    sentence = exists(("x", "y"), E("x", "y"))
    rewritten = eliminate_quantifiers(structure, sentence)
    assert rewritten.free_vars() == frozenset()
    assert eval_formula(rewritten, StructureModel(structure))


def test_existential_sentence_via_boolean_summation():
    with_triangles = graph_structure(triangulated_grid(3, 3))
    without = graph_structure(path_graph(8))
    triangle = E("x", "y") & E("y", "z") & E("z", "x")
    assert existential_sentence_value(with_triangles, ("x", "y", "z"),
                                      triangle)
    assert not existential_sentence_value(without, ("x", "y", "z"), triangle)
    with pytest.raises(ValueError):
        existential_sentence_value(without, ("x",), exists("y", E("x", "y")))
    with pytest.raises(ValueError):
        existential_sentence_value(without, ("x",), E("x", "y"))


def test_qe_feeds_enumeration():
    """The Theorem 24 workflow for a quantified query: eliminate, then
    enumerate the quantifier-free rewriting."""
    structure = graph_structure(star_graph(8))
    has_neighbor = exists("y", E("x", "y") & neq("x", "y"))
    reference = structure.copy()
    rewritten = eliminate_quantifiers(structure, has_neighbor)
    answers = sorted(a for (a,) in enumerator_over(structure, rewritten,
                                                   ("x",)))
    expected = sorted(v for v in reference.domain
                      if eval_formula(has_neighbor, StructureModel(reference),
                                      {"x": v}))
    assert answers == expected
