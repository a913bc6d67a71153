"""FOG[C] nested weighted queries (Theorem 26)."""

from __future__ import annotations

import random

import pytest

from repro.fog import (SAtom, SConst, SEq, SIverson, SMul, SNot,
                       divide, divide_into_max_plus, eval_fog_naive,
                       evaluate_fog, greater_than, guarded, less_than,
                       modulo_test, s_exists, s_sum, to_formula, to_wexpr)
from repro.graphs import path_graph, star_graph, triangulated_grid
from repro.semirings import (BOOLEAN, INTEGER, MAX_PLUS, NATURAL, RATIONAL)
from repro.structures import graph_structure

E = lambda x, y: SAtom("E", (x, y))


def weighted_structure(graph, seed=0, hi=9):
    structure = graph_structure(graph)
    rng = random.Random(seed)
    for v in structure.domain:
        structure.add_tuple("V", (v,))
        structure.set_weight("wN", (v,), rng.randint(0, hi))
    return structure


def wN(var):
    return SAtom("wN", (var,), NATURAL)


class TestSyntaxTyping:
    def test_mixed_semirings_rejected(self):
        with pytest.raises(TypeError):
            SMul((E("x", "y"), wN("x")))

    def test_negation_boolean_only(self):
        with pytest.raises(TypeError):
            SNot(wN("x"))

    def test_iverson_requires_boolean(self):
        with pytest.raises(TypeError):
            SIverson(wN("x"), NATURAL)
        bracket = SIverson(E("x", "y"), NATURAL)
        assert bracket.semiring is NATURAL

    def test_guard_must_cover_free_vars(self):
        with pytest.raises(TypeError):
            guarded("V", ("x",), greater_than(NATURAL), wN("x"), wN("y"))

    def test_connective_arity_and_types(self):
        with pytest.raises(TypeError):
            guarded("V", ("x",), greater_than(NATURAL), wN("x"))
        with pytest.raises(TypeError):
            guarded("V", ("x",), greater_than(RATIONAL), wN("x"), wN("x"))

    def test_output_semiring_propagates(self):
        expr = s_sum("x", SIverson(E("x", "y"), NATURAL))
        assert expr.semiring is NATURAL
        assert s_exists("y", E("x", "y")).semiring is BOOLEAN


class TestConversion:
    def test_to_formula_roundtrip(self):
        expr = s_exists("y", E("x", "y") & ~SEq("x", "y"))
        structure = graph_structure(path_graph(3))
        formula = to_formula(expr, structure)
        assert formula.free_vars() == {"x"}

    def test_to_wexpr_counts(self):
        structure = graph_structure(path_graph(4))
        expr = s_sum(("x", "y"), SIverson(E("x", "y"), NATURAL))
        from repro.core import compile_structure_query
        plan = compile_structure_query(structure, to_wexpr(expr, structure))
        assert plan.dynamic(NATURAL).value() == len(structure.relations["E"])

    def test_negation_above_quantifier_rejected(self):
        structure = graph_structure(path_graph(3))
        expr = SNot(s_exists("y", E("x", "y")))
        with pytest.raises(ValueError):
            to_wexpr(expr, structure)


class TestIntroExamples:
    def test_max_average_neighbor_weight(self):
        """max_x (Σ_y [E(x,y)]·w(y)) / (Σ_y [E(x,y)]) — intro, example 1."""
        structure = weighted_structure(triangulated_grid(3, 3), seed=1)
        reference = structure.copy()
        query = s_sum("x", guarded(
            "V", ("x",), divide_into_max_plus(NATURAL),
            s_sum("y", SIverson(E("x", "y"), NATURAL) * wN("y")),
            s_sum("y", SIverson(E("x", "y"), NATURAL))))
        expected = eval_fog_naive(query, reference)
        assert MAX_PLUS.eq(evaluate_fog(structure, query).value(), expected)

    def test_heavy_neighbor_boolean_query(self):
        """∃y E(x,y) ∧ (w(y) > Σ_z [E(y,z)]·w(z)) — intro, example 2."""
        structure = weighted_structure(triangulated_grid(3, 3), seed=5)
        reference = structure.copy()
        heavy = guarded("V", ("y",), greater_than(NATURAL), wN("y"),
                        s_sum("z", SIverson(E("y", "z"), NATURAL) * wN("z")))
        query = s_exists("y", E("x", "y") & heavy)
        result = evaluate_fog(structure, query)
        for v in structure.domain:
            assert result.query(v) == eval_fog_naive(query, reference,
                                                     {"x": v})

    def test_average_weight_rational(self):
        structure = weighted_structure(star_graph(7), seed=2)
        reference = structure.copy()
        query = s_sum("x", guarded(
            "V", ("x",), divide(NATURAL, RATIONAL),
            s_sum("y", SIverson(E("x", "y"), NATURAL) * wN("y")),
            s_sum("y", SIverson(E("x", "y"), NATURAL))))
        assert evaluate_fog(structure, query).value() == \
            eval_fog_naive(query, reference)


class TestFOCStyle:
    def test_threshold_counting(self):
        """FOC1-style: vertices with at least 3 neighbors."""
        from repro.fog import at_least
        structure = weighted_structure(triangulated_grid(3, 3), seed=0)
        reference = structure.copy()
        degree = s_sum("y", SIverson(E("x", "y"), NATURAL))
        popular = guarded("V", ("x",), at_least(3, NATURAL), degree)
        result = evaluate_fog(structure, popular)
        for v in structure.domain:
            assert result.query(v) == eval_fog_naive(popular, reference,
                                                     {"x": v})

    def test_mod_quantifier(self):
        """FO+MOD-style: even degree test (Berkholz et al. [3])."""
        structure = weighted_structure(path_graph(7), seed=0)
        reference = structure.copy()
        degree = s_sum("y", SIverson(E("x", "y"), INTEGER))
        even = guarded("V", ("x",), modulo_test(2, 0, INTEGER), degree)
        result = evaluate_fog(structure, even)
        for v in structure.domain:
            assert result.query(v) == eval_fog_naive(even, reference,
                                                     {"x": v})

    def test_nested_guarded_connectives(self):
        """Connective output feeding another connective (induction depth 2)."""
        structure = weighted_structure(triangulated_grid(3, 3), seed=7)
        reference = structure.copy()
        degree = s_sum("y", SIverson(E("x", "y"), NATURAL))
        heavy = guarded("V", ("x",), greater_than(NATURAL), wN("x"), degree)
        # count of heavy neighbors, compared with 1
        heavy_subst = guarded("V", ("y",), greater_than(NATURAL), wN("y"),
                              s_sum("z", SIverson(E("y", "z"), NATURAL)))
        count_heavy = s_sum("y", SIverson(E("x", "y") & heavy_subst,
                                          NATURAL))
        lonely = guarded("V", ("x",), less_than(NATURAL), count_heavy,
                         SConst(2, NATURAL))
        result = evaluate_fog(structure, lonely)
        for v in structure.domain[:6]:
            assert result.query(v) == eval_fog_naive(lonely, reference,
                                                     {"x": v})


class TestEnumerationBridge:
    def test_boolean_output_enumerates(self):
        structure = weighted_structure(triangulated_grid(3, 3), seed=3)
        reference = structure.copy()
        heavy = guarded("V", ("y",), greater_than(NATURAL), wN("y"),
                        s_sum("z", SIverson(E("y", "z"), NATURAL) * wN("z")))
        query = E("x", "y") & heavy
        result = evaluate_fog(structure, query)
        answers = sorted(result.enumerate())
        expected = sorted(
            (a, b) for a in reference.domain for b in reference.domain
            if eval_fog_naive(query, reference, {"x": a, "y": b}))
        assert answers == expected
