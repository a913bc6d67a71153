"""Quantifier elimination layer (the substitute for Theorem 3).

The paper imports quantifier elimination for bounded-expansion classes from
Dvořák–Král–Thomas [7].  This module provides the documented substitute:

* :func:`eliminate_quantifiers` rewrites a formula innermost-first,
  *materializing* each quantified subformula as a fresh relation of the
  structure.  Subformulas with at most one free variable become unary
  predicates — this is Gaifman-preserving and covers the FOC1-style uses
  (Grohe–Schweikardt [12]); the preprocessing is polynomial rather than
  linear, which is the substitution's honesty price.
* Subformulas with ≥ 2 free variables may materialize non-clique tuples,
  which would densify the Gaifman graph; that requires an explicit
  ``allow_densify=True`` opt-in (and is outside the paper's linear-time
  guarantee), except when every answer happens to be a Gaifman clique.
* Existential *sentences* need no elimination at all: summation in B
  introduces existential quantifiers (paper §8), see
  :func:`existential_sentence_value`.
"""

from __future__ import annotations

import itertools
from typing import List, Tuple

from ..logic.fo import (And, Atom, Eq, Exists, Forall, Formula, LabelAtom,
                        Not, Or, Truth, conj, disj, exists,
                        is_quantifier_free, negate)
from ..logic.naive import StructureModel, eval_formula
from ..logic.weighted import Bracket, Sum
from ..semirings import BOOLEAN
from ..structures import Structure

_FRESH = itertools.count()


def eliminate_quantifiers(structure: Structure, formula: Formula,
                          allow_densify: bool = False) -> Formula:
    """Return a quantifier-free formula equivalent to ``formula`` over the
    (extended) ``structure``; fresh relations are added in place.

    Elimination proceeds innermost-first, so arbitrarily nested
    quantification (including alternation) is supported; each elimination
    costs ``O(n^(free+bound))`` by naive evaluation — the documented
    substitution for [7]'s linear-time procedure.
    """
    if isinstance(formula, (Atom, Eq, Truth, LabelAtom)):
        return formula
    if isinstance(formula, Not):
        return negate(eliminate_quantifiers(structure, formula.inner,
                                            allow_densify))
    if isinstance(formula, And):
        return conj(*(eliminate_quantifiers(structure, p, allow_densify)
                      for p in formula.parts))
    if isinstance(formula, Or):
        return disj(*(eliminate_quantifiers(structure, p, allow_densify)
                      for p in formula.parts))
    if isinstance(formula, (Exists, Forall)):
        inner = eliminate_quantifiers(structure, formula.inner,
                                      allow_densify)
        if isinstance(formula, Forall):
            # ∀ȳ ψ  ==  ¬∃ȳ ¬ψ
            rewritten = negate(_materialize_exists(
                structure, formula.vars, negate(inner), allow_densify))
        else:
            rewritten = _materialize_exists(structure, formula.vars, inner,
                                            allow_densify)
        return rewritten
    raise TypeError(f"unknown formula {formula!r}")


def _materialize_exists(structure: Structure, bound: Tuple[str, ...],
                        matrix: Formula, allow_densify: bool) -> Formula:
    free = tuple(sorted(matrix.free_vars() - set(bound)))
    model = StructureModel(structure)
    if not free:
        # A sentence: fold to a constant.
        value = eval_formula(exists(bound, matrix), model)
        return Truth(value)
    answers: List[Tuple] = []
    for values in itertools.product(structure.domain, repeat=len(free)):
        env = dict(zip(free, values))
        if eval_formula(exists(bound, matrix), model, env):
            answers.append(values)
    if len(free) >= 2 and not allow_densify:
        gaifman = structure.gaifman()
        for tup in answers:
            distinct = list(dict.fromkeys(tup))
            for i, a in enumerate(distinct):
                for b in distinct[i + 1:]:
                    if not gaifman.has_edge(a, b):
                        raise ValueError(
                            f"materializing {len(free)}-ary subformula "
                            f"would add the non-clique tuple {tup!r} and "
                            f"densify the Gaifman graph; pass "
                            f"allow_densify=True to accept the loss of "
                            f"the sparsity guarantee")
    fresh = f"_qe{next(_FRESH)}"
    for tup in answers:
        structure.add_tuple(fresh, tup)
    structure.relations.setdefault(fresh, set())
    structure._arity.setdefault(fresh, len(free))
    return Atom(fresh, free)


def existential_sentence_value(structure: Structure, bound, matrix: Formula
                               ) -> bool:
    """Model-check an existential sentence ``∃x̄ φ`` (φ quantifier-free)
    through the circuit pipeline: summation in the boolean semiring *is*
    existential quantification (paper §8) — no elimination required."""
    from ..core import compile_structure_query
    if not is_quantifier_free(matrix):
        raise ValueError("matrix must be quantifier-free")
    if isinstance(bound, str):
        bound = (bound,)
    if set(matrix.free_vars()) - set(bound):
        raise ValueError("existential_sentence_value needs a sentence")
    compiled = compile_structure_query(structure,
                                       Sum(tuple(bound), Bracket(matrix)))
    return compiled.evaluate(BOOLEAN)
