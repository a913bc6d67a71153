"""Theorem 26: evaluation of FOG[C] formulas on sparse structures.

The inductive algorithm of the paper's proof: find guarded connectives
``[R(x̄)]_S · c(φ^1, ..., φ^k)`` that are not nested inside another one,
evaluate every argument recursively (each is itself a FOG formula whose
free variables are covered by the guard), then *scan the guard relation* —
linearly many tuples — applying the connective to the precomputed argument
values and storing the result as a fresh S-relation ``r(x̄)``.  The
remaining connective-free formula is a weighted expression, compiled as
its Theorem 8 closed form and read by selector toggles on one maintained
evaluator (:meth:`repro.core.DynamicQuery.point`); B-valued outputs
additionally get the Theorem 24 enumerator.

Runtime: O(n log n) for general semirings, O(n) when all carriers are
rings or finite — queries at tuples are O(log n) / O(1) — matching the
theorem.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional, Sequence, Tuple

from ..core import (DynamicQuery, close_over, compile_structure_query,
                    normalize_arguments)
from ..logic.fo import (Atom, Eq, Formula, Truth, conj, disj, exists,
                        is_quantifier_free, negate)
from ..logic.weighted import (Bracket, WAdd, WConst, WExpr, Weight, WMul,
                              WSum)
from ..semirings import BOOLEAN, Semiring
from ..structures import Structure
from .syntax import (FogExpr, SAdd, SAtom, SConst, SEq, SGuarded, SIverson,
                     SMul, SNot, SSum, STruth)

_FRESH = itertools.count()


def to_formula(expr: FogExpr, structure: Structure) -> Formula:
    """A connective-free B-valued expression as an FO formula."""
    if expr.semiring is not BOOLEAN:
        raise TypeError(f"{expr.semiring.name}-valued expression is not a "
                        f"boolean formula")
    if isinstance(expr, STruth):
        return Truth(expr.value)
    if isinstance(expr, SAtom):
        return Atom(expr.name, expr.terms)
    if isinstance(expr, SEq):
        return Eq(expr.left, expr.right)
    if isinstance(expr, SNot):
        return negate(to_formula(expr.inner, structure))
    if isinstance(expr, SMul):
        return conj(*(to_formula(p, structure) for p in expr.parts))
    if isinstance(expr, SAdd):
        return disj(*(to_formula(p, structure) for p in expr.parts))
    if isinstance(expr, SSum):
        return exists(expr.vars, to_formula(expr.inner, structure))
    if isinstance(expr, SConst):
        return Truth(bool(expr.value))
    raise TypeError(f"cannot convert {expr!r} to a formula (materialize "
                    f"guarded connectives first)")


def to_wexpr(expr: FogExpr, structure: Structure) -> WExpr:
    """A connective-free expression as a weighted Σ(w)-expression."""
    if isinstance(expr, STruth):
        return WConst(expr.value)
    if isinstance(expr, SConst):
        return WConst(expr.value)
    if isinstance(expr, SAtom):
        if expr.semiring is BOOLEAN:
            return Bracket(Atom(expr.name, expr.terms))
        return Weight(expr.name, expr.terms)
    if isinstance(expr, SEq):
        return Bracket(Eq(expr.left, expr.right))
    if isinstance(expr, SNot):
        inner = to_formula(expr.inner, structure)
        if not is_quantifier_free(inner):
            raise ValueError(
                "negation above a quantifier requires quantifier "
                "elimination (see repro.qe); FOG evaluation supports "
                "negation of quantifier-free subformulas natively")
        return Bracket(negate(inner))
    if isinstance(expr, SIverson):
        inner = to_formula(expr.inner, structure)
        return Bracket(inner)
    if isinstance(expr, SAdd):
        return WAdd(tuple(to_wexpr(p, structure) for p in expr.parts))
    if isinstance(expr, SMul):
        return WMul(tuple(to_wexpr(p, structure) for p in expr.parts))
    if isinstance(expr, SSum):
        return WSum(expr.vars, to_wexpr(expr.inner, structure))
    raise TypeError(f"cannot convert {expr!r} (materialize guarded "
                    f"connectives first)")


class FogResult:
    """The Theorem 26 data structure for one (sub)formula."""

    def __init__(self, structure: Structure, expr: FogExpr,
                 free: Tuple[str, ...], dynamic: DynamicQuery):
        self.structure = structure
        self.expr = expr
        self.semiring: Semiring = expr.semiring
        self.free = free
        self.dynamic = dynamic

    def value(self) -> Any:
        """The value of a *closed* formula."""
        if self.free:
            raise ValueError("query(...) must be used: the formula has "
                             f"free variables {self.free}")
        return self.dynamic.value()

    def query(self, *arguments) -> Any:
        """``f(a)`` for ``a`` aligned with the free-variable order (or
        one ``{var: element}`` mapping)."""
        return self.dynamic.point(normalize_arguments(
            arguments, self.free, self.structure))

    def query_env(self, env: Dict[str, Any]) -> Any:
        if not self.free:
            return self.value()
        return self.query({var: env[var] for var in self.free})

    def enumerate(self, dynamic_relations: Sequence[str] = ()):
        """Constant-delay enumerator for B-valued quantifier-free outputs
        (the final clause of Theorem 26)."""
        # Lazy: the facade (repro.api) pulls in the serving stack.
        from ..api import Database
        formula = to_formula(self.expr, self.structure)
        return Database(self.structure).prepare(
            formula, params=self.free,
            dynamic=dynamic_relations).enumerate()


def evaluate_fog(structure: Structure, expr: FogExpr,
                 free_order: Optional[Sequence[str]] = None) -> FogResult:
    """Evaluate a FOG[C] formula: returns a queryable result object."""
    processed = _materialize(structure, expr)
    wexpr = to_wexpr(processed, structure)
    free = tuple(free_order if free_order is not None
                 else sorted(wexpr.free_vars()))
    if set(free) != set(wexpr.free_vars()):
        raise ValueError(f"free_order {free} does not match the "
                         f"expression's free variables")
    plan = compile_structure_query(structure, close_over(wexpr, free))
    return FogResult(structure, processed, free,
                     plan.dynamic(processed.semiring))


def _materialize(structure: Structure, expr: FogExpr) -> FogExpr:
    """Replace every guarded connective by a fresh S-relation computed by
    scanning the guard (the inductive step of the Theorem 26 proof)."""
    if isinstance(expr, SGuarded):
        results = [evaluate_fog(structure, arg) for arg in expr.args]
        fresh = f"_fog{next(_FRESH)}"
        guard_tuples = structure.relations.get(expr.guard_relation, set())
        target = expr.connective.result
        boolean = target is BOOLEAN
        for tup in sorted(guard_tuples, key=repr):
            env = dict(zip(expr.guard_terms, tup))
            values = [result.query_env(env) for result in results]
            outcome = expr.connective(*values)
            if boolean:
                if outcome:
                    structure.add_tuple(fresh, tup)
            else:
                structure.set_weight(fresh, tup, outcome)
        if boolean:
            structure.relations.setdefault(fresh, set())
        else:
            structure.weights.setdefault(fresh, {})
        structure._arity.setdefault(fresh, len(expr.guard_terms))
        return SAtom(fresh, expr.guard_terms, target)
    if isinstance(expr, (SAtom, SEq, SConst, STruth)):
        return expr
    if isinstance(expr, SNot):
        return SNot(_materialize(structure, expr.inner))
    if isinstance(expr, SIverson):
        return SIverson(_materialize(structure, expr.inner), expr.semiring)
    if isinstance(expr, SAdd):
        return SAdd(tuple(_materialize(structure, p) for p in expr.parts))
    if isinstance(expr, SMul):
        return SMul(tuple(_materialize(structure, p) for p in expr.parts))
    if isinstance(expr, SSum):
        return SSum(expr.vars, _materialize(structure, expr.inner))
    raise TypeError(f"unknown FOG expression {expr!r}")


def eval_fog_naive(expr: FogExpr, structure: Structure,
                   env: Optional[Dict[str, Any]] = None) -> Any:
    """Direct recursive semantics — the test oracle for Theorem 26."""
    env = env or {}
    sr = expr.semiring
    if isinstance(expr, STruth):
        return expr.value
    if isinstance(expr, SConst):
        return sr.coerce(expr.value)
    if isinstance(expr, SEq):
        return env[expr.left] == env[expr.right]
    if isinstance(expr, SAtom):
        tup = tuple(env[t] for t in expr.terms)
        if sr is BOOLEAN:
            return structure.has_tuple(expr.name, tup)
        return structure.weight(expr.name, tup, sr.zero)
    if isinstance(expr, SNot):
        return not eval_fog_naive(expr.inner, structure, env)
    if isinstance(expr, SIverson):
        return sr.one if eval_fog_naive(expr.inner, structure, env) \
            else sr.zero
    if isinstance(expr, SAdd):
        return sr.sum(eval_fog_naive(p, structure, env) for p in expr.parts)
    if isinstance(expr, SMul):
        return sr.prod(eval_fog_naive(p, structure, env) for p in expr.parts)
    if isinstance(expr, SSum):
        total = sr.zero
        for values in itertools.product(structure.domain,
                                        repeat=len(expr.vars)):
            inner_env = dict(env)
            inner_env.update(zip(expr.vars, values))
            total = sr.add(total, eval_fog_naive(expr.inner, structure,
                                                 inner_env))
        return total
    if isinstance(expr, SGuarded):
        tup = tuple(env[t] for t in expr.guard_terms)
        if not structure.has_tuple(expr.guard_relation, tup):
            return sr.zero
        values = [eval_fog_naive(arg, structure, env) for arg in expr.args]
        return expr.connective(*values)
    raise TypeError(f"unknown FOG expression {expr!r}")
