"""Naive evaluators: the test oracles and benchmark baselines (system S13).

Direct recursive evaluation of FO formulas and weighted expressions over a
*model*.  Quantifiers and summations loop over the whole domain, so a block
with p variables costs O(|A|^p) — the baseline the factorized evaluator is
measured against.

A model exposes ``domain``, ``atom(atom, env) -> bool`` and
``weight_value(name, tup) -> value``; adapters are provided for
:class:`~repro.structures.Structure` (relations, weights and equality)
and :class:`~repro.structures.LabeledForest` (labels, parent atoms and
unary weights).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional

from ..structures import LabeledForest, Structure
from .fo import (And, Atom, Eq, Exists, Forall, Formula, FuncAtom, LabelAtom,
                 Not, Or, Truth)
from .weighted import Bracket, WAdd, WConst, WExpr, Weight, WMul, WSum

Env = Dict[str, Any]


class StructureModel:
    """Adapter: public relational structures with tuple weights."""

    def __init__(self, structure: Structure, zero: Any = 0):
        self.structure = structure
        self.domain: List[Any] = list(structure.domain)
        self.zero = zero

    def atom(self, atom: Formula, env: Env) -> bool:
        if isinstance(atom, Atom):
            return self.structure.has_tuple(
                atom.relation, tuple(env[t] for t in atom.terms))
        if isinstance(atom, Eq):
            return env[atom.left] == env[atom.right]
        raise TypeError(f"structure model cannot evaluate {atom!r}")

    def weight_value(self, name: str, tup: tuple) -> Any:
        return self.structure.weight(name, tup, self.zero)


class ForestModel:
    """Adapter: labeled forests (Case 1).  ``FuncAtom(("parent", i), x, y)``
    means ``parent^i(x) = y`` with the paper's saturation at roots."""

    def __init__(self, forest: LabeledForest, zero: Any = 0):
        self.forest = forest
        self.domain: List[Any] = forest.nodes()
        self.zero = zero

    def atom(self, atom: Formula, env: Env) -> bool:
        if isinstance(atom, LabelAtom):
            return self.forest.has_label(atom.label, env[atom.var])
        if isinstance(atom, Eq):
            return env[atom.left] == env[atom.right]
        if isinstance(atom, FuncAtom):
            func = atom.func
            if isinstance(func, tuple) and func and func[0] == "parent":
                steps = func[1] if len(func) > 1 else 1
                return self.forest.ancestor_up(env[atom.arg], steps) == env[atom.out]
            if func == "parent":
                return self.forest.ancestor_up(env[atom.arg], 1) == env[atom.out]
            raise TypeError(f"forest model has no function {func!r}")
        raise TypeError(f"forest model cannot evaluate {atom!r}")

    def weight_value(self, name: str, tup: tuple) -> Any:
        if len(tup) != 1:
            raise TypeError("forests carry unary weights only")
        return self.forest.weight(name, tup[0], self.zero)


def eval_formula(formula: Formula, model, env: Optional[Env] = None) -> bool:
    """Classical FO semantics by recursion (quantifiers loop the domain)."""
    env = env or {}
    if isinstance(formula, Truth):
        return formula.value
    if isinstance(formula, Not):
        return not eval_formula(formula.inner, model, env)
    if isinstance(formula, And):
        return all(eval_formula(p, model, env) for p in formula.parts)
    if isinstance(formula, Or):
        return any(eval_formula(p, model, env) for p in formula.parts)
    if isinstance(formula, (Exists, Forall)):
        combine = any if isinstance(formula, Exists) else all
        names = formula.vars

        def bindings():
            for values in itertools.product(model.domain, repeat=len(names)):
                inner_env = dict(env)
                inner_env.update(zip(names, values))
                yield eval_formula(formula.inner, model, inner_env)

        return combine(bindings())
    return model.atom(formula, env)


def eval_expression(expr: WExpr, model, sr, env: Optional[Env] = None) -> Any:
    """Naive semantics of weighted expressions (paper §3, 'interpretation')."""
    env = env or {}
    if isinstance(expr, WConst):
        return sr.coerce(expr.value)
    if isinstance(expr, Weight):
        tup = tuple(env[t] for t in expr.terms)
        return model.weight_value(expr.name, tup)
    if isinstance(expr, Bracket):
        return sr.one if eval_formula(expr.formula, model, env) else sr.zero
    if isinstance(expr, WAdd):
        return sr.sum(eval_expression(p, model, sr, env) for p in expr.parts)
    if isinstance(expr, WMul):
        return sr.prod(eval_expression(p, model, sr, env) for p in expr.parts)
    if isinstance(expr, WSum):
        total = sr.zero
        for values in itertools.product(model.domain, repeat=len(expr.vars)):
            inner_env = dict(env)
            inner_env.update(zip(expr.vars, values))
            total = sr.add(total, eval_expression(expr.inner, model, sr, inner_env))
        return total
    raise TypeError(f"unknown expression {expr!r}")


def model_for(data, zero: Any = 0):
    """Pick the right adapter for ``data``."""
    if isinstance(data, Structure):
        return StructureModel(data, zero)
    if isinstance(data, LabeledForest):
        return ForestModel(data, zero)
    raise TypeError(f"no model adapter for {type(data).__name__}")
