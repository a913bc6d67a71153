"""Normalization of weighted expressions into sum-of-product blocks.

Lemma 28 / the proof of Lemma 29 assume the expression is a sum of blocks
``Σ_x (product of factors)`` with sum-free products.  In a commutative
semiring every closed expression flattens into this form: bound variables
are α-renamed apart, sums are pulled through products and additions
(distributivity), and products are distributed over inner additions.

A :class:`Block` is the compiler's unit of work: a tuple of summed
variables, weight factors, constant factors, and quantifier-free bracket
formulas.  Bracket formulas are *not* expanded into exclusive DNF here —
that happens per-shape at the forest stage, where most atoms have already
collapsed to constants (:mod:`repro.core.shapes`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from .fo import Formula, is_quantifier_free, substitute_vars
from .weighted import Bracket, WAdd, WConst, WExpr, Weight, WMul, WSum


@dataclass
class Block:
    """``Σ_{vars} (Π weights · Π consts · Π [brackets])``."""

    vars: Tuple[str, ...]
    weight_factors: List[Tuple[str, Tuple[str, ...]]] = field(default_factory=list)
    const_factors: List[Any] = field(default_factory=list)
    brackets: List[Formula] = field(default_factory=list)

    def all_vars_used(self) -> frozenset:
        used = set()
        for _, terms in self.weight_factors:
            used.update(terms)
        for formula in self.brackets:
            used.update(formula.free_vars())
        return frozenset(used)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        factors = ([f"{n}({','.join(t)})" for n, t in self.weight_factors]
                   + [repr(c) for c in self.const_factors]
                   + [f"[{b!r}]" for b in self.brackets])
        return f"Sum{list(self.vars)}. " + " * ".join(factors or ["1"])


class _FreshNames:
    def __init__(self, prefix: str = "_v"):
        self.prefix = prefix
        self.counter = itertools.count()

    def fresh(self) -> str:
        return f"{self.prefix}{next(self.counter)}"


def rename_apart(expr: WExpr, names: _FreshNames,
                 env: Dict[str, str]) -> WExpr:
    """α-rename every bound variable to a globally fresh name."""
    if isinstance(expr, WConst):
        return expr
    if isinstance(expr, Weight):
        return Weight(expr.name, tuple(env.get(t, t) for t in expr.terms))
    if isinstance(expr, Bracket):
        return Bracket(substitute_vars(expr.formula, env))
    if isinstance(expr, WAdd):
        return WAdd(tuple(rename_apart(p, names, env) for p in expr.parts))
    if isinstance(expr, WMul):
        return WMul(tuple(rename_apart(p, names, env) for p in expr.parts))
    if isinstance(expr, WSum):
        fresh = {var: names.fresh() for var in expr.vars}
        inner_env = dict(env)
        inner_env.update(fresh)
        return WSum(tuple(fresh[v] for v in expr.vars),
                    rename_apart(expr.inner, names, inner_env))
    raise TypeError(f"unknown expression {expr!r}")


def normalize(expr: WExpr) -> List[Block]:
    """Flatten a *closed* expression into blocks.

    Raises if the expression has free variables (close free-variable
    queries first — see :func:`repro.core.close_over`) or if a bracket
    contains quantifiers (apply quantifier elimination first — see
    :mod:`repro.qe`).
    """
    free = expr.free_vars()
    if free:
        raise ValueError(f"normalize requires a closed expression; free: "
                         f"{sorted(free)}")
    renamed = rename_apart(expr, _FreshNames(), {})
    blocks = [Block(tuple(vars_), list(factors[0]), list(factors[1]),
                    list(factors[2]))
              for vars_, factors in _flatten(renamed)]
    for block in blocks:
        for formula in block.brackets:
            if not is_quantifier_free(formula):
                raise ValueError(
                    f"bracket {formula!r} contains quantifiers; run "
                    f"quantifier elimination first (repro.qe)")
    return blocks


_Factors = Tuple[List[Tuple[str, Tuple[str, ...]]], List[Any], List[Formula]]


def _flatten(expr: WExpr) -> List[Tuple[Tuple[str, ...], _Factors]]:
    """Return the list of (summed vars, factor lists) products of ``expr``."""
    if isinstance(expr, WConst):
        return [((), ([], [expr.value], []))]
    if isinstance(expr, Weight):
        return [((), ([(expr.name, expr.terms)], [], []))]
    if isinstance(expr, Bracket):
        return [((), ([], [], [expr.formula]))]
    if isinstance(expr, WAdd):
        out = []
        for part in expr.parts:
            out.extend(_flatten(part))
        return out
    if isinstance(expr, WSum):
        return [(expr.vars + vars_, factors)
                for vars_, factors in _flatten(expr.inner)]
    if isinstance(expr, WMul):
        # Distribute the product over each part's sum-of-blocks.  Bound
        # variables are renamed apart, so pulling sums out is sound.
        combos: List[Tuple[Tuple[str, ...], _Factors]] = \
            [((), ([], [], []))]
        for part in expr.parts:
            part_blocks = _flatten(part)
            merged = []
            for vars_a, (w_a, c_a, b_a) in combos:
                for vars_b, (w_b, c_b, b_b) in part_blocks:
                    merged.append((vars_a + vars_b,
                                   (w_a + w_b, c_a + c_b, b_a + b_b)))
            combos = merged
        return combos
    raise TypeError(f"unknown expression {expr!r}")
