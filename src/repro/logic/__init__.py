"""Query languages (system S5): FO formulas and weighted expressions."""

from .fo import (FALSE, TRUE, And, Atom, Eq, Exists, Forall, Formula,
                 FuncAtom, LabelAtom, Not, Or, Truth, assign_atoms, atoms_of,
                 conj, disj, exists, forall, is_quantifier_free, map_atoms,
                 negate, neq, substitute_vars)
from .naive import (ForestModel, StructureModel, eval_expression,
                    eval_formula, model_for)
from .normalize import Block, normalize
from .weighted import (Bracket, Sum, WAdd, WConst, WExpr, Weight, WMul, WSum)

__all__ = [
    "Formula", "Atom", "Eq", "FuncAtom", "LabelAtom", "Truth", "Not", "And",
    "Or", "Exists", "Forall", "TRUE", "FALSE", "conj", "disj", "exists",
    "forall", "neq", "negate", "map_atoms", "substitute_vars", "atoms_of",
    "assign_atoms", "is_quantifier_free",
    "WExpr", "WConst", "Weight", "Bracket", "WAdd", "WMul", "WSum", "Sum",
    "Block", "normalize",
    "eval_formula", "eval_expression", "model_for",
    "StructureModel", "ForestModel",
]
