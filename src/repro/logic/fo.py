"""First-order formulas (and the internal atoms of the compilation stages).

Public syntax: relation atoms ``R(x, y)``, equality, boolean connectives,
and quantifiers, built with operators (``&``, ``|``, ``~``) or the helper
constructors.  Terms are variables only.  Forest queries (Case 1 of
Theorem 6, :func:`repro.core.compile_forest_query`) add the parent atoms
:class:`FuncAtom` and the label atoms :class:`LabelAtom`; structure
queries refuse both.

All formula objects are immutable and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Hashable, Tuple


class Formula:
    """Base class; supports ``&``, ``|``, ``~`` composition."""

    def free_vars(self) -> FrozenSet[str]:
        raise NotImplementedError

    def __and__(self, other: "Formula") -> "Formula":
        return And((self, other))

    def __or__(self, other: "Formula") -> "Formula":
        return Or((self, other))

    def __invert__(self) -> "Formula":
        return Not(self)


@dataclass(frozen=True)
class Truth(Formula):
    """The constants ``true`` / ``false``."""

    value: bool

    def free_vars(self) -> FrozenSet[str]:
        return frozenset()

    def __repr__(self) -> str:
        return "true" if self.value else "false"


TRUE = Truth(True)
FALSE = Truth(False)


@dataclass(frozen=True)
class Atom(Formula):
    """A relation atom ``R(x1, ..., xk)`` over variables."""

    relation: str
    terms: Tuple[str, ...]

    def free_vars(self) -> FrozenSet[str]:
        return frozenset(self.terms)

    def __repr__(self) -> str:
        return f"{self.relation}({', '.join(self.terms)})"


@dataclass(frozen=True)
class Eq(Formula):
    """The equality atom ``x = y``."""

    left: str
    right: str

    def free_vars(self) -> FrozenSet[str]:
        return frozenset((self.left, self.right))

    def __repr__(self) -> str:
        return f"{self.left}={self.right}"


@dataclass(frozen=True)
class FuncAtom(Formula):
    """``f(x) = y`` — the parent atoms of forest queries.

    ``func`` is ``"parent"`` or ``("parent", i)`` (``parent^i``), with the
    paper's saturation convention: the parent of a root is the root.
    """

    func: Hashable
    arg: str
    out: str

    def free_vars(self) -> FrozenSet[str]:
        return frozenset((self.arg, self.out))

    def __repr__(self) -> str:
        return f"{self.func}({self.arg})={self.out}"


@dataclass(frozen=True)
class LabelAtom(Formula):
    """``L(x)`` for a unary label of the encoded (forest) structure."""

    label: Hashable
    var: str

    def free_vars(self) -> FrozenSet[str]:
        return frozenset((self.var,))

    def __repr__(self) -> str:
        return f"[{self.label!r}]({self.var})"


@dataclass(frozen=True)
class Not(Formula):
    inner: Formula

    def free_vars(self) -> FrozenSet[str]:
        return self.inner.free_vars()

    def __repr__(self) -> str:
        return f"~{self.inner!r}"


@dataclass(frozen=True)
class And(Formula):
    parts: Tuple[Formula, ...]

    def free_vars(self) -> FrozenSet[str]:
        return frozenset().union(*(p.free_vars() for p in self.parts)) \
            if self.parts else frozenset()

    def __repr__(self) -> str:
        return "(" + " & ".join(map(repr, self.parts)) + ")"


@dataclass(frozen=True)
class Or(Formula):
    parts: Tuple[Formula, ...]

    def free_vars(self) -> FrozenSet[str]:
        return frozenset().union(*(p.free_vars() for p in self.parts)) \
            if self.parts else frozenset()

    def __repr__(self) -> str:
        return "(" + " | ".join(map(repr, self.parts)) + ")"


@dataclass(frozen=True)
class Exists(Formula):
    vars: Tuple[str, ...]
    inner: Formula

    def free_vars(self) -> FrozenSet[str]:
        return self.inner.free_vars() - frozenset(self.vars)

    def __repr__(self) -> str:
        return f"(E {','.join(self.vars)}. {self.inner!r})"


@dataclass(frozen=True)
class Forall(Formula):
    vars: Tuple[str, ...]
    inner: Formula

    def free_vars(self) -> FrozenSet[str]:
        return self.inner.free_vars() - frozenset(self.vars)

    def __repr__(self) -> str:
        return f"(A {','.join(self.vars)}. {self.inner!r})"


# -- convenience constructors ---------------------------------------------------

def conj(*parts: Formula) -> Formula:
    parts = tuple(p for p in parts if p != TRUE)
    if any(p == FALSE for p in parts):
        return FALSE
    if not parts:
        return TRUE
    return parts[0] if len(parts) == 1 else And(parts)


def disj(*parts: Formula) -> Formula:
    parts = tuple(p for p in parts if p != FALSE)
    if any(p == TRUE for p in parts):
        return TRUE
    if not parts:
        return FALSE
    return parts[0] if len(parts) == 1 else Or(parts)


def exists(variables, inner: Formula) -> Formula:
    if isinstance(variables, str):
        variables = (variables,)
    return Exists(tuple(variables), inner)


def forall(variables, inner: Formula) -> Formula:
    if isinstance(variables, str):
        variables = (variables,)
    return Forall(tuple(variables), inner)


def neq(left: str, right: str) -> Formula:
    return Not(Eq(left, right))


# -- structural transformations ---------------------------------------------------

def map_atoms(formula: Formula,
              fn: Callable[[Formula], Formula]) -> Formula:
    """Rebuild ``formula`` with every atom passed through ``fn``.

    Atoms are :class:`Atom`, :class:`Eq`, :class:`FuncAtom`,
    :class:`LabelAtom` and :class:`Truth`.  This is the 'reduction'
    operation of Lemma 27: stages rewrite atoms in place, leaving the
    boolean structure (hence negation) untouched.
    """
    if isinstance(formula, (Atom, Eq, FuncAtom, LabelAtom, Truth)):
        return fn(formula)
    if isinstance(formula, Not):
        return negate(map_atoms(formula.inner, fn))
    if isinstance(formula, And):
        return conj(*(map_atoms(p, fn) for p in formula.parts))
    if isinstance(formula, Or):
        return disj(*(map_atoms(p, fn) for p in formula.parts))
    if isinstance(formula, Exists):
        return exists(formula.vars, map_atoms(formula.inner, fn))
    if isinstance(formula, Forall):
        return forall(formula.vars, map_atoms(formula.inner, fn))
    raise TypeError(f"unknown formula {formula!r}")


def negate(formula: Formula) -> Formula:
    """``~formula`` with constant folding."""
    if isinstance(formula, Truth):
        return Truth(not formula.value)
    if isinstance(formula, Not):
        return formula.inner
    return Not(formula)


def substitute_vars(formula: Formula, mapping: Dict[str, str]) -> Formula:
    """Rename free variables (capture is the caller's responsibility)."""
    def rename(atom: Formula) -> Formula:
        if isinstance(atom, Atom):
            return Atom(atom.relation,
                        tuple(mapping.get(t, t) for t in atom.terms))
        if isinstance(atom, Eq):
            return Eq(mapping.get(atom.left, atom.left),
                      mapping.get(atom.right, atom.right))
        if isinstance(atom, FuncAtom):
            return FuncAtom(atom.func, mapping.get(atom.arg, atom.arg),
                            mapping.get(atom.out, atom.out))
        if isinstance(atom, LabelAtom):
            return LabelAtom(atom.label, mapping.get(atom.var, atom.var))
        return atom

    if isinstance(formula, (Exists, Forall)):
        shadowed = {k: v for k, v in mapping.items() if k not in formula.vars}
        inner = substitute_vars(formula.inner, shadowed)
        ctor = exists if isinstance(formula, Exists) else forall
        return ctor(formula.vars, inner)
    if isinstance(formula, Not):
        return negate(substitute_vars(formula.inner, mapping))
    if isinstance(formula, And):
        return conj(*(substitute_vars(p, mapping) for p in formula.parts))
    if isinstance(formula, Or):
        return disj(*(substitute_vars(p, mapping) for p in formula.parts))
    return rename(formula)


def is_quantifier_free(formula: Formula) -> bool:
    if isinstance(formula, (Exists, Forall)):
        return False
    if isinstance(formula, Not):
        return is_quantifier_free(formula.inner)
    if isinstance(formula, (And, Or)):
        return all(is_quantifier_free(p) for p in formula.parts)
    return True


def atoms_of(formula: Formula) -> list:
    """All atom occurrences (deduplicated, stable order)."""
    found: list = []
    seen = set()

    def walk(f: Formula) -> None:
        if isinstance(f, (Atom, Eq, FuncAtom, LabelAtom)):
            if f not in seen:
                seen.add(f)
                found.append(f)
        elif isinstance(f, Not):
            walk(f.inner)
        elif isinstance(f, (And, Or)):
            for p in f.parts:
                walk(p)
        elif isinstance(f, (Exists, Forall)):
            walk(f.inner)

    walk(formula)
    return found


def assign_atoms(formula: Formula, assignment: Dict[Formula, bool]) -> Formula:
    """Partially evaluate: replace assigned atoms by constants and fold."""
    def fold(atom: Formula) -> Formula:
        if isinstance(atom, Truth):
            return atom
        if atom in assignment:
            return Truth(assignment[atom])
        return atom

    return map_atoms(formula, fold)
