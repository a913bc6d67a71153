"""The Theorem 6 reduction chain (paper appendix, Figure 2).

``stage_degeneracy`` (Lemma 37): orient the Gaifman graph acyclically with
bounded out-degree; every relation/weight of arity ≥ 2 becomes *unary* data
attached to the clique's source vertex, addressed through the out-neighbor
functions ``f_i``.  Atoms and weight atoms are rewritten over patterns
``(i, t)`` that actually occur in the data (omitted patterns are false /
zero everywhere, so the rewriting stays linear).

``stage_forest`` (Lemma 33): encode a unary structure whose Gaifman graph
has small treedepth into a labeled rooted forest: an elimination forest
covers every edge by an ancestor-descendant pair, so each function arc
becomes one of finitely many unary labels (`fself`, `fup j`, `fdown j`).

``color_decomposition`` (Lemma 35): a low-treedepth coloring splits a sum
block into mutually exclusive sub-blocks, one per subset ``D`` of at most
``p`` colors and surjective color assignment of the variables; each
sub-block is evaluated on the induced substructure, whose elimination
forest is shallow.  The decomposition is exact for *any* coloring.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from ..graphs import Graph, Orientation, elimination_forest
from ..logic.fo import (Atom, Formula, FuncAtom, LabelAtom, conj, disj,
                        map_atoms)
from ..logic.weighted import (Bracket, WAdd, WConst, WExpr, Weight, WMul,
                              WSum)
from ..structures import LabeledForest, Structure
from ..structures.unary import UnaryStructure

FUNC_PREFIX = "f"


def _pattern_of(orientation: Orientation, tup: Tuple) -> Tuple[int, Tuple[int, ...]]:
    """Canonical ``(head position, function-index tuple)`` of a tuple.

    The head is the unique source of the (oriented) clique on the tuple's
    elements; ``t[j]`` is the function index with ``f_{t[j]}(head) = tup[j]``
    (the saturating index ``out_degree + 1`` encodes the head itself).
    """
    head = orientation.source_of_clique(list(set(tup)))
    position = tup.index(head)
    indices = tuple(orientation.function_index(head, element)
                    for element in tup)
    return position, indices


@dataclass
class DegeneracyEncoding:
    """Output of the degeneracy stage + the update-routing registry."""

    structure: Structure
    orientation: Orientation
    unary: UnaryStructure
    #: (original weight name, tuple) -> (stage weight name, node)
    weight_registry: Dict[Tuple[str, Tuple], Tuple[Hashable, Hashable]] = \
        field(default_factory=dict)
    #: dynamic unary predicates exposed as labels
    dynamic_labels: Set[Hashable] = field(default_factory=set)

    def weight_key(self, name: str, tup: Tuple) -> Tuple[Hashable, Hashable]:
        """The circuit input key carrying ``name(tup)``."""
        stage_name, node = self.weight_registry[(name, tuple(tup))]
        return (stage_name, node)


def stage_degeneracy(structure: Structure, expr: WExpr,
                     dynamic_relations: Sequence[str] = ()
                     ) -> Tuple[DegeneracyEncoding, WExpr]:
    """Lemma 37: unary-ize a structure and rewrite the expression over it."""
    gaifman = structure.gaifman()
    orientation = Orientation(gaifman)
    out_degree = orientation.out_degree
    dynamic = set(dynamic_relations)
    for name in dynamic:
        if structure.arity(name) != 1:
            raise ValueError(
                f"dynamic relations must be unary (got {name}/"
                f"{structure.arity(name)}); encode binary dynamics as "
                f"weights over a static clique relation")

    functions: Dict[Hashable, Dict] = {}
    for index in range(1, out_degree + 2):
        functions[(FUNC_PREFIX, index)] = {
            v: orientation.function(index, v) for v in structure.domain}

    labels: Dict[Hashable, Set] = {}
    patterns: Dict[str, Set[Tuple[int, Tuple[int, ...]]]] = {}
    for name, tuples in structure.relations.items():
        arity = structure.arity(name)
        if arity == 1:
            labels[("rel", name)] = {tup[0] for tup in tuples}
            continue
        seen: Set[Tuple[int, Tuple[int, ...]]] = set()
        for tup in tuples:
            position, indices = _pattern_of(orientation, tup)
            seen.add((position, indices))
            labels.setdefault(("pat", name, position, indices),
                              set()).add(tup[position])
        patterns[name] = seen

    weights: Dict[Hashable, Dict] = {}
    registry: Dict[Tuple[str, Tuple], Tuple[Hashable, Hashable]] = {}
    weight_patterns: Dict[str, Set[Tuple[int, Tuple[int, ...]]]] = {}
    for name, mapping in structure.weights.items():
        arity = structure.arity(name)
        if arity == 1:
            bucket = weights.setdefault(name, {})
            for tup, value in mapping.items():
                bucket[tup[0]] = value
                registry[(name, tup)] = (name, tup[0])
            continue
        seen = set()
        for tup, value in mapping.items():
            position, indices = _pattern_of(orientation, tup)
            seen.add((position, indices))
            stage_name = ("patw", name, position, indices)
            weights.setdefault(stage_name, {})[tup[position]] = value
            registry[(name, tup)] = (stage_name, tup[position])
        weight_patterns[name] = seen

    unary = UnaryStructure(structure.domain, labels=labels,
                           functions=functions, weights=weights)
    encoding = DegeneracyEncoding(structure, orientation, unary, registry,
                                  {("rel", name) for name in dynamic})

    def rewrite_atom(atom: Formula) -> Formula:
        if isinstance(atom, Atom):
            arity = len(atom.terms)
            if arity == 1:
                return LabelAtom(("rel", atom.relation), atom.terms[0])
            disjuncts = []
            for position, indices in sorted(patterns.get(atom.relation, ())):
                head = atom.terms[position]
                parts: List[Formula] = [
                    LabelAtom(("pat", atom.relation, position, indices), head)]
                parts += [FuncAtom((FUNC_PREFIX, indices[j]), head,
                                   atom.terms[j])
                          for j in range(arity)]
                disjuncts.append(conj(*parts))
            return disj(*disjuncts)
        return atom

    def rewrite_expr(node: WExpr) -> WExpr:
        if isinstance(node, WConst):
            return node
        if isinstance(node, Bracket):
            return Bracket(map_atoms(node.formula, rewrite_atom))
        if isinstance(node, Weight):
            if len(node.terms) == 1:
                return node
            summands = []
            for position, indices in sorted(
                    weight_patterns.get(node.name, ())):
                head = node.terms[position]
                stage_name = ("patw", node.name, position, indices)
                parts: List[Formula] = [
                    FuncAtom((FUNC_PREFIX, indices[j]), head, node.terms[j])
                    for j in range(len(node.terms))]
                summands.append(WMul((Weight(stage_name, (head,)),
                                      Bracket(conj(*parts)))))
            if not summands:
                return WConst(0)
            return summands[0] if len(summands) == 1 else WAdd(tuple(summands))
        if isinstance(node, WAdd):
            return WAdd(tuple(rewrite_expr(p) for p in node.parts))
        if isinstance(node, WMul):
            return WMul(tuple(rewrite_expr(p) for p in node.parts))
        if isinstance(node, WSum):
            return WSum(node.vars, rewrite_expr(node.inner))
        raise TypeError(f"unknown expression {node!r}")

    return encoding, rewrite_expr(expr)


def stage_forest(unary: UnaryStructure,
                 forest_of: Optional[Graph] = None) -> LabeledForest:
    """Lemma 33: encode a unary structure as a labeled rooted forest."""
    gaifman = forest_of if forest_of is not None else unary.gaifman()
    rooted = elimination_forest(gaifman)
    labels: Dict[Hashable, Set] = {key: set(nodes)
                                   for key, nodes in unary.labels.items()}
    forest = LabeledForest(rooted.parent, labels=labels,
                           weights=unary.weights)
    for func, mapping in unary.functions.items():
        for source, target in mapping.items():
            if target == source:
                forest.set_label(("fself", func), source)
            elif forest.depth[target] < forest.depth[source] and \
                    forest.ancestor(source, forest.depth[target]) == target:
                forest.set_label(("fup", func, forest.depth[target]), source)
            elif forest.depth[source] < forest.depth[target] and \
                    forest.ancestor(target, forest.depth[source]) == source:
                forest.set_label(("fdown", func, forest.depth[source]), target)
            else:  # pragma: no cover - elimination forests cover all arcs
                raise AssertionError(
                    f"function arc {source!r}->{target!r} not covered by "
                    f"the elimination forest")
    return forest


def chain_key(forest: LabeledForest, tup: Tuple
              ) -> Tuple[Tuple[int, ...], Hashable]:
    """``(depths, deepest element)`` of a tuple lying inside ``forest``:
    the absolute depth of every position and the node the tuple is
    stored at.  Asserts the tuple is a chain (it is a clique of the
    Gaifman graph the elimination forest covers)."""
    depth = forest.depth
    depths = tuple(depth[element] for element in tup)
    deepest = max(tup, key=depth.__getitem__)
    for element in tup:
        if forest.ancestor(deepest, depth[element]) != element:
            raise AssertionError(
                f"tuple {tup!r} is not a chain in the elimination "
                f"forest — Gaifman graph inconsistency")
    return depths, deepest


class ColoredFacts:
    """A structure's vertices and tuples bucketed by color, once.

    Lemma 35 evaluates every color subset ``D`` on the substructure
    induced by ``D``'s vertices.  A tuple lies inside that substructure
    exactly when its own color set is a subset of ``D``, so one O(|D|)
    pass that files every relation/weight tuple under its color set lets
    :meth:`forest` read only the buckets of ``D``'s <= 2^p - 1 non-empty
    sub-subsets — every tuple it touches is placed — instead of
    rescanning the whole structure per subset.
    """

    def __init__(self, structure: Structure, color_of: Dict[Hashable, Hashable]):
        self._gaifman = structure.gaifman()
        self._position = {v: i for i, v in enumerate(structure.domain)}
        #: color -> its vertices, in domain order
        self.members: Dict[Hashable, List] = {}
        for vertex in structure.domain:
            self.members.setdefault(color_of[vertex], []).append(vertex)
        #: color set -> [(is_weight, name, tuple, value)]
        self._buckets: Dict[frozenset, List[Tuple]] = {}
        for name, tuples in structure.relations.items():
            for tup in tuples:
                self._buckets.setdefault(
                    frozenset(color_of[e] for e in tup), []
                ).append((False, name, tup, None))
        for name, mapping in structure.weights.items():
            for tup, value in mapping.items():
                self._buckets.setdefault(
                    frozenset(color_of[e] for e in tup), []
                ).append((True, name, tup, value))

    def forest(self, colors: Sequence[Hashable]) -> LabeledForest:
        """The forest encoding (Lemma 33) of the substructure induced by
        the vertices colored in ``colors``.

        Every tuple of a relation or weight is a clique of the Gaifman
        graph, hence a *chain* in the covering elimination forest; we
        store it as one unary fact at the chain's deepest element:

        * unary relation ``R``: label ``("rel", R)``;
        * arity-r relation: label ``("reltup", R, depths)`` where
          ``depths`` lists the absolute depths of the tuple's positions
          (the tuple is recovered as the node's ancestors at those
          depths);
        * weights likewise, under ``name`` (unary) or
          ``("wtup", name, depths)``.

        This generalizes the paper's ``R^i`` ancestor labels to any arity
        and makes every atom's residual under a shape a *single* label
        atom.
        """
        # Domain order: the elimination forest walks Python sets, whose
        # iteration order follows insertion order under hash collisions.
        part = sorted(
            itertools.chain.from_iterable(
                self.members.get(color, ()) for color in colors),
            key=self._position.__getitem__)
        induced = self._gaifman.subgraph(set(part))
        forest = LabeledForest(elimination_forest(induced).parent)
        for size in range(1, len(colors) + 1):
            for subset in itertools.combinations(colors, size):
                for is_weight, name, tup, value in \
                        self._buckets.get(frozenset(subset), ()):
                    if len(tup) == 1:
                        node = tup[0]
                        key = name if is_weight else ("rel", name)
                    else:
                        depths, node = chain_key(forest, tup)
                        key = ("wtup" if is_weight else "reltup", name, depths)
                    if is_weight:
                        forest.set_weight(key, node, value)
                    else:
                        forest.set_label(key, node)
        return forest


def forest_from_structure(structure: Structure,
                          nodes: Optional[Sequence] = None) -> LabeledForest:
    """Direct forest encoding of a (sub)structure — the one-shot spelling
    of :meth:`ColoredFacts.forest`: a two-color partition (inside /
    outside ``nodes``) whose single inside bucket holds every tuple of
    the induced substructure."""
    inside = set(structure.domain if nodes is None else nodes)
    facts = ColoredFacts(structure, {v: v in inside for v in structure.domain})
    return facts.forest((True,))
