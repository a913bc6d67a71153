"""The Theorem 6 data encoding the pipeline runs (paper appendix, Figure 2).

Lemma 35: a low-treedepth coloring splits a sum block into mutually
exclusive sub-blocks, one per subset ``D`` of at most ``p`` colors and
surjective color assignment of the variables; each sub-block is
evaluated on the substructure induced by ``D``, whose elimination forest
is shallow.  The decomposition is exact for *any* coloring.
:class:`ColoredFacts` files every tuple under its color set once, so
each subset reads only the tuples inside it.

Lemma 33, on chains: every relation or weight tuple is a clique of the
Gaifman graph, hence a chain of the covering elimination forest, so
:meth:`ColoredFacts.forest` stores it as one unary fact at the chain's
deepest node.  The paper's unary-isation through the degeneracy
orientation's functions ``f_i`` (Lemma 37) is therefore not needed.
"""

from __future__ import annotations

import itertools
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..graphs import elimination_forest
from ..structures import LabeledForest, Structure


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
