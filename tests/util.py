"""Shared builders for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.graphs import bounded_depth_forest
from repro.logic import Weight
from repro.semirings import BOOLEAN, INTEGER, MIN_PLUS, NATURAL, ModularRing
from repro.structures import LabeledForest, Structure, graph_structure

#: Semirings used in cross-semiring parametrization, with a converter from
#: small nonnegative ints to carrier values.
SEMIRING_CASES = [
    ("N", NATURAL, lambda v: v),
    ("Z", INTEGER, lambda v: v),
    ("min-plus", MIN_PLUS, lambda v: v),
    ("Z5", ModularRing(5), lambda v: v % 5),
    ("B", BOOLEAN, lambda v: v > 0),
]


def semiring_params():
    return pytest.mark.parametrize(
        "sr,conv", [(sr, conv) for _, sr, conv in SEMIRING_CASES],
        ids=[name for name, _, _ in SEMIRING_CASES])


def random_labeled_forest(n: int, depth: int, seed: int,
                          conv=lambda v: v) -> LabeledForest:
    """A random forest with two labels and two weights (carrier via conv)."""
    _, parent = bounded_depth_forest(n, depth, seed=seed)
    rng = random.Random(seed + 1)
    labels = {"R": {v for v in parent if rng.random() < 0.5},
              "B": {v for v in parent if rng.random() < 0.3}}
    weights = {"w": {v: conv(rng.randint(0, 4)) for v in parent
                     if rng.random() < 0.8},
               "u": {v: conv(rng.randint(1, 3)) for v in parent}}
    return LabeledForest(parent, labels=labels, weights=weights)


def weighted_graph_structure(graph, seed: int = 0, wmax: int = 4,
                             conv=lambda v: v) -> Structure:
    """Directed-edge structure with a binary weight ``w`` on every edge."""
    rng = random.Random(seed)
    structure = graph_structure(graph)
    for edge in sorted(structure.relations["E"]):
        structure.set_weight("w", edge, conv(rng.randint(1, wmax)))
    return structure


def name_clash_structure() -> Structure:
    """A weighted graph on ``x, y, a, b`` — two elements named like a
    query's parameters — with edges ``xa ya yb ab`` (both directions)
    weighted 1..4: ``Σ_y E(x, y) · w(x, y)`` is 1, 5, 7, 7 there."""
    structure = Structure(["x", "y", "a", "b"])
    for weight, (u, v) in enumerate(
            [("x", "a"), ("y", "a"), ("y", "b"), ("a", "b")], 1):
        for edge in ((u, v), (v, u)):
            structure.add_tuple("E", edge)
            structure.set_weight("w", edge, weight)
    return structure


def past_the_group_bound():
    """``(structure, w(x, y))``: an arity-2 query whose enumerated group
    domain is just past :data:`repro.api.table.DEFAULT_MAX_GROUPS` — a
    257-element weighted path gives 257² = 66 049 > 65 536 groups."""
    structure = Structure(list(range(257)))
    for u in range(256):
        structure.add_tuple("E", (u, u + 1))
        structure.set_weight("w", (u, u + 1), u + 1)
    return structure, Weight("w", ("x", "y"))


def compile_verified(structure, expr, **kwargs):
    """Compile ``expr`` over ``structure`` with the IR verifier on.

    The test suite's compile helper: every plan it produces has passed
    :func:`repro.analysis.verify_plan`, so a structural regression in
    the compiler/optimizer fails at the source instead of as a wrong
    answer three assertions later.
    """
    from repro.core import compile_structure_query
    return compile_structure_query(structure, expr, verify=True, **kwargs)




def enumerator_over(structure: Structure, expr, params=None, dynamic=(),
                    **database_options):
    """The enumerator of ``expr`` over ``structure`` as the facade hands
    it out: a view of a handle prepared on a :class:`~repro.api.Database`
    that owns ``structure`` (its writes go through ``db.update()``)."""
    from repro.api import Database
    return Database(structure, **database_options).prepare(
        expr, params=params, dynamic=dynamic).enumerate()
